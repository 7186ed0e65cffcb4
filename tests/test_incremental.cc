/**
 * @file
 * Incremental recompilation through the stage-level artifact cache:
 * an unchanged request replays every stage after load, mutating exactly
 * one stage input re-runs only the invalidated suffix, and every warm
 * report stays byte-identical to a cache-less compile of the same
 * request (timing and cache-provenance fields aside).
 */
#include <gtest/gtest.h>

#include <regex>
#include <string>
#include <vector>

#include "cache/artifact_cache.h"
#include "compiler/session.h"
#include "kernel_swap_pair.h"

namespace cimmlc {
namespace {

CompileRequest
baseRequest()
{
    CompileRequest request;
    request.model = "lenet5";
    request.arch = "isaac-baseline";
    request.opt = "full";
    request.lint = true;
    request.outputs.schedule_report = true;
    request.outputs.flow_text = true;
    request.outputs.verify = true;
    return request;
}

CompileArtifacts
runWith(CompileRequest request, ArtifactCache *cache)
{
    request.artifact_cache = cache;
    CompilerSession session(std::move(request));
    auto result = session.run();
    EXPECT_TRUE(result.isOk()) << result.status().toString();
    return std::move(result).value();
}

/** The report with timing and cache-provenance noise masked out — the
 * invariant part a warm replay must reproduce byte for byte. */
std::string
normalizedReport(const CompileArtifacts &artifacts)
{
    static const std::regex wall("\"wall_ms\": [0-9.eE+-]+");
    static const std::regex cached("\"cached\": (true|false)");
    return std::regex_replace(
        std::regex_replace(artifacts.toConfig().dump(true), wall,
                           "\"wall_ms\": X"),
        cached, "\"cached\": X");
}

/** Which stages replayed, by name, in pipeline order. */
std::vector<std::string>
replayedStages(const CompileArtifacts &artifacts)
{
    std::vector<std::string> replayed;
    for (const StageTrace &trace : artifacts.stages)
        if (trace.cached)
            replayed.push_back(compileStageName(trace.stage));
    return replayed;
}

TEST(IncrementalCompileTest, IdenticalRequestReplaysEverythingButLoad)
{
    ArtifactCache cache;
    const CompileArtifacts cold = runWith(baseRequest(), &cache);
    EXPECT_EQ(CompilerSession::cachedStageCount(cold), 0u);

    const CompileArtifacts warm = runWith(baseRequest(), &cache);
    // load always executes — it derives the base digest every stage
    // key chains from; everything downstream replays.
    EXPECT_EQ(CompilerSession::cachedStageCount(warm),
              warm.stages.size() - 1);
    EXPECT_EQ(replayedStages(warm),
              (std::vector<std::string>{"validate", "schedule",
                                        "codegen", "lint", "perf",
                                        "verify"}));
    EXPECT_EQ(normalizedReport(warm), normalizedReport(cold));
}

TEST(IncrementalCompileTest, ArchChangeInvalidatesEveryStage)
{
    ArtifactCache cache;
    runWith(baseRequest(), &cache);

    CompileRequest changed = baseRequest();
    changed.arch = "puma";
    const CompileArtifacts warm = runWith(changed, &cache);
    EXPECT_EQ(CompilerSession::cachedStageCount(warm), 0u);

    // And the result is exactly what a cache-less compile produces.
    const CompileArtifacts reference = runWith(changed, nullptr);
    EXPECT_EQ(normalizedReport(warm), normalizedReport(reference));
}

TEST(IncrementalCompileTest, KernelSwappedTwinReplaysNothing)
{
    // Same name, node count, weights, MACs and output shape as A; only
    // the conv kernels are swapped. B must compile as if the cache were
    // cold.
    const auto on_puma = [](const char *model_text) {
        CompileRequest request;
        request.model_text = model_text;
        request.arch = "puma";
        return request;
    };
    ArtifactCache cache;
    runWith(on_puma(testing_pairs::kKernelSwapA), &cache);
    const CompileArtifacts warm =
        runWith(on_puma(testing_pairs::kKernelSwapB), &cache);
    EXPECT_EQ(CompilerSession::cachedStageCount(warm), 0u);
    const CompileArtifacts cold =
        runWith(on_puma(testing_pairs::kKernelSwapB), nullptr);
    EXPECT_EQ(normalizedReport(warm), normalizedReport(cold));
}

TEST(IncrementalCompileTest, ScheduleOptionChangeReRunsOnlyTheSuffix)
{
    ArtifactCache cache;
    runWith(baseRequest(), &cache);

    CompileRequest changed = baseRequest();
    changed.opt = "cg+mvm";
    const CompileArtifacts warm = runWith(changed, &cache);
    // The schedule options feed every stage from schedule on; only
    // validate (keyed on the workload/arch digest alone) replays.
    EXPECT_EQ(replayedStages(warm),
              (std::vector<std::string>{"validate"}));

    const CompileArtifacts reference = runWith(changed, nullptr);
    EXPECT_EQ(normalizedReport(warm), normalizedReport(reference));
}

TEST(IncrementalCompileTest, CodegenOptionChangeKeepsSchedulePrefix)
{
    ArtifactCache cache;
    runWith(baseRequest(), &cache);

    CompileRequest changed = baseRequest();
    changed.codegen.max_ops = changed.codegen.max_ops - 1;
    const CompileArtifacts warm = runWith(changed, &cache);
    // Validate and schedule are upstream of the codegen parameters;
    // codegen, lint, perf, and verify all consume the emitted flow.
    EXPECT_EQ(replayedStages(warm),
              (std::vector<std::string>{"validate", "schedule"}));

    const CompileArtifacts reference = runWith(changed, nullptr);
    EXPECT_EQ(normalizedReport(warm), normalizedReport(reference));
}

TEST(IncrementalCompileTest, EnablingLintOnlyComputesTheLintStage)
{
    CompileRequest unlinted = baseRequest();
    unlinted.lint = false;

    ArtifactCache cache;
    runWith(unlinted, &cache);

    const CompileArtifacts warm = runWith(baseRequest(), &cache);
    // The lint stage is new work; every other stage's inputs are
    // untouched by the flag and replay from the unlinted run.
    std::size_t lint_recomputes = 0;
    for (const StageTrace &trace : warm.stages) {
        if (trace.stage == CompileStage::kLoad)
            continue;
        if (trace.stage == CompileStage::kLint) {
            EXPECT_FALSE(trace.cached);
            ++lint_recomputes;
        } else {
            EXPECT_TRUE(trace.cached)
                << compileStageName(trace.stage) << " should replay";
        }
    }
    EXPECT_EQ(lint_recomputes, 1u);
}

TEST(IncrementalCompileTest, VerifySeedChangeReRunsOnlyVerify)
{
    ArtifactCache cache;
    runWith(baseRequest(), &cache);

    CompileRequest changed = baseRequest();
    changed.verify_seed = 99;
    const CompileArtifacts warm = runWith(changed, &cache);
    EXPECT_EQ(replayedStages(warm),
              (std::vector<std::string>{"validate", "schedule",
                                        "codegen", "lint", "perf"}));
    ASSERT_FALSE(warm.stages.empty());
    EXPECT_EQ(warm.stages.back().stage, CompileStage::kVerify);
    EXPECT_FALSE(warm.stages.back().cached);
}

TEST(IncrementalCompileTest, ReplayedStagesReportReplayWallTime)
{
    ArtifactCache cache;
    runWith(baseRequest(), &cache);
    const CompileArtifacts warm = runWith(baseRequest(), &cache);
    for (const StageTrace &trace : warm.stages) {
        if (!trace.cached)
            continue;
        // Replays report their own (tiny) wall time, never the
        // original compute time — the stale-latency bug this cache
        // design fixes. A replayed stage cannot take seconds.
        EXPECT_GE(trace.wall_ms, 0.0);
        EXPECT_LT(trace.wall_ms, 10000.0);
    }
    // And the report serializer tags them.
    const std::string report = warm.toConfig().dump(true);
    EXPECT_NE(report.find("\"cached\": true"), std::string::npos);
}

TEST(IncrementalCompileTest, LintStrictVerdictReappliesOnReplay)
{
    // lint_strict is excluded from the lint stage key: the findings
    // are identical either way, only the verdict differs. A strict
    // session replaying a lax session's lint artifacts must still
    // fail when the findings carry errors — and lenet5's clean flow
    // must still pass.
    ArtifactCache cache;
    const CompileArtifacts lax = runWith(baseRequest(), &cache);
    ASSERT_TRUE(lax.lint.has_value());

    CompileRequest strict = baseRequest();
    strict.lint_strict = true;
    strict.artifact_cache = &cache;
    CompilerSession session(std::move(strict));
    auto result = session.run();
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_GT(CompilerSession::cachedStageCount(result.value()), 0u);
}

} // namespace
} // namespace cimmlc
