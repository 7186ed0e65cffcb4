/**
 * @file
 * Tests for one-call session compiles and the Table 1 capability probe.
 */
#include <gtest/gtest.h>

#include "arch/presets.h"
#include "compiler/capability.h"
#include "compiler/session.h"
#include "graph/models.h"

namespace cimmlc {
namespace {

/** Compiles @p model on isaac-baseline up to @p stop_after. */
StatusOr<CompileArtifacts>
compileOnIsaac(const std::string &model, const std::string &opt,
               CompileStage stop_after = CompileStage::kVerify)
{
    CompileRequest request;
    request.model = model;
    request.arch = "isaac-baseline";
    request.opt = opt;
    request.stop_after = stop_after;
    return CompilerSession(std::move(request)).run();
}

TEST(CompilerTest, CompileProducesAllArtifacts)
{
    auto result = compileOnIsaac("resnet18", "full");
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    const CompileArtifacts &r = result.value();
    EXPECT_GT(r.schedule->total_latency_cycles, 0.0);
    EXPECT_GT(r.code->program.counts().total(), 0);
    EXPECT_FALSE(r.code->executable); // compressed by default
    EXPECT_GT(r.perf->energy.total(), 0.0);
}

TEST(CompilerTest, ScheduleOnlySkipsCodegen)
{
    auto result =
        compileOnIsaac("vgg16", "full", CompileStage::kSchedule);
    ASSERT_TRUE(result.isOk());
    EXPECT_GT(result.value().schedule->total_latency_cycles, 0.0);
    EXPECT_FALSE(result.value().code.has_value());
}

TEST(CompilerTest, OptionsSelectAblationLevel)
{
    auto slow = compileOnIsaac("resnet18", "none", CompileStage::kSchedule);
    auto fast = compileOnIsaac("resnet18", "full", CompileStage::kSchedule);
    ASSERT_TRUE(slow.isOk() && fast.isOk());
    EXPECT_LT(fast.value().schedule->total_latency_cycles,
              slow.value().schedule->total_latency_cycles);
}

TEST(CapabilityTest, PriorWorkRowsMatchTable1)
{
    const auto rows = priorWorkCapabilities();
    ASSERT_EQ(rows.size(), 5u);
    // PUMA: ReRAM only, MVM only.
    EXPECT_FALSE(rows[0].sram);
    EXPECT_TRUE(rows[0].reram);
    EXPECT_FALSE(rows[0].vvm);
    EXPECT_TRUE(rows[0].mvm);
    // OCC supports SRAM and VVM but not DNN-operator granularity.
    EXPECT_TRUE(rows[4].sram);
    EXPECT_TRUE(rows[4].vvm);
    EXPECT_FALSE(rows[4].dnn_operator);
}

TEST(CapabilityTest, ProbeDemonstratesFullGenerality)
{
    auto ours = probeCimMlc();
    ASSERT_TRUE(ours.isOk()) << ours.status().toString();
    EXPECT_TRUE(ours.value().sram);
    EXPECT_TRUE(ours.value().reram);
    EXPECT_TRUE(ours.value().misc);
    EXPECT_TRUE(ours.value().vvm);
    EXPECT_TRUE(ours.value().mvm);
    EXPECT_TRUE(ours.value().dnn_operator);
}

TEST(CapabilityTest, TableRendersAllRows)
{
    auto table = renderCapabilityTable();
    ASSERT_TRUE(table.isOk());
    EXPECT_NE(table.value().find("CIM-MLC (ours)"), std::string::npos);
    EXPECT_NE(table.value().find("PUMA"), std::string::npos);
    EXPECT_NE(table.value().find("Polyhedral"), std::string::npos);
}

} // namespace
} // namespace cimmlc
