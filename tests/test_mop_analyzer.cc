/**
 * @file
 * Tests for "mopcheck", the meta-operator dataflow analyzer: per-check
 * fault triggers (use-before-def, races, capacity, dead stores, unused
 * programming), live-range capacity semantics, shuffle invariance of
 * parallel-block findings, repeat-body deduplication, the collect-all
 * structural mode, fault injection into compiled flows, the merge rule
 * for equal-text arm accesses, a clean-on-all-presets golden over fast
 * model/arch pairs, and digests that pin the rendered lint text.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "arch/presets.h"
#include "cache/artifact_cache.h"
#include "common/rng.h"
#include "compiler/session.h"
#include "graph/models.h"
#include "mop/analyzer.h"
#include "mop/validator.h"
#include "sched/codegen.h"
#include "sched/multi_level.h"

namespace cimmlc {
namespace {

// ----- op builders --------------------------------------------------------

MetaOp
movOp(const BufAddr &src, const BufAddr &dst, std::int64_t len)
{
    MetaOp op;
    op.kind = MetaOpKind::kMov;
    op.src = src;
    op.dst = dst;
    op.len = len;
    return op;
}

MetaOp
zeroOp(const BufAddr &dst, std::int64_t len)
{
    MetaOp op;
    op.kind = MetaOpKind::kDcom;
    op.func = dcomfunc::kZero;
    op.dst = dst;
    op.len = len;
    return op;
}

MetaOp
reluOp(const BufAddr &src, const BufAddr &dst, std::int64_t len)
{
    MetaOp op;
    op.kind = MetaOpKind::kDcom;
    op.func = dcomfunc::kRelu;
    op.src = src;
    op.dst = dst;
    op.len = len;
    return op;
}

MetaOp
writeXbOp(std::int64_t core, std::int64_t xb, std::int64_t rows)
{
    MetaOp op;
    op.kind = MetaOpKind::kWriteXb;
    op.core = core;
    op.xb = xb;
    op.len = rows; // no payload: programmed rows fall back to len
    op.rows = rows;
    op.cols = 32;
    return op;
}

MetaOp
readXbOp(std::int64_t core, std::int64_t xb, std::int64_t rows,
         std::int64_t cols, const BufAddr &src, const BufAddr &dst)
{
    MetaOp op;
    op.kind = MetaOpKind::kReadXb;
    op.core = core;
    op.xb = xb;
    op.len = 1;
    op.rows = rows;
    op.cols = cols;
    op.src = src;
    op.dst = dst;
    return op;
}

LiveInRegion
liveIn(MemSpace space, std::int64_t core, std::int64_t begin,
       std::int64_t end)
{
    LiveInRegion region;
    region.space = space;
    region.core = core;
    region.begin = begin;
    region.end = end;
    return region;
}

/** Dataflow-only options: the structural validator is exercised in its
 * own tests, and keeping it out isolates what each analyzer check
 * contributes. */
AnalyzeOptions
dataflowOnly()
{
    AnalyzeOptions options;
    options.structural = false;
    return options;
}

bool
hasCheck(const AnalyzeResult &result, const std::string &check)
{
    return std::any_of(result.diagnostics.begin(),
                       result.diagnostics.end(),
                       [&](const MopDiagnostic &diag) {
                           return diag.check == check;
                       });
}

/** Digest of the rendered lint text: the summary line plus the
 * findings table. Pinned digests hold the analyzer's output byte for
 * byte, not just which checks fire. */
std::string
lintTextDigest(const AnalyzeResult &result)
{
    return ArtifactHash().mix(result.summary()).mix(result.table()).digest();
}

// ----- clean flows --------------------------------------------------------

TEST(MopAnalyzerTest, CleanFlowReportsStatsOnly)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    MopProgram program("p", "XBM");
    program.emitInit(writeXbOp(0, 0, 27));
    program.emit(movOp({MemSpace::kL0, 0, 0}, {MemSpace::kL1, 0, 0}, 27));
    program.emit(zeroOp({MemSpace::kL0, 0, 64}, 32));
    program.emit(readXbOp(0, 0, 27, 32, {MemSpace::kL1, 0, 0},
                          {MemSpace::kL0, 0, 64}));
    program.emit(reluOp({MemSpace::kL0, 0, 64}, {MemSpace::kL0, 0, 64},
                        32));

    AnalyzeOptions options = dataflowOnly();
    options.live_in.push_back(liveIn(MemSpace::kL0, 0, 0, 27));
    const AnalyzeResult result = analyzeProgram(program, arch, options);
    EXPECT_TRUE(result.clean()) << result.table();
    EXPECT_EQ(result.statements, 5);
    EXPECT_EQ(result.ops, 5);
    EXPECT_EQ(result.crossbars_programmed, 1);
    EXPECT_EQ(result.l1_peak_live_elems, 27);
    EXPECT_NE(result.summary().find("mopcheck: clean"),
              std::string::npos);
}

// ----- use-before-def -----------------------------------------------------

TEST(MopAnalyzerTest, UseBeforeDefBuffer)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    MopProgram program("p", "XBM");
    program.emit(movOp({MemSpace::kL0, 0, 0}, {MemSpace::kL1, 0, 0}, 27));

    const AnalyzeResult result =
        analyzeProgram(program, arch, dataflowOnly());
    ASSERT_EQ(result.errors(), 1);
    EXPECT_EQ(result.diagnostics[0].check, "use-before-def-buffer");
    EXPECT_EQ(result.diagnostics[0].code,
              StatusCode::kFailedPrecondition);
    EXPECT_NE(result.diagnostics[0].message.find("never written"),
              std::string::npos);
    EXPECT_EQ(lintTextDigest(result), "87f42f3c06965bbf1a023505f9bb8424");

    // The same read is fine once the region is declared live-in.
    AnalyzeOptions covered = dataflowOnly();
    covered.live_in.push_back(liveIn(MemSpace::kL0, 0, 0, 27));
    EXPECT_TRUE(analyzeProgram(program, arch, covered).clean());
}

TEST(MopAnalyzerTest, UseBeforeDefXbarAlsoFiresOnCompressedFlows)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    MopProgram program("p", "XBM");
    program.emit(readXbOp(0, 0, 27, 32, {MemSpace::kL1, 0, 0},
                          {MemSpace::kL0, 0, 64}));

    AnalyzeOptions options = dataflowOnly();
    options.live_in.push_back(liveIn(MemSpace::kL1, 0, 0, 27));
    const AnalyzeResult result = analyzeProgram(program, arch, options);
    EXPECT_TRUE(hasCheck(result, "use-before-def-xbar"))
        << result.table();
    EXPECT_EQ(lintTextDigest(result), "f2d3ca983d2561e073ca3b875340fa47");

    // Crossbar state is per-instance, so the check stays sound on
    // compressed (non-executable) flows.
    options.executable = false;
    EXPECT_TRUE(hasCheck(analyzeProgram(program, arch, options),
                         "use-before-def-xbar"));
}

TEST(MopAnalyzerTest, UseBeforeDefCore)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kWLM);
    MopProgram program("p", "WLM");
    MetaOp conv;
    conv.kind = MetaOpKind::kReadCore;
    conv.core = 0;
    conv.core_params.is_conv = true;
    conv.core_params.in_channels = 1;
    conv.core_params.in_h = 4;
    conv.core_params.in_w = 4;
    conv.core_params.out_channels = 2;
    conv.core_params.kernel = 3;
    conv.core_params.stride = 1;
    conv.core_params.padding = 1;
    conv.src = {MemSpace::kL0, 0, 0};
    conv.dst = {MemSpace::kL0, 0, 64};
    program.emit(conv);

    AnalyzeOptions options = dataflowOnly();
    options.live_in.push_back(liveIn(MemSpace::kL0, 0, 0, 16));
    const AnalyzeResult result = analyzeProgram(program, arch, options);
    EXPECT_TRUE(hasCheck(result, "use-before-def-core"))
        << result.table();
    EXPECT_EQ(lintTextDigest(result), "a52352b5a0c50dae235254ec6098034a");
}

// ----- races in parallel blocks -------------------------------------------

TEST(MopAnalyzerTest, RaceWriteWriteAndShuffleInvariance)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    MopProgram program("p", "XBM");
    program.compute().push_back(Stmt::makeParallel(
        {Stmt::makeOp(zeroOp({MemSpace::kL0, 0, 0}, 16)),
         Stmt::makeOp(zeroOp({MemSpace::kL0, 0, 8}, 16))}));

    const AnalyzeResult result =
        analyzeProgram(program, arch, dataflowOnly());
    ASSERT_TRUE(hasCheck(result, "race-write-write")) << result.table();
    EXPECT_EQ(lintTextDigest(result), "c0de58caa3b7851415e645ae8525067e");

    // Permuting the arms must reproduce the identical report.
    MopProgram shuffled("p", "XBM");
    shuffled.compute().push_back(Stmt::makeParallel(
        {Stmt::makeOp(zeroOp({MemSpace::kL0, 0, 8}, 16)),
         Stmt::makeOp(zeroOp({MemSpace::kL0, 0, 0}, 16))}));
    const AnalyzeResult again =
        analyzeProgram(shuffled, arch, dataflowOnly());
    ASSERT_EQ(result.diagnostics.size(), again.diagnostics.size());
    for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
        EXPECT_EQ(result.diagnostics[i].check, again.diagnostics[i].check);
        EXPECT_EQ(result.diagnostics[i].message,
                  again.diagnostics[i].message);
        EXPECT_EQ(result.diagnostics[i].stmt_index,
                  again.diagnostics[i].stmt_index);
    }
}

TEST(MopAnalyzerTest, RaceReadWrite)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    MopProgram program("p", "XBM");
    program.compute().push_back(Stmt::makeParallel(
        {Stmt::makeOp(zeroOp({MemSpace::kL0, 0, 0}, 16)),
         Stmt::makeOp(reluOp({MemSpace::kL0, 0, 8},
                             {MemSpace::kL0, 0, 100}, 16))}));

    AnalyzeOptions options = dataflowOnly();
    options.live_in.push_back(liveIn(MemSpace::kL0, 0, 0, 32));
    const AnalyzeResult result = analyzeProgram(program, arch, options);
    EXPECT_TRUE(hasCheck(result, "race-read-write")) << result.table();
    EXPECT_EQ(lintTextDigest(result), "1b4fe9b9f596a3c0951f4f3e0ad6d207");
}

TEST(MopAnalyzerTest, OverlappingAccumulatesAreLegal)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    MopProgram program("p", "XBM");
    program.emitInit(writeXbOp(0, 0, 27));
    program.emitInit(writeXbOp(0, 1, 27));
    program.emit(zeroOp({MemSpace::kL0, 0, 64}, 32));
    // CIM reads accumulate commutatively, so two arms adding into the
    // same destination region do not race.
    program.compute().push_back(Stmt::makeParallel(
        {Stmt::makeOp(readXbOp(0, 0, 27, 32, {MemSpace::kL1, 0, 0},
                               {MemSpace::kL0, 0, 64})),
         Stmt::makeOp(readXbOp(0, 1, 27, 32, {MemSpace::kL1, 0, 0},
                               {MemSpace::kL0, 0, 64}))}));
    program.emit(reluOp({MemSpace::kL0, 0, 64}, {MemSpace::kL0, 0, 64},
                        32));

    AnalyzeOptions options = dataflowOnly();
    options.live_in.push_back(liveIn(MemSpace::kL1, 0, 0, 27));
    const AnalyzeResult result = analyzeProgram(program, arch, options);
    EXPECT_TRUE(result.clean()) << result.table();
}

/** The race message of a block whose first arm runs @p first then
 * @p second, racing a second arm that zeroes @p zeroed elements at
 * L0[@p zero_at]. */
std::string
raceMessage(const MetaOp &first, const MetaOp &second,
            std::int64_t zero_at, std::int64_t zeroed)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    MopProgram program("p", "XBM");
    program.compute().push_back(Stmt::makeParallel(
        {Stmt::makeRepeat(1, {Stmt::makeOp(first), Stmt::makeOp(second)}),
         Stmt::makeOp(zeroOp({MemSpace::kL0, 0, zero_at}, zeroed))}));
    AnalyzeOptions options = dataflowOnly();
    options.live_in.push_back(liveIn(MemSpace::kL0, 0, 0, 100));
    const AnalyzeResult result = analyzeProgram(program, arch, options);
    for (const MopDiagnostic &diag : result.diagnostics) {
        if (diag.check == "race-write-write")
            return diag.message;
    }
    return "no race in:\n" + result.table();
}

// Consecutive accesses of one buffer within an arm merge exactly when
// their ops print the same text, so the smallest race message is the
// same whether or not the ops are one statement.
TEST(MopAnalyzerTest, ArmAccessesMergeOnEqualOpText)
{
    // Two matmuls that print alike (the dims are not printed) merge
    // into one record covering both outputs: the overlap is reported
    // whole, not as the smaller first output.
    MetaOp small;
    small.kind = MetaOpKind::kDcom;
    small.func = dcomfunc::kMatMul;
    small.src = {MemSpace::kL0, 0, 0};
    small.src2 = {MemSpace::kL0, 0, 50};
    small.dst = {MemSpace::kL0, 0, 100};
    small.dcom_params.in_h = 1;
    small.dcom_params.in_w = 4;
    small.dcom_params.channels = 5;
    MetaOp large = small;
    large.dcom_params.in_h = 2;
    EXPECT_EQ(raceMessage(small, large, 100, 10),
              "parallel arms overlapping writes on L0[100, 110): "
              "matmul(src1=L0[0], src2=L0[50], dst=L0[100], len=1) vs "
              "zero(src=L0[0], dst=L0[100], len=10)");

    // Two movs into one region that differ in their source stay apart,
    // so the lexicographically smaller text is reported, not the first.
    const MetaOp later = movOp({MemSpace::kL0, 0, 10},
                               {MemSpace::kL0, 0, 200}, 4);
    const MetaOp earlier = movOp({MemSpace::kL0, 0, 0},
                                 {MemSpace::kL0, 0, 200}, 4);
    EXPECT_EQ(raceMessage(later, earlier, 200, 4),
              "parallel arms overlapping writes on L0[200, 204): "
              "mov(src=L0[0], dst=L0[200], len=4) vs "
              "zero(src=L0[0], dst=L0[200], len=4)");
}

TEST(MopAnalyzerTest, RaceXbarOnConflictingProgramming)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    MopProgram program("p", "XBM");
    program.compute().push_back(Stmt::makeParallel(
        {Stmt::makeOp(writeXbOp(0, 0, 27)),
         Stmt::makeOp(writeXbOp(0, 0, 27))}));

    const AnalyzeResult result =
        analyzeProgram(program, arch, dataflowOnly());
    EXPECT_TRUE(hasCheck(result, "race-xbar")) << result.table();
    EXPECT_EQ(lintTextDigest(result), "1a1c702dd1e16e8ee719e925d3d299b5");
}

TEST(MopAnalyzerTest, RaceCoreOnInstallVsUse)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kCM);
    MetaOp install;
    install.kind = MetaOpKind::kWriteCore;
    install.core = 0;
    MetaOp use;
    use.kind = MetaOpKind::kReadCore;
    use.core = 0;
    use.core_params.is_conv = false;
    use.core_params.in_features = 8;
    use.core_params.out_features = 4;
    use.src = {MemSpace::kL0, 0, 0};
    use.dst = {MemSpace::kL0, 0, 32};

    MopProgram program("p", "CM");
    program.compute().push_back(Stmt::makeParallel(
        {Stmt::makeOp(install), Stmt::makeOp(use)}));

    AnalyzeOptions options = dataflowOnly();
    options.live_in.push_back(liveIn(MemSpace::kL0, 0, 0, 8));
    const AnalyzeResult result = analyzeProgram(program, arch, options);
    EXPECT_TRUE(hasCheck(result, "race-core")) << result.table();
    EXPECT_EQ(lintTextDigest(result), "d3cbd5c349f8bc06d3338f67be39d64a");
}

// ----- dead stores and unused programming ---------------------------------

TEST(MopAnalyzerTest, DeadStoreWarnsOnlyWithoutInterveningRead)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    MopProgram dead("p", "XBM");
    dead.emit(zeroOp({MemSpace::kL0, 0, 0}, 16));
    dead.emit(zeroOp({MemSpace::kL0, 0, 0}, 16));
    dead.emit(reluOp({MemSpace::kL0, 0, 0}, {MemSpace::kL0, 0, 64}, 16));

    const AnalyzeResult result =
        analyzeProgram(dead, arch, dataflowOnly());
    EXPECT_EQ(result.errors(), 0) << result.table();
    ASSERT_EQ(result.warnings(), 1);
    EXPECT_EQ(result.diagnostics[0].check, "dead-store");
    EXPECT_EQ(result.diagnostics[0].severity, DiagSeverity::kWarning);
    EXPECT_FALSE(result.clean());
    EXPECT_EQ(lintTextDigest(result), "0f434dabdb6004a7c802af9432cde9b0");

    // A read between the two stores acquits the first one.
    MopProgram read("p", "XBM");
    read.emit(zeroOp({MemSpace::kL0, 0, 0}, 16));
    read.emit(reluOp({MemSpace::kL0, 0, 0}, {MemSpace::kL0, 0, 64}, 16));
    read.emit(zeroOp({MemSpace::kL0, 0, 0}, 16));
    EXPECT_EQ(analyzeProgram(read, arch, dataflowOnly()).warnings(), 0);
}

TEST(MopAnalyzerTest, UnusedAndOverwrittenXbarProgramming)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    MopProgram unused("p", "XBM");
    unused.emitInit(writeXbOp(0, 0, 27));

    const AnalyzeResult warned =
        analyzeProgram(unused, arch, dataflowOnly());
    EXPECT_TRUE(hasCheck(warned, "xbar-unused-write")) << warned.table();
    EXPECT_EQ(warned.errors(), 0);
    EXPECT_EQ(lintTextDigest(warned), "5d5204fdb44e6300ee0fe9222c3c0a5e");

    // Reprogramming rows whose weights were never activated loses them.
    MopProgram clobbered("p", "XBM");
    clobbered.emitInit(writeXbOp(0, 0, 27));
    clobbered.emitInit(writeXbOp(0, 0, 27));
    const AnalyzeResult overwrote =
        analyzeProgram(clobbered, arch, dataflowOnly());
    EXPECT_TRUE(hasCheck(overwrote, "xbar-overwrite"))
        << overwrote.table();
    EXPECT_EQ(lintTextDigest(overwrote), "b94505576224aa86f066796ac5f4b0cb");

    // Compressed flows only activate the representative replica's
    // crossbars, so neither conclusion is provable there.
    AnalyzeOptions compressed = dataflowOnly();
    compressed.executable = false;
    EXPECT_TRUE(analyzeProgram(unused, arch, compressed).clean());
    EXPECT_FALSE(hasCheck(analyzeProgram(clobbered, arch, compressed),
                          "xbar-overwrite"));
}

// ----- capacity -----------------------------------------------------------

TEST(MopAnalyzerTest, CapacityL1OverflowOnSimultaneousLiveRanges)
{
    CimArchitecture arch = presets::tutorialTable2(ComputeMode::kXBM);
    arch.core.l1_size_kib = 1.0; // 256 elements
    MopProgram program("p", "XBM");
    program.emit(zeroOp({MemSpace::kL1, 0, 0}, 200));
    program.emit(zeroOp({MemSpace::kL1, 0, 200}, 200));

    const AnalyzeResult result =
        analyzeProgram(program, arch, dataflowOnly());
    EXPECT_EQ(result.l1_peak_live_elems, 400);
    ASSERT_TRUE(hasCheck(result, "capacity-l1")) << result.table();
    const auto it = std::find_if(result.diagnostics.begin(),
                                 result.diagnostics.end(),
                                 [](const MopDiagnostic &d) {
                                     return d.check == "capacity-l1";
                                 });
    EXPECT_EQ(it->code, StatusCode::kResourceExhausted);
    EXPECT_EQ(lintTextDigest(result), "572d178e898619a0488fc62bd1334a48");
}

TEST(MopAnalyzerTest, CapacityLiveRangesEndAtLastUse)
{
    CimArchitecture arch = presets::tutorialTable2(ComputeMode::kXBM);
    arch.core.l1_size_kib = 1.0; // 256 elements
    // The first buffer dies (redefined) before the second is born, so
    // the peak is 200 elements, not 400.
    MopProgram program("p", "XBM");
    program.emit(zeroOp({MemSpace::kL1, 0, 0}, 200));
    program.emit(movOp({MemSpace::kL1, 0, 0}, {MemSpace::kL0, 0, 0},
                       200));
    program.emit(zeroOp({MemSpace::kL1, 0, 0}, 200));

    const AnalyzeResult result =
        analyzeProgram(program, arch, dataflowOnly());
    EXPECT_TRUE(result.clean()) << result.table();
    EXPECT_EQ(result.l1_peak_live_elems, 200);
}

TEST(MopAnalyzerTest, CapacityL0FollowsEnforcementKnob)
{
    CimArchitecture arch = presets::tutorialTable2(ComputeMode::kXBM);
    arch.chip.l0_size_kib = 1.0; // 256 elements
    MopProgram program("p", "XBM");
    program.emit(zeroOp({MemSpace::kL0, 0, 0}, 400));

    AnalyzeOptions options = dataflowOnly();
    const AnalyzeResult enforced = analyzeProgram(program, arch, options);
    EXPECT_TRUE(hasCheck(enforced, "capacity-l0"));
    EXPECT_EQ(lintTextDigest(enforced), "010b7083ed2f42432a82231fad8b7b93");

    // Emitted flows address a virtual L0 space: the finding is gated,
    // the statistic is not.
    options.validate.enforce_l0_capacity = false;
    const AnalyzeResult relaxed = analyzeProgram(program, arch, options);
    EXPECT_FALSE(hasCheck(relaxed, "capacity-l0")) << relaxed.table();
    EXPECT_EQ(relaxed.l0_peak_live_elems, 400);
}

// ----- repeat blocks ------------------------------------------------------

TEST(MopAnalyzerTest, RepeatFindingsDeduplicate)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    MopProgram program("p", "XBM");
    program.compute().push_back(Stmt::makeRepeat(
        3, {Stmt::makeOp(reluOp({MemSpace::kL0, 0, 0},
                                {MemSpace::kL0, 0, 64}, 16))}));

    const AnalyzeResult result =
        analyzeProgram(program, arch, dataflowOnly());
    EXPECT_EQ(result.errors(), 1) << result.table();
    EXPECT_EQ(result.diagnostics[0].check, "use-before-def-buffer");
    EXPECT_EQ(lintTextDigest(result), "c5ec955446a7a2de6992ae407e268cd6");
}

TEST(MopAnalyzerTest, RepeatLoopCarriedDefUseIsClean)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    // Each iteration reads the previous iteration's store before
    // replacing it, so no iteration kills an unread value.
    MopProgram program("p", "XBM");
    program.emit(zeroOp({MemSpace::kL0, 0, 0}, 16));
    program.compute().push_back(Stmt::makeRepeat(
        4, {Stmt::makeOp(reluOp({MemSpace::kL0, 0, 0},
                                {MemSpace::kL0, 0, 0}, 16))}));
    const AnalyzeResult result =
        analyzeProgram(program, arch, dataflowOnly());
    EXPECT_TRUE(result.clean()) << result.table();

    // Whereas a body whose output is clobbered by the next iteration
    // without a read is a loop-carried dead store.
    MopProgram clobber("p", "XBM");
    clobber.compute().push_back(Stmt::makeRepeat(
        4, {Stmt::makeOp(zeroOp({MemSpace::kL0, 0, 0}, 16)),
            Stmt::makeOp(reluOp({MemSpace::kL0, 0, 0},
                                {MemSpace::kL0, 0, 64}, 16))}));
    const AnalyzeResult clobbered =
        analyzeProgram(clobber, arch, dataflowOnly());
    EXPECT_TRUE(hasCheck(clobbered, "dead-store"));
    EXPECT_EQ(lintTextDigest(clobbered), "1661973da5caf0e0d35b8b45068cbce4");
}

// ----- structural pass integration ----------------------------------------

TEST(MopAnalyzerTest, StructuralFindingsCollectAll)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kWLM);
    MopProgram program("p", "WLM");
    MetaOp bad_core;
    bad_core.kind = MetaOpKind::kReadXb;
    bad_core.core = 99;
    bad_core.len = 1;
    program.emit(bad_core);
    MetaOp bad_mov;
    bad_mov.kind = MetaOpKind::kMov;
    bad_mov.len = 0;
    program.emit(bad_mov);

    // Collect-all mode reports both violations in traversal order...
    const std::vector<MopDiagnostic> diags =
        collectProgramDiagnostics(program, arch);
    ASSERT_GE(diags.size(), 2u);
    EXPECT_EQ(diags[0].check, "struct-core-range");
    EXPECT_EQ(diags[1].check, "struct-mov");

    // ...while validateProgram keeps the first-error Status contract.
    const Status first = validateProgram(program, arch);
    ASSERT_FALSE(first.isOk());
    EXPECT_EQ(first.code(), diags[0].code);
    EXPECT_NE(first.message().find("core"), std::string::npos);

    // The full analyzer folds the same findings in ahead of dataflow.
    const AnalyzeResult result = analyzeProgram(program, arch);
    EXPECT_TRUE(hasCheck(result, "struct-core-range"));
    EXPECT_TRUE(hasCheck(result, "struct-mov"));
    EXPECT_EQ(lintTextDigest(result), "652e0e2569fe89abbe543df243bded0c");
}

// ----- fault injection into compiled flows --------------------------------

class CompiledFlowFaultTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto arch = presets::byName("isaac-baseline");
        ASSERT_TRUE(arch.isOk());
        arch_ = std::move(arch.value());

        CompileRequest request;
        request.model = "lenet5";
        request.arch = "isaac-baseline";
        request.threads = 1;
        CompilerSession session(std::move(request));
        auto result = session.run();
        ASSERT_TRUE(result.isOk()) << result.status().toString();
        artifacts_ = std::move(result.value());
        ASSERT_TRUE(artifacts_.code.has_value());
    }

    /** Analyzer options matching the session lint stage, minus the
     * live-in plumbing the faults below do not need. */
    AnalyzeOptions
    lintLikeOptions() const
    {
        AnalyzeOptions options;
        options.structural = false;
        options.executable = false; // sound subset: no live-in needed
        return options;
    }

    /** First `parallel {}` block with a CIM-read arm, searching through
     * repeat bodies. */
    static Stmt *
    findCimParallel(std::vector<Stmt> &stmts)
    {
        for (Stmt &stmt : stmts) {
            if (stmt.kind == Stmt::Kind::kParallel) {
                for (const Stmt &arm : stmt.body) {
                    if (arm.kind == Stmt::Kind::kOp &&
                        (arm.op.kind == MetaOpKind::kReadXb ||
                         arm.op.kind == MetaOpKind::kReadRow))
                        return &stmt;
                }
            }
            if (stmt.kind != Stmt::Kind::kOp) {
                if (Stmt *found = findCimParallel(stmt.body))
                    return found;
            }
        }
        return nullptr;
    }

    CimArchitecture arch_;
    CompileArtifacts artifacts_;
};

TEST_F(CompiledFlowFaultTest, DroppedWeightLoadIsCaught)
{
    MopProgram faulty = artifacts_.code->program;
    ASSERT_FALSE(faulty.init().empty());
    ASSERT_EQ(faulty.init().front().kind, Stmt::Kind::kOp);
    faulty.init().erase(faulty.init().begin());

    const AnalyzeResult result =
        analyzeProgram(faulty, arch_, lintLikeOptions());
    EXPECT_TRUE(hasCheck(result, "use-before-def-xbar"))
        << result.summary();
    EXPECT_GT(result.errors(), 0);
    EXPECT_EQ(lintTextDigest(result), "467bfff2bd09b38ce57b2e3bb52b59db");
}

TEST_F(CompiledFlowFaultTest, ParallelArmsSharingDstBufferRace)
{
    MopProgram faulty = artifacts_.code->program;
    Stmt *block = findCimParallel(faulty.compute());
    ASSERT_NE(block, nullptr);
    const MetaOp *victim = nullptr;
    for (const Stmt &arm : block->body) {
        if (arm.kind == Stmt::Kind::kOp &&
            (arm.op.kind == MetaOpKind::kReadXb ||
             arm.op.kind == MetaOpKind::kReadRow)) {
            victim = &arm.op;
            break;
        }
    }
    ASSERT_NE(victim, nullptr);
    // A sibling arm plain-writing the victim's accumulation target is
    // order-dependent: the block is no longer commutative.
    block->body.push_back(
        Stmt::makeOp(zeroOp(victim->dst, victim->cols)));

    const AnalyzeResult result =
        analyzeProgram(faulty, arch_, lintLikeOptions());
    EXPECT_TRUE(hasCheck(result, "race-write-write"))
        << result.summary();
    EXPECT_EQ(lintTextDigest(result), "9ccc8e38a6a982f8e33de0de14517f44");
}

// ----- clean-on-all-presets golden ----------------------------------------

/** Every fast bundled model must lint clean on every bundled arch; the
 * full model set is pinned by the batch/CLI sweeps (large models are
 * too slow for a unit test on one core). */
TEST(MopAnalyzerGoldenTest, FastPresetPairsLintClean)
{
    const std::vector<std::string> fast_models = {
        "mlp", "lenet5", "conv_relu_toy", "macro_cnn", "inception_toy"};
    for (const std::string &model : fast_models) {
        for (const std::string &arch : presets::availablePresets()) {
            CompileRequest request;
            request.model = model;
            request.arch = arch;
            request.threads = 1;
            request.lint = true;
            request.lint_strict = true;
            CompilerSession session(std::move(request));
            auto result = session.run();
            ASSERT_TRUE(result.isOk())
                << model << " x " << arch << ": "
                << result.status().toString();
            ASSERT_TRUE(result.value().lint.has_value());
            EXPECT_TRUE(result.value().lint->clean())
                << model << " x " << arch << ":\n"
                << result.value().lint->table();
        }
    }
}

/** The findings-heavy lint path: every flow compiled for the
 * undersized-L1 example arch trips struct-addr and capacity findings.
 * Digests were recorded on the analyzer that formatted every op's text
 * up front; rendering text only for findings must not change a byte. */
TEST(MopAnalyzerGoldenTest, FaultArchLintTextIsPinned)
{
    const std::vector<std::pair<std::string, std::string>> pins = {
        {"mlp", "4e9a6ad9a3c5c54f3c1838dbc14ef2f4"},
        {"lenet5", "ca786458499c56864665eb82bd7d16d6"},
        {"resnet18", "12f914d10ae11dc20de80c4b9ce6543c"},
    };
    for (const auto &[model, digest] : pins) {
        CompileRequest request;
        request.model = model;
        request.arch_file =
            std::string(CIMMLC_EXAMPLES_DIR) + "/lint_fault_arch.json";
        request.threads = 1;
        request.lint = true;
        CompilerSession session(std::move(request));
        auto result = session.run();
        ASSERT_TRUE(result.isOk()) << model << ": "
                                   << result.status().toString();
        ASSERT_TRUE(result.value().lint.has_value());
        EXPECT_GT(result.value().lint->errors(), 0) << model;
        EXPECT_EQ(lintTextDigest(*result.value().lint), digest) << model;
    }
}

/** Applies one seeded structural fault somewhere in @p program:
 * delete, duplicate, fuse two siblings into a parallel block, repeat an
 * arm, shift an address, or wrap in a repeat. The raw mt19937 stream is
 * fixed by the standard, so the faults are the same on every platform. */
void
injectFault(MopProgram &program, std::mt19937 &rng)
{
    std::vector<Stmt> *list =
        rng() % 4 == 0 ? &program.init() : &program.compute();
    for (int depth = 0; depth < 3 && !list->empty(); ++depth) {
        Stmt &stmt = (*list)[rng() % list->size()];
        if (stmt.kind == Stmt::Kind::kOp || stmt.body.empty() || rng() % 2)
            break;
        list = &stmt.body;
    }
    if (list->empty())
        return;
    const std::size_t i = rng() % list->size();
    Stmt &stmt = (*list)[i];
    switch (rng() % 7) {
      case 0:
        list->erase(list->begin() + static_cast<std::ptrdiff_t>(i));
        break;
      case 1:
        list->insert(list->begin() + static_cast<std::ptrdiff_t>(i), stmt);
        break;
      case 2:
        if (i + 1 < list->size()) {
            const auto first = list->begin() + static_cast<std::ptrdiff_t>(i);
            Stmt block = Stmt::makeParallel({*first, *(first + 1)});
            list->erase(first + 1);
            (*list)[i] = std::move(block);
        }
        break;
      case 3:
        if (stmt.kind == Stmt::Kind::kParallel && !stmt.body.empty())
            stmt.body.push_back(stmt.body.front());
        break;
      case 4:
        if (stmt.kind == Stmt::Kind::kOp)
            stmt.op.dst.offset += static_cast<std::int64_t>(rng() % 4);
        break;
      case 5:
        if (stmt.kind == Stmt::Kind::kOp)
            stmt.op.src.offset += static_cast<std::int64_t>(rng() % 5);
        break;
      case 6:
        stmt = Stmt::makeRepeat(2, {stmt});
        break;
    }
}

/** Seeded faults in executable compiled flows exercise every dataflow
 * check (races, dead stores, unused and overwritten programming) on
 * real op text, including the merge of equal-text arm accesses. */
TEST(MopAnalyzerGoldenTest, FaultInjectedFlowTextIsPinned)
{
    struct Pin {
        const char *model;
        const char *arch;
        const char *digest;
    };
    const std::vector<Pin> pins = {
        {"lenet5", "isaac-baseline", "0556c9ff2e38b67de16bc4c662908221"},
        {"macro_cnn", "jia-isscc21", "d2cfb2a2e150ba1bd577c660b7f6ad87"},
        {"mlp", "puma", "89d6b880e885df24b38ba97830a53fd4"},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(std::string(pin.model) + " x " + pin.arch);
        const CimArchitecture arch = presets::byName(pin.arch).value();
        Graph graph = models::byName(pin.model);
        Rng weights(1234);
        graph.randomizeWeights(weights);
        auto schedule = scheduleGraph(graph, arch, ScheduleOptions::full());
        ASSERT_TRUE(schedule.isOk()) << schedule.status().toString();
        CodegenOptions codegen;
        codegen.unroll = true;
        auto code = generateProgram(graph, arch, schedule.value(), codegen);
        ASSERT_TRUE(code.isOk()) << code.status().toString();

        AnalyzeOptions options;
        options.validate.enforce_l0_capacity = false;
        options.validate.enforce_write_policy = false;
        for (TensorId input : graph.inputs()) {
            LiveInRegion region;
            region.begin = code.value().tensor_offsets.at(input);
            region.end = region.begin + graph.tensor(input).numel();
            options.live_in.push_back(region);
        }
        ArtifactHash hash;
        for (unsigned seed = 0; seed < 12; ++seed) {
            std::mt19937 rng(seed * 7919 + 13);
            MopProgram faulty = code.value().program;
            for (unsigned k = 0; k <= seed % 6; ++k)
                injectFault(faulty, rng);
            hash.mix(lintTextDigest(analyzeProgram(faulty, arch, options)));
        }
        EXPECT_EQ(hash.digest(), pin.digest);
    }
}

} // namespace
} // namespace cimmlc
