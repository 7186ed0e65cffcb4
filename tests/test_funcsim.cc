/**
 * @file
 * Functional-simulator tests: bit-exact equivalence between compiled
 * meta-operator flows and the reference executor (the paper's
 * PyTorch-check methodology, Section 4.1), across models, computing
 * modes, and architectures, plus direct unit tests of the executor.
 */
#include <gtest/gtest.h>

#include "arch/presets.h"
#include "common/rng.h"
#include "funcsim/simulator.h"
#include "funcsim/verify.h"
#include "graph/models.h"
#include "graph/reference.h"
#include "mop/analyzer.h"
#include "sched/codegen.h"
#include "sched/multi_level.h"

namespace cimmlc {
namespace {

std::map<TensorId, Int8Tensor>
randomInputs(const Graph &g, std::uint64_t seed)
{
    Rng rng(seed);
    std::map<TensorId, Int8Tensor> inputs;
    for (TensorId in : g.inputs()) {
        Int8Tensor t(TensorShape(g.tensor(in).dims));
        t.fillRandom(rng, -16, 16);
        inputs.emplace(in, std::move(t));
    }
    return inputs;
}

// ----- end-to-end bit-exact verification -----------------------------------

class VerifyMatrixTest
    : public testing::TestWithParam<std::tuple<std::string, ComputeMode>>
{
};

TEST_P(VerifyMatrixTest, CompiledFlowMatchesReferenceBitExactly)
{
    const auto [model_name, mode] = GetParam();
    Graph g = models::byName(model_name);
    Rng rng(42);
    g.randomizeWeights(rng);
    CimArchitecture arch = presets::tutorialTable2(mode);
    // Give the tutorial chip enough cores for the larger test nets.
    arch.chip.core_rows = 8;
    arch.xbar.rows = 64;
    arch.xbar.parallel_row = 16;

    auto report = verifyCompiledFlow(g, arch, ScheduleOptions::full(),
                                     randomInputs(g, 7));
    ASSERT_TRUE(report.isOk()) << report.status().toString();
    EXPECT_TRUE(report.value().match) << report.value().first_mismatch;
    EXPECT_GT(report.value().elements_checked, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, VerifyMatrixTest,
    testing::Combine(testing::Values("conv_relu_toy", "lenet5", "mlp",
                                     "macro_cnn"),
                     testing::Values(ComputeMode::kCM, ComputeMode::kXBM,
                                     ComputeMode::kWLM)));

TEST(VerifyTest, AblationLevelsAllStayBitExact)
{
    Graph g = models::lenet5();
    Rng rng(9);
    g.randomizeWeights(rng);
    CimArchitecture arch = presets::tutorialTable2(ComputeMode::kWLM);
    arch.chip.core_rows = 8;
    arch.xbar.rows = 64;
    arch.xbar.parallel_row = 16;
    const auto inputs = randomInputs(g, 1);
    for (const ScheduleOptions &options :
         {ScheduleOptions::none(), ScheduleOptions::cgOnly(),
          ScheduleOptions::cgMvm(), ScheduleOptions::full()}) {
        auto report = verifyCompiledFlow(g, arch, options, inputs);
        ASSERT_TRUE(report.isOk()) << report.status().toString();
        EXPECT_TRUE(report.value().match)
            << options.toString() << ": "
            << report.value().first_mismatch;
    }
}

TEST(VerifyTest, ResidualAddNetworkVerifies)
{
    // Exercises kAdd with a skip connection around a conv.
    Graph g("residual");
    TensorId in = g.addInput("in", {1, 4, 8, 8});
    TensorId a = g.conv2d(in, 4, 3, 1, 1, "conv");
    TensorId sum = g.add(a, in, "skip");
    g.markOutput(g.relu(sum));
    Rng rng(13);
    g.randomizeWeights(rng);
    CimArchitecture arch = presets::tutorialTable2(ComputeMode::kXBM);
    auto report = verifyCompiledFlow(g, arch, ScheduleOptions::full(),
                                     randomInputs(g, 3));
    ASSERT_TRUE(report.isOk()) << report.status().toString();
    EXPECT_TRUE(report.value().match) << report.value().first_mismatch;
}

TEST(VerifyTest, AvgPoolNetworkVerifies)
{
    Graph g("pooled");
    TensorId in = g.addInput("in", {1, 3, 8, 8});
    TensorId c = g.conv2d(in, 8, 3, 1, 1);
    TensorId p = g.avgPool2d(c, 2, 2);
    g.markOutput(g.globalAvgPool(p));
    Rng rng(17);
    g.randomizeWeights(rng);
    CimArchitecture arch = presets::tutorialTable2(ComputeMode::kXBM);
    auto report = verifyCompiledFlow(g, arch, ScheduleOptions::full(),
                                     randomInputs(g, 5));
    ASSERT_TRUE(report.isOk()) << report.status().toString();
    EXPECT_TRUE(report.value().match) << report.value().first_mismatch;
}

TEST(VerifyTest, DifferentSeedsStillMatch)
{
    Graph g = models::convReluToy();
    Rng rng(100);
    g.randomizeWeights(rng);
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
        auto report = verifyCompiledFlow(
            g, arch, ScheduleOptions::full(), randomInputs(g, seed));
        ASSERT_TRUE(report.isOk());
        EXPECT_TRUE(report.value().match) << "seed " << seed;
    }
}

// ----- simulator unit behaviour ----------------------------------------------

class FuncsimFixture : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        graph_ = models::convReluToy();
        Rng rng(3);
        graph_.randomizeWeights(rng);
        arch_ = presets::tutorialTable2(ComputeMode::kXBM);
        auto schedule =
            scheduleGraph(graph_, arch_, ScheduleOptions::full());
        ASSERT_TRUE(schedule.isOk());
        auto code = generateProgram(graph_, arch_, schedule.value());
        ASSERT_TRUE(code.isOk());
        code_ = std::make_unique<CodegenResult>(
            std::move(code).value());
    }

    Graph graph_{"unset"};
    CimArchitecture arch_;
    std::unique_ptr<CodegenResult> code_;
};

TEST_F(FuncsimFixture, RunWithoutInputYieldsZeroActivity)
{
    FunctionalSimulator sim(arch_, *code_);
    ASSERT_TRUE(sim.run().isOk());
    // All-zero input with zero requant -> all-zero output.
    auto out = sim.readTensor(graph_, graph_.outputs()[0]);
    ASSERT_TRUE(out.isOk());
    for (std::int64_t i = 0; i < out.value().numel(); ++i)
        EXPECT_EQ(out.value()[i], 0);
}

TEST_F(FuncsimFixture, StatsAccumulate)
{
    FunctionalSimulator sim(arch_, *code_);
    ASSERT_TRUE(sim.run().isOk());
    EXPECT_GT(sim.stats().ops_executed, 0);
    EXPECT_EQ(sim.stats().cim_reads, 1024);
    EXPECT_EQ(sim.stats().cim_writes, 4);
    EXPECT_GT(sim.stats().macs, 0);
}

TEST_F(FuncsimFixture, LoadInputValidatesShape)
{
    FunctionalSimulator sim(arch_, *code_);
    Int8Tensor wrong(TensorShape({1, 3, 16, 16}));
    EXPECT_FALSE(
        sim.loadInput(graph_, graph_.inputs()[0], wrong).isOk());
    EXPECT_FALSE(sim.loadInput(graph_, 9999, wrong).isOk());
}

TEST_F(FuncsimFixture, CompressedProgramRefused)
{
    CodegenOptions options;
    options.unroll = false;
    auto schedule =
        scheduleGraph(graph_, arch_, ScheduleOptions::full());
    auto compressed =
        generateProgram(graph_, arch_, schedule.value(), options);
    ASSERT_TRUE(compressed.isOk());
    FunctionalSimulator sim(arch_, compressed.value());
    EXPECT_FALSE(sim.run().isOk());
}

TEST(FuncsimUnitTest, ReadRowRespectsParallelRowLimit)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kWLM);
    CodegenResult code;
    code.l0_elements = 64;
    code.l1_elements = 64;
    code.executable = true;
    MetaOp read;
    read.kind = MetaOpKind::kReadRow;
    read.core = 0;
    read.xb = 0;
    read.row = 0;
    read.len = 17; // > parallel_row 16
    read.cols = 4;
    read.src = {MemSpace::kL1, 0, 0};
    read.dst = {MemSpace::kL0, 0, 0};
    code.program.emit(read);
    FunctionalSimulator sim(arch, code);
    EXPECT_FALSE(sim.run().isOk());
}

TEST(FuncsimUnitTest, BufferOverrunCaught)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    CodegenResult code;
    code.l0_elements = 16;
    code.l1_elements = 16;
    code.executable = true;
    MetaOp mov;
    mov.kind = MetaOpKind::kMov;
    mov.src = {MemSpace::kL0, 0, 0};
    mov.dst = {MemSpace::kL0, 0, 10};
    mov.len = 10; // 10 + 10 > 16
    code.program.emit(mov);
    FunctionalSimulator sim(arch, code);
    EXPECT_FALSE(sim.run().isOk());
}

TEST(FuncsimUnitTest, ReadCoreWithoutWeightsFails)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kCM);
    CodegenResult code;
    code.l0_elements = 4096;
    code.l1_elements = 16;
    code.executable = true;
    MetaOp read;
    read.kind = MetaOpKind::kReadCore;
    read.core = 0;
    read.core_params.is_conv = false;
    read.core_params.in_features = 4;
    read.core_params.out_features = 2;
    read.core_params.win_end = 1;
    code.program.emit(read);
    FunctionalSimulator sim(arch, code);
    EXPECT_FALSE(sim.run().isOk());
}

// Crossbar cell arrays are allocated on first programming. A read of a
// crossbar no op ever programmed sees zero weights: it must succeed,
// leave its destination unchanged and still count its MACs.
TEST(FuncsimUnitTest, ReadOfUnprogrammedCrossbarLeavesDstUnchanged)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    Graph graph("unprogrammed");
    const TensorId x = graph.addInput("x", {1, 16});
    CodegenResult code;
    code.l0_elements = 64;
    code.l1_elements = 16;
    code.executable = true;
    code.tensor_offsets[x] = 0;

    MetaOp seed_dst; // dst holds nonzero partial sums before the reads
    seed_dst.kind = MetaOpKind::kMov;
    seed_dst.src = {MemSpace::kL0, 0, 0};
    seed_dst.dst = {MemSpace::kL0, 0, 32};
    seed_dst.len = 4;
    code.program.emit(seed_dst);
    MetaOp readxb;
    readxb.kind = MetaOpKind::kReadXb;
    readxb.core = 1;
    readxb.xb = 1;
    readxb.rows = 8;
    readxb.cols = 4;
    readxb.src = {MemSpace::kL0, 0, 0};
    readxb.dst = {MemSpace::kL0, 0, 32};
    code.program.emit(readxb);
    MetaOp readrow = readxb;
    readrow.kind = MetaOpKind::kReadRow;
    readrow.core = 0;
    readrow.row = 2;
    readrow.len = 4;
    readrow.src = {MemSpace::kL0, 0, 4};
    code.program.emit(readrow);

    FunctionalSimulator sim(arch, code);
    Int8Tensor input(TensorShape({1, 16}));
    for (std::int64_t i = 0; i < 16; ++i)
        input[i] = static_cast<std::int8_t>(i + 1);
    ASSERT_TRUE(sim.loadInput(graph, x, input).isOk());
    const Status run = sim.run();
    ASSERT_TRUE(run.isOk()) << run.toString();
    for (std::int64_t j = 0; j < 4; ++j)
        EXPECT_EQ(sim.l0At(32 + j), j + 1) << "dst element " << j;
    EXPECT_EQ(sim.stats().cim_reads, 2);
    EXPECT_EQ(sim.stats().macs, 8 * 4 + 4 * 4);
    EXPECT_EQ(sim.stats().crossbars_allocated, 0);
}

// The allocation counter tracks exactly the crossbars the flow
// programs, which mopcheck counts independently, and the replay stays
// bit-exact with most of isaac-baseline's crossbars never allocated.
TEST(VerifyTest, LazyCrossbarsMatchLintCountOnIsaac)
{
    Graph graph = models::lenet5();
    Rng rng(1234);
    graph.randomizeWeights(rng);
    const std::map<TensorId, Int8Tensor> inputs = randomInputs(graph, 5);
    const CimArchitecture arch = presets::isaacBaseline();

    auto reference = runReference(graph, inputs);
    ASSERT_TRUE(reference.isOk()) << reference.status().toString();
    auto schedule = scheduleGraph(graph, arch, ScheduleOptions::full());
    ASSERT_TRUE(schedule.isOk()) << schedule.status().toString();
    CodegenOptions options;
    options.unroll = true;
    options.shifts = reference.value().shifts;
    auto code = generateProgram(graph, arch, schedule.value(), options);
    ASSERT_TRUE(code.isOk()) << code.status().toString();

    FunctionalSimulator sim(arch, code.value());
    for (const auto &[tensor, value] : inputs)
        ASSERT_TRUE(sim.loadInput(graph, tensor, value).isOk());
    ASSERT_TRUE(sim.run().isOk());
    for (TensorId out : graph.outputs()) {
        auto actual = sim.readTensor(graph, out);
        ASSERT_TRUE(actual.isOk()) << actual.status().toString();
        EXPECT_EQ(actual.value(), reference.value().tensors.at(out));
    }

    AnalyzeOptions lint;
    lint.structural = false;
    const AnalyzeResult result =
        analyzeProgram(code.value().program, arch, lint);
    EXPECT_GT(sim.stats().crossbars_allocated, 0);
    EXPECT_EQ(sim.stats().crossbars_allocated, result.crossbars_programmed);
    EXPECT_LT(sim.stats().crossbars_allocated, arch.totalCrossbars());
}

// ----- reference executor sanity ---------------------------------------------

TEST(ReferenceShiftsTest, CalibratedShiftsAreReused)
{
    Graph g = models::convReluToy();
    Rng rng(8);
    g.randomizeWeights(rng);
    const auto inputs = randomInputs(g, 21);
    auto first = runReference(g, inputs);
    ASSERT_TRUE(first.isOk());
    auto second = runReference(g, inputs, first.value().shifts);
    ASSERT_TRUE(second.isOk());
    EXPECT_EQ(first.value().output(g), second.value().output(g));
}

} // namespace
} // namespace cimmlc
