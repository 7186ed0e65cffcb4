/**
 * @file
 * Unit and property tests for the tensor substrate: shapes, the tensor
 * container, reference operators (including the conv == im2col+matmul
 * equivalence the crossbar mapping relies on), and quantization.
 */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/ops.h"
#include "tensor/quantize.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace cimmlc {
namespace {

TEST(ShapeTest, Basics)
{
    TensorShape s({2, 3, 4});
    EXPECT_EQ(s.rank(), 3);
    EXPECT_EQ(s.dim(1), 3);
    EXPECT_EQ(s.numel(), 24);
    EXPECT_TRUE(s.isValid());
    EXPECT_EQ(s.toString(), "[2, 3, 4]");
}

TEST(ShapeTest, InvalidWhenNonPositive)
{
    EXPECT_FALSE(TensorShape({2, 0}).isValid());
    EXPECT_FALSE(TensorShape({-1}).isValid());
}

TEST(ShapeTest, Equality)
{
    EXPECT_EQ(TensorShape({1, 2}), TensorShape({1, 2}));
    EXPECT_NE(TensorShape({1, 2}), TensorShape({2, 1}));
}

TEST(ShapeTest, ConvOutDim)
{
    EXPECT_EQ(convOutDim(32, 3, 1, 1), 32); // same padding
    EXPECT_EQ(convOutDim(32, 3, 1, 0), 30);
    EXPECT_EQ(convOutDim(224, 7, 2, 3), 112);
    EXPECT_EQ(convOutDim(32, 2, 2, 0), 16); // pooling style
}

TEST(ShapeTest, Conv2dOutputShape)
{
    const TensorShape out = conv2dOutputShape(
        TensorShape({1, 3, 32, 32}), TensorShape({32, 3, 3, 3}), 1, 1);
    EXPECT_EQ(out, TensorShape({1, 32, 32, 32}));
}

TEST(TensorTest, FlatAndMultiDimAccessAgree)
{
    Int8Tensor t(TensorShape({1, 2, 3, 4}));
    t.at4(0, 1, 2, 3) = 42;
    EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 42);
    Int32Tensor m(TensorShape({3, 5}));
    m.at2(2, 4) = -7;
    EXPECT_EQ(m[14], -7);
}

TEST(TensorTest, FillAndEquality)
{
    Int8Tensor a(TensorShape({4}));
    a.fill(3);
    Int8Tensor b(TensorShape({4}), {3, 3, 3, 3});
    EXPECT_EQ(a, b);
}

TEST(TensorTest, FillRandomWithinRange)
{
    Rng rng(1);
    Int8Tensor t(TensorShape({100}));
    t.fillRandom(rng, -5, 5);
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        EXPECT_GE(t[i], -5);
        EXPECT_LE(t[i], 5);
    }
}

// ----- reference operators ------------------------------------------

class ConvEquivalenceTest
    : public testing::TestWithParam<
          std::tuple<int, int, int, int, int, int>>
{
};

TEST_P(ConvEquivalenceTest, DirectEqualsIm2colMatmul)
{
    const auto [channels, kernel, stride, padding, height, width] =
        GetParam();
    Rng rng(static_cast<std::uint64_t>(channels * 100 + kernel));
    Int8Tensor input(TensorShape({1, channels, height, width}));
    input.fillRandom(rng, -20, 20);
    Int8Tensor weight(TensorShape({5, channels, kernel, kernel}));
    weight.fillRandom(rng, -10, 10);

    const Int32Tensor direct = ops::conv2d(input, weight, stride,
                                           padding);
    const Int32Tensor via_im2col =
        ops::conv2dIm2col(input, weight, stride, padding);
    EXPECT_EQ(direct, via_im2col);
}

// (channels, kernel, stride, padding, height, width). The last rows
// clip the kernel window at the edges: a kernel larger than the input,
// padding wider than the kernel (windows that miss the input), stride
// 3, and H != W.
INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvEquivalenceTest,
    testing::Values(std::make_tuple(1, 3, 1, 1, 12, 12),
                    std::make_tuple(3, 3, 1, 0, 12, 12),
                    std::make_tuple(2, 5, 1, 2, 12, 12),
                    std::make_tuple(4, 3, 2, 1, 12, 12),
                    std::make_tuple(3, 1, 1, 0, 12, 12),
                    std::make_tuple(2, 7, 2, 3, 12, 12),
                    std::make_tuple(2, 7, 1, 3, 4, 5),
                    std::make_tuple(3, 5, 3, 2, 3, 2),
                    std::make_tuple(2, 3, 3, 1, 7, 11),
                    std::make_tuple(1, 2, 1, 3, 5, 4),
                    std::make_tuple(3, 4, 3, 0, 13, 8)));

TEST(OpsTest, Im2colShape)
{
    Int8Tensor input(TensorShape({1, 3, 8, 8}));
    const Int8Tensor patches = ops::im2col(input, 3, 3, 1, 1);
    EXPECT_EQ(patches.shape(), TensorShape({64, 27}));
}

TEST(OpsTest, Im2colZeroPadsBoundary)
{
    Int8Tensor input(TensorShape({1, 1, 2, 2}));
    input.fill(1);
    const Int8Tensor patches = ops::im2col(input, 3, 3, 1, 1);
    // Top-left window: only positions overlapping the image are 1.
    EXPECT_EQ(patches.at2(0, 0), 0); // padding corner
    EXPECT_EQ(patches.at2(0, 4), 1); // image (0,0)
}

TEST(OpsTest, LinearMatchesManual)
{
    Int8Tensor x(TensorShape({1, 3}), {1, 2, 3});
    Int8Tensor w(TensorShape({2, 3}), {1, 0, -1, 2, 2, 2});
    const Int32Tensor y = ops::linear(x, w);
    EXPECT_EQ(y.at2(0, 0), 1 - 3);
    EXPECT_EQ(y.at2(0, 1), 2 + 4 + 6);
}

TEST(OpsTest, MatmulMatchesManual)
{
    Int8Tensor a(TensorShape({2, 2}), {1, 2, 3, 4});
    Int8Tensor b(TensorShape({2, 2}), {5, 6, 7, 8});
    const Int32Tensor c = ops::matmul(a, b);
    EXPECT_EQ(c.at2(0, 0), 19);
    EXPECT_EQ(c.at2(0, 1), 22);
    EXPECT_EQ(c.at2(1, 0), 43);
    EXPECT_EQ(c.at2(1, 1), 50);
}

TEST(OpsTest, ReluClampsNegatives)
{
    Int32Tensor t(TensorShape({3}), {-5, 0, 5});
    const Int32Tensor r = ops::relu(t);
    EXPECT_EQ(r[0], 0);
    EXPECT_EQ(r[1], 0);
    EXPECT_EQ(r[2], 5);
}

TEST(OpsTest, AddSaturates)
{
    Int8Tensor a(TensorShape({2}), {120, -120});
    Int8Tensor b(TensorShape({2}), {20, -20});
    const Int8Tensor s = ops::addSaturating(a, b);
    EXPECT_EQ(s[0], 127);
    EXPECT_EQ(s[1], -128);
}

TEST(OpsTest, MaxPoolPicksMaximum)
{
    Int8Tensor t(TensorShape({1, 1, 2, 2}), {1, 5, 3, 2});
    const Int8Tensor p = ops::maxPool2d(t, 2, 2, 0);
    EXPECT_EQ(p.shape(), TensorShape({1, 1, 1, 1}));
    EXPECT_EQ(p[0], 5);
}

TEST(OpsTest, AvgPoolRounds)
{
    Int8Tensor t(TensorShape({1, 1, 2, 2}), {1, 2, 3, 4});
    const Int8Tensor p = ops::avgPool2d(t, 2, 2, 0);
    EXPECT_EQ(p[0], 3); // 10/4 = 2.5 -> round half up
}

TEST(OpsTest, GlobalAvgPool)
{
    Int8Tensor t(TensorShape({1, 2, 2, 2}));
    for (std::int64_t i = 0; i < 4; ++i)
        t[i] = 4; // channel 0
    for (std::int64_t i = 4; i < 8; ++i)
        t[i] = -8; // channel 1
    const Int8Tensor p = ops::globalAvgPool(t);
    EXPECT_EQ(p.shape(), TensorShape({1, 2, 1, 1}));
    EXPECT_EQ(p[0], 4);
    EXPECT_EQ(p[1], -8);
}

TEST(OpsTest, SoftmaxRowsSumToOne)
{
    FloatTensor t(TensorShape({2, 4}));
    Rng rng(5);
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
    const FloatTensor s = ops::softmax(t);
    for (int r = 0; r < 2; ++r) {
        float sum = 0.0f;
        for (int c = 0; c < 4; ++c)
            sum += s.at2(r, c);
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

TEST(OpsTest, LayerNormZeroMeanUnitVar)
{
    FloatTensor t(TensorShape({1, 64}));
    Rng rng(6);
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>(rng.uniform(-3.0, 5.0));
    const FloatTensor n = ops::layerNorm(t);
    float mean = 0.0f, var = 0.0f;
    for (std::int64_t i = 0; i < n.numel(); ++i)
        mean += n[i];
    mean /= 64.0f;
    for (std::int64_t i = 0; i < n.numel(); ++i)
        var += (n[i] - mean) * (n[i] - mean);
    var /= 64.0f;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
}

TEST(OpsTest, GeluKnownValues)
{
    FloatTensor t(TensorShape({3}), {0.0f, 10.0f, -10.0f});
    const FloatTensor g = ops::gelu(t);
    EXPECT_NEAR(g[0], 0.0f, 1e-6f);
    EXPECT_NEAR(g[1], 10.0f, 1e-3f);
    EXPECT_NEAR(g[2], 0.0f, 1e-3f);
}

TEST(OpsTest, BiasAddPerChannel)
{
    Int32Tensor acc(TensorShape({1, 2, 1, 2}));
    Int32Tensor bias(TensorShape({2}), {10, -10});
    ops::addBiasNchw(&acc, bias);
    EXPECT_EQ(acc[0], 10);
    EXPECT_EQ(acc[1], 10);
    EXPECT_EQ(acc[2], -10);
}

// ----- quantization ---------------------------------------------------

TEST(QuantizeTest, ShiftRoundHalfAwayFromZero)
{
    EXPECT_EQ(shiftRound(3, 1), 2);  // 1.5 -> 2
    EXPECT_EQ(shiftRound(-3, 1), -2);
    EXPECT_EQ(shiftRound(5, 2), 1);  // 1.25 -> 1
    EXPECT_EQ(shiftRound(6, 2), 2);  // 1.5 -> 2
    EXPECT_EQ(shiftRound(100, 0), 100);
}

TEST(QuantizeTest, RequantizeClampsToInt8)
{
    Int32Tensor acc(TensorShape({3}), {100000, -100000, 64});
    const Int8Tensor q = requantize(acc, RequantParams{6});
    EXPECT_EQ(q[0], 127);
    EXPECT_EQ(q[1], -128);
    EXPECT_EQ(q[2], 1);
}

TEST(QuantizeTest, ChooseShiftAvoidsOverflow)
{
    Int32Tensor acc(TensorShape({2}), {1016, -40});
    const RequantParams params = chooseRequantShift(acc);
    EXPECT_EQ(params.shift, 3); // 1016 >> 3 = 127
    const Int8Tensor q = requantize(acc, params);
    EXPECT_EQ(q[0], 127);
}

TEST(QuantizeTest, ChooseShiftZeroWhenSmall)
{
    Int32Tensor acc(TensorShape({2}), {100, -90});
    EXPECT_EQ(chooseRequantShift(acc).shift, 0);
}

TEST(QuantizeTest, FloatRoundTripWithinOneStep)
{
    Rng rng(11);
    FloatTensor t(TensorShape({32}));
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>(rng.uniform(-4.0, 4.0));
    const float scale = 1.0f / 16.0f;
    const FloatTensor back = dequantize(quantizeFloat(t, scale), scale);
    for (std::int64_t i = 0; i < t.numel(); ++i)
        EXPECT_NEAR(back[i], t[i], scale);
}

} // namespace
} // namespace cimmlc
