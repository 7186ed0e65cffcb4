#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/mathutil.h"

namespace cimmlc::ops {

Int8Tensor
im2col(const Int8Tensor &input, std::int64_t kernel_h,
       std::int64_t kernel_w, std::int64_t stride, std::int64_t padding)
{
    const TensorShape &in = input.shape();
    CIMMLC_CHECK_EQ(in.rank(), 4) << "im2col input must be NCHW";
    const std::int64_t N = in.dim(0), C = in.dim(1);
    const std::int64_t H = in.dim(2), W = in.dim(3);
    const std::int64_t out_h = convOutDim(H, kernel_h, stride, padding);
    const std::int64_t out_w = convOutDim(W, kernel_w, stride, padding);
    const std::int64_t rows = N * out_h * out_w;
    const std::int64_t cols = C * kernel_h * kernel_w;

    Int8Tensor out(TensorShape({rows, cols}));
    std::int64_t row = 0;
    for (std::int64_t n = 0; n < N; ++n) {
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
            for (std::int64_t ow = 0; ow < out_w; ++ow, ++row) {
                std::int64_t col = 0;
                for (std::int64_t c = 0; c < C; ++c) {
                    for (std::int64_t kh = 0; kh < kernel_h; ++kh) {
                        for (std::int64_t kw = 0; kw < kernel_w;
                             ++kw, ++col) {
                            const std::int64_t ih =
                                oh * stride + kh - padding;
                            const std::int64_t iw =
                                ow * stride + kw - padding;
                            std::int8_t v = 0;
                            if (ih >= 0 && ih < H && iw >= 0 && iw < W)
                                v = input.at4(n, c, ih, iw);
                            out.at2(row, col) = v;
                        }
                    }
                }
            }
        }
    }
    return out;
}

Int32Tensor
conv2d(const Int8Tensor &input, const Int8Tensor &weight,
       std::int64_t stride, std::int64_t padding)
{
    const TensorShape out_shape =
        conv2dOutputShape(input.shape(), weight.shape(), stride, padding);
    const std::int64_t N = input.shape().dim(0);
    const std::int64_t C = input.shape().dim(1);
    const std::int64_t H = input.shape().dim(2);
    const std::int64_t W = input.shape().dim(3);
    const std::int64_t O = weight.shape().dim(0);
    const std::int64_t KH = weight.shape().dim(2);
    const std::int64_t KW = weight.shape().dim(3);
    const std::int64_t out_h = out_shape.dim(2);
    const std::int64_t out_w = out_shape.dim(3);

    // The kernel window is clipped to the input once per output
    // position, so the inner loops run bounds-check free. Terms still
    // accumulate in (c, kh, kw) order.
    Int32Tensor out(out_shape);
    const std::int8_t *in = input.data().data();
    const std::int8_t *wt = weight.data().data();
    std::int32_t *dst = out.data().data();
    for (std::int64_t n = 0; n < N; ++n) {
        for (std::int64_t o = 0; o < O; ++o) {
            for (std::int64_t oh = 0; oh < out_h; ++oh) {
                const std::int64_t ih0 = oh * stride - padding;
                const std::int64_t kh_lo = std::max<std::int64_t>(0, -ih0);
                const std::int64_t kh_hi = std::min(KH, H - ih0);
                for (std::int64_t ow = 0; ow < out_w; ++ow) {
                    const std::int64_t iw0 = ow * stride - padding;
                    const std::int64_t kw_lo =
                        std::max<std::int64_t>(0, -iw0);
                    const std::int64_t kw_n =
                        std::min(KW, W - iw0) - kw_lo; // clipped width
                    std::int32_t acc = 0;
                    for (std::int64_t c = 0; c < C && kw_n > 0; ++c) {
                        const std::int8_t *in_c = in + (n * C + c) * H * W;
                        const std::int8_t *wt_c =
                            wt + (o * C + c) * KH * KW;
                        for (std::int64_t kh = kh_lo; kh < kh_hi; ++kh) {
                            const std::int8_t *in_row =
                                in_c + ((ih0 + kh) * W + iw0 + kw_lo);
                            const std::int8_t *wt_row =
                                wt_c + kh * KW + kw_lo;
                            for (std::int64_t k = 0; k < kw_n; ++k)
                                acc += static_cast<std::int32_t>(
                                           in_row[k]) *
                                       static_cast<std::int32_t>(
                                           wt_row[k]);
                        }
                    }
                    *dst++ = acc;
                }
            }
        }
    }
    return out;
}

Int32Tensor
conv2dIm2col(const Int8Tensor &input, const Int8Tensor &weight,
             std::int64_t stride, std::int64_t padding)
{
    const TensorShape out_shape =
        conv2dOutputShape(input.shape(), weight.shape(), stride, padding);
    const std::int64_t O = weight.shape().dim(0);
    const std::int64_t K = weight.shape().dim(1) * weight.shape().dim(2) *
                           weight.shape().dim(3);

    const Int8Tensor patches = im2col(input, weight.shape().dim(2),
                                      weight.shape().dim(3), stride,
                                      padding);
    // Reshape weight OIHW -> [K, O] column-major per output channel so the
    // product is patches [rows, K] x weight [K, O].
    Int8Tensor wmat(TensorShape({K, O}));
    for (std::int64_t o = 0; o < O; ++o) {
        for (std::int64_t k = 0; k < K; ++k)
            wmat.at2(k, o) = weight[o * K + k];
    }
    Int32Tensor prod = matmul(patches, wmat);

    // Back to NCHW.
    Int32Tensor out(out_shape);
    const std::int64_t N = out_shape.dim(0);
    const std::int64_t out_h = out_shape.dim(2);
    const std::int64_t out_w = out_shape.dim(3);
    std::int64_t row = 0;
    for (std::int64_t n = 0; n < N; ++n) {
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
            for (std::int64_t ow = 0; ow < out_w; ++ow, ++row) {
                for (std::int64_t o = 0; o < O; ++o)
                    out.at4(n, o, oh, ow) = prod.at2(row, o);
            }
        }
    }
    return out;
}

Int32Tensor
linear(const Int8Tensor &input, const Int8Tensor &weight)
{
    CIMMLC_CHECK_EQ(input.shape().rank(), 2) << "linear input must be 2-d";
    CIMMLC_CHECK_EQ(weight.shape().rank(), 2)
        << "linear weight must be 2-d";
    CIMMLC_CHECK_EQ(input.shape().dim(1), weight.shape().dim(1))
        << "linear in_features mismatch";
    const std::int64_t N = input.shape().dim(0);
    const std::int64_t F = input.shape().dim(1);
    const std::int64_t O = weight.shape().dim(0);

    Int32Tensor out(TensorShape({N, O}));
    for (std::int64_t n = 0; n < N; ++n) {
        for (std::int64_t o = 0; o < O; ++o) {
            std::int32_t acc = 0;
            for (std::int64_t f = 0; f < F; ++f) {
                acc += static_cast<std::int32_t>(input.at2(n, f)) *
                       static_cast<std::int32_t>(weight.at2(o, f));
            }
            out.at2(n, o) = acc;
        }
    }
    return out;
}

Int32Tensor
matmul(const Int8Tensor &a, const Int8Tensor &b)
{
    CIMMLC_CHECK_EQ(a.shape().rank(), 2) << "matmul lhs must be 2-d";
    CIMMLC_CHECK_EQ(b.shape().rank(), 2) << "matmul rhs must be 2-d";
    CIMMLC_CHECK_EQ(a.shape().dim(1), b.shape().dim(0))
        << "matmul inner dim mismatch";
    const std::int64_t M = a.shape().dim(0);
    const std::int64_t K = a.shape().dim(1);
    const std::int64_t N = b.shape().dim(1);

    Int32Tensor out(TensorShape({M, N}));
    for (std::int64_t m = 0; m < M; ++m) {
        for (std::int64_t k = 0; k < K; ++k) {
            const std::int32_t av = a.at2(m, k);
            if (av == 0)
                continue;
            for (std::int64_t n = 0; n < N; ++n)
                out.at2(m, n) += av * static_cast<std::int32_t>(b.at2(k, n));
        }
    }
    return out;
}

void
addBiasNchw(Int32Tensor *acc, const Int32Tensor &bias)
{
    CIMMLC_CHECK_EQ(acc->shape().rank(), 4);
    CIMMLC_CHECK_EQ(bias.shape().rank(), 1);
    CIMMLC_CHECK_EQ(acc->shape().dim(1), bias.shape().dim(0));
    const std::int64_t N = acc->shape().dim(0);
    const std::int64_t C = acc->shape().dim(1);
    const std::int64_t HW = acc->shape().dim(2) * acc->shape().dim(3);
    for (std::int64_t n = 0; n < N; ++n) {
        for (std::int64_t c = 0; c < C; ++c) {
            const std::int32_t b = bias[c];
            for (std::int64_t i = 0; i < HW; ++i)
                (*acc)[(n * C + c) * HW + i] += b;
        }
    }
}

Int32Tensor
relu(const Int32Tensor &input)
{
    Int32Tensor out = input;
    for (std::int32_t &v : out.data())
        v = std::max(v, 0);
    return out;
}

Int8Tensor
relu(const Int8Tensor &input)
{
    Int8Tensor out = input;
    for (std::int8_t &v : out.data())
        v = std::max<std::int8_t>(v, 0);
    return out;
}

Int32Tensor
add(const Int32Tensor &a, const Int32Tensor &b)
{
    CIMMLC_CHECK(a.shape() == b.shape()) << "add shape mismatch";
    Int32Tensor out = a;
    for (std::int64_t i = 0; i < out.numel(); ++i)
        out[i] += b[i];
    return out;
}

Int8Tensor
addSaturating(const Int8Tensor &a, const Int8Tensor &b)
{
    CIMMLC_CHECK(a.shape() == b.shape()) << "add shape mismatch";
    Int8Tensor out = a;
    for (std::int64_t i = 0; i < out.numel(); ++i) {
        const int sum = static_cast<int>(out[i]) + static_cast<int>(b[i]);
        out[i] = static_cast<std::int8_t>(clampInt(sum, -128, 127));
    }
    return out;
}

Int8Tensor
maxPool2d(const Int8Tensor &input, std::int64_t kernel, std::int64_t stride,
          std::int64_t padding)
{
    const TensorShape out_shape =
        pool2dOutputShape(input.shape(), kernel, stride, padding);
    const std::int64_t N = input.shape().dim(0);
    const std::int64_t C = input.shape().dim(1);
    const std::int64_t H = input.shape().dim(2);
    const std::int64_t W = input.shape().dim(3);

    Int8Tensor out(out_shape);
    for (std::int64_t n = 0; n < N; ++n) {
        for (std::int64_t c = 0; c < C; ++c) {
            for (std::int64_t oh = 0; oh < out_shape.dim(2); ++oh) {
                for (std::int64_t ow = 0; ow < out_shape.dim(3); ++ow) {
                    std::int8_t best = -128;
                    for (std::int64_t kh = 0; kh < kernel; ++kh) {
                        for (std::int64_t kw = 0; kw < kernel; ++kw) {
                            const std::int64_t ih =
                                oh * stride + kh - padding;
                            const std::int64_t iw =
                                ow * stride + kw - padding;
                            if (ih < 0 || ih >= H || iw < 0 || iw >= W)
                                continue;
                            best = std::max(best, input.at4(n, c, ih, iw));
                        }
                    }
                    out.at4(n, c, oh, ow) = best;
                }
            }
        }
    }
    return out;
}

Int8Tensor
avgPool2d(const Int8Tensor &input, std::int64_t kernel, std::int64_t stride,
          std::int64_t padding)
{
    const TensorShape out_shape =
        pool2dOutputShape(input.shape(), kernel, stride, padding);
    const std::int64_t N = input.shape().dim(0);
    const std::int64_t C = input.shape().dim(1);
    const std::int64_t H = input.shape().dim(2);
    const std::int64_t W = input.shape().dim(3);
    const std::int64_t window = kernel * kernel;

    Int8Tensor out(out_shape);
    for (std::int64_t n = 0; n < N; ++n) {
        for (std::int64_t c = 0; c < C; ++c) {
            for (std::int64_t oh = 0; oh < out_shape.dim(2); ++oh) {
                for (std::int64_t ow = 0; ow < out_shape.dim(3); ++ow) {
                    std::int32_t acc = 0;
                    for (std::int64_t kh = 0; kh < kernel; ++kh) {
                        for (std::int64_t kw = 0; kw < kernel; ++kw) {
                            const std::int64_t ih =
                                oh * stride + kh - padding;
                            const std::int64_t iw =
                                ow * stride + kw - padding;
                            if (ih < 0 || ih >= H || iw < 0 || iw >= W)
                                continue;
                            acc += input.at4(n, c, ih, iw);
                        }
                    }
                    // Round half away from zero, always dividing by the
                    // full window (padding counts as zero), matching the
                    // count_include_pad=True convention.
                    const std::int32_t rounded =
                        acc >= 0 ? (acc + window / 2)
                                 : (acc - window / 2);
                    out.at4(n, c, oh, ow) = static_cast<std::int8_t>(
                        clampInt(rounded / window, -128, 127));
                }
            }
        }
    }
    return out;
}

Int8Tensor
globalAvgPool(const Int8Tensor &input)
{
    const std::int64_t N = input.shape().dim(0);
    const std::int64_t C = input.shape().dim(1);
    const std::int64_t HW = input.shape().dim(2) * input.shape().dim(3);

    Int8Tensor out(TensorShape({N, C, 1, 1}));
    for (std::int64_t n = 0; n < N; ++n) {
        for (std::int64_t c = 0; c < C; ++c) {
            std::int32_t acc = 0;
            for (std::int64_t i = 0; i < HW; ++i)
                acc += input[(n * C + c) * HW + i];
            const std::int32_t rounded =
                acc >= 0 ? (acc + HW / 2) : (acc - HW / 2);
            out.at4(n, c, 0, 0) = static_cast<std::int8_t>(
                clampInt(rounded / HW, -128, 127));
        }
    }
    return out;
}

FloatTensor
softmax(const FloatTensor &input)
{
    const int rank = input.shape().rank();
    CIMMLC_CHECK_GE(rank, 1);
    const std::int64_t cols = input.shape().dim(rank - 1);
    const std::int64_t rows = input.numel() / cols;

    FloatTensor out = input;
    for (std::int64_t r = 0; r < rows; ++r) {
        float *row = out.data().data() + r * cols;
        float max_v = row[0];
        for (std::int64_t c = 1; c < cols; ++c)
            max_v = std::max(max_v, row[c]);
        float sum = 0.0f;
        for (std::int64_t c = 0; c < cols; ++c) {
            row[c] = std::exp(row[c] - max_v);
            sum += row[c];
        }
        for (std::int64_t c = 0; c < cols; ++c)
            row[c] /= sum;
    }
    return out;
}

FloatTensor
layerNorm(const FloatTensor &input)
{
    const int rank = input.shape().rank();
    CIMMLC_CHECK_GE(rank, 1);
    const std::int64_t cols = input.shape().dim(rank - 1);
    const std::int64_t rows = input.numel() / cols;
    constexpr float eps = 1e-5f;

    FloatTensor out = input;
    for (std::int64_t r = 0; r < rows; ++r) {
        float *row = out.data().data() + r * cols;
        float mean = 0.0f;
        for (std::int64_t c = 0; c < cols; ++c)
            mean += row[c];
        mean /= static_cast<float>(cols);
        float var = 0.0f;
        for (std::int64_t c = 0; c < cols; ++c) {
            const float d = row[c] - mean;
            var += d * d;
        }
        var /= static_cast<float>(cols);
        const float inv = 1.0f / std::sqrt(var + eps);
        for (std::int64_t c = 0; c < cols; ++c)
            row[c] = (row[c] - mean) * inv;
    }
    return out;
}

FloatTensor
gelu(const FloatTensor &input)
{
    FloatTensor out = input;
    constexpr float k = 0.7978845608f; // sqrt(2/pi)
    for (float &v : out.data()) {
        const float inner = k * (v + 0.044715f * v * v * v);
        v = 0.5f * v * (1.0f + std::tanh(inner));
    }
    return out;
}

} // namespace cimmlc::ops
