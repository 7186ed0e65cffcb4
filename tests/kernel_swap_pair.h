/**
 * @file
 * Two workloads that agree on name, node count, weights, MACs and every
 * output shape, and differ only in which conv carries the 3x3 kernel.
 * A cache key that summarizes the graph instead of serializing it
 * aliases them; tests pin that every cache consumer keeps them apart.
 */
#ifndef CIMMLC_TESTS_KERNEL_SWAP_PAIR_H
#define CIMMLC_TESTS_KERNEL_SWAP_PAIR_H

namespace cimmlc::testing_pairs {

//! c1 is a 3x3 (padding 1) conv to 32 channels, c2 a 1x1 conv to 16.
inline constexpr const char *kKernelSwapA = R"({
    "name": "net",
    "inputs": [{"name": "x", "dims": [1, 16, 8, 8]}],
    "nodes": [
        {"op": "conv2d", "name": "c1", "inputs": ["x"],
         "out_channels": 32, "kernel": 3, "padding": 1},
        {"op": "conv2d", "name": "c2", "inputs": ["c1"],
         "out_channels": 16, "kernel": 1}
    ],
    "outputs": ["c2"]
})";

//! c1 is a 1x1 conv to 32 channels, c2 a 3x3 (padding 1) conv to 16.
inline constexpr const char *kKernelSwapB = R"({
    "name": "net",
    "inputs": [{"name": "x", "dims": [1, 16, 8, 8]}],
    "nodes": [
        {"op": "conv2d", "name": "c1", "inputs": ["x"],
         "out_channels": 32, "kernel": 1},
        {"op": "conv2d", "name": "c2", "inputs": ["c1"],
         "out_channels": 16, "kernel": 3, "padding": 1}
    ],
    "outputs": ["c2"]
})";

} // namespace cimmlc::testing_pairs

#endif // CIMMLC_TESTS_KERNEL_SWAP_PAIR_H
