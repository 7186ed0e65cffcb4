/**
 * @file
 * Tests of the benchmark's own helpers: percentile selection and its
 * ten-samples-beyond rule, the geometric means, determinism of the
 * seeded job order and Zipf stream, and report timing-field stripping.
 * Run with `python3 perfbench/run.py --selftest`.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "helpers.h"

namespace perfbench {
namespace {

std::vector<double>
oneTo(int n)
{
    std::vector<double> values;
    for (int i = 1; i <= n; ++i)
        values.push_back(i);
    return values;
}

TEST(Percentile, InterpolatesWhenTenSamplesLieBeyond)
{
    // 100 samples: p90 sits at 0-based position 89.1, between 90 and 91,
    // and the ten samples 91..100 lie beyond it.
    const Percentile p90 = percentile(oneTo(100), 90.0);
    EXPECT_TRUE(p90.resolved);
    EXPECT_NEAR(p90.value, 90.1, 1e-9);
    EXPECT_EQ(p90.samples, 100u);
    const Percentile p50 = percentile(oneTo(100), 50.0);
    EXPECT_TRUE(p50.resolved);
    EXPECT_NEAR(p50.value, 50.5, 1e-9);
    // An odd count puts the median on a sample.
    EXPECT_EQ(percentile(oneTo(21), 50.0).value, 11.0);
}

TEST(Percentile, FallsBackToMaximumWithFewerThanTenBeyond)
{
    // 91 samples: p90 sits exactly on the 81st sample (position 81), with
    // only 9 beyond it.
    const Percentile p90 = percentile(oneTo(91), 90.0);
    EXPECT_FALSE(p90.resolved);
    EXPECT_EQ(p90.value, 91.0);
    EXPECT_TRUE(percentile(oneTo(92), 90.0).resolved);
    // 19 samples: the median (the 10th) has only 9 beyond it.
    const Percentile p50 = percentile(oneTo(19), 50.0);
    EXPECT_FALSE(p50.resolved);
    EXPECT_EQ(p50.value, 19.0);
    // 20 samples: the median interpolates the 10th and 11th.
    const Percentile even = percentile(oneTo(20), 50.0);
    EXPECT_TRUE(even.resolved);
    EXPECT_EQ(even.value, 10.5);
}

TEST(Percentile, IgnoresInputOrderAndCountsFailuresAsMissingTheLimit)
{
    std::vector<double> values = oneTo(100);
    std::reverse(values.begin(), values.end());
    EXPECT_NEAR(percentile(values, 90.0).value, 90.1, 1e-9);
    // Eleven failed requests push p90 onto a failure.
    for (int i = 0; i < 11; ++i)
        values[static_cast<std::size_t>(i)] =
            std::numeric_limits<double>::infinity();
    EXPECT_TRUE(std::isinf(percentile(values, 90.0).value));
    // Ten failures: p90 interpolates towards a failure, which is +inf.
    values[10] = 90.0;
    EXPECT_TRUE(std::isinf(percentile(values, 90.0).value));
    EXPECT_EQ(percentile(values, 50.0).value, 50.5);
}

TEST(Percentile, EmptyInputIsUnresolvedZero)
{
    const Percentile p = percentile({}, 50.0);
    EXPECT_FALSE(p.resolved);
    EXPECT_EQ(p.value, 0.0);
    EXPECT_EQ(p.samples, 0u);
}

TEST(Median, OddAndEvenCounts)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(Geomean, OfPositiveValues)
{
    EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
    EXPECT_DOUBLE_EQ(geomean({5.0}), 5.0);
    EXPECT_NEAR(geomean({1.0, 10.0, 100.0}), 10.0, 1e-12);
}

TEST(Geomean, RejectsEmptyAndNonPositiveInput)
{
    EXPECT_EQ(geomean({}), 0.0);
    EXPECT_EQ(geomean({1.0, 0.0}), 0.0);
    EXPECT_EQ(geomean({1.0, -2.0}), 0.0);
}

TEST(ShiftedGeomean, AcceptsZeros)
{
    EXPECT_DOUBLE_EQ(shiftedGeomean({0.0, 0.0}), 0.0);
    // exp(mean(ln 1, ln 9)) - 1 = 3 - 1
    EXPECT_NEAR(shiftedGeomean({0.0, 8.0}), 2.0, 1e-12);
}

TEST(SeededOrder, IsADeterministicPermutation)
{
    const auto a = seededOrder(30, 7);
    EXPECT_EQ(a, seededOrder(30, 7));
    EXPECT_NE(a, seededOrder(30, 8));
    EXPECT_EQ(std::set<std::size_t>(a.begin(), a.end()).size(), 30u);
    EXPECT_EQ(*std::max_element(a.begin(), a.end()), 29u);
}

TEST(ZipfStream, SameSeedSameStream)
{
    ZipfStream a(42, 30, 1.0), b(42, 30, 1.0), c(43, 30, 1.0);
    bool differs = false;
    for (int i = 0; i < 1000; ++i) {
        const std::size_t x = a.next();
        EXPECT_EQ(x, b.next());
        EXPECT_LT(x, 30u);
        differs = differs || x != c.next();
    }
    EXPECT_TRUE(differs);
}

TEST(ZipfStream, EveryBlockCarriesTheZipfMix)
{
    ZipfStream stream(1, 30, 1.0);
    const std::size_t block = stream.blockSize();
    EXPECT_NEAR(static_cast<double>(block), 120.0, 15.0);
    std::vector<int> first(30, 0);
    for (std::size_t i = 0; i < block; ++i)
        ++first[stream.next()];
    // Share of rank 0 is 1 / H(30) ~ 0.2503 of a 120-request block, and
    // the tail keeps one request each.
    EXPECT_EQ(first[0], 30);
    EXPECT_EQ(first[1], 15);
    EXPECT_EQ(first[29], 1);
    std::vector<int> second(30, 0);
    std::vector<std::size_t> order_a, order_b;
    for (std::size_t i = 0; i < block; ++i) {
        order_b.push_back(stream.next());
        ++second[order_b.back()];
    }
    EXPECT_EQ(first, second);
    ZipfStream other(2, 30, 1.0);
    for (std::size_t i = 0; i < block; ++i)
        order_a.push_back(other.next());
    EXPECT_NE(order_a, order_b);
}

TEST(StripTimingFields, MasksWallClockAndReplayProvenanceOnly)
{
    const std::string cold =
        "{\n  \"stages\": [\n    {\n      \"cached\": false,\n"
        "      \"stage\": \"load\",\n      \"wall_ms\": 0.143\n    }\n"
        "  ],\n  \"perf\": {\"latency_cycles\": 98.5}\n}";
    const std::string warm =
        "{\n  \"stages\": [\n    {\n      \"cached\": true,\n"
        "      \"stage\": \"load\",\n      \"wall_ms\": 1.5e-05\n    }\n"
        "  ],\n  \"perf\": {\"latency_cycles\": 98.5}\n}";
    EXPECT_EQ(stripTimingFields(cold), stripTimingFields(warm));
    EXPECT_NE(stripTimingFields(cold).find("\"wall_ms\": X"),
              std::string::npos);
    EXPECT_NE(stripTimingFields(cold).find("\"cached\": X,"),
              std::string::npos);
    // A modeled number is not a timing field.
    std::string changed = warm;
    changed.replace(changed.find("98.5"), 4, "99.5");
    EXPECT_NE(stripTimingFields(cold), stripTimingFields(changed));
}

TEST(StripTimingFields, CompactDumpsAndUntouchedText)
{
    EXPECT_EQ(stripTimingFields("{\"a\":1,\"wall_ms\":2.5,\"b\":3}"),
              "{\"a\":1,\"wall_ms\":X,\"b\":3}");
    EXPECT_EQ(stripTimingFields("{\"wall_ms\":7}"), "{\"wall_ms\":X}");
    EXPECT_EQ(stripTimingFields("no timing here"), "no timing here");
}

} // namespace
} // namespace perfbench
