/**
 * @file
 * Statistics and input-generation helpers of the repository benchmark:
 * percentile selection with a resolvable tail, geometric means, the
 * seeded job order and Zipf request stream, and the report normalizer
 * that strips wall-clock fields before two reports are compared.
 */
#ifndef PERFBENCH_HELPERS_H
#define PERFBENCH_HELPERS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** A percentile selected from a sample set. */
struct Percentile {
    double value = 0.0;
    std::size_t samples = 0;
    //! at least `min_tail` samples lie beyond the selected rank; when
    //! false, `value` is the sample maximum (a conservative upper bound)
    bool resolved = false;
};

/**
 * The @p p-th percentile (0 <= p <= 100) of @p samples, interpolated
 * linearly between the closest ranks. It is only resolved when at least
 * @p min_tail samples rank above the interpolation point; otherwise the
 * maximum is reported. Failed requests enter as +infinity, so they count
 * as missing any latency limit.
 */
Percentile percentile(std::vector<double> samples, double p,
                      std::size_t min_tail = 10);

/** Median (mean of the middle pair for an even count); 0 when empty. */
double median(std::vector<double> samples);

/** Geometric mean of strictly positive values; 0 when empty or when any
 * value is not positive. */
double geomean(const std::vector<double> &values);

/** Shifted geometric mean exp(mean(ln(v + 1))) - 1 of non-negative
 * values, for quantities that are legitimately 0 on some jobs (reload
 * and stall cycles). */
double shiftedGeomean(const std::vector<double> &values);

/** SplitMix64 step: advances @p state and returns the next output. */
std::uint64_t splitmix64(std::uint64_t &state);

/** A permutation of 0..n-1 drawn from @p seed (Fisher-Yates). */
std::vector<std::size_t> seededOrder(std::size_t n, std::uint64_t seed);

/**
 * Infinite stream of item indices in [0, items) with Zipf popularity:
 * item i is drawn with probability proportional to 1 / (i + 1)^exponent.
 * Draws come in blocks whose item counts are the Zipf shares rounded to
 * whole requests (at least one each), each block in a fresh seeded
 * order, so every block carries the same request mix and only the order
 * depends on the seed. The same seed always yields the same stream.
 */
class ZipfStream
{
  public:
    ZipfStream(std::uint64_t seed, std::size_t items, double exponent,
               std::size_t block = 120);

    std::size_t next();

    /** Requests per block (the sum of the rounded shares). */
    std::size_t blockSize() const { return quota_.size(); }

  private:
    std::uint64_t state_;
    std::vector<std::size_t> quota_; //!< one block's items, canonical order
    std::vector<std::size_t> block_; //!< the current block, shuffled
    std::size_t at_ = 0;
};

/**
 * A kvjson report dump with every value of the wall-clock fields
 * ("wall_ms") and the replay provenance tag ("cached") replaced by "X",
 * so a cold and a replayed compile of the same request compare equal
 * exactly when everything else in the report does. Works on compact and
 * pretty dumps.
 */
std::string stripTimingFields(const std::string &report);

} // namespace perfbench

#endif // PERFBENCH_HELPERS_H
