#include "helpers.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

Percentile
percentile(std::vector<double> samples, double p, std::size_t min_tail)
{
    Percentile result;
    result.samples = samples.size();
    if (samples.empty())
        return result;
    std::sort(samples.begin(), samples.end());
    const auto n = samples.size();
    // Linear interpolation between the closest ranks, at 0-based
    // position h = (n - 1) p / 100.
    const double h = static_cast<double>(n - 1) * p / 100.0;
    const auto lo = std::min(static_cast<std::size_t>(h), n - 1);
    const auto hi = std::min(lo + 1, n - 1);
    const double frac = h - static_cast<double>(lo);
    result.resolved = n - 1 - lo >= min_tail;
    if (!result.resolved)
        result.value = samples.back();
    else if (frac == 0.0 || samples[hi] == samples[lo])
        result.value = samples[lo];
    else
        result.value = samples[lo] + frac * (samples[hi] - samples[lo]);
    return result;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        if (!(v > 0.0))
            return 0.0;
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
shiftedGeomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log1p(std::max(v, 0.0));
    return std::expm1(log_sum / static_cast<double>(values.size()));
}

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::vector<std::size_t>
seededOrder(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::uint64_t state = seed;
    for (std::size_t i = n; i > 1; --i) {
        const auto j = static_cast<std::size_t>(splitmix64(state) % i);
        std::swap(order[i - 1], order[j]);
    }
    return order;
}

ZipfStream::ZipfStream(std::uint64_t seed, std::size_t items,
                       double exponent, std::size_t block)
    : state_(seed)
{
    double total = 0.0;
    for (std::size_t i = 0; i < items; ++i)
        total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    for (std::size_t i = 0; i < items; ++i) {
        const double share =
            static_cast<double>(block)
            / std::pow(static_cast<double>(i + 1), exponent) / total;
        const auto count =
            std::max<std::size_t>(1, static_cast<std::size_t>(
                                         std::llround(share)));
        quota_.insert(quota_.end(), count, i);
    }
    at_ = quota_.size();
}

std::size_t
ZipfStream::next()
{
    if (at_ == quota_.size()) {
        block_.clear();
        for (const std::size_t i : seededOrder(quota_.size(),
                                               splitmix64(state_)))
            block_.push_back(quota_[i]);
        at_ = 0;
    }
    return block_[at_++];
}

std::string
stripTimingFields(const std::string &report)
{
    static const char *const kKeys[] = {"\"wall_ms\":", "\"cached\":"};
    std::string out;
    out.reserve(report.size());
    std::size_t at = 0;
    while (at < report.size()) {
        std::size_t hit = std::string::npos;
        std::size_t key_len = 0;
        for (const char *key : kKeys) {
            const std::string k(key);
            const std::size_t pos = report.find(k, at);
            if (pos < hit) {
                hit = pos;
                key_len = k.size();
            }
        }
        if (hit == std::string::npos) {
            out.append(report, at, std::string::npos);
            break;
        }
        std::size_t value = hit + key_len;
        out.append(report, at, value - at);
        while (value < report.size() && report[value] == ' ')
            out.push_back(report[value++]);
        std::size_t end = value;
        while (end < report.size() && report[end] != ','
               && report[end] != '}' && report[end] != '\n')
            ++end;
        out.push_back('X');
        at = end;
    }
    return out;
}

} // namespace perfbench
