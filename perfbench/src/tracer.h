/**
 * @file
 * In-memory span recorder of the traced benchmark run. The benchmark
 * records a span around each call it makes into a layer's public API
 * (name, start, end, parent span, request id); spans stay in memory
 * and are written once, at exit, as Chrome trace-event JSON that
 * Perfetto and chrome://tracing open. A disabled tracer records nothing,
 * which is how the untraced run measures the end-to-end metrics.
 */
#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds between two steady-clock points. */
inline double
msBetween(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double, std::milli>(end - start).count();
}

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Records a finished span; returns its id (0 when disabled). Thread
     * safe. @p parent is 0 for a root span. */
    std::int64_t record(const std::string &name, Clock::time_point start,
                        Clock::time_point end, std::int64_t parent = 0,
                        std::int64_t request = 0);

    /** Reserves an id for a span whose end is not known yet, so child
     * spans can name it as their parent before it is recorded. */
    std::int64_t reserve();

    /** Records a span under an id obtained from reserve(). */
    void recordReserved(std::int64_t id, const std::string &name,
                        Clock::time_point start, Clock::time_point end,
                        std::int64_t parent = 0, std::int64_t request = 0);

    std::size_t spanCount() const;

    /** Writes every span as Chrome trace-event JSON ("X" events, time in
     * microseconds from the tracer's creation). */
    cimmlc::Status writeChromeTrace(const std::string &path) const;

  private:
    struct Span {
        std::int64_t id = 0;
        std::int64_t parent = 0;
        std::int64_t request = 0;
        std::string name;
        Clock::time_point start;
        Clock::time_point end;
        int thread = 0;
    };

    bool enabled_;
    const Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::int64_t next_id_ = 1;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
