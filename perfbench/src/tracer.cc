#include "tracer.h"

#include <atomic>
#include <cstdio>

#include "common/config.h"

namespace perfbench {

namespace {

/** Small stable per-thread index for the trace's tid column. */
int
threadIndex()
{
    static std::atomic<int> next{1};
    thread_local const int index = next.fetch_add(1);
    return index;
}

} // namespace

std::int64_t
Tracer::reserve()
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    return next_id_++;
}

std::int64_t
Tracer::record(const std::string &name, Clock::time_point start,
               Clock::time_point end, std::int64_t parent,
               std::int64_t request)
{
    const std::int64_t id = reserve();
    recordReserved(id, name, start, end, parent, request);
    return id;
}

void
Tracer::recordReserved(std::int64_t id, const std::string &name,
                       Clock::time_point start, Clock::time_point end,
                       std::int64_t parent, std::int64_t request)
{
    if (!enabled_)
        return;
    Span span{id, parent, request, name, start, end, threadIndex()};
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

cimmlc::Status
Tracer::writeChromeTrace(const std::string &path) const
{
    using cimmlc::ConfigValue;
    auto us = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    };
    ConfigValue::Array events;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        events.reserve(spans_.size());
        for (const Span &span : spans_) {
            ConfigValue::Object args;
            args["id"] = ConfigValue::makeNumber(
                static_cast<double>(span.id));
            args["parent"] = ConfigValue::makeNumber(
                static_cast<double>(span.parent));
            args["request"] = ConfigValue::makeNumber(
                static_cast<double>(span.request));
            ConfigValue::Object event;
            event["name"] = ConfigValue::makeString(span.name);
            event["cat"] = ConfigValue::makeString(
                span.name.substr(0, span.name.find('.')));
            event["ph"] = ConfigValue::makeString("X");
            event["ts"] = ConfigValue::makeNumber(us(span.start));
            event["dur"] = ConfigValue::makeNumber(us(span.end)
                                                   - us(span.start));
            event["pid"] = ConfigValue::makeNumber(1);
            event["tid"] = ConfigValue::makeNumber(span.thread);
            event["args"] = ConfigValue::makeObject(std::move(args));
            events.push_back(ConfigValue::makeObject(std::move(event)));
        }
    }
    ConfigValue::Object doc;
    doc["traceEvents"] = ConfigValue::makeArray(std::move(events));
    doc["displayTimeUnit"] = ConfigValue::makeString("ms");
    return cimmlc::saveConfigFile(path,
                                  ConfigValue::makeObject(std::move(doc)));
}

} // namespace perfbench
