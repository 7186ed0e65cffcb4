#include "cache/artifact_cache.h"

#include <cstdio>
#include <cstring>

#include "arch/serialize.h"
#include "common/logging.h"
#include "graph/serialize.h"

namespace cimmlc {

// ----- ArtifactHash ---------------------------------------------------------

void
ArtifactHash::mixBytes(const char *data, std::size_t size)
{
    for (std::size_t i = 0; i < size; ++i) {
        const auto byte = static_cast<std::uint8_t>(data[i]);
        lo_ = (lo_ ^ byte) * 0x100000001b3ull;
        hi_ = (hi_ ^ byte) * 0x00000100000001b3ull ^ (hi_ >> 29);
    }
}

ArtifactHash &
ArtifactHash::mix(const std::string &text)
{
    mix(static_cast<std::int64_t>(text.size()));
    mixBytes(text.data(), text.size());
    return *this;
}

ArtifactHash &
ArtifactHash::mix(const char *text)
{
    const std::size_t size = std::strlen(text);
    mix(static_cast<std::int64_t>(size));
    mixBytes(text, size);
    return *this;
}

ArtifactHash &
ArtifactHash::mix(std::int64_t value)
{
    char bytes[sizeof value];
    std::memcpy(bytes, &value, sizeof value);
    mixBytes(bytes, sizeof value);
    return *this;
}

ArtifactHash &
ArtifactHash::mix(bool value)
{
    const char byte = value ? 1 : 0;
    mixBytes(&byte, 1);
    return *this;
}

ArtifactHash &
ArtifactHash::mix(double value)
{
    char text[64];
    std::snprintf(text, sizeof text, "%.17g", value);
    mixBytes(text, std::strlen(text));
    return *this;
}

std::string
ArtifactHash::digest() const
{
    char text[33];
    std::snprintf(text, sizeof text, "%016llx%016llx",
                  static_cast<unsigned long long>(hi_),
                  static_cast<unsigned long long>(lo_));
    return text;
}

std::string
graphDigest(const Graph &graph)
{
    return ArtifactHash().mix(graphToConfig(graph).dump()).digest();
}

std::string
archDigest(const CimArchitecture &arch)
{
    return ArtifactHash().mix(archToConfig(arch).dump()).digest();
}

// ----- ArtifactCache --------------------------------------------------------

namespace {

std::string
slotKey(const std::string &stage, const std::string &key)
{
    std::string combined;
    combined.reserve(stage.size() + key.size() + 1);
    combined += stage;
    combined += '\0';
    combined += key;
    return combined;
}

} // namespace

ArtifactCache::ArtifactCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
    // A zero-entry LRU cannot satisfy its own insert contract, so 0 is
    // clamped — but say so: a caller asking for "no cache" would
    // otherwise silently get a one-entry cache.
    if (capacity == 0)
        warn("artifact cache capacity 0 clamped to 1 (the cache cannot "
             "be disabled; its smallest size is one entry)");
}

std::optional<ArtifactCache::Entry>
ArtifactCache::lookup(const std::string &stage, const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(slotKey(stage, key));
    if (it == slots_.end()) {
        ++misses_;
        ++stage_counters_[stage].misses;
        return std::nullopt;
    }
    ++hits_;
    ++stage_counters_[stage].hits;
    recency_.splice(recency_.begin(), recency_, it->second.recency);
    return it->second.entry;
}

void
ArtifactCache::insert(const std::string &stage, const std::string &key,
                      Entry entry)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::string combined = slotKey(stage, key);
    auto it = slots_.find(combined);
    if (it != slots_.end()) {
        it->second.entry = std::move(entry);
        recency_.splice(recency_.begin(), recency_, it->second.recency);
        return;
    }
    while (slots_.size() >= capacity_) {
        const std::string &oldest = recency_.back();
        slots_.erase(oldest);
        recency_.pop_back();
        ++evictions_;
    }
    recency_.push_front(combined);
    slots_.emplace(combined, Slot{std::move(entry), recency_.begin()});
}

void
ArtifactCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    slots_.clear();
    recency_.clear();
}

std::size_t
ArtifactCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return slots_.size();
}

std::size_t
ArtifactCache::capacity() const
{
    return capacity_;
}

std::int64_t
ArtifactCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return evictions_;
}

std::int64_t
ArtifactCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::int64_t
ArtifactCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

ConfigValue
ArtifactCache::toConfig() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ConfigValue::Object doc;
    doc["capacity"] = ConfigValue::makeNumber(
        static_cast<double>(capacity_));
    doc["entries"] =
        ConfigValue::makeNumber(static_cast<double>(slots_.size()));
    doc["evictions"] =
        ConfigValue::makeNumber(static_cast<double>(evictions_));
    doc["hits"] = ConfigValue::makeNumber(static_cast<double>(hits_));
    doc["misses"] = ConfigValue::makeNumber(static_cast<double>(misses_));
    const std::int64_t total = hits_ + misses_;
    doc["hit_rate"] = ConfigValue::makeNumber(
        total > 0 ? static_cast<double>(hits_) / static_cast<double>(total)
                  : 0.0);

    ConfigValue::Object stages;
    for (const auto &[stage, counters] : stage_counters_) {
        ConfigValue::Object row;
        row["hits"] =
            ConfigValue::makeNumber(static_cast<double>(counters.hits));
        row["misses"] =
            ConfigValue::makeNumber(static_cast<double>(counters.misses));
        const std::int64_t seen = counters.hits + counters.misses;
        row["hit_rate"] = ConfigValue::makeNumber(
            seen > 0 ? static_cast<double>(counters.hits)
                           / static_cast<double>(seen)
                     : 0.0);
        stages[stage] = ConfigValue::makeObject(std::move(row));
    }
    doc["stages"] = ConfigValue::makeObject(std::move(stages));
    return ConfigValue::makeObject(std::move(doc));
}

} // namespace cimmlc
