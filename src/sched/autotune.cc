#include "sched/autotune.h"

#include <atomic>
#include <bit>
#include <limits>

#include "cache/artifact_cache.h"
#include "common/strutil.h"
#include "common/table.h"
#include "common/threadpool.h"
#include "compiler/session.h"
#include "search/dominance.h"
#include "sched/multi_level.h"

namespace cimmlc {

namespace {

// Stable bit layout of the candidate encoding. The encoding doubles as
// the tie-break key, so the layout is part of the tuner's deterministic
// output contract — append bits, never reorder them.
constexpr std::uint32_t kCgDuplicationBit = 1u << 0;
constexpr std::uint32_t kCgPipelineBit = 1u << 1;
constexpr std::uint32_t kMvmDuplicationBit = 1u << 2;
constexpr std::uint32_t kMvmPipelineBit = 1u << 3;
constexpr std::uint32_t kVvmRemapBit = 1u << 4;
constexpr std::uint32_t kBitsToCrossbarsBit = 1u << 5;
// Bits 6-7: segmentation granularity, an index into kSegmentCaps.
constexpr std::uint32_t kSegmentCapShift = 6;
constexpr std::uint32_t kSegmentCapMask = 3u << kSegmentCapShift;
constexpr std::int64_t kSegmentCaps[] = {0, 1, 2, 4};
// Bit 8: dual-mode (resident) arrays. Bit 9: hybrid host offload.
constexpr std::uint32_t kDualModeBit = 1u << 8;
constexpr std::uint32_t kHostOffloadBit = 1u << 9;
constexpr std::uint32_t kEncodingSpace = 1u << 10;

// The public pruning masks (autotune.h) must track this bit layout.
static_assert(kTuneKnobMask
              == (kCgDuplicationBit | kCgPipelineBit | kMvmDuplicationBit
                  | kMvmPipelineBit | kVvmRemapBit));
static_assert(kTuneContextMask
              == (kBitsToCrossbarsBit | kSegmentCapMask | kDualModeBit
                  | kHostOffloadBit));

/** The option clamp scheduleGraph applies for @p mode. */
ScheduleOptions
clampToMode(ScheduleOptions options, ComputeMode mode)
{
    if (mode == ComputeMode::kCM) {
        options.mvm_duplication = false;
        options.mvm_pipeline = false;
        options.vvm_remap = false;
    } else if (mode == ComputeMode::kXBM) {
        options.vvm_remap = false;
    }
    return options;
}

/** Bits a candidate may not set under @p mode. */
std::uint32_t
forbiddenBits(ComputeMode mode)
{
    switch (mode) {
      case ComputeMode::kCM:
        return kMvmDuplicationBit | kMvmPipelineBit | kVvmRemapBit;
      case ComputeMode::kXBM:
        return kVvmRemapBit;
      case ComputeMode::kWLM:
        return 0;
    }
    return 0;
}

/** The (graph, arch) identity one tune call keys its memo entries by. */
struct TuneIdentity {
    std::string graph;
    std::string arch;
};

void
evaluateCandidate(const Graph &graph, const CimArchitecture &arch,
                  const HostModel &host_model, TuneCandidate &candidate,
                  TuneCache *cache, const TuneIdentity &identity,
                  std::atomic<std::int64_t> &cache_hits)
{
    std::string key;
    if (cache != nullptr) {
        key = TuneCache::key(identity.graph, identity.arch,
                             candidate.encoding, {},
                             candidate.options.host_offload
                                 ? host_model.tag()
                                 : "");
        if (auto hit = cache->lookup(key)) {
            candidate.status = hit->status;
            candidate.latency_cycles = hit->latency_cycles;
            candidate.energy_pj = hit->energy_pj;
            candidate.edp = hit->edp;
            cache_hits.fetch_add(1, std::memory_order_relaxed);
            return;
        }
    }

    // Each candidate is priced through the shared staged pipeline
    // (schedule + perf only — no codegen), so the tuner holds no
    // private copy of the compile flow.
    auto fill = [&]() -> Status {
        CompileRequest request;
        request.graph = &graph;
        request.arch_ref = &arch;
        request.options = candidate.options;
        request.host_model = host_model;
        request.threads = 1;
        request.outputs.flow = false;
        request.stop_after = CompileStage::kPerf;
        CompilerSession session(std::move(request));
        CIMMLC_ASSIGN_OR_RETURN(const CompileArtifacts artifacts,
                                session.run());
        candidate.latency_cycles = artifacts.perf->latency_cycles;
        candidate.energy_pj = artifacts.perf->energy.total();
        candidate.edp = candidate.latency_cycles * candidate.energy_pj;
        return Status::ok();
    };
    candidate.status = fill();

    if (cache != nullptr) {
        cache->insert(key,
                      TuneCache::Entry{candidate.status,
                                       candidate.latency_cycles,
                                       candidate.energy_pj,
                                       candidate.edp});
    }
}

} // namespace

const char *
tuneObjectiveName(TuneObjective objective)
{
    switch (objective) {
      case TuneObjective::kLatency: return "latency";
      case TuneObjective::kEnergy: return "energy";
      case TuneObjective::kEdp: return "edp";
    }
    return "?";
}

StatusOr<TuneObjective>
parseTuneObjective(const std::string &text)
{
    const std::string key = toLower(trim(text));
    if (key == "latency")
        return TuneObjective::kLatency;
    if (key == "energy")
        return TuneObjective::kEnergy;
    if (key == "edp")
        return TuneObjective::kEdp;
    return invalidArgument("unknown tuning objective '" + text
                           + "' (expected latency | energy | edp)");
}

double
TuneCandidate::objectiveValue(TuneObjective objective) const
{
    switch (objective) {
      case TuneObjective::kLatency: return latency_cycles;
      case TuneObjective::kEnergy: return energy_pj;
      case TuneObjective::kEdp: return edp;
    }
    return std::numeric_limits<double>::infinity();
}

double
TuneResult::speedupOverDefault() const
{
    if (!defaults().status.isOk() || !best().status.isOk())
        return 1.0;
    const double base = defaults().objectiveValue(objective);
    const double tuned = best().objectiveValue(objective);
    return tuned > 0.0 ? base / tuned : 1.0;
}

std::string
TuneResult::table() const
{
    TextTable table({"config", "latency (cyc)", "energy (pJ)", "EDP",
                     "note"});
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const TuneCandidate &candidate = candidates[i];
        std::string note;
        if (i == best_index)
            note = i == default_index ? "<- best (default)" : "<- best";
        else if (i == default_index)
            note = "default";
        if (candidate.status.isOk()) {
            table.addRow({candidate.options.toString(),
                          strformat("%.6g", candidate.latency_cycles),
                          strformat("%.6g", candidate.energy_pj),
                          strformat("%.6g", candidate.edp), note});
        } else {
            table.addRow({candidate.options.toString(), "-", "-", "-",
                          candidate.status.toString()});
        }
    }
    return table.render();
}

std::string
TuneResult::summary() const
{
    std::string line = strformat(
        "autotune[%s]: %zu candidates, best=%s (%s %.6g, %.3gx better "
        "than default)",
        tuneObjectiveName(objective), candidates.size(),
        best().options.toString().c_str(), tuneObjectiveName(objective),
        best().objectiveValue(objective), speedupOverDefault());
    if (budget.enabled()) {
        // Only the evaluation cap: the proxy-fidelity fields of the
        // budget are consumed by the explorer's halving rungs, never
        // by the tuner, so rendering them here would claim proxy
        // evaluations that did not happen.
        line += strformat(
            ", evaluated %lld (pruned %lld, budget evals<=%lld)",
            static_cast<long long>(evaluated_count),
            static_cast<long long>(pruned_count),
            static_cast<long long>(budget.max_full_evals));
    }
    return line;
}

std::optional<TuneCache::Entry>
TuneCache::lookup(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end())
        return std::nullopt;
    ++hits_;
    return it->second;
}

void
TuneCache::insert(const std::string &key, const Entry &entry)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // First insert wins; concurrent evaluators of the same key computed
    // identical values, so the choice does not matter.
    entries_.emplace(key, entry);
}

std::int64_t
TuneCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::size_t
TuneCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::string
TuneCache::key(const std::string &graph_digest,
               const std::string &arch_digest, std::uint32_t encoding,
               const SearchFidelity &fidelity, const std::string &host_tag)
{
    return ArtifactHash()
        .mix(graph_digest)
        .mix(arch_digest)
        .mix(static_cast<std::int64_t>(encoding))
        .mix(fidelity.tag())
        .mix(host_tag)
        .digest();
}

ConfigValue
TuneCache::toConfig() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ConfigValue::Array rows;
    for (const auto &[key, entry] : entries_) {
        ConfigValue::Object row;
        row["key"] = ConfigValue::makeString(key);
        row["code"] = ConfigValue::makeNumber(
            static_cast<double>(static_cast<int>(entry.status.code())));
        if (!entry.status.isOk())
            row["message"] =
                ConfigValue::makeString(entry.status.message());
        row["latency_cycles"] =
            ConfigValue::makeNumber(entry.latency_cycles);
        row["energy_pj"] = ConfigValue::makeNumber(entry.energy_pj);
        row["edp"] = ConfigValue::makeNumber(entry.edp);
        rows.push_back(ConfigValue::makeObject(std::move(row)));
    }
    ConfigValue::Object doc;
    doc["schema"] = ConfigValue::makeString("cimmlc.tunecache.v2");
    doc["entries"] = ConfigValue::makeArray(std::move(rows));
    return ConfigValue::makeObject(std::move(doc));
}

Status
TuneCache::loadFromConfig(const ConfigValue &doc)
{
    // Parse into a scratch map first: a document that fails halfway
    // must leave the cache cold, not half-populated with stale entries.
    std::map<std::string, Entry> loaded;
    auto fail = [this](Status status) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            entries_.clear();
        }
        return status;
    };
    if (!doc.isObject())
        return fail(parseError("tune cache must be a kvjson object"));
    const std::string schema = doc.getStringOr("schema", "");
    if (schema != "cimmlc.tunecache.v2")
        return fail(parseError("tune cache has schema '" + schema
                               + "', expected 'cimmlc.tunecache.v2' "
                                 "(stale file?)"));
    auto rows = doc.get("entries");
    if (!rows.isOk() || !rows.value().isArray())
        return fail(parseError("tune cache 'entries' must be an array"));
    for (const ConfigValue &row : rows.value().asArray()) {
        if (!row.isObject() || !row.has("key")
            || !row.get("key").value().isString())
            return fail(
                parseError("tune cache entry is missing its key"));
        const std::string key = row.get("key").value().asString();
        const std::int64_t code = row.getIntOr("code", -1);
        if (code < 0
            || code > static_cast<std::int64_t>(StatusCode::kParseError))
            return fail(parseError(strformat(
                "tune cache entry has unknown status code %lld",
                static_cast<long long>(code))));
        Entry entry;
        if (code != 0) {
            entry.status = Status(static_cast<StatusCode>(code),
                                  row.getStringOr("message", ""));
        }
        // Presence alone is not enough: a wrong-typed metric would
        // silently load as 0.0 and poison every warm run with a
        // zero-latency "best" point.
        auto metric = [&row](const char *field, double *out) {
            if (!row.has(field))
                return false;
            const ConfigValue value = row.get(field).value();
            if (!value.isNumber())
                return false;
            *out = value.asNumber();
            return true;
        };
        if (!metric("latency_cycles", &entry.latency_cycles)
            || !metric("energy_pj", &entry.energy_pj)
            || !metric("edp", &entry.edp))
            return fail(parseError("tune cache entry for '" + key
                                   + "' is truncated or mistyped"));
        loaded[key] = entry;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    entries_ = std::move(loaded);
    return Status::ok();
}

Status
TuneCache::saveToFile(const std::string &path) const
{
    // Atomic temp-file + rename: the daemon snapshots a live cache
    // while other processes may be loading the same path, and a torn
    // file would degrade every reader to a cold cache.
    return saveConfigFileAtomic(path, toConfig());
}

Status
TuneCache::loadFromFile(const std::string &path)
{
    auto doc = loadConfigFile(path);
    if (!doc.isOk()) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            entries_.clear();
        }
        return doc.status().withContext("tune cache");
    }
    return loadFromConfig(doc.value());
}

std::uint32_t
AutoTuner::encodeOptions(const ScheduleOptions &options)
{
    std::uint32_t encoding = 0;
    if (options.cg_duplication)
        encoding |= kCgDuplicationBit;
    if (options.cg_pipeline)
        encoding |= kCgPipelineBit;
    if (options.mvm_duplication)
        encoding |= kMvmDuplicationBit;
    if (options.mvm_pipeline)
        encoding |= kMvmPipelineBit;
    if (options.vvm_remap)
        encoding |= kVvmRemapBit;
    if (options.binding.bit_binding == XbarDim::kXB)
        encoding |= kBitsToCrossbarsBit;
    // Nearest lattice point from below; exact for the tuner's own
    // candidates, which only use kSegmentCaps values.
    std::uint32_t cap_index = 0;
    for (std::uint32_t i = 0; i < 4; ++i) {
        if (options.segment_max_nodes >= kSegmentCaps[i])
            cap_index = i;
    }
    if (options.segment_max_nodes <= 0)
        cap_index = 0;
    encoding |= cap_index << kSegmentCapShift;
    if (options.dual_mode)
        encoding |= kDualModeBit;
    if (options.host_offload)
        encoding |= kHostOffloadBit;
    return encoding;
}

ScheduleOptions
AutoTuner::decodeOptions(std::uint32_t encoding)
{
    ScheduleOptions options;
    options.cg_duplication = (encoding & kCgDuplicationBit) != 0;
    options.cg_pipeline = (encoding & kCgPipelineBit) != 0;
    options.mvm_duplication = (encoding & kMvmDuplicationBit) != 0;
    options.mvm_pipeline = (encoding & kMvmPipelineBit) != 0;
    options.vvm_remap = (encoding & kVvmRemapBit) != 0;
    options.binding = (encoding & kBitsToCrossbarsBit) != 0
                          ? DimensionBinding::bitsToCrossbars()
                          : DimensionBinding::bitsToColumns();
    options.segment_max_nodes =
        kSegmentCaps[(encoding & kSegmentCapMask) >> kSegmentCapShift];
    options.dual_mode = (encoding & kDualModeBit) != 0;
    options.host_offload = (encoding & kHostOffloadBit) != 0;
    return options;
}

std::vector<ScheduleOptions>
AutoTuner::enumerateCandidates(ComputeMode mode)
{
    const std::uint32_t forbidden = forbiddenBits(mode);
    std::vector<ScheduleOptions> candidates;
    for (std::uint32_t encoding = 0; encoding < kEncodingSpace;
         ++encoding) {
        if ((encoding & forbidden) != 0)
            continue;
        candidates.push_back(decodeOptions(encoding));
    }
    return candidates;
}

StatusOr<TuneResult>
AutoTuner::tune(const Graph &graph, const CimArchitecture &arch) const
{
    TuneResult result;
    result.objective = config_.objective;

    const std::uint32_t default_encoding =
        encodeOptions(clampToMode(ScheduleOptions{}, arch.mode));
    for (const ScheduleOptions &options :
         enumerateCandidates(arch.mode)) {
        TuneCandidate candidate;
        candidate.encoding = encodeOptions(options);
        candidate.options = options;
        if (candidate.encoding == default_encoding)
            result.default_index = result.candidates.size();
        result.candidates.push_back(candidate);
    }

    std::atomic<std::int64_t> cache_hits{0};
    // One dump per tune call, not per candidate: the identity costs far
    // more than a candidate's cache lookup.
    TuneIdentity identity;
    if (config_.cache != nullptr)
        identity = TuneIdentity{graphDigest(graph), archDigest(arch)};
    const auto evaluate = [&](TuneCandidate &candidate) {
        evaluateCandidate(graph, arch, config_.host_model, candidate,
                          config_.cache, identity, cache_hits);
    };
    result.budget = config_.budget;
    if (!config_.budget.enabled()) {
        // Exhaustive reference path, byte-identical to the pre-budget
        // tuner; the differential suite compares the budgeted engine
        // against it.
        if (config_.threads == 1) {
            for (TuneCandidate &candidate : result.candidates)
                evaluate(candidate);
        } else {
            ThreadPool pool(config_.threads);
            for (TuneCandidate &candidate : result.candidates)
                pool.submit([&evaluate, &candidate] { evaluate(candidate); });
            pool.wait();
        }
        result.evaluated_count =
            static_cast<std::int64_t>(result.candidates.size());
    } else {
        // Budgeted path: deterministic waves by ascending enabled-knob
        // count (then encoding — candidates are already in encoding
        // order). Prune decisions for a wave read only completed
        // waves, so the evaluated set — and with it every byte of the
        // report — is independent of thread count. Candidates in one
        // wave never relate in the knob-subset order (a proper subset
        // has strictly fewer knobs), so intra-wave parallelism cannot
        // change any decision.
        std::map<int, std::vector<std::size_t>> waves;
        for (std::size_t i = 0; i < result.candidates.size(); ++i) {
            const std::uint32_t knobs =
                result.candidates[i].encoding & kTuneKnobMask;
            waves[std::popcount(knobs)].push_back(i);
        }
        DominancePruner pruner(
            KnobSubsetOrder(kTuneKnobMask, kTuneContextMask));
        const std::int64_t cap = config_.budget.max_full_evals;
        std::int64_t evaluated = 0;
        // One budget slot stays reserved for the default configuration
        // (the speedup-over-default baseline of every report) until its
        // wave schedules it, so the cap is never overrun.
        bool default_pending = true;
        std::optional<ThreadPool> pool;
        if (config_.threads != 1)
            pool.emplace(config_.threads);
        for (auto &[knob_count, wave] : waves) {
            (void)knob_count;
            std::vector<std::size_t> to_eval;
            for (std::size_t index : wave) {
                TuneCandidate &candidate = result.candidates[index];
                const bool is_default =
                    candidate.encoding == default_encoding;
                if (is_default) {
                    default_pending = false;
                } else {
                    if (auto culprit =
                            pruner.shouldPrune(candidate.encoding)) {
                        candidate.pruned = true;
                        candidate.status = failedPrecondition(strformat(
                            "pruned: knob subset 0x%02x already "
                            "regressed every objective",
                            *culprit));
                        continue;
                    }
                    if (evaluated
                            + static_cast<std::int64_t>(to_eval.size())
                            + (default_pending ? 1 : 0)
                        >= cap) {
                        candidate.pruned = true;
                        candidate.status = failedPrecondition(strformat(
                            "pruned: search budget (%lld evaluations) "
                            "exhausted",
                            static_cast<long long>(cap)));
                        continue;
                    }
                }
                to_eval.push_back(index);
            }
            if (pool.has_value()) {
                for (std::size_t index : to_eval) {
                    TuneCandidate &candidate = result.candidates[index];
                    pool->submit(
                        [&evaluate, &candidate] { evaluate(candidate); });
                }
                pool->wait();
            } else {
                for (std::size_t index : to_eval)
                    evaluate(result.candidates[index]);
            }
            evaluated += static_cast<std::int64_t>(to_eval.size());
            for (std::size_t index : to_eval) {
                const TuneCandidate &candidate = result.candidates[index];
                pruner.record(candidate.encoding,
                              MetricPoint{candidate.latency_cycles,
                                          candidate.energy_pj},
                              candidate.status.isOk());
            }
        }
        result.evaluated_count = evaluated;
        result.pruned_count =
            static_cast<std::int64_t>(result.candidates.size())
            - evaluated;
    }
    result.cache_hits = cache_hits.load();

    // Objective minimum with stable tie-breaking: candidates are in
    // ascending encoding order; ties on the objective fall back to EDP
    // (so e.g. an energy-tied field still picks the fastest config) and
    // then to the lowest encoding. Only strictly better keys move the
    // choice, so the winner is independent of evaluation timing.
    bool found = false;
    double best_value = std::numeric_limits<double>::infinity();
    double best_edp = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < result.candidates.size(); ++i) {
        const TuneCandidate &candidate = result.candidates[i];
        if (!candidate.status.isOk())
            continue;
        const double value =
            candidate.objectiveValue(config_.objective);
        if (!found || value < best_value
            || (value == best_value && candidate.edp < best_edp)) {
            found = true;
            best_value = value;
            best_edp = candidate.edp;
            result.best_index = i;
        }
    }
    if (!found)
        return result.candidates.front().status.withContext(
            "autotune: no feasible candidate for '" + graph.name()
            + "' on '" + arch.name + "'");
    return result;
}

} // namespace cimmlc
