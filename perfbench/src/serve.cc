/**
 * @file
 * The `serve` workload: the compile daemon under a closed loop. The
 * daemon runs in-process on a Unix socket with max_inflight 2; two
 * clients each behave like a `cimmlc --connect` caller that waits for
 * its reply before sending the next request. Requests come from a pool
 * of 30 distinct compiles (5 models x 3 presets x 2 perf engines) with
 * seeded Zipf popularity, and the daemon's stage cache holds fewer
 * entries than the pool needs, so after the warm-up hits, misses and
 * evictions all occur. This is the only workload that exercises the
 * daemon, the rpc protocol and the stage cache: misses are bound by
 * codegen and the event engine, hits by cache replay.
 */
#include <unistd.h>

#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "daemon/client.h"
#include "daemon/server.h"
#include "helpers.h"
#include "workload.h"

namespace perfbench {

using namespace cimmlc;

namespace {

constexpr int kClients = 2;
constexpr std::int64_t kMaxInflight = 2;
//! stage-cache entries; the pool needs about 75 (validate, schedule and
//! codegen per model x preset, perf per engine), so the LRU evicts
constexpr std::int64_t kCacheCapacity = 48;
constexpr double kZipfExponent = 1.0;
constexpr int kWarmupPerClient = 40;
//! the window extends until this many requests completed, so p90 has
//! at least ten samples beyond it
constexpr std::int64_t kMinTimedRequests = 100;

struct PoolEntry {
    std::string name;
    RpcCompileRequest request;
};

/**
 * The pool, most popular first. The most popular request (a quarter of
 * the traffic) is a mid-cost one whose cache hits sit in the middle of
 * the latency distribution: about 37% of the traffic is cheaper
 * (lenet5, macro_cnn, small flows) and 38% dearer (resnet50, vit_tiny
 * on isaac), so p50 falls inside one tight cluster of replayed hits
 * rather than on the edge between two clusters, where it would jump
 * with small changes in the mix.
 */
std::vector<PoolEntry>
servePool()
{
    static const char *const kByPopularity[][3] = {
        {"resnet18", "jain-jssc21", "closed_form"},
        {"lenet5", "isaac-baseline", "closed_form"},
        {"resnet50", "jain-jssc21", "event"},
        {"resnet50", "puma", "event"},
        {"resnet18", "isaac-baseline", "closed_form"},
        {"vit_tiny", "puma", "closed_form"},
        {"resnet50", "isaac-baseline", "event"},
        {"lenet5", "puma", "event"},
        {"vit_tiny", "isaac-baseline", "closed_form"},
        {"macro_cnn", "puma", "closed_form"},
        {"resnet50", "puma", "closed_form"},
        {"lenet5", "jain-jssc21", "event"},
        {"vit_tiny", "jain-jssc21", "closed_form"},
        {"resnet18", "puma", "event"},
        {"macro_cnn", "jain-jssc21", "closed_form"},
        {"resnet50", "isaac-baseline", "closed_form"},
        {"lenet5", "isaac-baseline", "event"},
        {"vit_tiny", "isaac-baseline", "event"},
        {"macro_cnn", "isaac-baseline", "closed_form"},
        {"resnet18", "isaac-baseline", "event"},
        {"lenet5", "puma", "closed_form"},
        {"lenet5", "jain-jssc21", "closed_form"},
        {"macro_cnn", "jain-jssc21", "event"},
        {"macro_cnn", "puma", "event"},
        {"resnet18", "jain-jssc21", "event"},
        {"resnet18", "puma", "closed_form"},
        {"resnet50", "jain-jssc21", "closed_form"},
        {"vit_tiny", "jain-jssc21", "event"},
        {"vit_tiny", "puma", "event"},
        {"macro_cnn", "isaac-baseline", "event"},
    };
    std::vector<PoolEntry> pool;
    for (const auto &[model, arch, engine] : kByPopularity) {
        PoolEntry entry;
        entry.name = std::string(model) + "@" + arch + "/" + engine;
        entry.request.model = model;
        entry.request.arch = arch;
        entry.request.perf_engine = engine;
        pool.push_back(std::move(entry));
    }
    return pool;
}

/** One request as its client saw it. */
struct Sample {
    std::size_t entry = 0;
    double latency_ms = 0.0;
    bool ok = false;
    bool memo_hit = false;
    double server_ms = 0.0; //!< sum of stage wall_ms over event frames
    std::map<std::string, double> layer_ms; //!< per layer, from frames
    // Traced run only (read from the report's stage list):
    double replay_ms = 0.0; //!< wall of cached stage replays
    bool any_cached = false;
    std::map<std::string, double> computed_ms; //!< non-cached, per stage
    std::int64_t statements = 0;
};

/** First reply per pool entry, stripped of timing; shared by clients. */
class ReplyLedger
{
  public:
    explicit ReplyLedger(std::size_t entries) : replies_(entries) {}

    /** False when @p stripped differs from the entry's first reply. */
    bool consistent(std::size_t entry, const std::string &stripped)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (replies_[entry].empty())
            replies_[entry] = stripped;
        return replies_[entry] == stripped;
    }

    std::string first(std::size_t entry)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return replies_[entry];
    }

  private:
    std::mutex mutex_;
    std::vector<std::string> replies_;
};

const char *
layerOfStageName(const std::string &stage)
{
    auto parsed = parseCompileStage(stage);
    return parsed.isOk() ? stageLayer(parsed.value()) : "compiler";
}

/** Sends one compile and records what the client observed. */
Sample
sendOne(DaemonClient &client, const std::vector<PoolEntry> &pool,
        std::size_t entry, std::int64_t id, ReplyLedger &ledger,
        Tracer &tracer, std::string &failure)
{
    Sample sample;
    sample.entry = entry;
    RpcCompileRequest request = pool[entry].request;
    request.id = id;
    const std::int64_t span = tracer.reserve();
    const auto start = Clock::now();
    auto response = client.compile(
        request, [&](const std::string &stage, const std::string &,
                     double wall_ms, const std::string &) {
            sample.server_ms += wall_ms;
            sample.layer_ms[layerOfStageName(stage)] += wall_ms;
            if (tracer.enabled()) {
                const auto now = Clock::now();
                tracer.record(
                    std::string(layerOfStageName(stage)) + "." + stage,
                    now - std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(
                                  wall_ms)),
                    now, span, id);
            }
        });
    const auto end = Clock::now();
    tracer.recordReserved(span, "daemon.compile", start, end, 0, id);
    sample.latency_ms = msBetween(start, end);
    if (!response.isOk()) {
        failure = pool[entry].name + ": " + response.status().toString();
        sample.latency_ms = std::numeric_limits<double>::infinity();
        return sample;
    }
    sample.memo_hit = response.value().cached;
    const std::string &report = response.value().report_json;
    if (!ledger.consistent(entry, stripTimingFields(report))) {
        failure = pool[entry].name + ": reply differs from its first reply";
        return sample;
    }
    sample.ok = true;
    if (!tracer.enabled())
        return sample;
    auto doc = parseConfig(report);
    auto stages = doc.isOk() ? doc.value().get("stages")
                             : StatusOr<ConfigValue>(doc.status());
    if (!stages.isOk() || !stages.value().isArray())
        return sample;
    for (const ConfigValue &stage : stages.value().asArray()) {
        const double wall = stage.getNumberOr("wall_ms", 0.0);
        if (stage.getBoolOr("cached", false)) {
            sample.replay_ms += wall;
            sample.any_cached = true;
        } else {
            sample.computed_ms[stage.getStringOr("stage", "")] += wall;
        }
    }
    if (auto flow = doc.value().get("flow"); flow.isOk())
        sample.statements = flow.value().getIntOr("statements", 0);
    return sample;
}

/** A number from a cimmlc.stats.v1 snapshot (dotted path). */
double
statNumber(const ConfigValue &stats, const std::string &section,
           const std::string &key)
{
    if (section.empty())
        return stats.getNumberOr(key, 0.0);
    auto sub = stats.get(section);
    return sub.isOk() ? sub.value().getNumberOr(key, 0.0) : 0.0;
}

} // namespace

Outcome
runServe(const BenchOptions &options, Tracer &tracer)
{
    Outcome outcome;
    EndToEnd e2e;

    // ----- set-up: request pool and daemon start ------------------------
    DaemonConfig config;
    config.unix_path = options.out_dir + "/serve-"
                       + std::to_string(::getpid()) + ".sock";
    config.threads = static_cast<int>(kMaxInflight);
    config.max_inflight = kMaxInflight;
    config.max_queue_depth = 2 * kClients;
    config.cache_capacity = kCacheCapacity;

    std::vector<PoolEntry> pool;
    std::unique_ptr<DaemonServer> server;
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (server)
            server->stop();
        const auto start = Clock::now();
        pool = servePool();
        server = std::make_unique<DaemonServer>(config);
        const Status started = server->start();
        setup_s.push_back(msBetween(start, Clock::now()) / 1e3);
        if (!started.isOk()) {
            outcome.attempt(false, "daemon start: " + started.toString());
            return outcome;
        }
    }
    e2e.setup_s = median(setup_s);

    std::vector<DaemonClient> clients;
    for (int c = 0; c < kClients; ++c) {
        auto client = DaemonClient::connectUnixSocket(config.unix_path);
        if (!client.isOk()) {
            outcome.attempt(false, "connect: " + client.status().toString());
            return outcome;
        }
        clients.push_back(std::move(client).value());
    }

    ReplyLedger ledger(pool.size());
    std::vector<ZipfStream> streams;
    for (int c = 0; c < kClients; ++c) {
        std::uint64_t state = options.seed + static_cast<std::uint64_t>(c);
        streams.emplace_back(splitmix64(state), pool.size(), kZipfExponent);
    }

    // Runs every client in its own thread while @p more(client, sent)
    // holds; each client waits for its reply before the next request.
    std::mutex failures_mutex;
    std::vector<std::string> failures;
    auto runClients = [&](const std::function<bool(int, std::int64_t)> &more,
                          std::vector<std::vector<Sample>> &samples) {
        samples.assign(kClients, {});
        std::vector<std::thread> threads;
        for (int c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
                std::int64_t sent = 0;
                while (more(c, sent)) {
                    const std::size_t entry = streams[c].next();
                    std::string failure;
                    samples[c].push_back(
                        sendOne(clients[c], pool, entry,
                                (static_cast<std::int64_t>(c) << 40) + ++sent,
                                ledger, tracer, failure));
                    if (!failure.empty()) {
                        std::lock_guard<std::mutex> lock(failures_mutex);
                        failures.push_back(failure);
                    }
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    };

    // ----- warm-up (untimed): fill the cache to its steady state -------
    std::vector<std::vector<Sample>> warmup;
    runClients([](int, std::int64_t sent) { return sent < kWarmupPerClient; },
               warmup);
    auto before = clients[0].stats();

    // ----- timed window ------------------------------------------------
    std::atomic<std::int64_t> issued{0};
    std::vector<std::vector<Sample>> timed;
    const auto window_start = Clock::now();
    const auto deadline =
        window_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(options.seconds));
    runClients(
        [&](int, std::int64_t) {
            const std::int64_t before_this = issued.fetch_add(1);
            return Clock::now() < deadline
                   || before_this < kMinTimedRequests;
        },
        timed);
    e2e.timed_s = msBetween(window_start, Clock::now()) / 1e3;
    auto after = clients[0].stats();
    for (const auto &per_client : warmup)
        outcome.attempted += static_cast<std::int64_t>(per_client.size());
    for (const auto &per_client : timed)
        for (const Sample &s : per_client) {
            e2e.latency_ms.push_back(s.latency_ms);
            e2e.compiles += s.ok ? 1 : 0;
            outcome.attempted += 1;
        }
    {
        std::vector<std::vector<double>> by_entry(pool.size());
        std::vector<int> hits(pool.size(), 0);
        for (const auto &per_client : timed)
            for (const Sample &s : per_client) {
                by_entry[s.entry].push_back(s.latency_ms);
                hits[s.entry] += s.memo_hit ? 1 : 0;
            }
        for (std::size_t i = 0; i < pool.size(); ++i)
            outcome.notes.push_back(
                pool[i].name + ": " + std::to_string(by_entry[i].size())
                + " requests, " + std::to_string(hits[i])
                + " memo hits, median "
                + std::to_string(median(by_entry[i])) + " ms");
    }
    outcome.failed += static_cast<std::int64_t>(failures.size());
    outcome.failures.insert(outcome.failures.end(), failures.begin(),
                            failures.end());

    // ----- output checks (untimed): the rpc contract -------------------
    // Every pool request's daemon report must equal the in-process
    // session report, timing aside, and every reply seen in the window
    // must equal it too. The daemon answers first and is stopped before
    // the in-process compiles, so its cache and theirs never coexist.
    std::vector<std::string> daemon_failure(pool.size());
    std::vector<bool> daemon_ok(pool.size(), false);
    for (std::size_t i = 0; i < pool.size(); ++i)
        daemon_ok[i] = sendOne(clients[0], pool, i,
                               (std::int64_t{1} << 50) + i, ledger, tracer,
                               daemon_failure[i])
                           .ok;
    clients.clear();
    server->stop();
    server.reset();

    std::vector<double> reloads, stalls;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        auto mapped = pool[i].request.toCompileRequest(nullptr, nullptr);
        if (!mapped.isOk()) {
            outcome.attempt(false, pool[i].name + ": "
                                       + mapped.status().toString());
            continue;
        }
        CompilerSession session(std::move(mapped).value());
        const auto start = Clock::now();
        auto local = session.run();
        const double wall = msBetween(start, Clock::now());
        if (!local.isOk()) {
            outcome.attempt(false, pool[i].name + ": "
                                       + local.status().toString());
            continue;
        }
        std::string failure = daemon_failure[i];
        if (failure.empty()
            && ledger.first(i)
                   != stripTimingFields(local.value().toConfig().dump(true)))
            failure = pool[i].name
                      + ": daemon report differs from the in-process one";
        outcome.attempt(failure.empty() && daemon_ok[i], failure);
        outcome.rows.push_back(jobRow(pool[i].name, wall, local.value()));
        const PerfReport &perf = *local.value().perf;
        e2e.model_latency_cycles.push_back(perf.latency_cycles);
        e2e.model_energy_pj.push_back(perf.energy.total());
        reloads.push_back(perf.reload_cycles);
        if (perf.engine == PerfEngineKind::kEvent)
            stalls.push_back(perf.stall_cycles);
    }

    // Small models replay bit-exact against graph/reference.
    VerifyTally verified;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const RpcCompileRequest &rpc = pool[i].request;
        if ((rpc.model != "lenet5" && rpc.model != "macro_cnn")
            || rpc.perf_engine != "closed_form")
            continue;
        auto mapped = rpc.toCompileRequest(nullptr, nullptr);
        if (!mapped.isOk()) {
            outcome.attempt(false, pool[i].name + ": "
                                       + mapped.status().toString());
            continue;
        }
        CompileRequest request = std::move(mapped).value();
        request.verify_seed = options.seed + i;
        runVerify(std::move(request), pool[i].name, tracer, e2e, outcome,
                  verified);
    }

    reportEndToEnd(e2e, outcome);
    if (!tracer.enabled())
        return outcome;

    // ----- traced run: per-layer numbers --------------------------------
    SetupTimes loads;
    auto inputs = loadInputs({"lenet5", "macro_cnn", "resnet18", "resnet50",
                              "vit_tiny"},
                             {"isaac-baseline", "jain-jssc21", "puma"}, {},
                             loads);
    double diameter_us = 0.0;
    if (inputs.isOk())
        for (const auto &[name, arch] : inputs.value().archs) {
            const double us = nocDiameterUs(arch);
            diameter_us += us;
            outcome.notes.push_back("noc diameter " + name + ": "
                                    + std::to_string(us) + " us");
        }
    outcome.metric("arch.noc_diameter_us", diameter_us / 3.0, "us");
    outcome.metric("arch.load_ms", loads.arch_load_ms, "ms");
    outcome.metric("graph.load_ms", loads.graph_load_ms, "ms");

    double requests = 0.0, memo_hits = 0.0, server_ms = 0.0, wait_ms = 0.0;
    double replay_ms = 0.0, replayed = 0.0;
    double cf_ms = 0.0, cf_n = 0.0, ev_ms = 0.0, ev_n = 0.0, ev_stmts = 0.0;
    double schedule_ms = 0.0, schedule_n = 0.0;
    double codegen_ms = 0.0, codegen_n = 0.0, codegen_stmts = 0.0;
    std::map<std::string, double> layer_ms;
    for (const auto &per_client : timed)
        for (const Sample &s : per_client) {
            if (!s.ok)
                continue;
            requests += 1;
            memo_hits += s.memo_hit ? 1 : 0;
            server_ms += s.server_ms;
            wait_ms += s.latency_ms - s.server_ms;
            for (const auto &[layer, ms] : s.layer_ms)
                layer_ms[layer] += ms;
            if (s.any_cached) {
                replay_ms += s.replay_ms;
                replayed += 1;
            }
            const bool event =
                pool[s.entry].request.perf_engine == "event";
            if (auto it = s.computed_ms.find("perf");
                it != s.computed_ms.end()) {
                (event ? ev_ms : cf_ms) += it->second;
                (event ? ev_n : cf_n) += 1;
                if (event)
                    ev_stmts += static_cast<double>(s.statements);
            }
            if (auto it = s.computed_ms.find("schedule");
                it != s.computed_ms.end()) {
                schedule_ms += it->second;
                schedule_n += 1;
            }
            if (auto it = s.computed_ms.find("codegen");
                it != s.computed_ms.end()) {
                codegen_ms += it->second;
                codegen_n += 1;
                codegen_stmts += static_cast<double>(s.statements);
            }
        }
    auto mean = [](double sum, double n) { return n > 0 ? sum / n : 0.0; };
    outcome.metric("perfsim.closed_form_ms", mean(cf_ms, cf_n), "ms");
    outcome.metric("perfsim.event_ms", mean(ev_ms, ev_n), "ms");
    outcome.metric("perfsim.event.statements_per_s",
                   ev_ms > 0 ? ev_stmts / (ev_ms / 1e3) : 0.0, "1/s");
    outcome.metric("perfsim.reload_cycles.geomean", shiftedGeomean(reloads),
                   "cycles");
    outcome.metric("perfsim.event.stall_cycles.geomean",
                   shiftedGeomean(stalls), "cycles");
    outcome.metric("sched.schedule_ms", mean(schedule_ms, schedule_n), "ms");
    outcome.metric("sched.codegen_ms", mean(codegen_ms, codegen_n), "ms");
    outcome.metric("sched.codegen.statements", codegen_stmts, "count");
    outcome.metric("sched.codegen.statements_per_s",
                   codegen_ms > 0 ? codegen_stmts / (codegen_ms / 1e3) : 0.0,
                   "1/s");
    reportVerify(verified, e2e.verify_attempted, outcome);

    if (before.isOk() && after.isOk()) {
        auto delta = [&](const std::string &section, const std::string &key) {
            return statNumber(after.value(), section, key)
                   - statNumber(before.value(), section, key);
        };
        const double hits = delta("artifact_cache", "hits");
        const double misses = delta("artifact_cache", "misses");
        outcome.metric("cache.hits", hits, "count");
        outcome.metric("cache.misses", misses, "count");
        outcome.metric("cache.hit_ratio", mean(hits, hits + misses),
                       "ratio");
        outcome.metric("cache.evictions",
                       delta("artifact_cache", "evictions"), "count");
        outcome.metric("daemon.rejected", delta("", "rejected"), "count");
    }
    outcome.metric("cache.replay_ms", mean(replay_ms, replayed), "ms");
    outcome.metric("daemon.server_ms", mean(server_ms, requests), "ms");
    outcome.metric("daemon.wait_ms", mean(wait_ms, requests), "ms");
    outcome.metric("daemon.memo_hit_ratio", mean(memo_hits, requests),
                   "ratio");
    for (const char *layer :
         {"compiler", "graph", "sched", "perfsim", "mop", "funcsim"})
        outcome.metric(std::string("self.") + layer + "_ms",
                       mean(layer_ms[layer], requests), "ms");
    outcome.metric("self.residual_ms", mean(wait_ms, requests), "ms");
    outcome.metric("self.residual_ratio",
                   mean(wait_ms, server_ms + wait_ms), "ratio");
    return outcome;
}

} // namespace perfbench
