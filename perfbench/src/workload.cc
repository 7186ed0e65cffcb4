#include "workload.h"

#include <sys/resource.h>

#include <cmath>
#include <limits>

#include "arch/noc.h"
#include "arch/presets.h"
#include "arch/serialize.h"
#include "graph/models.h"
#include "helpers.h"

namespace perfbench {

void
Outcome::attempt(bool ok, const std::string &why)
{
    ++attempted;
    if (!ok) {
        ++failed;
        failures.push_back(why);
    }
}

void
Outcome::metric(const std::string &name, double value,
                const std::string &unit)
{
    metrics[name] = Metric{value, unit};
}

const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> kList = {
        {"setup_s", "s"},
        {"compiles_per_s", "1/s"},
        {"latency_ms.p50", "ms"},
        {"latency_ms.p90", "ms"},
        {"model_latency_cycles.geomean", "cycles"},
        {"model_energy_pj.geomean", "pJ"},
        {"verify_pass_ratio", "ratio"},
        {"ok_ratio", "ratio"},
        {"peak_rss_mb", "MiB"},
    };
    return kList;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> kList = {
        {"arch.noc_diameter_us", "us"},
        {"arch.load_ms", "ms"},
        {"graph.load_ms", "ms"},
        {"perfsim.closed_form_ms", "ms"},
        {"perfsim.event_ms", "ms"},
        {"perfsim.event.statements_per_s", "1/s"},
        {"perfsim.reload_cycles.geomean", "cycles"},
        {"perfsim.event.stall_cycles.geomean", "cycles"},
        {"sched.tune_ms", "ms"},
        {"sched.tune.evaluated", "count"},
        {"sched.tune.cache_hits", "count"},
        {"sched.tune.ms_per_candidate", "ms"},
        {"sched.tune.feasible_ratio", "ratio"},
        {"sched.tune.speedup_over_default.geomean", "x"},
        {"sched.schedule_ms", "ms"},
        {"sched.codegen_ms", "ms"},
        {"sched.codegen.statements", "count"},
        {"sched.codegen.statements_per_s", "1/s"},
        {"search.pruned_ratio", "ratio"},
        {"mop.lint_ms", "ms"},
        {"mop.lint.clean_ms", "ms"},
        {"mop.lint.findings_ms", "ms"},
        {"mop.lint.statements", "count"},
        {"mop.lint.statements_per_s", "1/s"},
        {"mop.lint.errors", "count"},
        {"mop.lint.warnings", "count"},
        {"funcsim.verify_ms", "ms"},
        {"funcsim.flow_ops", "count"},
        {"funcsim.mismatches", "count"},
        {"cache.hits", "count"},
        {"cache.misses", "count"},
        {"cache.hit_ratio", "ratio"},
        {"cache.evictions", "count"},
        {"cache.replay_ms", "ms"},
        {"daemon.server_ms", "ms"},
        {"daemon.wait_ms", "ms"},
        {"daemon.memo_hit_ratio", "ratio"},
        {"daemon.rejected", "count"},
        {"self.compiler_ms", "ms"},
        {"self.graph_ms", "ms"},
        {"self.sched_ms", "ms"},
        {"self.perfsim_ms", "ms"},
        {"self.mop_ms", "ms"},
        {"self.funcsim_ms", "ms"},
        {"self.residual_ms", "ms"},
        {"self.residual_ratio", "ratio"},
        {"trace.compiles_per_s", "1/s"},
    };
    return kList;
}

const char *
stageLayer(cimmlc::CompileStage stage)
{
    using cimmlc::CompileStage;
    switch (stage) {
      case CompileStage::kLoad: return "compiler";
      case CompileStage::kValidate: return "graph";
      case CompileStage::kTune:
      case CompileStage::kSchedule:
      case CompileStage::kCodegen: return "sched";
      case CompileStage::kLint: return "mop";
      case CompileStage::kPerf: return "perfsim";
      case CompileStage::kVerify: return "funcsim";
    }
    return "compiler";
}

double
peakRssMb()
{
    struct rusage usage {};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

cimmlc::StatusOr<Inputs>
loadInputs(const std::vector<std::string> &models,
           const std::vector<std::string> &archs,
           const std::map<std::string, std::string> &arch_files,
           SetupTimes &times)
{
    std::vector<double> total_s, graph_ms, arch_ms;
    Inputs inputs;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        inputs = Inputs{};
        const auto start = Clock::now();
        for (const std::string &name : models) {
            CIMMLC_ASSIGN_OR_RETURN(cimmlc::Graph graph,
                                    cimmlc::models::byNameChecked(name));
            inputs.graphs.emplace(name, std::move(graph));
        }
        const auto graphs_done = Clock::now();
        for (const std::string &name : archs) {
            const auto file = arch_files.find(name);
            auto arch = file != arch_files.end()
                            ? cimmlc::archFromFile(file->second)
                            : cimmlc::presets::byName(name);
            CIMMLC_RETURN_IF_ERROR(arch.status());
            inputs.archs.emplace(name, std::move(arch).value());
        }
        const auto end = Clock::now();
        total_s.push_back(msBetween(start, end) / 1e3);
        graph_ms.push_back(msBetween(start, graphs_done));
        arch_ms.push_back(msBetween(graphs_done, end));
    }
    times.setup_s = median(total_s);
    times.graph_load_ms = median(graph_ms);
    times.arch_load_ms = median(arch_ms);
    return inputs;
}

double
nocDiameterUs(const cimmlc::CimArchitecture &arch)
{
    std::vector<double> us;
    std::int64_t sink = 0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto start = Clock::now();
        sink += cimmlc::NocModel::forChip(arch).diameter();
        us.push_back(msBetween(start, Clock::now()) * 1e3);
    }
    // The diameter is at least 0; the check keeps the call observable.
    return sink >= 0 ? median(us) : 0.0;
}

JobRow
jobRow(const std::string &job, double wall_ms,
       const cimmlc::CompileArtifacts &artifacts)
{
    JobRow row;
    row.job = job;
    row.wall_ms = wall_ms;
    for (const cimmlc::StageTrace &trace : artifacts.stages)
        row.stage_ms.emplace_back(cimmlc::compileStageName(trace.stage),
                                  trace.wall_ms);
    row.flow_statements = artifacts.flowStatements();
    if (artifacts.perf.has_value()) {
        row.engine = cimmlc::perfEngineName(artifacts.perf->engine);
        row.model_latency_cycles = artifacts.perf->latency_cycles;
        row.model_energy_pj = artifacts.perf->energy.total();
    }
    return row;
}

void
traceStages(cimmlc::CompilerSession &session, Tracer &tracer,
            std::int64_t parent, std::int64_t request)
{
    if (!tracer.enabled())
        return;
    session.setObserver([&tracer, parent, request](
                            const cimmlc::StageTrace &trace,
                            const cimmlc::CompileArtifacts &) {
        const auto end = Clock::now();
        const auto start =
            end - std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          trace.wall_ms));
        tracer.record(std::string(stageLayer(trace.stage)) + "."
                          + cimmlc::compileStageName(trace.stage),
                      start, end, parent, request);
    });
}

void
reportEndToEnd(const EndToEnd &e2e, Outcome &outcome)
{
    outcome.metric("setup_s", e2e.setup_s, "s");
    outcome.metric("compiles_per_s",
                   e2e.timed_s > 0.0
                       ? static_cast<double>(e2e.compiles) / e2e.timed_s
                       : 0.0,
                   "1/s");
    for (const auto &[name, p] :
         {std::pair<const char *, double>{"latency_ms.p50", 50.0},
          std::pair<const char *, double>{"latency_ms.p90", 90.0}}) {
        const Percentile pct = percentile(e2e.latency_ms, p);
        // A failed request sits at +inf; report the largest finite
        // double so the JSON stays valid and the metric reads as worst.
        outcome.metric(name,
                       std::isfinite(pct.value)
                           ? pct.value
                           : std::numeric_limits<double>::max(),
                       "ms");
        outcome.notes.push_back(
            std::string(name) + " over " + std::to_string(pct.samples)
            + " samples"
            + (pct.resolved ? ""
                            : " (fewer than 10 beyond the rank: maximum "
                              "reported)"));
    }
    outcome.metric("model_latency_cycles.geomean",
                   geomean(e2e.model_latency_cycles), "cycles");
    outcome.metric("model_energy_pj.geomean",
                   geomean(e2e.model_energy_pj), "pJ");
    outcome.metric("verify_pass_ratio",
                   e2e.verify_attempted > 0
                       ? static_cast<double>(e2e.verify_passed)
                             / static_cast<double>(e2e.verify_attempted)
                       : 0.0,
                   "ratio");
    outcome.metric("ok_ratio",
                   outcome.attempted > 0
                       ? 1.0
                             - static_cast<double>(outcome.failed)
                                   / static_cast<double>(outcome.attempted)
                       : 0.0,
                   "ratio");
    outcome.metric("peak_rss_mb", peakRssMb(), "MiB");
}

void
runVerify(cimmlc::CompileRequest request, const std::string &job,
          Tracer &tracer, EndToEnd &e2e, Outcome &outcome,
          VerifyTally &tally)
{
    request.outputs.verify = true;
    cimmlc::CompilerSession session(std::move(request));
    traceStages(session, tracer, 0, 0);
    auto result = session.run();
    const bool verified = result.isOk() && result.value().verify.has_value();
    const bool match = verified && result.value().verify->match;
    ++e2e.verify_attempted;
    e2e.verify_passed += match ? 1 : 0;
    outcome.attempt(match, job + ": funcsim replay does not match "
                                 "graph/reference");
    if (!verified)
        return;
    for (const cimmlc::StageTrace &trace : result.value().stages)
        if (trace.stage == cimmlc::CompileStage::kVerify)
            tally.verify_ms += trace.wall_ms;
    tally.flow_ops += result.value().verify->flow_ops;
    tally.mismatches += result.value().verify->mismatches;
}

void
reportVerify(const VerifyTally &tally, std::int64_t runs, Outcome &outcome)
{
    outcome.metric("funcsim.verify_ms",
                   runs > 0 ? tally.verify_ms / static_cast<double>(runs)
                            : 0.0,
                   "ms");
    outcome.metric("funcsim.flow_ops", static_cast<double>(tally.flow_ops),
                   "count");
    outcome.metric("funcsim.mismatches",
                   static_cast<double>(tally.mismatches), "count");
}

} // namespace perfbench
