/**
 * @file
 * The `tune` workload: the DSE user's inner loop. One closed-loop client
 * runs one auto-tuned CompilerSession per job (tuner threads = hardware
 * concurrency, a fresh TuneCache per job so every pass does the same
 * work, closed-form perf, no lint, no verify). Per-candidate scheduling
 * and closed-form pricing do nearly all the work; lint, the event
 * engine, funcsim and the daemon are bypassed.
 */
#include <algorithm>
#include <limits>
#include <optional>

#include "helpers.h"
#include "perfsim/perf_engine.h"
#include "sched/multi_level.h"
#include "workload.h"

namespace perfbench {

using namespace cimmlc;

namespace {

struct TuneJob {
    std::string model;
    std::string arch;
    TuneObjective objective = TuneObjective::kLatency;
    std::int64_t budget = 0; //!< --search-budget (0 = exhaustive)

    std::string name() const
    {
        return model + "@" + arch + "/" + tuneObjectiveName(objective)
               + (budget > 0 ? "/budget" + std::to_string(budget) : "");
    }
};

/** The fixed job list; objectives alternate latency / edp in this order
 * so the modeled metrics do not depend on the seed. */
std::vector<TuneJob>
tuneJobs()
{
    std::vector<TuneJob> jobs;
    for (const char *model : {"lenet5", "resnet18", "vit_tiny"})
        for (const char *arch : {"isaac-baseline", "puma", "jain-jssc21"})
            jobs.push_back({model, arch});
    jobs.push_back({"resnet50", "isaac-baseline", {}, 64});
    for (std::size_t i = 0; i < jobs.size(); ++i)
        jobs[i].objective =
            i % 2 == 0 ? TuneObjective::kLatency : TuneObjective::kEdp;
    return jobs;
}

/** Candidates replayed per job to split tuner time between scheduling
 * and closed-form pricing (evenly spaced over the evaluated ones). */
constexpr std::size_t kReplayPerJob = 6;

} // namespace

Outcome
runTune(const BenchOptions &options, Tracer &tracer)
{
    Outcome outcome;
    const std::vector<TuneJob> jobs = tuneJobs();
    const std::vector<std::string> models = {"lenet5", "resnet18",
                                             "vit_tiny", "resnet50"};
    const std::vector<std::string> archs = {"isaac-baseline", "puma",
                                            "jain-jssc21"};

    EndToEnd e2e;
    SetupTimes setup;
    auto loaded = loadInputs(models, archs, {}, setup);
    if (!loaded.isOk()) {
        outcome.attempt(false, "set-up: " + loaded.status().toString());
        return outcome;
    }
    const Inputs inputs = std::move(loaded).value();
    e2e.setup_s = setup.setup_s;

    // ----- timed passes ------------------------------------------------
    const std::vector<std::size_t> order =
        seededOrder(jobs.size(), options.seed);
    std::vector<std::string> first_report(jobs.size());
    std::vector<std::optional<CompileArtifacts>> first(jobs.size());
    std::vector<double> first_wall(jobs.size(), 0.0);
    std::map<CompileStage, double> stage_ms; // summed over all passes
    std::vector<double> job_tune_ms(jobs.size(), 0.0);
    double job_ms = 0.0;
    std::int64_t evaluated = 0, cache_hits = 0, feasible = 0;
    std::int64_t statements = 0;

    int passes = 0;
    const auto loop_start = Clock::now();
    while (passes < 2
           || msBetween(loop_start, Clock::now()) < options.seconds * 1e3) {
        for (const std::size_t idx : order) {
            const TuneJob &job = jobs[idx];
            TuneCache cache;
            CompileRequest request;
            request.graph = &inputs.graphs.at(job.model);
            request.arch_ref = &inputs.archs.at(job.arch);
            request.tune = true;
            request.objective = job.objective;
            request.tune_cache = &cache;
            request.search_budget.max_full_evals = job.budget;
            request.threads = 0;
            CompilerSession session(std::move(request));
            const auto request_id = static_cast<std::int64_t>(
                static_cast<std::size_t>(passes) * jobs.size() + idx + 1);
            const std::int64_t span = tracer.reserve();
            traceStages(session, tracer, span, request_id);

            const auto start = Clock::now();
            auto result = session.run();
            const auto end = Clock::now();
            tracer.recordReserved(span, "compiler.session", start, end, 0,
                                  request_id);
            const double wall = msBetween(start, end);
            e2e.timed_s += wall / 1e3;
            if (!result.isOk()) {
                e2e.latency_ms.push_back(
                    std::numeric_limits<double>::infinity());
                outcome.attempt(false, job.name() + ": "
                                           + result.status().toString());
                continue;
            }
            ++e2e.compiles;
            e2e.latency_ms.push_back(wall);
            const CompileArtifacts &artifacts = result.value();

            const std::string report =
                stripTimingFields(artifacts.toConfig().dump(true));
            if (first_report[idx].empty())
                first_report[idx] = report;
            outcome.attempt(report == first_report[idx],
                            job.name() + ": report differs across passes");

            job_ms += wall;
            for (const StageTrace &trace : artifacts.stages) {
                stage_ms[trace.stage] += trace.wall_ms;
                if (trace.stage == CompileStage::kTune)
                    job_tune_ms[idx] += trace.wall_ms;
            }
            statements += artifacts.flowStatements();
            if (artifacts.tune.has_value()) {
                evaluated += artifacts.tune->evaluated_count;
                cache_hits += artifacts.tune->cache_hits;
                for (const TuneCandidate &c : artifacts.tune->candidates)
                    feasible += !c.pruned && c.status.isOk() ? 1 : 0;
            }
            if (!first[idx].has_value()) {
                first[idx] = artifacts;
                first_wall[idx] = wall;
            }
        }
        ++passes;
    }

    // ----- rows and modeled cost (per distinct job) --------------------
    std::vector<double> speedups, reloads;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!first[i].has_value())
            continue;
        outcome.rows.push_back(jobRow(jobs[i].name(), first_wall[i],
                                      *first[i]));
        e2e.model_latency_cycles.push_back(first[i]->perf->latency_cycles);
        e2e.model_energy_pj.push_back(first[i]->perf->energy.total());
        reloads.push_back(first[i]->perf->reload_cycles);
        speedups.push_back(first[i]->tune->speedupOverDefault());
    }

    // ----- output check: tuned configurations replay bit-exact ---------
    // Outside the timed window: the tuned best of every lenet5 job is
    // compiled unrolled and replayed in funcsim against graph/reference.
    VerifyTally verified;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i].model != "lenet5" || !first[i].has_value())
            continue;
        CompileRequest request;
        request.graph = &inputs.graphs.at(jobs[i].model);
        request.arch_ref = &inputs.archs.at(jobs[i].arch);
        request.options = first[i]->options;
        request.verify_seed = options.seed + i;
        request.threads = 1;
        runVerify(std::move(request), jobs[i].name(), tracer, e2e, outcome,
                  verified);
    }
    reportEndToEnd(e2e, outcome);
    if (!tracer.enabled())
        return outcome;

    // ----- traced run: per-layer numbers --------------------------------
    // Replays scheduleGraph and the closed-form engine on a sample of
    // each job's evaluated candidates; each job's tuner time splits into
    // sched and perfsim self time by its own replay ratio.
    double replay_sched_ms = 0.0, replay_perf_ms = 0.0;
    double tune_sched_ms = 0.0;
    std::int64_t replayed = 0;
    const auto engine = makePerfEngine(PerfEngineKind::kClosedForm);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!first[i].has_value())
            continue;
        std::vector<const TuneCandidate *> evaluated_set;
        for (const TuneCandidate &c : first[i]->tune->candidates)
            if (!c.pruned && c.status.isOk())
                evaluated_set.push_back(&c);
        const std::size_t take =
            std::min(kReplayPerJob, evaluated_set.size());
        const Graph &graph = inputs.graphs.at(jobs[i].model);
        const CimArchitecture &arch = inputs.archs.at(jobs[i].arch);
        double job_sched_ms = 0.0, job_perf_ms = 0.0;
        for (std::size_t k = 0; k < take; ++k) {
            const TuneCandidate &c =
                *evaluated_set[k * evaluated_set.size() / take];
            const auto t0 = Clock::now();
            auto schedule = scheduleGraph(graph, arch, c.options);
            const auto t1 = Clock::now();
            tracer.record("sched.scheduleGraph", t0, t1, 0,
                          static_cast<std::int64_t>(i + 1));
            if (!schedule.isOk())
                continue;
            PerfInput input{&graph, &arch, &schedule.value(), nullptr};
            auto report = engine->evaluate(input);
            const auto t2 = Clock::now();
            tracer.record("perfsim.closed_form", t1, t2, 0,
                          static_cast<std::int64_t>(i + 1));
            if (!report.isOk())
                continue;
            job_sched_ms += msBetween(t0, t1);
            job_perf_ms += msBetween(t1, t2);
            ++replayed;
        }
        replay_sched_ms += job_sched_ms;
        replay_perf_ms += job_perf_ms;
        tune_sched_ms +=
            job_tune_ms[i]
            * (job_sched_ms + job_perf_ms > 0.0
                   ? job_sched_ms / (job_sched_ms + job_perf_ms)
                   : 0.5);
        outcome.notes.push_back(
            "replay " + jobs[i].name() + ": " + std::to_string(take)
            + " of " + std::to_string(evaluated_set.size())
            + " candidates, scheduleGraph "
            + std::to_string(take > 0 ? job_sched_ms / take : 0.0)
            + " ms, closed-form "
            + std::to_string(take > 0 ? job_perf_ms / take : 0.0)
            + " ms per call");
    }

    double diameter_us = 0.0;
    for (const std::string &arch : archs) {
        const double us = nocDiameterUs(inputs.archs.at(arch));
        diameter_us += us;
        outcome.notes.push_back("noc diameter " + arch + ": "
                                + std::to_string(us) + " us");
    }

    const double per_pass = 1.0 / passes;
    const double tune_ms = stage_ms[CompileStage::kTune];
    double stages_total = 0.0;
    for (const auto &[stage, ms] : stage_ms)
        stages_total += ms;
    const double residual = job_ms - stages_total;
    const double jobs_per_pass = static_cast<double>(jobs.size());

    outcome.metric("arch.noc_diameter_us",
                   diameter_us / static_cast<double>(archs.size()), "us");
    outcome.metric("arch.load_ms", setup.arch_load_ms, "ms");
    outcome.metric("graph.load_ms", setup.graph_load_ms, "ms");
    outcome.metric("perfsim.closed_form_ms",
                   replayed > 0 ? replay_perf_ms / replayed : 0.0, "ms");
    outcome.metric("perfsim.reload_cycles.geomean", shiftedGeomean(reloads),
                   "cycles");
    outcome.metric("sched.tune_ms", tune_ms * per_pass / jobs_per_pass,
                   "ms");
    outcome.metric("sched.tune.evaluated", evaluated * per_pass, "count");
    outcome.metric("sched.tune.cache_hits", cache_hits * per_pass, "count");
    outcome.metric("sched.tune.ms_per_candidate",
                   evaluated > 0 ? tune_ms / evaluated : 0.0, "ms");
    outcome.metric("sched.tune.feasible_ratio",
                   evaluated > 0 ? static_cast<double>(feasible) / evaluated
                                 : 0.0,
                   "ratio");
    outcome.metric("sched.tune.speedup_over_default.geomean",
                   geomean(speedups), "x");
    outcome.metric("sched.schedule_ms",
                   replayed > 0 ? replay_sched_ms / replayed : 0.0, "ms");
    const double codegen_ms = stage_ms[CompileStage::kCodegen];
    outcome.metric("sched.codegen_ms", codegen_ms * per_pass / jobs_per_pass,
                   "ms");
    outcome.metric("sched.codegen.statements", statements * per_pass,
                   "count");
    outcome.metric("sched.codegen.statements_per_s",
                   codegen_ms > 0.0 ? statements / (codegen_ms / 1e3) : 0.0,
                   "1/s");
    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (jobs[i].budget > 0 && first[i].has_value())
            outcome.metric(
                "search.pruned_ratio",
                static_cast<double>(first[i]->tune->pruned_count)
                    / static_cast<double>(first[i]->tune->candidates.size()),
                "ratio");
    reportVerify(verified, e2e.verify_attempted, outcome);

    outcome.metric("self.compiler_ms",
                   stage_ms[CompileStage::kLoad] * per_pass, "ms");
    outcome.metric("self.graph_ms",
                   stage_ms[CompileStage::kValidate] * per_pass, "ms");
    outcome.metric("self.sched_ms",
                   (tune_sched_ms + stage_ms[CompileStage::kSchedule]
                    + codegen_ms)
                       * per_pass,
                   "ms");
    outcome.metric("self.perfsim_ms",
                   (tune_ms - tune_sched_ms + stage_ms[CompileStage::kPerf])
                       * per_pass,
                   "ms");
    outcome.metric("self.residual_ms", residual * per_pass, "ms");
    outcome.metric("self.residual_ratio",
                   job_ms > 0.0 ? residual / job_ms : 0.0, "ratio");
    return outcome;
}

} // namespace perfbench
