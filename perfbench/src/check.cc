/**
 * @file
 * The `check` workload: the static and functional checkers. One
 * closed-loop client runs one single-threaded CompilerSession per job
 * with the mopcheck lint stage on and closed-form perf, over three job
 * families:
 *   - clean flows (large models on preset pairs), where lint is about
 *     nine tenths of each session;
 *   - findings-heavy flows on a deliberately broken Abs-arch, the path
 *     where lint formats thousands of error findings;
 *   - verification-scale flows (small models, every preset) with the
 *     verify stage on, replayed bit-exact against graph/reference.
 * Tuning, the event engine and the daemon are bypassed.
 */
#include <limits>
#include <optional>

#include "helpers.h"
#include "workload.h"

namespace perfbench {

using namespace cimmlc;

namespace {

enum class CheckKind { kClean, kFindings, kVerify };

struct CheckJob {
    std::string model;
    std::string arch;
    CheckKind kind = CheckKind::kClean;

    std::string name() const
    {
        static const char *const kKinds[] = {"clean", "findings", "verify"};
        return model + "@" + arch + "/"
               + kKinds[static_cast<int>(kind)];
    }
};

constexpr const char *kFaultArch = "lint-fault";

std::vector<CheckJob>
checkJobs()
{
    std::vector<CheckJob> jobs;
    for (const char *model : {"resnet18", "resnet50", "vit_base"})
        for (const char *arch : {"isaac-baseline", "jain-jssc21"})
            jobs.push_back({model, arch, CheckKind::kClean});
    for (const char *model : {"mlp", "lenet5", "resnet18"})
        jobs.push_back({model, kFaultArch, CheckKind::kFindings});
    for (const char *model :
         {"mlp", "lenet5", "conv_relu_toy", "macro_cnn", "inception_toy"})
        for (const char *arch : {"isaac-baseline", "jain-jssc21", "puma"})
            jobs.push_back({model, arch, CheckKind::kVerify});
    return jobs;
}

/** Output checks of one compile; "" when they all hold. */
std::string
checkOutputs(const CheckJob &job, const CompileArtifacts &artifacts)
{
    if (!artifacts.lint.has_value())
        return "no lint result";
    const std::int64_t errors = artifacts.lint->errors();
    if (job.kind == CheckKind::kFindings && errors < 1)
        return "lint found no error on the fault arch";
    if (job.kind != CheckKind::kFindings && errors != 0)
        return "lint reported " + std::to_string(errors)
               + " errors on a preset pair";
    if (job.kind == CheckKind::kVerify
        && (!artifacts.verify.has_value() || !artifacts.verify->match))
        return "funcsim replay does not match graph/reference";
    return "";
}

} // namespace

Outcome
runCheck(const BenchOptions &options, Tracer &tracer)
{
    Outcome outcome;
    const std::vector<CheckJob> jobs = checkJobs();
    const std::vector<std::string> models = {
        "resnet18", "resnet50",      "vit_base",  "mlp",
        "lenet5",   "conv_relu_toy", "macro_cnn", "inception_toy"};
    const std::vector<std::string> archs = {"isaac-baseline", "jain-jssc21",
                                            "puma", kFaultArch};

    EndToEnd e2e;
    SetupTimes setup;
    auto loaded = loadInputs(
        models, archs,
        {{kFaultArch, options.data_dir + "/lint_fault_arch.json"}}, setup);
    if (!loaded.isOk()) {
        outcome.attempt(false, "set-up: " + loaded.status().toString());
        return outcome;
    }
    const Inputs inputs = std::move(loaded).value();
    e2e.setup_s = setup.setup_s;

    const std::vector<std::size_t> order =
        seededOrder(jobs.size(), options.seed);
    std::vector<std::string> first_report(jobs.size());
    std::vector<std::optional<JobRow>> rows(jobs.size());
    std::vector<double> reloads(jobs.size(), 0.0);
    std::map<CompileStage, double> stage_ms; // summed over all passes
    double job_ms = 0.0, lint_clean_ms = 0.0, lint_findings_ms = 0.0;
    std::int64_t lint_statements = 0, lint_errors = 0, lint_warnings = 0;
    std::int64_t statements = 0, flow_ops = 0, mismatches = 0;
    std::int64_t verify_runs = 0;

    int passes = 0;
    const auto loop_start = Clock::now();
    while (passes < 2
           || msBetween(loop_start, Clock::now()) < options.seconds * 1e3) {
        for (const std::size_t idx : order) {
            const CheckJob &job = jobs[idx];
            CompileRequest request;
            request.graph = &inputs.graphs.at(job.model);
            request.arch_ref = &inputs.archs.at(job.arch);
            request.lint = true;
            request.threads = 1;
            if (job.kind == CheckKind::kVerify) {
                request.outputs.verify = true;
                std::uint64_t state = options.seed ^ (idx << 32);
                request.verify_seed = splitmix64(state);
            }
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
            if (job.kind == CheckKind::kVerify)
                ++e2e.verify_attempted;
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

            std::string failure = checkOutputs(job, artifacts);
            const std::string report =
                stripTimingFields(artifacts.toConfig().dump(true));
            if (first_report[idx].empty())
                first_report[idx] = report;
            if (failure.empty() && report != first_report[idx])
                failure = "report differs across passes";
            outcome.attempt(failure.empty(), job.name() + ": " + failure);
            if (job.kind == CheckKind::kVerify && artifacts.verify.has_value()
                && artifacts.verify->match)
                ++e2e.verify_passed;

            job_ms += wall;
            for (const StageTrace &trace : artifacts.stages) {
                stage_ms[trace.stage] += trace.wall_ms;
                if (trace.stage == CompileStage::kLint)
                    (job.kind == CheckKind::kFindings ? lint_findings_ms
                                                      : lint_clean_ms) +=
                        trace.wall_ms;
            }
            statements += artifacts.flowStatements();
            if (artifacts.lint.has_value()) {
                lint_statements += artifacts.lint->statements;
                lint_errors += artifacts.lint->errors();
                lint_warnings += artifacts.lint->warnings();
            }
            if (artifacts.verify.has_value()) {
                ++verify_runs;
                flow_ops += artifacts.verify->flow_ops;
                mismatches += artifacts.verify->mismatches;
            }
            if (!rows[idx].has_value()) {
                rows[idx] = jobRow(job.name(), wall, artifacts);
                reloads[idx] = artifacts.perf->reload_cycles;
            }
        }
        ++passes;
    }

    for (const auto &row : rows) {
        if (!row.has_value())
            continue;
        outcome.rows.push_back(*row);
        e2e.model_latency_cycles.push_back(row->model_latency_cycles);
        e2e.model_energy_pj.push_back(row->model_energy_pj);
    }
    reportEndToEnd(e2e, outcome);
    if (!tracer.enabled())
        return outcome;

    // ----- traced run: per-layer numbers --------------------------------
    double diameter_us = 0.0;
    for (const std::string &arch : archs) {
        const double us = nocDiameterUs(inputs.archs.at(arch));
        diameter_us += us;
        outcome.notes.push_back("noc diameter " + arch + ": "
                                + std::to_string(us) + " us");
    }
    const double per_pass = 1.0 / passes;
    const double runs = static_cast<double>(e2e.compiles);
    const double lint_ms = lint_clean_ms + lint_findings_ms;
    const double codegen_ms = stage_ms[CompileStage::kCodegen];
    double stages_total = 0.0;
    for (const auto &[stage, ms] : stage_ms)
        stages_total += ms;
    const double residual = job_ms - stages_total;

    outcome.metric("arch.noc_diameter_us",
                   diameter_us / static_cast<double>(archs.size()), "us");
    outcome.metric("arch.load_ms", setup.arch_load_ms, "ms");
    outcome.metric("graph.load_ms", setup.graph_load_ms, "ms");
    outcome.metric("perfsim.closed_form_ms",
                   runs > 0 ? stage_ms[CompileStage::kPerf] / runs : 0.0,
                   "ms");
    outcome.metric("perfsim.reload_cycles.geomean", shiftedGeomean(reloads),
                   "cycles");
    outcome.metric("sched.schedule_ms",
                   runs > 0 ? stage_ms[CompileStage::kSchedule] / runs : 0.0,
                   "ms");
    outcome.metric("sched.codegen_ms", runs > 0 ? codegen_ms / runs : 0.0,
                   "ms");
    outcome.metric("sched.codegen.statements", statements * per_pass,
                   "count");
    outcome.metric("sched.codegen.statements_per_s",
                   codegen_ms > 0.0 ? statements / (codegen_ms / 1e3) : 0.0,
                   "1/s");
    outcome.metric("mop.lint_ms", runs > 0 ? lint_ms / runs : 0.0, "ms");
    outcome.metric("mop.lint.clean_ms", lint_clean_ms * per_pass, "ms");
    outcome.metric("mop.lint.findings_ms", lint_findings_ms * per_pass,
                   "ms");
    outcome.metric("mop.lint.statements", lint_statements * per_pass,
                   "count");
    outcome.metric("mop.lint.statements_per_s",
                   lint_ms > 0.0 ? lint_statements / (lint_ms / 1e3) : 0.0,
                   "1/s");
    outcome.metric("mop.lint.errors", lint_errors * per_pass, "count");
    outcome.metric("mop.lint.warnings", lint_warnings * per_pass, "count");
    outcome.metric("funcsim.verify_ms",
                   verify_runs > 0
                       ? stage_ms[CompileStage::kVerify] / verify_runs
                       : 0.0,
                   "ms");
    outcome.metric("funcsim.flow_ops", flow_ops * per_pass, "count");
    outcome.metric("funcsim.mismatches", mismatches * per_pass, "count");

    outcome.metric("self.compiler_ms",
                   stage_ms[CompileStage::kLoad] * per_pass, "ms");
    outcome.metric("self.graph_ms",
                   stage_ms[CompileStage::kValidate] * per_pass, "ms");
    outcome.metric("self.sched_ms",
                   (stage_ms[CompileStage::kSchedule] + codegen_ms)
                       * per_pass,
                   "ms");
    outcome.metric("self.perfsim_ms",
                   stage_ms[CompileStage::kPerf] * per_pass, "ms");
    outcome.metric("self.mop_ms", lint_ms * per_pass, "ms");
    outcome.metric("self.funcsim_ms",
                   stage_ms[CompileStage::kVerify] * per_pass, "ms");
    outcome.metric("self.residual_ms", residual * per_pass, "ms");
    outcome.metric("self.residual_ratio",
                   job_ms > 0.0 ? residual / job_ms : 0.0, "ratio");
    return outcome;
}

} // namespace perfbench
