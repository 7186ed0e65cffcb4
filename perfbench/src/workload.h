/**
 * @file
 * What the three benchmark workloads share: the run options, the
 * outcome record every workload fills (attempts, failures, metrics and
 * per-job rows), the metric catalogue, and the helpers that time set-up,
 * map session stages onto layers and derive the end-to-end metrics.
 */
#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "compiler/session.h"
#include "tracer.h"

namespace perfbench {

struct BenchOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".bench_out";   //!< result and trace files
    std::string data_dir = "perfbench/data";
};

/** One job's row in the result: the first timed compile of each job (on
 * `serve`, the in-process reference compile of each pool request). */
struct JobRow {
    std::string job;
    double wall_ms = 0.0;
    std::vector<std::pair<std::string, double>> stage_ms;
    std::int64_t flow_statements = 0;
    std::string engine;
    double model_latency_cycles = 0.0;
    double model_energy_pj = 0.0;
};

struct Metric {
    double value = 0.0;
    std::string unit;
};

/** Everything one workload run produced. */
struct Outcome {
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<std::string> notes;
    std::map<std::string, Metric> metrics;
    std::vector<JobRow> rows;

    /** Counts one compile; a compile that failed or failed any output
     * check counts once as failed, with @p why kept for the report. */
    void attempt(bool ok, const std::string &why = "");
    void metric(const std::string &name, double value,
                const std::string &unit);
};

/** (name, unit) of every end-to-end metric, in BENCHMARK.json order. */
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();
/** (name, unit) of every per-layer metric, in BENCHMARK.json order. */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/** The src/ module a session stage runs in (span names and self time). */
const char *stageLayer(cimmlc::CompileStage stage);

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** Row of a completed compile. */
JobRow jobRow(const std::string &job, double wall_ms,
              const cimmlc::CompileArtifacts &artifacts);

/**
 * Installs a stage observer on @p session that records one span per
 * stage under @p parent (a no-op when the tracer is disabled). The span
 * ends when the observer fires and starts wall_ms earlier.
 */
void traceStages(cimmlc::CompilerSession &session, Tracer &tracer,
                 std::int64_t parent, std::int64_t request);

/** The workload's pre-built graphs and architectures, keyed by name. */
struct Inputs {
    std::map<std::string, cimmlc::Graph> graphs;
    std::map<std::string, cimmlc::CimArchitecture> archs;
};

/** Median set-up times over the repetitions of loadInputs. */
struct SetupTimes {
    double setup_s = 0.0;
    double graph_load_ms = 0.0; //!< all models::byName calls of one build
    double arch_load_ms = 0.0;  //!< all presets::byName / file loads
};

/** Set-up repetitions; the median is reported. */
constexpr int kSetupReps = 21;

/**
 * Builds every graph (models::byName) and architecture (presets::byName,
 * or archFromFile for names listed in @p arch_files) kSetupReps times
 * and returns the last build; @p times receives the median timings.
 */
cimmlc::StatusOr<Inputs>
loadInputs(const std::vector<std::string> &models,
           const std::vector<std::string> &archs,
           const std::map<std::string, std::string> &arch_files,
           SetupTimes &times);

/** Median microseconds of NocModel::forChip(arch).diameter(). */
double nocDiameterUs(const cimmlc::CimArchitecture &arch);

/** Inputs of the end-to-end metrics every workload reports. */
struct EndToEnd {
    double setup_s = 0.0;
    std::int64_t compiles = 0;       //!< completed in the timed window
    double timed_s = 0.0;            //!< timed wall
    std::vector<double> latency_ms;  //!< per compile; failures are +inf
    std::vector<double> model_latency_cycles; //!< per distinct job
    std::vector<double> model_energy_pj;      //!< per distinct job
    std::int64_t verify_attempted = 0;
    std::int64_t verify_passed = 0;
};

/** Adds the end-to-end metrics of @p e2e (and ok_ratio and peak RSS
 * from @p outcome) to @p outcome. */
void reportEndToEnd(const EndToEnd &e2e, Outcome &outcome);

/** Totals of the verification runs made after a timed window. */
struct VerifyTally {
    double verify_ms = 0.0; //!< wall of the verify stages
    std::int64_t flow_ops = 0;
    std::int64_t mismatches = 0;
};

/**
 * Compiles @p request with the verify stage on and counts it into
 * @p e2e and @p outcome: it fails unless funcsim replays the flow
 * bit-exact against graph/reference. Its funcsim numbers go to @p tally.
 */
void runVerify(cimmlc::CompileRequest request, const std::string &job,
               Tracer &tracer, EndToEnd &e2e, Outcome &outcome,
               VerifyTally &tally);

/** The funcsim.* per-layer metrics of @p tally over @p runs runs. */
void reportVerify(const VerifyTally &tally, std::int64_t runs,
                  Outcome &outcome);

Outcome runTune(const BenchOptions &options, Tracer &tracer);
Outcome runCheck(const BenchOptions &options, Tracer &tracer);
Outcome runServe(const BenchOptions &options, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
