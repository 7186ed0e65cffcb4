/**
 * @file
 * cimmlc_perfbench: runs one benchmark workload and prints its result.
 *
 *   cimmlc_perfbench --workload tune|check|serve --seed N --seconds S
 *                    --trace 0|1 [--out-dir DIR] [--data-dir DIR]
 *                    [--git-commit SHA]
 *
 * Standard output carries an environment record, one row per job and
 * the notes as JSON lines, then, as its last line, the result object
 * {"correct", "attempted", "failed", "metrics"}. An untraced run reports
 * the end-to-end metrics; a traced run (--trace 1) reports the
 * per-layer metrics and writes its spans as Chrome trace-event JSON to
 * DIR/<workload>-seed<N>.trace.json. The full record also goes to
 * DIR/<workload>-seed<N>-trace<T>.json. Exit code 0 when every output
 * check held, 1 when one failed, 2 on a usage error.
 */
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/config.h"
#include "common/version.h"
#include "workload.h"

namespace {

using cimmlc::ConfigValue;
using namespace perfbench;

ConfigValue
num(double v)
{
    return ConfigValue::makeNumber(v);
}

ConfigValue
str(const std::string &s)
{
    return ConfigValue::makeString(s);
}

int
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "cimmlc_perfbench: %s\nusage: cimmlc_perfbench --workload "
                 "tune|check|serve --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR] [--data-dir DIR] [--git-commit SHA]\n",
                 why.c_str());
    return 2;
}

ConfigValue
rowToConfig(const JobRow &row)
{
    ConfigValue::Object stages;
    for (const auto &[stage, ms] : row.stage_ms)
        stages[stage] = num(ms);
    ConfigValue::Object out;
    out["job"] = str(row.job);
    out["wall_ms"] = num(row.wall_ms);
    out["stage_ms"] = ConfigValue::makeObject(std::move(stages));
    out["flow_statements"] = num(static_cast<double>(row.flow_statements));
    out["engine"] = str(row.engine);
    out["model_latency_cycles"] = num(row.model_latency_cycles);
    out["model_energy_pj"] = num(row.model_energy_pj);
    out["modeled"] = str("unvalidated model output");
    return ConfigValue::makeObject(std::move(out));
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions options;
    std::string git_commit = "unknown";
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + arg);
        const std::string value = argv[++i];
        char *end = nullptr;
        errno = 0;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = errno == 0 && end != value.c_str() && *end == '\0';
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            have_seconds = errno == 0 && end != value.c_str()
                           && *end == '\0' && options.seconds > 0.0
                           && options.seconds <= 3600.0;
        } else if (arg == "--trace") {
            have_trace = value == "0" || value == "1";
            options.trace = value == "1";
        } else if (arg == "--out-dir") {
            options.out_dir = value;
        } else if (arg == "--data-dir") {
            options.data_dir = value;
        } else if (arg == "--git-commit") {
            git_commit = value;
        } else {
            return usage("unknown argument " + arg);
        }
    }
    if (options.workload != "tune" && options.workload != "check"
        && options.workload != "serve")
        return usage("--workload must be tune, check or serve");
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds and --trace take a non-negative "
                     "integer, a positive number of seconds and 0|1");
    if (::mkdir(options.out_dir.c_str(), 0755) != 0 && errno != EEXIST)
        return usage("cannot create " + options.out_dir);

    Tracer tracer(options.trace);
    Outcome outcome = options.workload == "tune" ? runTune(options, tracer)
                      : options.workload == "check"
                          ? runCheck(options, tracer)
                          : runServe(options, tracer);

    if (options.trace) {
        outcome.metric("trace.compiles_per_s",
                       outcome.metrics["compiles_per_s"].value, "1/s");
        outcome.notes.push_back(std::to_string(tracer.spanCount())
                                + " spans recorded");
    }

    ConfigValue::Object env;
    env["workload"] = str(options.workload);
    env["seed"] = num(static_cast<double>(options.seed));
    env["seconds"] = num(options.seconds);
    env["trace"] = ConfigValue::makeBool(options.trace);
    env["nproc"] = num(std::thread::hardware_concurrency());
    env["build_type"] = str(PERFBENCH_BUILD_TYPE);
    env["compiler"] = str(PERFBENCH_COMPILER);
    env["cimmlc_version"] = str(cimmlc::cimmlcVersion());
    env["git_commit"] = str(git_commit);
    const ConfigValue env_doc = ConfigValue::makeObject(env);
    std::printf("{\"env\": %s}\n", env_doc.dump().c_str());

    ConfigValue::Array rows, notes, failures;
    for (const JobRow &row : outcome.rows) {
        rows.push_back(rowToConfig(row));
        std::printf("%s\n", rows.back().dump().c_str());
    }
    for (const std::string &note : outcome.notes) {
        notes.push_back(str(note));
        std::printf("{\"note\": %s}\n", notes.back().dump().c_str());
    }
    for (const std::string &failure : outcome.failures) {
        failures.push_back(str(failure));
        std::fprintf(stderr, "cimmlc_perfbench: check failed: %s\n",
                     failure.c_str());
    }

    // The reported metric set is fixed by the catalogue: a layer a
    // workload bypasses reads 0 on it.
    const auto &catalogue =
        options.trace ? perLayerMetrics() : endToEndMetrics();
    ConfigValue::Object metrics;
    for (const auto &[name, unit] : catalogue) {
        ConfigValue::Object metric;
        const auto it = outcome.metrics.find(name);
        metric["value"] = num(it != outcome.metrics.end() ? it->second.value
                                                          : 0.0);
        metric["unit"] = str(unit);
        metrics[name] = ConfigValue::makeObject(std::move(metric));
    }

    const std::string stem = options.out_dir + "/" + options.workload
                             + "-seed" + std::to_string(options.seed);
    ConfigValue::Object all_metrics;
    for (const auto &[name, metric] : outcome.metrics)
        all_metrics[name] = num(metric.value);
    ConfigValue::Object record;
    record["env"] = env_doc;
    record["rows"] = ConfigValue::makeArray(std::move(rows));
    record["notes"] = ConfigValue::makeArray(std::move(notes));
    record["failures"] = ConfigValue::makeArray(std::move(failures));
    record["metrics"] = ConfigValue::makeObject(std::move(all_metrics));
    const cimmlc::Status saved = cimmlc::saveConfigFile(
        stem + "-trace" + (options.trace ? "1" : "0") + ".json",
        ConfigValue::makeObject(std::move(record)));
    if (!saved.isOk())
        std::fprintf(stderr, "cimmlc_perfbench: %s\n",
                     saved.toString().c_str());
    if (options.trace) {
        const cimmlc::Status written =
            tracer.writeChromeTrace(stem + ".trace.json");
        if (!written.isOk())
            std::fprintf(stderr, "cimmlc_perfbench: %s\n",
                         written.toString().c_str());
    }

    const bool correct = outcome.failed == 0 && outcome.attempted > 0;
    ConfigValue::Object result;
    result["correct"] = ConfigValue::makeBool(correct);
    result["attempted"] = num(static_cast<double>(outcome.attempted));
    result["failed"] = num(static_cast<double>(outcome.failed));
    result["metrics"] = ConfigValue::makeObject(std::move(metrics));
    std::printf("%s\n",
                ConfigValue::makeObject(std::move(result)).dump().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
