/**
 * @file
 * Fuzz-style error-path tests for the input surfaces of the budgeted
 * search engine and of the cache keys: random byte mutations
 * (overwrites, truncations, splices) of well-formed DseSpec,
 * tune-cache, search-budget, graph and Abs-arch kvjson documents must
 * parse into a Status error or a valid value — never crash, hang, or
 * leave half-loaded state behind. Graphs and archs that parse must
 * also dump to a fixpoint of parse-then-dump, the property that makes
 * the dump-derived cache keys sound. Deterministic SplitMix64
 * mutations keep every failure reproducible from the case number
 * printed by the assertion.
 */
#include <gtest/gtest.h>

#include <string>

#include "arch/presets.h"
#include "arch/serialize.h"
#include "cache/artifact_cache.h"
#include "common/config.h"
#include "common/rng.h"
#include "dse/arch_explorer.h"
#include "graph/models.h"
#include "graph/serialize.h"
#include "search/search_budget.h"
#include "sched/autotune.h"

namespace cimmlc {
namespace {

// The examples/dse_lenet5.json sweep with every budgeted-search key
// present, so mutations hit the new surfaces too.
const char *kDseSpecSeed = R"({
    "model": "lenet5",
    "arch": "jain",
    "opt": "full",
    "objective": "latency",
    "budget": {"evals": 9, "proxy_opt_none": false,
               "proxy_prefix_fraction": 0.5},
    "sweep": {
        "xb_size": [[256, 64], [128, 128], [64, 64]],
        "core_grid": {"log2": [1, 4]},
        "core_noc_bandwidth": [0, 128]
    }
})";

// Two inputs and every attribute-carrying op, so mutations reach shape
// inference and not just the JSON layer.
const char *kGraphSeed = R"({"name": "g",
 "inputs": [{"name": "x", "dims": [1, 4, 8, 8]}, {"name": "y", "dims": [1, 256]}],
 "nodes": [
  {"op": "conv2d", "name": "c1", "inputs": ["x"], "out_channels": 8, "kernel": 3, "kernel_w": 3, "stride": 1, "padding": 1},
  {"op": "conv2d", "name": "c2", "inputs": ["x"], "out_channels": 8, "kernel": 1},
  {"op": "concat", "name": "cat", "inputs": ["c1", "c2"]},
  {"op": "add", "name": "sum", "inputs": ["c1", "c2"]},
  {"op": "avgpool2d", "name": "pool", "inputs": ["cat"], "kernel": 2, "stride": 2, "padding": 0},
  {"op": "relu", "name": "act", "inputs": ["pool"]},
  {"op": "flatten", "name": "flat", "inputs": ["act"]},
  {"op": "linear", "name": "fc", "inputs": ["flat"], "out_features": 16},
  {"op": "reshape", "name": "rs", "inputs": ["y"], "dims": [16, 16]},
  {"op": "matmul", "name": "mm", "inputs": ["rs", "rs"], "heads": 1, "transpose_rhs": true},
  {"op": "globalavgpool", "name": "gap", "inputs": ["sum"]}
 ],
 "outputs": ["fc", "mm", "gap"]})";

const char *kBudgetSeed =
    R"({"evals": 9, "proxy_opt_none": true, "proxy_prefix_fraction": 0.25})";

/** One deterministic mutation: overwrite 1-4 bytes, truncate, or
 * splice a random chunk; always returns a non-empty string. */
std::string
mutate(const std::string &seed, Rng &rng)
{
    std::string text = seed;
    switch (rng.uniformInt(0, 3)) {
      case 0: { // overwrite random bytes with random values
        const int edits = static_cast<int>(rng.uniformInt(1, 4));
        for (int i = 0; i < edits; ++i) {
            const std::size_t at = static_cast<std::size_t>(
                rng.uniformInt(0,
                               static_cast<std::int64_t>(text.size()) - 1));
            text[at] = static_cast<char>(rng.uniformInt(0, 255));
        }
        break;
      }
      case 1: { // truncate
        const std::size_t at = static_cast<std::size_t>(rng.uniformInt(
            1, static_cast<std::int64_t>(text.size()) - 1));
        text.resize(at);
        break;
      }
      case 2: { // delete a chunk
        const std::size_t at = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(text.size()) - 2));
        const std::size_t len = static_cast<std::size_t>(rng.uniformInt(
            1, static_cast<std::int64_t>(text.size() - at) - 1));
        text.erase(at, len);
        break;
      }
      default: { // duplicate a chunk somewhere else
        const std::size_t at = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(text.size()) - 2));
        const std::size_t len = static_cast<std::size_t>(
            rng.uniformInt(1, 16));
        const std::size_t to = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(text.size()) - 1));
        text.insert(to, text.substr(at, len));
        break;
      }
    }
    if (text.empty())
        text = "x";
    return text;
}

/** A mutation that usually keeps the JSON well-formed: overwrite one
 * digit, or replace one quoted token with another from the document
 * (a rewired edge, a swapped op or attribute key). */
std::string
mutateToken(const std::string &seed, Rng &rng)
{
    std::vector<std::size_t> digits;
    std::vector<std::pair<std::size_t, std::size_t>> tokens;
    for (std::size_t i = 0; i < seed.size(); ++i) {
        if (seed[i] >= '0' && seed[i] <= '9')
            digits.push_back(i);
        if (seed[i] == '"') {
            const std::size_t end = seed.find('"', i + 1);
            tokens.emplace_back(i, end - i + 1);
            i = end;
        }
    }
    auto pick = [&rng](std::size_t count) {
        return static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(count) - 1));
    };
    std::string text = seed;
    if (rng.uniformInt(0, 1) == 0) {
        text[digits[pick(digits.size())]] =
            static_cast<char>('0' + rng.uniformInt(0, 9));
    } else {
        const auto [at, len] = tokens[pick(tokens.size())];
        const auto [from, from_len] = tokens[pick(tokens.size())];
        text.replace(at, len, seed.substr(from, from_len));
    }
    return text;
}

TEST(SearchFuzzTest, MutatedDseSpecsErrorOrParseButNeverCrash)
{
    Rng rng(0xD5E5EEDull);
    for (int round = 0; round < 400; ++round) {
        const std::string text = mutate(kDseSpecSeed, rng);
        auto spec = dseSpecFromText(text);
        if (!spec.isOk()) {
            EXPECT_FALSE(spec.status().message().empty())
                << "case " << round << " lost its diagnostic";
            continue;
        }
        // A mutation that still parses must yield a self-consistent
        // spec: a validated budget and a non-empty sweep.
        EXPECT_TRUE(spec.value().budget.validate().isOk())
            << "case " << round;
        EXPECT_FALSE(spec.value().sweep.axes.empty()) << "case " << round;
    }
}

TEST(SearchFuzzTest, MutatedBudgetsErrorOrValidateButNeverCrash)
{
    Rng rng(0xB0D6E7ull);
    for (int round = 0; round < 400; ++round) {
        const std::string text = mutate(kBudgetSeed, rng);
        auto doc = parseConfig(text);
        if (!doc.isOk())
            continue;
        auto budget = searchBudgetFromConfig(doc.value());
        if (budget.isOk()) {
            // Whatever parses must also pass its own validation — the
            // parser never hands back an out-of-contract budget.
            EXPECT_TRUE(budget.value().validate().isOk())
                << "case " << round;
        } else {
            EXPECT_FALSE(budget.status().message().empty())
                << "case " << round;
        }
    }
}

/**
 * Parses @p rounds mutants of @p seed with @p parse, alternating byte
 * and token mutations; each mutant that parses (parsers validate) must
 * dump to a fixpoint of parse-then-dump.
 */
template <typename Parse, typename Dump>
void
fuzzDumpFixpoint(const std::string &seed, std::uint64_t rng_seed,
                 int rounds, Parse parse, Dump dump)
{
    Rng rng(rng_seed);
    int parsed = 0;
    for (int round = 0; round < rounds; ++round) {
        auto value = parse(round % 2 == 0 ? mutate(seed, rng)
                                          : mutateToken(seed, rng));
        if (!value.isOk()) {
            EXPECT_FALSE(value.status().message().empty())
                << "case " << round << " lost its diagnostic";
            continue;
        }
        ++parsed;
        const std::string text = dump(value.value());
        auto again = parse(text);
        ASSERT_TRUE(again.isOk())
            << "case " << round << ": " << again.status().toString()
            << "\n" << text;
        EXPECT_EQ(dump(again.value()), text) << "case " << round;
    }
    // Some mutants must survive, or the fixpoint half proves nothing.
    EXPECT_GT(parsed, rounds / 20);
}

TEST(SearchFuzzTest, MutatedGraphsErrorOrDumpToAFixpoint)
{
    fuzzDumpFixpoint(
        kGraphSeed, 0x6EA9Bull, 2000,
        [](const std::string &text) { return graphFromText(text); },
        [](const Graph &graph) { return graphToConfig(graph).dump(); });
}

TEST(SearchFuzzTest, MutatedArchsErrorOrDumpToAFixpoint)
{
    // Small grids keep both NoC cost matrices in the seed short.
    CimArchitecture arch = presets::jainJssc21();
    arch.chip.core_rows = 1;
    arch.chip.core_cols = 2;
    arch.chip.core_noc_cost = {0.0, 1.5, 1.5, 0.0};
    arch.core.xb_rows = 2;
    arch.core.xb_cols = 1;
    arch.core.xb_noc_cost = {0.0, 0.25, 0.25, 0.0};
    fuzzDumpFixpoint(
        archToConfig(arch).dump(true), 0xA5C4ull, 2000,
        [](const std::string &text) { return archFromText(text); },
        [](const CimArchitecture &value) {
            return archToConfig(value).dump();
        });
}

TEST(SearchFuzzTest, MutatedTuneCachesDegradeToColdNeverHalfLoaded)
{
    // A genuine cache document, fidelity-tagged proxy entries included.
    TuneCache seed_cache;
    const std::string graph = graphDigest(models::byName("conv_relu_toy"));
    const std::string arch = archDigest(presets::byName("jain").value());
    SearchFidelity proxy;
    proxy.prefix_nodes = 2;
    proxy.forced_opt_none = true;
    seed_cache.insert(TuneCache::key(graph, arch, 3),
                      TuneCache::Entry{Status::ok(), 10.0, 20.0, 200.0});
    seed_cache.insert(TuneCache::key(graph, arch, 3, proxy),
                      TuneCache::Entry{Status::ok(), 4.0, 8.0, 32.0});
    seed_cache.insert(
        TuneCache::key(graph, arch, 7),
        TuneCache::Entry{resourceExhausted("xbars"), 0.0, 0.0, 0.0});
    const std::string seed_text = seed_cache.toConfig().dump(true);

    Rng rng(0xCAC4Eull);
    for (int round = 0; round < 400; ++round) {
        const std::string text = mutate(seed_text, rng);
        auto doc = parseConfig(text);
        if (!doc.isOk())
            continue;
        TuneCache cache;
        // Pre-populate: a failed load must leave the cache COLD, not
        // keep stale entries and not keep half of the new ones.
        cache.insert("sentinel",
                     TuneCache::Entry{Status::ok(), 1.0, 1.0, 1.0});
        const Status loaded = cache.loadFromConfig(doc.value());
        if (loaded.isOk()) {
            EXPECT_FALSE(cache.lookup("sentinel").has_value())
                << "case " << round << ": load must replace, not merge";
        } else {
            EXPECT_FALSE(loaded.message().empty()) << "case " << round;
            EXPECT_EQ(cache.size(), 0u)
                << "case " << round << ": error must leave a cold cache";
        }
    }
}

} // namespace
} // namespace cimmlc
