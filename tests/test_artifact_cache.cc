/**
 * @file
 * Tests for the stage-level artifact cache: hashing determinism, the
 * graph and Abs-arch identities every cache key derives from, bounded
 * LRU eviction, per-stage hit/miss accounting, and the kvjson stats
 * snapshot.
 */
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "arch/presets.h"
#include "arch/serialize.h"
#include "cache/artifact_cache.h"
#include "common/logging.h"
#include "graph/models.h"
#include "graph/serialize.h"
#include "sched/autotune.h"

namespace cimmlc {
namespace {

ArtifactCache::Entry
entry(int value)
{
    ArtifactCache::Entry e;
    e.value = std::make_shared<int>(value);
    e.detail = "v" + std::to_string(value);
    e.compute_ms = static_cast<double>(value);
    return e;
}

int
valueOf(const ArtifactCache::Entry &e)
{
    return *std::static_pointer_cast<const int>(e.value);
}

// ----- ArtifactHash ------------------------------------------------------

TEST(ArtifactHashTest, IsDeterministic)
{
    const std::string a =
        ArtifactHash().mix("graph").mix(std::int64_t{42}).mix(true)
            .mix(2.5).digest();
    const std::string b =
        ArtifactHash().mix("graph").mix(std::int64_t{42}).mix(true)
            .mix(2.5).digest();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 32u);
}

TEST(ArtifactHashTest, DistinguishesInputs)
{
    const std::string base = ArtifactHash().mix("graph").digest();
    EXPECT_NE(ArtifactHash().mix("grapi").digest(), base);
    EXPECT_NE(ArtifactHash().mix("graph").mix("x").digest(), base);
    // Length-prefixed mixing: ("ab", "c") must not alias ("a", "bc").
    EXPECT_NE(ArtifactHash().mix("ab").mix("c").digest(),
              ArtifactHash().mix("a").mix("bc").digest());
    EXPECT_NE(ArtifactHash().mix(1.0).digest(),
              ArtifactHash().mix(std::int64_t{1}).digest());
}

// ----- graph and Abs-arch identity ----------------------------------------

TEST(CacheIdentityTest, ArchDumpIsAFixpointForEveryPreset)
{
    for (const std::string &name : presets::availablePresets()) {
        const std::string dump =
            archToConfig(presets::byName(name).value()).dump();
        auto parsed = archFromText(dump);
        ASSERT_TRUE(parsed.isOk()) << name;
        EXPECT_EQ(archToConfig(parsed.value()).dump(), dump) << name;
    }
}

TEST(CacheIdentityTest, GraphDumpIsAFixpointForEveryModel)
{
    for (const std::string &name : models::availableModels()) {
        const std::string dump = graphToConfig(models::byName(name)).dump();
        auto parsed = graphFromText(dump);
        ASSERT_TRUE(parsed.isOk()) << name;
        EXPECT_EQ(graphToConfig(parsed.value()).dump(), dump) << name;
    }
}

/**
 * Calls @p visit(path, mutant) for every candidate replacement of every
 * scalar leaf of @p node; @p rebuild embeds a replaced node back into
 * the whole document.
 */
void
forEachLeafMutant(
    const ConfigValue &node, const std::string &path,
    const std::function<ConfigValue(const ConfigValue &)> &rebuild,
    const std::function<void(const std::string &, const ConfigValue &)>
        &visit)
{
    if (node.isObject()) {
        for (const auto &[key, child] : node.asObject()) {
            forEachLeafMutant(
                child, path + "." + key,
                [&](const ConfigValue &replacement) {
                    ConfigValue::Object copy = node.asObject();
                    copy[key] = replacement;
                    return rebuild(ConfigValue::makeObject(copy));
                },
                visit);
        }
        return;
    }
    if (node.isArray()) {
        for (std::size_t i = 0; i < node.asArray().size(); ++i) {
            forEachLeafMutant(
                node.asArray()[i], path + "[" + std::to_string(i) + "]",
                [&](const ConfigValue &replacement) {
                    ConfigValue::Array copy = node.asArray();
                    copy[i] = replacement;
                    return rebuild(ConfigValue::makeArray(copy));
                },
                visit);
        }
        return;
    }
    std::vector<ConfigValue> candidates;
    if (node.isNumber()) {
        const double v = node.asNumber();
        for (double m : {v + 1.0, v * 2.0, v - 1.0, v / 2.0})
            candidates.push_back(ConfigValue::makeNumber(m));
    } else if (node.isString()) {
        for (const char *name :
             {"XBM", "CM", "WLM", "mesh", "bus", "htree", "SRAM", "PCM"})
            candidates.push_back(ConfigValue::makeString(name));
        candidates.push_back(ConfigValue::makeString(node.asString() + "x"));
    }
    for (const ConfigValue &candidate : candidates)
        visit(path, rebuild(candidate));
}

TEST(CacheIdentityTest, EverySerializedArchFieldMovesTheKey)
{
    // Walk every leaf of the canonical dump, so a field added to
    // archToConfig is covered without touching this test. The second
    // base carries both NoC cost matrices; its grids are small so the
    // matrices stay short.
    CimArchitecture with_costs = presets::jainJssc21();
    with_costs.chip.core_rows = 1;
    with_costs.chip.core_cols = 2;
    with_costs.chip.core_noc_cost = {0.0, 1.0, 1.0, 0.0};
    with_costs.core.xb_rows = 1;
    with_costs.core.xb_cols = 2;
    with_costs.core.xb_noc_cost = {0.0, 0.5, 0.5, 0.0};
    ASSERT_TRUE(with_costs.validate().isOk());

    const std::string graph = graphDigest(models::byName("lenet5"));
    std::set<std::string> leaves;
    std::set<std::string> moved;
    for (const CimArchitecture &base :
         {presets::jainJssc21(), presets::isaacBaseline(), with_costs}) {
        const ConfigValue doc = archToConfig(base);
        const std::string base_key =
            TuneCache::key(graph, archDigest(base), 0);
        forEachLeafMutant(
            doc, "", [](const ConfigValue &whole) { return whole; },
            [&](const std::string &path, const ConfigValue &mutant) {
                leaves.insert(path);
                if (mutant.dump() == doc.dump())
                    return;
                auto parsed = archFromConfig(mutant);
                // Only mutants the parser keeps verbatim count: an
                // invalid or normalized value is a different edit.
                if (!parsed.isOk()
                    || archToConfig(parsed.value()).dump() != mutant.dump())
                    return;
                EXPECT_NE(TuneCache::key(graph, archDigest(parsed.value()),
                                         0),
                          base_key)
                    << path;
                moved.insert(path);
            });
    }
    EXPECT_EQ(moved, leaves);
    EXPECT_TRUE(leaves.count(".chip_tier.core_noc_cost[1]"));
    EXPECT_TRUE(leaves.count(".core_tier.xb_noc_cost[1]"));
}

TEST(CacheIdentityTest, EveryNodeAttributeAndEdgeMovesTheKey)
{
    // Two branches with every attribute-carrying op, so each edit
    // below keeps the graph well-formed.
    const std::string base = R"({"name": "g",
 "inputs": [{"name": "x", "dims": [1, 4, 8, 8]}, {"name": "y", "dims": [1, 256]}],
 "nodes": [
  {"op": "conv2d", "name": "c1", "inputs": ["x"], "out_channels": 8, "kernel": 3, "kernel_w": 3, "stride": 1, "padding": 1},
  {"op": "maxpool2d", "name": "pool", "inputs": ["c1"], "kernel": 2, "stride": 2, "padding": 0},
  {"op": "flatten", "name": "flat", "inputs": ["pool"]},
  {"op": "linear", "name": "fc", "inputs": ["flat"], "out_features": 16},
  {"op": "conv2d", "name": "c2", "inputs": ["x"], "out_channels": 8, "kernel": 1},
  {"op": "conv2d", "name": "c3", "inputs": ["x"], "out_channels": 4, "kernel": 1},
  {"op": "concat", "name": "cat", "inputs": ["c2", "c3"]},
  {"op": "reshape", "name": "rs", "inputs": ["y"], "dims": [16, 16]},
  {"op": "matmul", "name": "mm", "inputs": ["rs", "rs"], "heads": 1, "transpose_rhs": true}
 ],
 "outputs": ["fc", "mm", "cat"]})";
    const std::string arch = archDigest(presets::puma());
    const auto key = [&arch](const std::string &text) {
        auto graph = graphFromText(text);
        EXPECT_TRUE(graph.isOk()) << graph.status().toString() << text;
        return graph.isOk()
                   ? TuneCache::key(graphDigest(graph.value()), arch, 0)
                   : std::string();
    };
    const std::string base_key = key(base);
    const std::vector<std::pair<std::string, std::string>> edits = {
        {R"("dims": [1, 4, 8, 8])", R"("dims": [1, 2, 8, 8])"},
        {R"("c1", "inputs": ["x"], "out_channels": 8)",
         R"("c1", "inputs": ["x"], "out_channels": 4)"},
        {R"("kernel": 3, "kernel_w": 3)", R"("kernel": 5, "kernel_w": 3)"},
        {R"("kernel_w": 3)", R"("kernel_w": 1)"},
        {R"("kernel_w": 3, "stride": 1)", R"("kernel_w": 3, "stride": 2)"},
        {R"("stride": 1, "padding": 1)", R"("stride": 1, "padding": 0)"},
        {R"("kernel": 2, "stride": 2)", R"("kernel": 4, "stride": 2)"},
        {R"("stride": 2, "padding": 0)", R"("stride": 1, "padding": 0)"},
        {R"("stride": 2, "padding": 0)", R"("stride": 2, "padding": 1)"},
        {R"("out_features": 16)", R"("out_features": 8)"},
        {R"("dims": [16, 16])", R"("dims": [8, 32])"},
        {R"("heads": 1)", R"("heads": 2)"},
        {R"("transpose_rhs": true)", R"("transpose_rhs": false)"},
        {R"("inputs": ["c2", "c3"])", R"("inputs": ["c3", "c2"])"},
        {R"("inputs": ["flat"])", R"("inputs": ["y"])"},
        {R"("outputs": ["fc", "mm", "cat"])", R"("outputs": ["mm", "fc", "cat"])"},
        {R"("name": "g")", R"("name": "h")"},
    };
    std::set<std::string> keys{base_key};
    for (const auto &[from, to] : edits) {
        const std::size_t at = base.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        ASSERT_EQ(base.find(from, at + 1), std::string::npos) << from;
        std::string edited = base;
        edited.replace(at, from.size(), to);
        const std::string edited_key = key(edited);
        EXPECT_NE(edited_key, base_key) << to;
        keys.insert(edited_key);
    }
    EXPECT_EQ(keys.size(), edits.size() + 1);
}

// ----- lookup / insert ---------------------------------------------------

TEST(ArtifactCacheTest, MissThenHit)
{
    ArtifactCache cache(4);
    EXPECT_FALSE(cache.lookup("perf", "k1").has_value());
    cache.insert("perf", "k1", entry(7));
    const auto found = cache.lookup("perf", "k1");
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(valueOf(*found), 7);
    EXPECT_EQ(found->detail, "v7");
    EXPECT_EQ(cache.hits(), 1);
    EXPECT_EQ(cache.misses(), 1);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(ArtifactCacheTest, StageNamespacesKeys)
{
    ArtifactCache cache(4);
    cache.insert("schedule", "same-key", entry(1));
    cache.insert("codegen", "same-key", entry(2));
    EXPECT_EQ(valueOf(*cache.lookup("schedule", "same-key")), 1);
    EXPECT_EQ(valueOf(*cache.lookup("codegen", "same-key")), 2);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ArtifactCacheTest, InsertRefreshesExistingKey)
{
    ArtifactCache cache(4);
    cache.insert("perf", "k", entry(1));
    cache.insert("perf", "k", entry(2));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(valueOf(*cache.lookup("perf", "k")), 2);
    EXPECT_EQ(cache.evictions(), 0);
}

// ----- bounded LRU -------------------------------------------------------

TEST(ArtifactCacheTest, EvictsLeastRecentlyUsedAtCapacity)
{
    ArtifactCache cache(2);
    cache.insert("s", "a", entry(1));
    cache.insert("s", "b", entry(2));
    // Touch "a" so "b" becomes the eviction victim.
    EXPECT_TRUE(cache.lookup("s", "a").has_value());
    cache.insert("s", "c", entry(3));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1);
    EXPECT_TRUE(cache.lookup("s", "a").has_value());
    EXPECT_FALSE(cache.lookup("s", "b").has_value());
    EXPECT_TRUE(cache.lookup("s", "c").has_value());
}

TEST(ArtifactCacheTest, CapacityIsNeverExceeded)
{
    ArtifactCache cache(3);
    for (int i = 0; i < 50; ++i)
        cache.insert("s", "k" + std::to_string(i), entry(i));
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.capacity(), 3u);
    EXPECT_EQ(cache.evictions(), 47);
    // The three most recent inserts survive.
    EXPECT_TRUE(cache.lookup("s", "k49").has_value());
    EXPECT_TRUE(cache.lookup("s", "k48").has_value());
    EXPECT_TRUE(cache.lookup("s", "k47").has_value());
}

TEST(ArtifactCacheTest, ZeroCapacityClampsToOne)
{
    // The clamp is silent no more: a capacity-0 request cannot disable
    // the cache (one entry is its smallest size), and the constructor
    // says so instead of quietly substituting a different limit.
    const long warnings_before = Logger::warningCount();
    ArtifactCache cache(0);
    EXPECT_EQ(Logger::warningCount(), warnings_before + 1)
        << "capacity-0 clamp must emit a diagnostic";
    EXPECT_EQ(cache.capacity(), 1u);
    cache.insert("s", "a", entry(1));
    cache.insert("s", "b", entry(2));
    EXPECT_EQ(cache.size(), 1u);

    // Non-zero capacities construct quietly.
    const long warnings_mid = Logger::warningCount();
    ArtifactCache quiet(1);
    EXPECT_EQ(Logger::warningCount(), warnings_mid);
}

TEST(ArtifactCacheTest, ClearResetsEntriesButKeepsCounters)
{
    ArtifactCache cache(4);
    cache.insert("s", "a", entry(1));
    EXPECT_TRUE(cache.lookup("s", "a").has_value());
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.lookup("s", "a").has_value());
    EXPECT_EQ(cache.hits(), 1);
    EXPECT_EQ(cache.misses(), 1);
}

// ----- stats -------------------------------------------------------------

TEST(ArtifactCacheTest, ToConfigReportsPerStageCounters)
{
    ArtifactCache cache(8);
    cache.insert("schedule", "k", entry(1));
    cache.lookup("schedule", "k");  // hit
    cache.lookup("schedule", "x");  // miss
    cache.lookup("perf", "y");      // miss
    const ConfigValue doc = cache.toConfig();
    EXPECT_EQ(doc.getIntOr("capacity", 0), 8);
    EXPECT_EQ(doc.getIntOr("entries", 0), 1);
    EXPECT_EQ(doc.getIntOr("hits", 0), 1);
    EXPECT_EQ(doc.getIntOr("misses", 0), 2);
    ASSERT_TRUE(doc.has("stages"));
    const ConfigValue stages = doc.get("stages").value();
    ASSERT_TRUE(stages.has("schedule"));
    EXPECT_EQ(stages.get("schedule").value().getIntOr("hits", -1), 1);
    EXPECT_EQ(stages.get("schedule").value().getIntOr("misses", -1), 1);
    ASSERT_TRUE(stages.has("perf"));
    EXPECT_EQ(stages.get("perf").value().getIntOr("misses", -1), 1);
}

} // namespace
} // namespace cimmlc
