/**
 * @file
 * Unit tests for the support substrate: Status/StatusOr, string
 * utilities, the kvjson config parser, the table renderer, RNG, and
 * integer math helpers.
 */
#include <gtest/gtest.h>

#include "common/config.h"
#include "common/logging.h"
#include "common/mathutil.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strutil.h"
#include "common/table.h"

namespace cimmlc {
namespace {

// ----- Status ------------------------------------------------------------

TEST(StatusTest, DefaultIsOk)
{
    Status status;
    EXPECT_TRUE(status.isOk());
    EXPECT_EQ(status.code(), StatusCode::kOk);
    EXPECT_EQ(status.toString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage)
{
    Status status = invalidArgument("bad thing");
    EXPECT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.toString().find("bad thing"), std::string::npos);
}

TEST(StatusTest, WithContextPrepends)
{
    Status status = notFound("missing").withContext("loading file");
    EXPECT_NE(status.message().find("loading file"), std::string::npos);
    EXPECT_NE(status.message().find("missing"), std::string::npos);
    EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(StatusTest, WithContextOnOkIsNoop)
{
    Status status = Status::ok().withContext("irrelevant");
    EXPECT_TRUE(status.isOk());
}

TEST(StatusTest, AllCodesHaveNames)
{
    for (StatusCode code :
         {StatusCode::kOk, StatusCode::kInvalidArgument,
          StatusCode::kFailedPrecondition, StatusCode::kNotFound,
          StatusCode::kOutOfRange, StatusCode::kUnimplemented,
          StatusCode::kResourceExhausted, StatusCode::kInternal,
          StatusCode::kParseError}) {
        EXPECT_STRNE(statusCodeName(code), "UNKNOWN");
    }
}

TEST(StatusOrTest, HoldsValue)
{
    StatusOr<int> result = 42;
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value(), 42);
}

TEST(StatusOrTest, HoldsError)
{
    StatusOr<int> result = outOfRange("nope");
    EXPECT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(result.valueOr(-1), -1);
}

TEST(StatusOrTest, OkStatusWithoutValueBecomesInternal)
{
    StatusOr<int> result = Status::ok();
    EXPECT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(StatusOrTest, MoveOutValue)
{
    StatusOr<std::string> result = std::string("payload");
    std::string taken = std::move(result).value();
    EXPECT_EQ(taken, "payload");
}

// ----- strutil -----------------------------------------------------------

TEST(StrUtilTest, SplitKeepsEmptyFields)
{
    const auto parts = split("a,,b", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
}

TEST(StrUtilTest, SplitSingleToken)
{
    const auto parts = split("alone", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "alone");
}

TEST(StrUtilTest, TrimWhitespace)
{
    EXPECT_EQ(trim("  hi \t\n"), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("x"), "x");
}

TEST(StrUtilTest, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("cim.readxb", "cim."));
    EXPECT_FALSE(startsWith("cim", "cim."));
    EXPECT_TRUE(endsWith("flow.txt", ".txt"));
    EXPECT_FALSE(endsWith("txt", "flow.txt"));
}

TEST(StrUtilTest, ToLower)
{
    EXPECT_EQ(toLower("ReRAM"), "reram");
    EXPECT_EQ(toLower("XBM"), "xbm");
}

TEST(StrUtilTest, Join)
{
    EXPECT_EQ(join({"a", "b", "c"}, "+"), "a+b+c");
    EXPECT_EQ(join({}, "+"), "");
    EXPECT_EQ(join({"solo"}, "+"), "solo");
}

TEST(StrUtilTest, Strformat)
{
    EXPECT_EQ(strformat("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(strformat("%05.1f", 2.25), "002.2");
}

TEST(StrUtilTest, FormatDoubleTrimsZeros)
{
    EXPECT_EQ(formatDouble(2.5, 3), "2.5");
    EXPECT_EQ(formatDouble(2.0, 3), "2.0");
}

TEST(StrUtilTest, HumanCount)
{
    EXPECT_EQ(humanCount(1536.0), "1.54K");
    EXPECT_EQ(humanCount(2.5e6), "2.50M");
    EXPECT_EQ(humanCount(3.1e9), "3.10G");
    EXPECT_EQ(humanCount(12.0), "12.00");
}

TEST(StrUtilTest, ParseInt64)
{
    std::int64_t value = 0;
    EXPECT_TRUE(parseInt64("  -42 ", &value));
    EXPECT_EQ(value, -42);
    EXPECT_FALSE(parseInt64("12x", &value));
    EXPECT_FALSE(parseInt64("", &value));
}

TEST(StrUtilTest, ParseDouble)
{
    double value = 0.0;
    EXPECT_TRUE(parseDouble("3.5e2", &value));
    EXPECT_DOUBLE_EQ(value, 350.0);
    EXPECT_FALSE(parseDouble("abc", &value));
}

// ----- config (kvjson) ---------------------------------------------------

TEST(ConfigTest, ParsesScalars)
{
    EXPECT_TRUE(parseConfig("true").value().asBool());
    EXPECT_FALSE(parseConfig("false").value().asBool());
    EXPECT_TRUE(parseConfig("null").value().isNull());
    EXPECT_DOUBLE_EQ(parseConfig("-2.5e3").value().asNumber(), -2500.0);
    EXPECT_EQ(parseConfig("\"hi\\n\"").value().asString(), "hi\n");
}

TEST(ConfigTest, ParsesNestedDocument)
{
    auto doc = parseConfig(R"({
        "name": "chip",          # hash comment
        "tiers": [1, 2, 3],      // slash comment
        "inner": {"deep": true}
    })");
    ASSERT_TRUE(doc.isOk());
    const ConfigValue &v = doc.value();
    EXPECT_EQ(v.getStringOr("name", ""), "chip");
    ASSERT_TRUE(v.has("tiers"));
    EXPECT_EQ(v.get("tiers").value().asArray().size(), 3u);
    EXPECT_TRUE(v.get("inner").value().getBoolOr("deep", false));
}

TEST(ConfigTest, RejectsMalformedInput)
{
    EXPECT_FALSE(parseConfig("{").isOk());
    EXPECT_FALSE(parseConfig("[1, 2").isOk());
    EXPECT_FALSE(parseConfig("{\"a\" 1}").isOk());
    EXPECT_FALSE(parseConfig("\"unterminated").isOk());
    EXPECT_FALSE(parseConfig("{} trailing").isOk());
    EXPECT_FALSE(parseConfig("nulle").isOk());
}

TEST(ConfigTest, DumpParseRoundTrip)
{
    const std::string text =
        R"({"a": [1, 2.5, "s"], "b": {"c": true, "d": null}})";
    auto doc = parseConfig(text);
    ASSERT_TRUE(doc.isOk());
    auto again = parseConfig(doc.value().dump(/*pretty=*/true));
    ASSERT_TRUE(again.isOk());
    EXPECT_EQ(doc.value().dump(), again.value().dump());
}

// Pins the exact dump text (cache keys hash compact dumps): key order,
// separators, pretty indentation, string escapes, number forms.
TEST(ConfigTest, DumpTextIsPinned)
{
    using V = ConfigValue;
    const V doc = V::makeObject({
        {"name", V::makeString("q\"uote\\back\nline\ttab\rcr")},
        {"empty_arr", V::makeArray({})},
        {"empty_obj", V::makeObject({})},
        {"nums", V::makeArray({V::makeNumber(1), V::makeNumber(-2.5),
                               V::makeNumber(1e20), V::makeNumber(0.1)})},
        {"nested",
         V::makeObject(
             {{"flag", V::makeBool(true)},
              {"none", V::makeNull()},
              {"list", V::makeArray({V::makeObject(
                           {{"k", V::makeString("v")}})})}})},
    });
    EXPECT_EQ(doc.dump(),
              R"({"empty_arr":[],"empty_obj":{},)"
              R"("name":"q\"uote\\back\nline\ttab\rcr",)"
              R"("nested":{"flag":true,"list":[{"k":"v"}],"none":null},)"
              R"("nums":[1,-2.5,1e+20,0.10000000000000001]})");
    EXPECT_EQ(doc.dump(/*pretty=*/true),
              R"({
  "empty_arr": [],
  "empty_obj": {},
  "name": "q\"uote\\back\nline\ttab\rcr",
  "nested": {
    "flag": true,
    "list": [
      {
        "k": "v"
      }
    ],
    "none": null
  },
  "nums": [
    1,
    -2.5,
    1e+20,
    0.10000000000000001
  ]
})");
    // A nonzero starting indent shifts every nested line and the
    // closing bracket, not the opening one.
    EXPECT_EQ(V::makeArray({V::makeNumber(7)}).dump(true, 1),
              "[\n    7\n  ]");
}

TEST(ConfigTest, TypedGettersWithDefaults)
{
    auto doc = parseConfig(R"({"n": 5, "s": "x", "f": true})").value();
    EXPECT_EQ(doc.getIntOr("n", -1), 5);
    EXPECT_EQ(doc.getIntOr("missing", -1), -1);
    EXPECT_EQ(doc.getStringOr("s", "d"), "x");
    EXPECT_TRUE(doc.getBoolOr("f", false));
    // Type mismatch falls back.
    EXPECT_EQ(doc.getIntOr("s", 9), 9);
}

TEST(ConfigTest, GetOnNonObjectFails)
{
    auto doc = parseConfig("[1]").value();
    EXPECT_FALSE(doc.get("key").isOk());
}

TEST(ConfigTest, FileRoundTrip)
{
    const std::string path = testing::TempDir() + "/cimmlc_config.json";
    ConfigValue::Object obj;
    obj["k"] = ConfigValue::makeNumber(3);
    ASSERT_TRUE(
        saveConfigFile(path, ConfigValue::makeObject(obj)).isOk());
    auto loaded = loadConfigFile(path);
    ASSERT_TRUE(loaded.isOk());
    EXPECT_EQ(loaded.value().getIntOr("k", 0), 3);
    EXPECT_FALSE(loadConfigFile("/no/such/file").isOk());
}

// ----- table ---------------------------------------------------------

TEST(TableTest, RendersAlignedColumns)
{
    TextTable table({"col", "value"});
    table.addRow({"a", "1"});
    table.addSeparator();
    table.addRow({"long-name", "22"});
    const std::string out = table.render();
    EXPECT_NE(out.find("| a         | 1     |"), std::string::npos);
    EXPECT_NE(out.find("| long-name | 22    |"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 3u); // separator counts as a row slot
}

// ----- rng -----------------------------------------------------------

TEST(RngTest, DeterministicForSeed)
{
    Rng a(123), b(123), c(124);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(RngTest, UniformIntInRange)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const std::int64_t v = rng.uniformInt(-3, 7);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 7);
    }
}

TEST(RngTest, UniformDoubleInUnitInterval)
{
    Rng rng(10);
    double sum = 0.0;
    for (int i = 0; i < 2000; ++i) {
        const double v = rng.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 2000.0, 0.5, 0.05);
}

// ----- mathutil ------------------------------------------------------

TEST(MathUtilTest, CeilDiv)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(ceilDiv(1, 128), 1);
}

TEST(MathUtilTest, RoundUp)
{
    EXPECT_EQ(roundUp(10, 8), 16);
    EXPECT_EQ(roundUp(16, 8), 16);
}

TEST(MathUtilTest, ClampInt)
{
    EXPECT_EQ(clampInt(5, 0, 3), 3);
    EXPECT_EQ(clampInt(-5, 0, 3), 0);
    EXPECT_EQ(clampInt(2, 0, 3), 2);
}

TEST(MathUtilTest, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(48));
}

TEST(MathUtilTest, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0);
    EXPECT_EQ(floorLog2(2), 1);
    EXPECT_EQ(floorLog2(127), 6);
    EXPECT_EQ(floorLog2(128), 7);
}

} // namespace
} // namespace cimmlc
