/**
 * @file
 * The one JSON parser (sim/json.hh): strict syntax, errors that name
 * origin:line:column, values that keep file order and their source
 * text, typed reads, and the escaper.
 *
 * Then a deterministic mutation test of the three formats read through
 * the parser: a campaign results store, a campaign baseline and a bench
 * snapshot. Every truncation and every single-byte substitution from a
 * fixed alphabet must either load or throw sim::FatalError naming the
 * file; anything else (another exception, a crash, a sanitizer report)
 * fails. The inputs are kept small so that the whole file runs in a few
 * seconds under ASan+UBSan. Last, the bench --check gates a reformatted
 * snapshot like the one the bench wrote.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "campaign/report.hh"
#include "campaign/store.hh"
#include "mutation.hh"
#include "sim/ini.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

using namespace ulp;
using sim::json::Document;
using sim::json::Value;
using test::TestDir;

namespace {

/** The FatalError text of parsing @p text, or "" when it parses. */
std::string
parseError(const std::string &text, unsigned firstLine = 1)
{
    try {
        Document doc("in.json", text, firstLine);
    } catch (const sim::FatalError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(Json, ParsesEveryKindInFileOrderWithSourceText)
{
    const Document doc("t", R"({"b": [1, -2.5e3, true, null],
                                "a": {"x": "\u00e9\n"}, "c": 0})");
    const Value &root = doc.root();
    ASSERT_EQ(root.object().size(), 3u);
    EXPECT_EQ(root.members[0].key, "b");
    EXPECT_EQ(root.members[1].key, "a");
    EXPECT_EQ(root.members[2].key, "c");

    const std::vector<Value> &b = root["b"].array();
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(b[0].unsignedInt(), 1u);
    EXPECT_EQ(b[1].number(), -2500.0);
    EXPECT_EQ(b[1].source, "-2.5e3");
    EXPECT_TRUE(b[2].boolean());
    EXPECT_EQ(b[3].kind, Value::Kind::Null);

    // A nested object keeps its exact bytes; strings are decoded.
    EXPECT_EQ(root["a"].source, R"({"x": "\u00e9\n"})");
    EXPECT_EQ(root["a"]["x"].string(), "\xc3\xa9\n");
    EXPECT_EQ(root["c"].unsignedInt(), 0u);
    EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(Json, RejectsWhatStrictJsonRejects)
{
    // The first two are the cases the Chrome-trace check always had.
    for (const char *bad :
         {"{\"a\":1,}", "{\"a\":1} extra", "[1,]", "[1 2]", "01", "-",
          "1.", "1e", "+1", ".5", "{a:1}", "{\"a\" 1}", "tru", "nul", "",
          "   ", "\"open", "\"\x01\"", "\"\\x\"", "\"\\u12g4\"",
          "\"\\ud800\"", "\"\\udc00\"", "NaN", "[1]]"}) {
        EXPECT_NE(parseError(bad), "") << "accepted: " << bad;
    }
    // Deep nesting is refused, not recursed into until the stack ends.
    EXPECT_NE(parseError(std::string(100000, '[')), "");
    EXPECT_EQ(parseError(std::string(200, '[') + std::string(200, ']')),
              "");
}

TEST(Json, ErrorsNameOriginLineAndColumn)
{
    EXPECT_NE(parseError("{\"a\": 1,\n  \"b\": @}").find("in.json:2:8: "),
              std::string::npos)
        << parseError("{\"a\": 1,\n  \"b\": @}");
    // A line read out of a larger file keeps its own line number.
    EXPECT_NE(parseError("{\"a\": oops}", 7).find("in.json:7:7: "),
              std::string::npos)
        << parseError("{\"a\": oops}", 7);

    // Typed reads name the value they reject.
    const Document doc("f.json", "{\n  \"n\": -3}");
    try {
        doc.root()["n"].unsignedInt();
        FAIL() << "a negative count was read";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("f.json:2:8: "),
                  std::string::npos)
            << e.what();
    }
    try {
        doc.root()["m"];
        FAIL() << "a missing member was read";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("f.json:1:1: no member \"m\""),
                  std::string::npos)
            << e.what();
    }
}

TEST(Json, TypedReadsRejectOtherKinds)
{
    const Document doc(
        "t", "[7, -1, 1.5, 1e3, 18446744073709551615, 18446744073709551616,"
             " \"7\", true, 1e999]");
    const std::vector<Value> &a = doc.root().array();
    EXPECT_EQ(a[0].unsignedInt(), 7u);
    EXPECT_THROW(a[1].unsignedInt(), sim::FatalError); // sign
    EXPECT_THROW(a[2].unsignedInt(), sim::FatalError); // fraction
    EXPECT_THROW(a[3].unsignedInt(), sim::FatalError); // exponent
    EXPECT_EQ(a[4].unsignedInt(), UINT64_MAX);
    EXPECT_THROW(a[5].unsignedInt(), sim::FatalError); // overflow
    EXPECT_EQ(a[3].number(), 1000.0);
    EXPECT_THROW(a[6].number(), sim::FatalError);
    EXPECT_THROW(a[7].string(), sim::FatalError);
    EXPECT_THROW(a[0].boolean(), sim::FatalError);
    EXPECT_THROW(a[0].object(), sim::FatalError);
    EXPECT_THROW(a[0].array(), sim::FatalError);
    EXPECT_THROW(a[8].number(), sim::FatalError);
}

TEST(Json, EscapeRoundTripsThroughTheParser)
{
    EXPECT_EQ(sim::json::escape("a\nb\tc\r\x01\"\\"),
              "a\\nb\\tc\\r\\u0001\\\"\\\\");
    const std::string nasty = "q\"b\\n\n r\r t\t c\x01\x1f \xc3\xa9";
    const Document doc("t", "\"" + sim::json::escape(nasty) + "\"");
    EXPECT_EQ(doc.root().string(), nasty);
}

// --- mutation test -----------------------------------------------------------

namespace {

/** JSON-structural and line-framing bytes. */
constexpr std::string_view jsonAlphabet = "\"{}[],:0e\\\nx";

campaign::RunRecord
okRecord(std::uint64_t id, const char *seed)
{
    campaign::RunRecord record;
    record.id = id;
    record.status = "ok";
    record.elapsedUs = 1200 + id;
    record.overrides = {"nodes.period=1000", seed};
    record.stats = "{\"delivery_ratio\":0.9,\"energy_per_bit_j\":1.5e-06,"
                   "\"lifetime_s\":2}";
    record.error = "exit 3\n\ttail";
    return record;
}

/** A network_scale row as bench_sim_throughput records it. */
bench::Row
scaleRow(std::uint64_t events)
{
    bench::Row row;
    row.input.text("table", "network_scale")
        .count("nodes", 8)
        .number("simulated_seconds", 0.5);
    row.exact.count("events", events).flag("stats_identical", true);
    row.rate.number("events_per_host_second", 5.2e6);
    row.info.number("host_seconds", 0.0013);
    return row;
}

} // namespace

TEST(JsonMutation, ResultsStore)
{
    TestDir tmp;
    const std::string valid = tmp.file("valid.jsonl");
    {
        campaign::ResultsStore::open(valid, {"camp", "b", 1, 0xabcdefULL},
                                     false)
            .append(okRecord(0, "scenario.seed=1"));
    }
    test::mutate(
        tmp.file("store.jsonl"), sim::readFile(valid, "store"), jsonAlphabet,
        [](const std::string &path) { campaign::ResultsStore::load(path); });
}

TEST(JsonMutation, Baseline)
{
    TestDir tmp;
    const std::string valid = tmp.file("valid.json");
    campaign::writeBaseline(
        valid, {"camp", "base.ini", 2, 1},
        campaign::summarize({okRecord(0, "scenario.seed=1"),
                             okRecord(1, "scenario.seed=2")}));
    test::mutate(
        tmp.file("baseline.json"), sim::readFile(valid, "baseline"),
        jsonAlphabet,
        [](const std::string &path) { campaign::loadBaseline(path); });
}

TEST(JsonMutation, BenchSnapshot)
{
    TestDir tmp;
    const std::string valid = tmp.file("valid.json");
    ASSERT_TRUE(bench::writeSnapshot(valid, "bench_test", {scaleRow(6764)}));
    test::mutate(tmp.file("snapshot.json"),
                 sim::readFile(valid, "snapshot"), jsonAlphabet,
                 [](const std::string &path) {
                     bench::validateSnapshot(
                         Document(path, sim::readFile(path, "snapshot")),
                         "bench_test");
                 });
}

// --- bench snapshot check ----------------------------------------------------

TEST(BenchSnapshot, ReformattedSnapshotChecksLikeTheWrittenOne)
{
    TestDir tmp;
    const std::string written = tmp.file("written.json");
    ASSERT_TRUE(bench::writeSnapshot(written, "bench_test", {scaleRow(6764)}));

    // The same snapshot as `python3 -m json.tool` prints it, and a copy
    // with one exact count changed by one.
    const std::string pretty = R"({
    "schema": "ulpsn-bench/1",
    "bench": "bench_test",
    "host": {
        "cores": 4,
        "build_type": "Release",
        "compiler": "gcc 12.2.0"
    },
    "rows": [
        {
            "input": {
                "table": "network_scale",
                "nodes": 8,
                "simulated_seconds": 0.5
            },
            "exact": {
                "events": 6764,
                "stats_identical": true
            },
            "rate": {
                "events_per_host_second": 5200000
            },
            "info": {
                "host_seconds": 0.0013
            }
        }
    ]
}
)";
    const std::string reformatted = tmp.file("reformatted.json");
    test::writeFile(reformatted, pretty);
    std::string bumped = pretty;
    bumped.replace(bumped.find("6764"), 4, "6765");
    const std::string changed = tmp.file("changed.json");
    test::writeFile(changed, bumped);

    const auto measure = [] { return std::vector{scaleRow(6764)}; };
    EXPECT_EQ(bench::checkSnapshot(written, "bench_test", measure), 0);
    EXPECT_EQ(bench::checkSnapshot(reformatted, "bench_test", measure), 0);
    EXPECT_EQ(bench::checkSnapshot(changed, "bench_test", measure), 1);
}
