/**
 * @file
 * Shared code for the benches: formatting for the reproduction tables
 * (headers, rule lines, engineering-notation power values,
 * paper-vs-measured deltas) and the one bench harness, the command line
 * (--smoke, --json[=PATH], --check[=PATH]) and snapshot format every
 * measuring bench shares (EXPERIMENTS.md, "Bench snapshots").
 */

#ifndef ULP_BENCH_BENCH_UTIL_HH
#define ULP_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "sim/ini.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

#ifndef ULP_BUILD_TYPE
#define ULP_BUILD_TYPE "unspecified"
#endif

namespace ulp::bench {

inline void
banner(const std::string &title)
{
    std::printf("\n================================================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("================================================================================\n");
}

inline void
rule()
{
    std::printf("--------------------------------------------------------------------------------\n");
}

/** Format watts with an engineering prefix (pW..mW). */
inline std::string
fmtWatts(double watts)
{
    char buf[64];
    double a = std::fabs(watts);
    if (a >= 1e-3)
        std::snprintf(buf, sizeof(buf), "%8.3f mW", watts * 1e3);
    else if (a >= 1e-6)
        std::snprintf(buf, sizeof(buf), "%8.3f uW", watts * 1e6);
    else if (a >= 1e-9)
        std::snprintf(buf, sizeof(buf), "%8.3f nW", watts * 1e9);
    else
        std::snprintf(buf, sizeof(buf), "%8.3f pW", watts * 1e12);
    return buf;
}

/** Host seconds since @p start. */
inline double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** Percentage delta of measured vs paper ("n/a" when no reference). */
inline std::string
fmtDelta(double measured, double paper)
{
    if (paper == 0.0)
        return "   n/a";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+5.1f%%",
                  100.0 * (measured - paper) / paper);
    return buf;
}

// --- the bench harness -------------------------------------------------------

/** The command line every bench shares. */
struct Options
{
    bool smoke = false;
    std::string json;  ///< --json[=PATH]; empty when absent
    std::string check; ///< --check[=PATH]; empty when absent
};

/**
 * Parse the shared command line. A bench with a snapshot takes
 * --json[=PATH], and a @p checked one also --check[=PATH]; PATH
 * defaults to @p snapshot. A bench without one (nullptr) takes only
 * --smoke. @p extra sees every argument first and returns true when it
 * consumed it; @p extraUsage documents what it takes. Anything unknown
 * or malformed, and --check beside another mode, prints usage and
 * exits 2.
 */
inline Options
parseOptions(int argc, char **argv, const char *snapshot,
             bool checked = false, const char *extraUsage = "",
             const std::function<bool(std::string_view)> &extra = {})
{
    auto usage = [&] {
        std::fprintf(stderr, "usage: %s [--smoke]%s%s%s\n", argv[0],
                     snapshot ? " [--json[=PATH]]" : "",
                     checked ? " [--check[=PATH]]" : "", extraUsage);
        std::exit(2);
    };
    auto pathFlag = [&](std::string_view arg, std::string_view flag,
                        std::string *path) {
        if (!snapshot || !arg.starts_with(flag))
            return false;
        arg.remove_prefix(flag.size());
        if (!arg.empty() && (arg[0] != '=' || arg.size() == 1))
            usage();
        *path = arg.empty() ? snapshot : std::string(arg.substr(1));
        return true;
    };

    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (extra && extra(arg))
            continue;
        if (arg == "--smoke")
            options.smoke = true;
        else if (!pathFlag(arg, "--json", &options.json) &&
                 !(checked && pathFlag(arg, "--check", &options.check)))
            usage();
    }
    if (!options.check.empty() && (options.smoke || !options.json.empty()))
        usage();
    return options;
}

/** One group of a row's fields: keys and JSON values, in order. */
struct Fields
{
    std::vector<std::pair<std::string, std::string>> items;

    Fields &
    add(const char *key, std::string json)
    {
        items.emplace_back(key, std::move(json));
        return *this;
    }
    Fields &
    count(const char *key, std::uint64_t v)
    {
        return add(key, std::to_string(v));
    }
    Fields &
    flag(const char *key, bool v)
    {
        return add(key, v ? "true" : "false");
    }
    Fields &
    number(const char *key, double v)
    {
        if (!std::isfinite(v))
            sim::panic("bench field '%s' is not finite", key);
        return add(key, sim::csprintf("%.9g", v));
    }
    Fields &
    text(const char *key, const std::string &v)
    {
        return add(key, quoted(v));
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (const auto &[key, value] : items) {
            out += out.size() > 1 ? ", " : "";
            out += quoted(key);
            out += ": ";
            out += value;
        }
        return out + "}";
    }

    static std::string
    quoted(std::string_view s)
    {
        std::string out(1, '"');
        out += sim::json::escape(s);
        return out + "\"";
    }
};

/** One snapshot row: its fields grouped by how --check treats them. */
struct Row
{
    Fields input; ///< what was run: enough for --check to run it again
    Fields exact; ///< counts and flags; --check requires equality
    Fields rate;  ///< host throughput; --check fails below committed / 4
    Fields info;  ///< recorded, never checked

    std::string
    json() const
    {
        return "{\"input\": " + input.json() + ", \"exact\": " +
               exact.json() + ", \"rate\": " + rate.json() +
               ", \"info\": " + info.json() + "}";
    }
};

inline constexpr const char *snapshotSchema = "ulpsn-bench/1";

/** @p rows as a JSON array, one row a line. */
inline std::string
rowsJson(const std::vector<Row> &rows)
{
    std::string text = "[";
    for (std::size_t i = 0; i < rows.size(); ++i)
        text += (i ? ",\n    " : "\n    ") + rows[i].json();
    return text + "\n  ]";
}

/** Write @p rows as @p bench's snapshot to @p path; false on failure. */
inline bool
writeSnapshot(const std::string &path, const char *bench,
              const std::vector<Row> &rows)
{
#if defined(__clang__)
    const char *compiler = "clang " __VERSION__;
#else
    const char *compiler = "gcc " __VERSION__;
#endif
    const std::string text = sim::csprintf(
        "{\n  \"schema\": \"%s\",\n  \"bench\": \"%s\",\n"
        "  \"host\": {\"cores\": %u, \"build_type\": \"%s\", "
        "\"compiler\": %s},\n  \"rows\": %s\n}\n",
        snapshotSchema, bench, std::thread::hardware_concurrency(),
        ULP_BUILD_TYPE, Fields::quoted(compiler).c_str(),
        rowsJson(rows).c_str());
    std::ofstream out(path, std::ios::binary);
    out << text;
    out.close();
    if (!out) {
        std::fprintf(stderr, "%s: cannot write %s\n", bench, path.c_str());
        return false;
    }
    std::printf("snapshot written to %s\n", path.c_str());
    return true;
}

/**
 * Fatal, naming path:line:column, unless @p doc is a snapshot of
 * @p bench in the one schema: a host block, and rows whose exact fields
 * are counts or flags and whose rate fields are numbers.
 */
inline void
validateSnapshot(const sim::json::Document &doc, const char *bench)
{
    const sim::json::Value &root = doc.root();
    if (root["schema"].string() != snapshotSchema)
        root["schema"].fail(std::string("expected ") + snapshotSchema);
    if (root["bench"].string() != bench)
        root["bench"].fail(std::string("expected ") + bench);
    root["host"]["cores"].unsignedInt();
    for (const char *key : {"build_type", "compiler"})
        root["host"][key].string();
    for (const sim::json::Value &row : root["rows"].array()) {
        row["input"].object();
        row["info"].object();
        for (const sim::json::Member &m : row["exact"].object()) {
            if (m.value.kind != sim::json::Value::Kind::Bool)
                m.value.unsignedInt();
        }
        for (const sim::json::Member &m : row["rate"].object())
            m.value.number();
    }
}

/**
 * Whether @p a and @p b hold the same value however either is written:
 * numbers by value, strings decoded, objects member by member.
 */
inline bool
sameValue(const sim::json::Value &a, const sim::json::Value &b)
{
    using Kind = sim::json::Value::Kind;
    if (a.kind != b.kind || a.members.size() != b.members.size())
        return false;
    if (a.kind == Kind::Number)
        return a.number() == b.number();
    if (a.kind == Kind::String)
        return a.text == b.text;
    if (a.kind != Kind::Object)
        return a.source == b.source; // null or a flag: rows hold no arrays
    for (const sim::json::Member &m : a.members) {
        const sim::json::Value *v = b.find(m.key);
        if (!v || !sameValue(m.value, *v))
            return false;
    }
    return true;
}

/**
 * --check: gate the snapshot at @p path against the rows @p measure
 * produces now (the rows the bench re-runs in a check), matched by
 * their input. Every exact field must equal the committed one; every
 * rate, the better of two runs (the first eats the cold caches), must
 * reach a quarter of the committed value, a loose band because the
 * checking host is not the one that wrote the snapshot. Values compare
 * as JSON, so a reformatted snapshot checks like the written one. A
 * measured row missing from the snapshot fails; a committed row the
 * check does not re-run is reported as skipped. Returns the exit
 * status; a malformed snapshot throws sim::FatalError.
 */
inline int
checkSnapshot(const std::string &path, const char *bench,
              const std::function<std::vector<Row>()> &measure)
{
    using sim::json::Member;
    using sim::json::Value;
    const sim::json::Document doc(path, sim::readFile(path, "snapshot"));
    validateSnapshot(doc, bench);
    std::printf("check: host has %u core(s), %s build; reference %s\n",
                std::thread::hardware_concurrency(), ULP_BUILD_TYPE,
                path.c_str());
    const sim::json::Document now("re-run", rowsJson(measure()));
    const sim::json::Document again("re-run", rowsJson(measure()));
    const std::vector<Value> &fresh = now.root().array();
    const std::vector<Value> &second = again.root().array();
    std::vector<bool> matched(fresh.size(), false);
    unsigned failed = 0;

    for (const Value &row : doc.root()["rows"].array()) {
        std::size_t i = 0;
        while (i < fresh.size() &&
               !sameValue(fresh[i]["input"], row["input"]))
            ++i;
        if (i == fresh.size()) {
            std::printf("check: %s: skipped\n",
                        std::string(row["input"].source).c_str());
            continue;
        }
        matched[i] = true;
        const std::string input(fresh[i]["input"].source);
        std::vector<std::string> problems;
        for (const Member &m : row["exact"].object()) {
            const Value *v = fresh[i]["exact"].find(m.key);
            if (!v || !sameValue(*v, m.value)) {
                problems.push_back(
                    m.value.where() + ": exact " + m.key + " is " +
                    std::string(v ? v->source : "missing") +
                    ", committed " + std::string(m.value.source));
            }
        }
        for (const Member &m : fresh[i]["exact"].members) {
            if (!row["exact"].find(m.key))
                problems.push_back(row.where() + ": exact " + m.key +
                                   " is not committed");
        }
        std::string rates;
        for (const Member &m : row["rate"].object()) {
            const double best = std::max(fresh[i]["rate"][m.key].number(),
                                         second[i]["rate"][m.key].number());
            const std::string rate =
                sim::csprintf("rate %s %.4g vs committed %.4g",
                              m.key.c_str(), best, m.value.number());
            rates += "; " + rate;
            if (best < m.value.number() / 4)
                problems.push_back(m.value.where() + ": " + rate +
                                   " is below a quarter");
        }
        std::printf("check: %s%s -> %s\n", input.c_str(), rates.c_str(),
                    problems.empty() ? "ok" : "FAIL");
        std::fflush(stdout);
        for (const std::string &p : problems)
            std::fprintf(stderr, "check: %s\n", p.c_str());
        failed += !problems.empty();
    }
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        if (!matched[i]) {
            std::fprintf(stderr, "check: %s: no committed row %s\n",
                         path.c_str(),
                         std::string(fresh[i]["input"].source).c_str());
            ++failed;
        }
    }
    std::printf("check %s: %u of %zu re-run rows failed\n",
                failed ? "FAILED" : "OK", failed, fresh.size());
    return failed ? 1 : 0;
}

/**
 * The flow of a snapshot bench. @p measure(smoke, check) measures and
 * prints its rows: the --smoke set, the set --check re-runs, or the
 * full set. --check gates the snapshot against them; otherwise every
 * exact flag must hold, and --json writes the rows. Returns the exit
 * status.
 */
inline int
run(const Options &options, const char *bench,
    const std::function<std::vector<Row>(bool smoke, bool check)> &measure)
{
    try {
        if (!options.check.empty()) {
            return checkSnapshot(options.check, bench,
                                 [&] { return measure(false, true); });
        }
        const std::vector<Row> rows = measure(options.smoke, false);
        for (const Row &row : rows) {
            for (const auto &[key, value] : row.exact.items) {
                if (value == "false") {
                    std::fprintf(stderr, "%s: %s: %s is false\n", bench,
                                 row.input.json().c_str(), key.c_str());
                    return 1;
                }
            }
        }
        return options.json.empty() ||
                       writeSnapshot(options.json, bench, rows)
                   ? 0
                   : 1;
    } catch (const sim::SimError &e) {
        std::fprintf(stderr, "%s: %s\n", bench, e.what());
        return 1;
    }
}

} // namespace ulp::bench

#endif // ULP_BENCH_BENCH_UTIL_HH
