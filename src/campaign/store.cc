#include "campaign/store.hh"

#include <charconv>
#include <cinttypes>
#include <climits>
#include <filesystem>
#include <sstream>

#include "sim/ini.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace ulp::campaign {

namespace {

using sim::json::Document;
using sim::json::escape;
using sim::json::Member;
using sim::json::Value;

/** The header line; members other than those written are skipped. */
ResultsStore::Header
readHeader(const Value &line)
{
    ResultsStore::Header header;
    bool isHeader = false;
    for (const Member &m : line.object()) {
        if (m.key == "type")
            isHeader = m.value.string() == "campaign";
        else if (m.key == "campaign")
            header.campaign = m.value.string();
        else if (m.key == "scenario")
            header.scenario = m.value.string();
        else if (m.key == "runs")
            header.runs = m.value.unsignedInt();
        else if (m.key == "digest") {
            const std::string &hex = m.value.string();
            const char *end = hex.data() + hex.size();
            const auto [last, ec] =
                std::from_chars(hex.data(), end, header.digest, 16);
            if (ec != std::errc() || last != end)
                m.value.fail("digest is not a 64-bit hexadecimal number");
        }
    }
    if (!isHeader)
        line.fail("not a campaign results-store header");
    return header;
}

/** A run-record line; unknown members are skipped so newer stores
 *  stay readable. */
RunRecord
readRecord(const Value &line)
{
    RunRecord record;
    bool sawId = false, sawStatus = false;
    for (const Member &m : line.object()) {
        if (m.key == "id") {
            record.id = m.value.unsignedInt();
            sawId = true;
        } else if (m.key == "status") {
            record.status = m.value.string();
            sawStatus = true;
        } else if (m.key == "attempts") {
            const std::uint64_t attempts = m.value.unsignedInt();
            if (attempts > UINT_MAX)
                m.value.fail("attempt count out of range");
            record.attempts = static_cast<unsigned>(attempts);
        } else if (m.key == "elapsed_us") {
            record.elapsedUs = m.value.unsignedInt();
        } else if (m.key == "overrides") {
            for (const Value &o : m.value.array())
                record.overrides.push_back(o.string());
        } else if (m.key == "stats") {
            m.value.object();
            for (const char *key : summaryStats) {
                if (const Value *v = m.value.find(key))
                    v->number();
            }
            record.stats = std::string(m.value.source);
        } else if (m.key == "error") {
            record.error = m.value.string();
        }
    }
    if (!sawId || !sawStatus)
        line.fail("run record without \"id\" and \"status\"");
    return record;
}

struct ParsedStore
{
    ResultsStore::Header header;
    std::vector<RunRecord> records;
    unsigned torn = 0;
    /** Byte length of the good prefix (truncation point on resume). */
    std::size_t goodBytes = 0;
};

/**
 * Parse a whole store file. The final line may be torn (no newline, or
 * unparseable) — counted, not fatal; anything else malformed is fatal.
 */
ParsedStore
parseStore(const std::string &path, const std::string &text)
{
    ParsedStore out;
    std::size_t pos = 0;
    unsigned lineNo = 0;
    bool sawHeader = false;
    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        const bool lastAndTorn = nl == std::string::npos;
        std::string line = text.substr(
            pos, lastAndTorn ? std::string::npos : nl - pos);
        std::size_t next = lastAndTorn ? text.size() : nl + 1;
        ++lineNo;

        const bool headerLine = !sawHeader;
        try {
            const Document doc(path, std::move(line), lineNo);
            if (headerLine) {
                out.header = readHeader(doc.root());
                sawHeader = true;
            } else {
                out.records.push_back(readRecord(doc.root()));
            }
        } catch (const sim::FatalError &) {
            // A torn tail is the expected crash artifact; a bad line
            // anywhere else is fatal, naming path:line:column.
            if (next < text.size() || headerLine)
                throw;
            ++out.torn;
            return out;
        }
        if (lastAndTorn) {
            // Appending after a header without its newline would glue
            // the first record onto it.
            if (headerLine) {
                sim::fatal("%s:%u: results-store header has no newline",
                           path.c_str(), lineNo);
            }
            // Parsed, but the newline never made it out: the flush was
            // cut mid-record — treat as torn so it is rewritten whole.
            out.records.pop_back();
            ++out.torn;
            return out;
        }
        pos = next;
        out.goodBytes = pos;
    }
    if (!sawHeader)
        sim::fatal("%s: results store has no header line", path.c_str());
    return out;
}

} // namespace

ResultsStore
ResultsStore::open(const std::string &path, const Header &header,
                   bool resume)
{
    ResultsStore store;
    store.file = path;

    std::error_code ec;
    const bool exists = std::filesystem::exists(path, ec);
    if (exists) {
        if (!resume) {
            sim::fatal("results store '%s' already exists — use `campaign "
                       "resume` to continue it or pick another --store",
                       path.c_str());
        }
        ParsedStore parsed =
            parseStore(path, sim::readFile(path, "results store"));
        if (parsed.header.digest != header.digest) {
            sim::fatal("results store '%s' was produced by a different "
                       "campaign (digest %016" PRIx64 " != %016" PRIx64
                       ") — the spec or base scenario changed since",
                       path.c_str(), parsed.header.digest, header.digest);
        }
        for (const RunRecord &record : parsed.records)
            store.done.insert(record.id);
        store.torn = parsed.torn;
        if (parsed.torn) {
            std::filesystem::resize_file(path, parsed.goodBytes, ec);
            if (ec) {
                sim::fatal("cannot truncate torn results store '%s': %s",
                           path.c_str(), ec.message().c_str());
            }
        }
        store.out = std::fopen(path.c_str(), "ab");
        if (!store.out)
            sim::fatal("cannot append to results store '%s'", path.c_str());
        return store;
    }

    if (!path.empty()) {
        std::filesystem::path parent =
            std::filesystem::path(path).parent_path();
        if (!parent.empty())
            std::filesystem::create_directories(parent, ec);
    }
    store.out = std::fopen(path.c_str(), "wb");
    if (!store.out)
        sim::fatal("cannot create results store '%s'", path.c_str());
    char buf[1024];
    int n = std::snprintf(
        buf, sizeof buf,
        "{\"type\":\"campaign\",\"campaign\":\"%s\",\"scenario\":\"%s\","
        "\"runs\":%" PRIu64 ",\"digest\":\"%016" PRIx64 "\"}\n",
        escape(header.campaign).c_str(),
        escape(header.scenario).c_str(), header.runs, header.digest);
    if (n < 0 || static_cast<std::size_t>(n) >= sizeof buf ||
        std::fwrite(buf, 1, static_cast<std::size_t>(n), store.out) !=
            static_cast<std::size_t>(n)) {
        sim::fatal("cannot write results-store header to '%s'",
                   path.c_str());
    }
    std::fflush(store.out);
    return store;
}

std::vector<RunRecord>
ResultsStore::load(const std::string &path, Header *header)
{
    ParsedStore parsed =
        parseStore(path, sim::readFile(path, "results store"));
    if (header)
        *header = parsed.header;
    return std::move(parsed.records);
}

ResultsStore::ResultsStore(ResultsStore &&other) noexcept
    : file(std::move(other.file)), out(other.out),
      done(std::move(other.done)), torn(other.torn)
{
    other.out = nullptr;
}

ResultsStore::~ResultsStore()
{
    if (out)
        std::fclose(out);
}

void
ResultsStore::append(const RunRecord &record)
{
    std::string overrides;
    for (std::size_t i = 0; i < record.overrides.size(); ++i) {
        if (i)
            overrides += ",";
        overrides += "\"" + escape(record.overrides[i]) + "\"";
    }
    std::ostringstream line;
    line << "{\"id\":" << record.id << ",\"status\":\""
         << escape(record.status) << "\",\"attempts\":"
         << record.attempts << ",\"elapsed_us\":" << record.elapsedUs
         << ",\"overrides\":[" << overrides << "],\"stats\":"
         << (record.stats.empty() ? "{}" : record.stats)
         << ",\"error\":\"" << escape(record.error) << "\"}\n";
    const std::string text = line.str();
    // One write + flush per record: the crash-safety unit is the line.
    if (std::fwrite(text.data(), 1, text.size(), out) != text.size())
        sim::fatal("short write to results store '%s'", file.c_str());
    std::fflush(out);
}

} // namespace ulp::campaign
