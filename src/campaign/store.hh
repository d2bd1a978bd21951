/**
 * @file
 * The append-only campaign results store: one JSONL record per finished
 * run, flushed as it completes, so a killed coordinator loses at most
 * the in-flight runs and `campaign resume` can skip everything already
 * on disk.
 *
 * Layout (one JSON object per line):
 *
 *   {"type":"campaign","campaign":NAME,"scenario":PATH,"runs":N,
 *    "digest":"%016x"}                                      <- header
 *   {"id":0,"status":"ok","attempts":1,"elapsed_us":1234,
 *    "overrides":["nodes.period=500","scenario.seed=1"],
 *    "stats":{...},"error":""}                              <- per run
 *
 * The `stats` object is written verbatim as the worker produced it and
 * is byte-identical for a given run regardless of the job count — the
 * determinism oracle rides on comparing these substrings. `elapsed_us`
 * and `attempts` are host facts and excluded from that contract.
 *
 * Crash safety: each record is one line, written with a single fwrite
 * and fflushed. A coordinator killed mid-write leaves at most one torn
 * final line, which open() detects, counts, and truncates away before
 * appending resumes. A torn or foreign line anywhere *else* is data
 * loss the store refuses to paper over (fatal).
 *
 * The header's digest covers the canonical base scenario and the whole
 * expanded run list, so resuming against an edited spec fails loudly
 * instead of mixing incompatible records.
 */

#ifndef ULP_CAMPAIGN_STORE_HH
#define ULP_CAMPAIGN_STORE_HH

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "campaign/spec.hh"

namespace ulp::campaign {

/** The `stats` members `campaign report` summarizes, in GroupSummary
 *  order: a record holding one as anything but a number does not load. */
inline constexpr const char *summaryStats[] = {
    "delivery_ratio", "energy_per_bit_j", "lifetime_s"};

/** One stored run outcome. */
struct RunRecord
{
    std::uint64_t id = 0;
    std::string status;       ///< "ok" | "failed"
    unsigned attempts = 1;    ///< 1 normally, 2 after a retry
    std::uint64_t elapsedUs = 0;
    std::vector<std::string> overrides; ///< "key=value" strings
    std::string stats;        ///< single-line JSON object, verbatim
    std::string error;        ///< failure reason + captured stderr tail

    bool ok() const { return status == "ok"; }
};

class ResultsStore
{
  public:
    struct Header
    {
        std::string campaign;
        std::string scenario;
        std::uint64_t runs = 0;
        std::uint64_t digest = 0;
    };

    /**
     * Open @p path for appending. A missing file is created with
     * @p header. An existing file requires @p resume (fatal otherwise —
     * overwriting finished results must be an explicit choice), a
     * matching digest, and yields completed() ids to skip.
     */
    static ResultsStore open(const std::string &path, const Header &header,
                             bool resume);

    /** Read a whole store (report path). Fatal on a missing/invalid
     *  file; tolerates a torn final line. */
    static std::vector<RunRecord> load(const std::string &path,
                                       Header *header = nullptr);

    ResultsStore(ResultsStore &&other) noexcept;
    ~ResultsStore();

    ResultsStore(const ResultsStore &) = delete;
    ResultsStore &operator=(const ResultsStore &) = delete;

    /** Append one record: single write + flush. */
    void append(const RunRecord &record);

    /** Run ids already present on disk when the store was opened. */
    const std::set<std::uint64_t> &completed() const { return done; }

    /** 1 when a torn final line was found (and truncated) on open. */
    unsigned tornTail() const { return torn; }

    const std::string &path() const { return file; }

  private:
    ResultsStore() = default;

    std::string file;
    std::FILE *out = nullptr;
    std::set<std::uint64_t> done;
    unsigned torn = 0;
};

} // namespace ulp::campaign

#endif // ULP_CAMPAIGN_STORE_HH
