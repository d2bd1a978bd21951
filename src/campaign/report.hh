/**
 * @file
 * Campaign aggregation: turn a results store into per-sweep-point
 * percentile summaries, and gate them against a committed baseline.
 *
 * Records are grouped by their override list minus the ensemble seed
 * ("scenario.seed=..."), so the 8 seeds of one sweep point land in one
 * group. Percentiles are nearest-rank (deterministic, no
 * interpolation) over delivery ratio, energy per delivered bit and
 * network lifetime.
 *
 * The baseline file is a small JSON snapshot of the p50s per group.
 * `check` passes when every group exists on both sides and each metric
 * is within `|a - b| <= tolerance * |b| + 1e-12` — a relative band
 * with an absolute floor so exact-zero metrics still compare.
 */

#ifndef ULP_CAMPAIGN_REPORT_HH
#define ULP_CAMPAIGN_REPORT_HH

#include <string>
#include <vector>

#include "campaign/store.hh"

namespace ulp::campaign {

/** One aggregated sweep point. */
struct GroupSummary
{
    std::string group; ///< overrides minus the seed; "(all)" when empty
    std::size_t n = 0; ///< ok records aggregated
    double deliveryP50 = 0, deliveryP95 = 0, deliveryP99 = 0;
    double energyPerBitP50 = 0;
    double lifetimeP50 = 0;
};

/** Aggregate the ok records of a loaded store (sorted by group key). */
std::vector<GroupSummary> summarize(const std::vector<RunRecord> &records);

/** Print the human-readable report table. */
void printReport(const ResultsStore::Header &header,
                 const std::vector<RunRecord> &records,
                 const std::vector<GroupSummary> &groups);

/** Read the baseline at @p path (group and p50 fields; fatal, naming
 *  path:line:column, when it is malformed or holds no groups). */
std::vector<GroupSummary> loadBaseline(const std::string &path);

/** Write the baseline JSON snapshot of @p groups to @p path. */
void writeBaseline(const std::string &path,
                   const ResultsStore::Header &header,
                   const std::vector<GroupSummary> &groups);

/**
 * Compare @p groups against the baseline at @p path with the given
 * relative tolerance. Prints each violation to stderr; returns the
 * number of violations (0 = gate passes).
 */
unsigned checkBaseline(const std::string &path,
                       const std::vector<GroupSummary> &groups,
                       double tolerance);

} // namespace ulp::campaign

#endif // ULP_CAMPAIGN_REPORT_HH
