/**
 * @file
 * Campaign specs: a declarative sweep / ensemble over a base scenario.
 *
 * A campaign file is in the INI dialect of scenario files, read by the
 * same sim/ini.hh reader, and names a base scenario plus the runs to
 * derive from it:
 *
 *   [campaign]
 *   name = dutycycle-sweep
 *   scenario = multihop_grid.ini     ; relative to this file
 *   repeat = 8                       ; seed ensemble per sweep point
 *   seed-base = 1                    ; optional; default = scenario seed
 *
 *   [axis]
 *   nodes.period = 1000, 2000, 4000  ; any dotted scenario key
 *   scenario.seconds = 2             ; single value pins a key
 *
 *   [run]                            ; explicit runs, appended after the
 *   nodes.count = 64                 ; cartesian expansion
 *   nodes.period = 1000
 *
 * Axis keys are scenario::applyScenarioKey dotted paths ("nodes.period",
 * "scenario.seed", "lifecycle.repair", "node.3.period", ...), so every
 * scenario key is sweepable. Axis values are comma lists; `A..B` expands
 * to the inclusive range of decimal integers. The run list is the cartesian product
 * of the axes in file order (last axis varies fastest), times `repeat`
 * seeds (innermost), followed by every explicit [run] section. Run IDs
 * are the 0-based position in that list — the identity the results
 * store keys resume on — so the expansion is deterministic by
 * construction.
 */

#ifndef ULP_CAMPAIGN_SPEC_HH
#define ULP_CAMPAIGN_SPEC_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "scenario/scenario.hh"

namespace ulp::campaign {

/** One key=value scenario override (dotted key, raw value). */
using Override = std::pair<std::string, std::string>;

/** One resolved run of the expanded campaign. */
struct RunSpec
{
    std::uint64_t id = 0;
    /** Applied to the base scenario in order via applyScenarioKey. */
    std::vector<Override> overrides;

    /** "k=v k=v ..." (display / store label; empty for a bare run). */
    std::string label() const;

    bool operator==(const RunSpec &) const = default;
};

struct CampaignSpec
{
    std::string name = "campaign";
    /** Base scenario path as written (resolve against the spec's dir). */
    std::string scenario;

    /** Seed-ensemble size per sweep point. */
    unsigned repeat = 1;
    /** First ensemble seed; when unset the base scenario's seed. */
    std::uint64_t seedBase = 0;
    bool seedBaseSet = false;

    struct Axis
    {
        std::string key;
        std::vector<std::string> values;

        bool operator==(const Axis &) const = default;
    };
    /** Sweep axes in file order. */
    std::vector<Axis> axes;

    /** Explicit run lists ([run] sections, file order). */
    std::vector<std::vector<Override>> runs;

    bool operator==(const CampaignSpec &) const = default;
};

/** Parse campaign text; @p filename labels sim::fatal diagnostics. */
CampaignSpec parseCampaign(const std::string &text,
                           const std::string &filename);

/** Parse a campaign file from disk (fatal when unreadable). */
CampaignSpec parseCampaignFile(const std::string &path);

/**
 * Expand the deterministic run list: cartesian product of the axes
 * (last fastest) x repeat seeds (innermost), then the explicit runs.
 * @p base supplies the default ensemble seed. Fatal when the expansion
 * is degenerate (repeat sweeping an axis that already sets the seed) or
 * absurdly large.
 */
std::vector<RunSpec> expandRuns(const CampaignSpec &spec,
                                const scenario::Scenario &base);

/**
 * Build the per-run scenario: base + overrides, re-validated. @p context
 * labels diagnostics (typically the run label).
 */
scenario::Scenario resolveRun(const scenario::Scenario &base,
                              const RunSpec &run,
                              const std::string &context);

/** FNV-1a 64 digest of the resolved campaign (canonical base scenario
 *  text + every run's id and overrides) — the resume identity check. */
std::uint64_t campaignDigest(const std::string &canonicalScenario,
                             const std::vector<RunSpec> &runs);

} // namespace ulp::campaign

#endif // ULP_CAMPAIGN_SPEC_HH
