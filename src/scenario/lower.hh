/**
 * @file
 * Lowering: turn a parsed, declarative Scenario into the resolved
 * NetworkSpec that core::Network consumes, plus the run-level facts a
 * run needs (duration, sink, hop depths, trace passthrough).
 *
 * This is where the scenario's conventions become concrete:
 *
 *  - placement: grid (row-major, `spacing` pitch), uniform (seeded
 *    counter-hash draw over an `area` square — platform-deterministic,
 *    no std:: distributions), or explicit per-node x/y
 *  - addresses: 1 + index unless overridden (the legacy ulpsim rule)
 *  - per-node RNG seed: scenario seed + index unless overridden
 *  - sampling stagger: period + period-stagger * index, unless a
 *    [node N] period override pins the exact value
 *  - routing: with a sink and mode = auto, a BFS tree toward the sink
 *    over links whose delivery probability is at least `min-prob`
 *    (broadcast model: every same-domain node is one hop from the
 *    sink); mode = explicit reads per-node `next-hop` overrides. Every
 *    non-sink node gets one wildcard CAM route {any-origin -> parent}
 *    and its data destination defaults to the parent, so packets relay
 *    hop-by-hop through the MessageProcessor CAM until they reach the
 *    sink. The sink holds no routes and defaults to the `sink` app.
 */

#ifndef ULP_SCENARIO_LOWER_HH
#define ULP_SCENARIO_LOWER_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "scenario/scenario.hh"
#include "scenario/spec.hh"
#include "sim/types.hh"

namespace ulp::scenario {

/** A Scenario resolved for execution. */
struct Lowered
{
    NetworkSpec spec;

    std::string name;
    double seconds = 1.0;

    /** Short address of node @c i (reporting: origins at the sink). */
    std::vector<std::uint16_t> addresses;

    /** Sink node index, when the scenario routes toward one. */
    std::optional<unsigned> sink;

    /**
     * Hops from node @c i to the sink along the lowered route tree
     * (0 at the sink itself; empty when the scenario has no routes).
     */
    std::vector<unsigned> depth;

    /**
     * Parent of node @c i in the lowered route tree, UINT_MAX when it
     * has none (the sink, or an unrouted scenario). Subtree sizes over
     * this vector identify the busiest relays, and route repair seeds
     * its own recomputation from the same tree.
     */
    std::vector<unsigned> parents;

    /** Broadcast-channel loss probability ([radio] loss; ScenarioRun
     *  applies it to Network::broadcastChannel post-construction). */
    double broadcastLoss = 0.0;

    /** The trace-output section, passed through. */
    std::optional<Scenario::Trace> trace;

    /** Maximum depth over all routed nodes (0 when unrouted). */
    unsigned maxDepth() const
    {
        unsigned d = 0;
        for (unsigned v : depth)
            d = std::max(d, v);
        return d;
    }
};

/**
 * Lower @p scenario. Raises sim::fatal on semantic errors the parser
 * cannot see: an unreachable node under auto routing, a missing
 * next-hop under explicit routing, a routing cycle, a bad signal spec.
 */
Lowered lower(const Scenario &scenario);

/**
 * Compile a sensor signal spec — const:V, sine:AMP,PERIOD_S or
 * ramp:PER_SECOND — into a sampling function (fatal on bad specs).
 */
std::function<std::uint8_t(sim::Tick)> makeSignal(const std::string &spec);

} // namespace ulp::scenario

#endif // ULP_SCENARIO_LOWER_HH
