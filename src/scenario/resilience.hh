/**
 * @file
 * The resilience layer: drives a scenario with node churn ([lifecycle])
 * as a sequence of run segments with control points in between, and at
 * each control point optionally repairs the multi-hop route tree
 * in-simulation.
 *
 * Mechanics. The manager pre-schedules every declared fail/revive event
 * on the owning node's own shard queue (exact-tick, so the schedule is
 * identical at any thread count; battery depletion adds asynchronous
 * deaths through power::HarvestingSupply). It then runs the network in
 * repair-period segments via core::Network::runUntilTick — between
 * segments every shard sits at the same tick and the media have settled
 * their in-flight state, so the alive set, energy reserves and counters
 * it reads are thread-count-invariant.
 *
 * Repair is modeled, not magic: the manager recomputes the route tree
 * over the currently alive nodes (fewest hops, or the energy-aware
 * metric penalizing low-reserve relays) and lowers the difference into
 * the network as 802.15.4 *command frames* injected at each stale
 * node's radio — the message processor classifies them as irregular,
 * the EP wakes the microcontroller, and the µC's reconfiguration
 * handler (apps.cc, kind 2) rewrites the wildcard route-CAM entry and
 * the node's data destination. Every joule of that wake-decode-rewrite
 * path lands in the node's energy ledger, which is exactly the repair
 * cost the paper's "irregular event" story prices.
 *
 * The control points double as the metrics cadence: windowed delivery
 * ratio (sink deliveries over frames originated), time to first death,
 * time to first partition, and network lifetime come out in a
 * ResilienceReport whose headline lines print identically at any K.
 */

#ifndef ULP_SCENARIO_RESILIENCE_HH
#define ULP_SCENARIO_RESILIENCE_HH

#include <cstdint>
#include <optional>
#include <ostream>
#include <vector>

#include "core/network.hh"
#include "scenario/lower.hh"
#include "scenario/scenario.hh"
#include "sim/types.hh"

namespace ulp::scenario {

/** One control-point snapshot of the degradation metrics. */
struct ResilienceSample
{
    sim::Tick tick = 0;
    unsigned aliveNodes = 0;
    /** Alive nodes with a usable-link path to the (alive) sink,
     *  sink included; 0 when the sink itself is down. */
    unsigned reachableNodes = 0;
    /** Frames originated network-wide so far (cumulative). */
    std::uint64_t framesPrepared = 0;
    /** Frames locally delivered at the sink so far (cumulative). */
    std::uint64_t sinkDeliveries = 0;
    /** Delta sink deliveries / delta frames prepared this window
     *  (1 when nothing was originated). */
    double windowDeliveryRatio = 1.0;
    /** Route-update command frames delivered this window. */
    std::uint64_t repairUpdates = 0;
};

struct ResilienceReport
{
    std::vector<ResilienceSample> samples;

    /** First control point that saw a dead node (0 = none ever died). */
    sim::Tick firstDeathTick = 0;
    /** First control point where an alive node could not reach the sink
     *  over usable links (0 = never partitioned). */
    sim::Tick firstPartitionTick = 0;
    /** Last control point whose window still delivered data to the sink
     *  — the network's useful lifetime (0 = nothing ever arrived). */
    sim::Tick lastDeliveryTick = 0;

    /** Repair rounds that ran (policy fired at a control point). */
    std::uint64_t repairRounds = 0;
    /** Route-update command frames actually delivered to radios. */
    std::uint64_t repairUpdates = 0;
    /** Updates dropped because the target radio's RX FIFO was busy
     *  (re-taught at a later control point). */
    std::uint64_t repairDropped = 0;
    /** Tick of the last repair round (0 = no repair ever ran). */
    sim::Tick lastRepairTick = 0;

    /** Aggregate delivery ratio over the windows after the last repair
     *  round (the whole run when no repair ran; 0 when nothing was
     *  originated after it — a dead network is not a recovered one). */
    double postRepairDeliveryRatio = 0.0;
    /** Sink deliveries after the last repair round. */
    std::uint64_t postRepairDeliveries = 0;
    /** Aggregate delivery ratio over the last quarter of the run
     *  (0 when nothing was originated in that quarter). */
    double steadyDeliveryRatio = 0.0;
};

/**
 * Drives one lowered scenario with lifecycle events, route repair and
 * degradation metrics. Construct it *before* running the network (the
 * constructor pre-schedules the declared fail/revive events), then call
 * run() instead of Network::runForSeconds.
 *
 * Requirements checked up front: repair policies other than `none` need
 * a routed scenario (a sink) and the reconfigurable application (app4)
 * on the relays, because repair rides the µC reconfiguration path.
 */
class ResilienceManager
{
  public:
    ResilienceManager(core::Network &net, const Scenario &sc,
                      const Lowered &lowered);

    /** Run the full scenario duration in control-point segments. */
    ResilienceReport run();

  private:
    /** Usable links between alive nodes (mirrors the lowerer's rules). */
    std::vector<std::vector<unsigned>> aliveLinks(
        const std::vector<bool> &alive) const;
    /** Parent of each alive node toward the sink under the configured
     *  metric; UINT_MAX when unreachable (or the sink/dead). */
    std::vector<unsigned> computeParents(const std::vector<bool> &alive)
        const;
    /** Inject route updates for stale nodes; returns updates delivered. */
    std::uint64_t repairRound(ResilienceReport &report);

    core::Network &net;
    const Scenario sc;
    const Lowered lowered;

    /** Last next-hop address each node's route CAM was taught (from the
     *  lowered preload, then from delivered updates); reset to "unknown"
     *  whenever the node dies, because full supply loss wipes the CAM. */
    std::vector<std::optional<std::uint16_t>> taught;
    /** NodeDown/NodeUp probe counts at the previous control point, to
     *  catch deaths (and die+revive pairs) between two control points. */
    std::vector<std::uint64_t> lastDownCount;
    std::vector<std::uint64_t> lastUpCount;
    std::vector<std::uint64_t> lastDeepCount;
    std::uint8_t cmdSeq = 0; ///< sequence for injected command frames
};

/** Print the human-readable headline summary (identical at any K). */
void printResilienceReport(std::ostream &os,
                           const ResilienceReport &report);

} // namespace ulp::scenario

#endif // ULP_SCENARIO_RESILIENCE_HH
