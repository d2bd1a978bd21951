/**
 * @file
 * N sensor nodes on a shared radio medium, split over K shards: K
 * Simulations, one per worker thread, coupled by a net::FrameRelay
 * under sim::ParallelScheduler. K = 1 is one Simulation run on the
 * calling thread.
 *
 * Every shard owns one net::Channel, the one radio medium, coupled to
 * its peers through a net::FrameRelay at every thread count (the K=1
 * scheduler path is a plain run). The spec picks its topology:
 *
 *  - broadcast (default): flat domains (NodeSpec::domain, default 0);
 *  - spatial (NetworkSpec::spatial set): log-distance path loss over the
 *    node positions.
 *
 * Every thread count is required to produce identical statistics for
 * the same configuration — `threads=1` *is* the regression oracle for
 * `threads=K` — so this class is also where the shards' statistics are
 * summed back into the exact report a single shard prints.
 *
 * The constructor takes a lowered scenario::NetworkSpec — the single
 * configuration path (the legacy per-node-lambda Config shim is gone;
 * build a spec with scenario::NetworkSpec/NodeSpec directly).
 *
 * Parallel-mode restrictions (enforced here): at most one shard per
 * node. Any number of broadcast domains runs at any thread count; the
 * loss models are driven through broadcastChannel(), which exists only
 * at threads = 1.
 */

#ifndef ULP_CORE_NETWORK_HH
#define ULP_CORE_NETWORK_HH

#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <vector>

#include "core/apps.hh"
#include "core/sensor_node.hh"
#include "net/channel.hh"
#include "scenario/spec.hh"
#include "sim/simulation.hh"

namespace ulp::core {

class Network
{
  public:
    /** The headline counters every thread count must agree on. */
    struct Counters
    {
        /** Model events: the relay's auxiliary cross-shard delivery
         *  copies and the trace samplers' firings are subtracted
         *  out. */
        std::uint64_t eventsProcessed = 0;
        std::uint64_t framesSent = 0;
        std::uint64_t framesDelivered = 0;
        std::uint64_t collisions = 0;
        std::uint64_t epIsrs = 0;
        std::uint64_t mcuWakeups = 0;
        /** Events the fabric serviced over links (EP never woke). */
        std::uint64_t fabricLinked = 0;
        /** Linked events dropped at a busy sink (§4.2.4 overload). */
        std::uint64_t fabricDrops = 0;
        sim::Tick endTick = 0;

        bool operator==(const Counters &) const = default;
    };

    explicit Network(const scenario::NetworkSpec &spec);
    ~Network();

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    unsigned numNodes() const { return static_cast<unsigned>(nodeByIndex.size()); }
    unsigned threads() const { return static_cast<unsigned>(shards.size()); }

    SensorNode &node(unsigned index) { return *nodeByIndex[index]; }

    /** Shard simulations, e.g. for attaching telemetry energy samplers. */
    sim::Simulation &shardSimulation(unsigned shard)
    {
        return *shards[shard].simulation;
    }

    /** The shard a node's simulation lives on. */
    unsigned shardOf(unsigned node) const { return shardOfNode[node]; }

    /**
     * The medium carrying broadcast domain @p domain (fault injection,
     * loss models) of a threads = 1 broadcast network: every domain
     * shares the one medium. Null past the last domain, under the
     * spatial model, and at threads > 1.
     */
    net::Channel *broadcastChannel(unsigned domain = 0);

    /** The spatial model the network runs over; null in broadcast mode. */
    const net::SpatialModel *spatialModel() const { return model.get(); }

    /** Run all shards for @p seconds of simulated time. */
    void runForSeconds(double seconds);

    /**
     * Run all shards up to the absolute tick @p end (>= the ticks already
     * run). Segmented runs are how the resilience layer gets control
     * points: between segments every shard sits at the same tick and the
     * medium has finalized in-flight state, so topology inspection and
     * route recomputation are race-free.
     */
    void runUntilTick(sim::Tick end);

    /** Total ticks simulated so far. */
    sim::Tick ranUntil() const { return ran; }

    // --- node lifecycle (survivable mesh) ---------------------------------
    /**
     * Full supply loss for @p node, now. Shard-local: call it only from
     * an event on the node's own shard or between run segments. Frames
     * the node already put on the air complete (see
     * RadioDevice::detachFromMedium); everything else stops.
     */
    void powerOffNodeNow(unsigned node);

    /**
     * Full revive for @p node, now: supply up, radio re-attached (the
     * medium re-binds it to its node index), application image reinstalled
     * and booted. The route CAM stays empty — full supply loss wiped it,
     * and only a repair round (or a fresh preload) re-teaches routes —
     * so an un-repaired revived relay swallows its children's traffic.
     * Shard-local, like powerOffNodeNow().
     */
    void reviveNodeNow(unsigned node);

    /** Pre-schedule a lifecycle event on the node's own shard queue (the
     *  exact-tick, K-invariant path used by [lifecycle] schedules). */
    void scheduleNodePowerOff(unsigned node, sim::Tick when);
    void scheduleNodeRevive(unsigned node, sim::Tick when);

    /**
     * Wake @p node from deep sleep (SensorNode::deepSleepEnter), now.
     * Shard-local like reviveNodeNow. Unlike a revive, this is a
     * *scheduled* wake with known topology: the radio re-attaches, the
     * MAC registers are reprogrammed, the application image is
     * reinstalled, and the spec's routing-CAM preload is restored (a
     * revived crash victim instead waits for repair to re-teach routes).
     */
    void wakeNodeFromDeepSleep(unsigned node);

    /** The spec the network was built from (route repair re-derives
     *  addresses and applications from it). */
    const scenario::NetworkSpec &spec() const { return builtSpec; }

    Counters counters() const;

    /**
     * Print the statistics as one shard would: the media's counts
     * summed over the shards, then every node in global index order.
     * Byte-identical across thread counts for oracle workloads.
     */
    void dumpStats(std::ostream &os);

  private:
    struct Shard
    {
        std::unique_ptr<sim::Simulation> simulation;
        std::unique_ptr<net::Channel> channel;
        std::vector<std::unique_ptr<SensorNode>> nodes;
    };

    /** A pre-scheduled power-off or revive of one node; its event reads
     *  "node3.lifecycle.fail" or "node3.lifecycle.revive". */
    struct LifecycleEntry
    {
        const std::string &name() const { return network->node(node).name(); }
        void
        apply()
        {
            if (revive)
                network->reviveNodeNow(node);
            else
                network->powerOffNodeNow(node);
        }

        Network *network;
        unsigned node;
        bool revive;
        sim::MemberEvent<&LifecycleEntry::apply> event{
            this, revive ? sim::StaticText("lifecycle.revive")
                         : sim::StaticText("lifecycle.fail")};
    };

    void build(const scenario::NetworkSpec &spec);

    /** Schedule @p node's revive (or power-off) at @p when on the
     *  node's own shard queue. */
    void scheduleLifecycle(unsigned node, sim::Tick when, bool revive);

    /** Install the node's application (its shape's image stamped with
     *  its parameter bytes) and boot it. */
    void installApp(unsigned node);

    /** Program the node's platform registers the scenario owns (beacon
     *  MAC mode, orders, address, guard, drift). Idempotent; re-run on
     *  revive and deep-sleep wake since gating wipes transaction state. */
    void applyNodePlatformConfig(unsigned node);

    std::unique_ptr<net::SpatialModel> model;
    std::unique_ptr<net::FrameRelay> relay;
    std::vector<Shard> shards;
    std::vector<SensorNode *> nodeByIndex;
    std::vector<unsigned> shardOfNode;
    scenario::NetworkSpec builtSpec; ///< kept for lifecycle reinstalls
    /** One assembled application per distinct shape. Filled by build(),
     *  read-only afterwards, so shard threads share it on revive/wake. */
    std::map<apps::AppShape, apps::AppImage> images;
    std::vector<std::unique_ptr<LifecycleEntry>> lifecycle;
    sim::Tick ran = 0; ///< total ticks simulated so far
};

} // namespace ulp::core

#endif // ULP_CORE_NETWORK_HH
