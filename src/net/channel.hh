/**
 * @file
 * The radio medium: the one net::Medium implementation, at every thread
 * count. Frames take 802.15.4 airtime (250 kbit/s => 32 us per byte).
 * Each shard of a network owns one Channel and exchanges transmissions
 * with its peers through a net::FrameRelay; a K=1 run, and every
 * standalone Channel, is the single-shard case with no peers.
 *
 * Two topologies answer the per-receiver questions:
 *  - spatial (a net::SpatialModel): r hears a frame from s when
 *    connected(s, r), and a concurrent transmitter g corrupts it when
 *    interferes(g, r);
 *  - broadcast domains (no geometry, no per-pair state): every bound
 *    transceiver in the sender's domain hears the frame, every link
 *    delivers with probability 1 before loss, and every transmitter in a
 *    domain interferes with all of its members.
 *
 * (srcNode, srcTxSeq) — a global node index and that node's transmit
 * counter — identifies a flight. It orders relayed records, breaks
 * same-start collision ties and keys every random draw, so nothing
 * depends on event interleaving and K-shard runs match K=1 bit for bit.
 *
 * For a flight f at receiver r: f is corrupted iff another flight
 * strictly overlaps it and its transmitter interferes at r or is r
 * (half-duplex); otherwise the spatial link draw, then the loss draw,
 * decide delivered vs lost. A flight counts as a collision, once, iff a
 * flight its transmitter can hear was already on the air when it
 * started. Both are resolved at delivery by one pass over the shard's
 * window of recent flights, which lists the flights that overlap f; each
 * receiver then reads that list through its own interference row.
 *
 * Loss is i.i.d. per receiver, or a Gilbert-Elliott Good/Bad chain per
 * transmitter stepped once per frame it sends. Draws are counter-based:
 * (seed, src, dst, srcTxSeq) per receiver, (seed, src, srcTxSeq) per
 * chain step. The loss settings apply to this shard's transmitters.
 *
 * Carrier sense for remote transmissions is applied at sync points, not
 * at the exact start tick: deterministic for a fixed K, approximate
 * across K, so K-invariant scenarios keep the CSMA MAC off.
 *
 * Statistics are kept per broadcast domain and print under the
 * medium's name, or <name>0, <name>1, ... with several domains. Every
 * shard's medium keeps the same domains in the same order, so the
 * network report sums them by position into the K=1 report.
 */

#ifndef ULP_NET_CHANNEL_HH
#define ULP_NET_CHANNEL_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/frame.hh"
#include "net/medium.hh"
#include "net/pool.hh"
#include "net/relay.hh"
#include "net/spatial.hh"
#include "sim/parallel.hh"
#include "sim/sim_object.hh"

namespace ulp::net {

class Channel : public sim::SimObject,
                public Medium,
                public sim::ShardCoupling
{
  public:
    /** 802.15.4: 250 kbit/s. */
    static constexpr double defaultBitRate = net::defaultBitRate;

    /**
     * A standalone medium: one shard, one broadcast domain. Transceivers
     * are bound to node indices in attach order; one that detaches and
     * re-attaches keeps its index.
     */
    Channel(sim::Simulation &simulation, const std::string &name,
            double bit_rate = defaultBitRate, std::uint64_t seed = 1);

    /**
     * Shard @p shard's medium of a positioned network.
     * @param relay  shared mailbox fabric (also defines the bit rate)
     * @param model  shared, const spatial model (outlives the medium);
     *               its link seed also seeds the loss draws
     */
    Channel(sim::Simulation &simulation, const std::string &name,
            FrameRelay &relay, unsigned shard, const SpatialModel &model);

    /**
     * Shard @p shard's medium of a broadcast network whose node i sits in
     * domain @p domain_of[i] (dense ids from 0).
     */
    Channel(sim::Simulation &simulation, const std::string &name,
            FrameRelay &relay, unsigned shard,
            std::vector<unsigned> domain_of, std::uint64_t seed);

    ~Channel() override;

    /** This shard's counts, per domain under the domain's prefix. */
    void visitStats(sim::stats::Visitor &v) const override;

    /**
     * Associate an attached transceiver with its global node index.
     * RadioDevice self-attaches in its constructor (before the owning
     * Network knows the pointer), so binding is a separate, second step;
     * transmitting through an unbound transceiver is a bug (panic). A
     * bound transceiver that detaches and re-attaches is re-bound to the
     * same index automatically.
     */
    void bind(Transceiver *transceiver, unsigned node);

    // --- net::Medium ------------------------------------------------------
    /** Register a transceiver. It is a bug (panic) to attach one twice. */
    void attach(Transceiver *transceiver) override;
    /** Stop delivering to @p transceiver; a no-op when not attached. */
    void detach(Transceiver *transceiver) override;
    sim::Tick transmit(Transceiver *sender, const Frame &frame) override;
    sim::Tick frameAirTicks(const Frame &frame) const override;

    // --- sim::ShardCoupling ----------------------------------------------
    sim::Tick nextSyncTick() const override;
    void publishOutbound() override;
    void applyInbound(sim::Tick up_to) override;
    void syncDone(sim::Tick tick) override;
    void finalize(sim::Tick end) override;

    // --- loss models -------------------------------------------------------
    /** Per-receiver independent frame-loss probability. */
    void setLossProbability(double p) { lossProbability = p; }

    /** Two-state bursty loss model; see the file comment. */
    struct GilbertElliott
    {
        double pGoodToBad = 0.0; ///< per-frame Good -> Bad probability
        double pBadToGood = 1.0; ///< per-frame Bad -> Good probability
        double lossGood = 0.0;   ///< loss probability in the Good state
        double lossBad = 1.0;    ///< loss probability in the Bad state
    };

    /** Enable the Gilbert-Elliott model; every chain starts Good.
     *  Overrides the i.i.d. loss probability while enabled. */
    void setGilbertElliott(const GilbertElliott &model);

    /** Disable the Gilbert-Elliott model (back to i.i.d. loss). */
    void clearGilbertElliott() { geEnabled = false; }

    bool gilbertElliottEnabled() const { return geEnabled; }

    // --- observation -------------------------------------------------------
    /** True while a transmission from this shard is in flight. */
    bool busy() const;

    /** Broadcast domains (1 under the spatial model). */
    unsigned numDomains() const
    {
        return static_cast<unsigned>(domainStats.size());
    }

    std::uint64_t
    framesSent() const
    {
        return total(&DomainStats::framesSent);
    }
    std::uint64_t
    framesDelivered() const
    {
        return total(&DomainStats::framesDelivered);
    }
    std::uint64_t
    collisions() const
    {
        return total(&DomainStats::collisions);
    }

    /**
     * Delivery events processed for *remote* flights. A K=1 run delivers
     * each frame with a single event; a K-shard run uses one per shard.
     * Subtracting this from the summed EventQueue::numProcessed()
     * recovers the logical event count.
     */
    std::uint64_t auxiliaryEvents() const { return auxEvents; }

  private:
    Channel(sim::Simulation &simulation, const std::string &name,
            std::unique_ptr<FrameRelay> own_relay, FrameRelay *shared_relay,
            unsigned shard, const SpatialModel *model,
            std::vector<unsigned> domain_of, std::uint64_t seed);

    /** The statistics of one broadcast domain. */
    struct DomainStats
    {
        /** "<name>" with one domain, "<name>D" with several. */
        std::string prefix;
        sim::stats::Scalar framesSent;
        sim::stats::Scalar framesDelivered;
        sim::stats::Scalar framesLost;
        sim::stats::Scalar framesCorrupted;
        sim::stats::Scalar collisions;
        sim::stats::Scalar geBadFrames;
    };

    /** Sum of one statistic over the domains. */
    std::uint64_t total(sim::stats::Scalar DomainStats::*stat) const;

    /** A transmission interval retained for overlap queries. */
    struct Flight
    {
        sim::Tick start;
        sim::Tick end;
        std::uint32_t srcNode;
        std::uint64_t srcTxSeq;

        bool
        sameAs(const FlightRecord &rec) const
        {
            return srcNode == rec.srcNode && srcTxSeq == rec.srcTxSeq;
        }
    };

    /**
     * A pending delivery (local or relayed): an intrusive queue event
     * allocated from the medium's pool, so the per-frame hot path makes
     * no heap allocation and no std::function indirection.
     */
    struct Delivery : public sim::Event
    {
        Delivery(Channel &owner, FlightRecord rec, bool local)
            : owner(owner), rec(std::move(rec)), local(local)
        {}

        void process() override { owner.deliver(*this); }
        std::string
        description() const override
        {
            return owner.name() + (local ? ".frameEnd" : ".remoteFrameEnd");
        }

        Channel &owner;
        FlightRecord rec;
        bool local;
        bool counted = false; ///< collision stat already settled
    };

    unsigned
    domainOf(unsigned node) const
    {
        return nodeDomain.empty() ? 0 : nodeDomain[node];
    }

    /** @p a's transmissions corrupt receptions at @p b (and @p b's
     *  carrier sense detects them). */
    bool interferes(unsigned a, unsigned b) const;

    /** Visit every node that can decode @p src, ascending. */
    template <typename Fn> void forEachReceiver(unsigned src, Fn &&fn) const;

    /**
     * Spatial model: whether the frame being delivered is corrupted at
     * receiver @p r. The delivery's overlap pass stamped the transmitter
     * of every flight that overlaps the frame; r is corrupted when it is
     * stamped itself (half-duplex) or a node of its row interferers(r) is.
     */
    bool corruptedAt(unsigned r) const;

    /** Transmit-time collision verdict for @p rec (at its transmitter),
     *  read from @p flights: any superset of the flights overlapping it. */
    bool collidesAtStart(const FlightRecord &rec,
                         std::span<const Flight> flights) const;

    /** Step @p src's loss process for its next frame into @p rec. */
    void drawLoss(FlightRecord &rec);

    void applyRecord(const FlightRecord &record);
    void deliver(Delivery &delivery);
    void scheduleDelivery(Delivery *delivery, bool cross_shard);
    void senseFrameStart(const FlightRecord &record);

    std::unique_ptr<FrameRelay> ownRelay; ///< standalone media only
    FrameRelay &relay;
    unsigned shard;
    const SpatialModel *model;            ///< null: broadcast domains
    std::vector<unsigned> nodeDomain;     ///< empty: one domain
    std::uint64_t seed;
    std::uint64_t auxEvents = 0;
    sim::Tick maxAirTicks;

    double lossProbability = 0.0;
    bool geEnabled = false;
    GilbertElliott ge;

    /** Attached but not yet bound transceivers. */
    std::vector<Transceiver *> unbound;
    /** Bound, attached transceivers by global node index (null: detached
     *  or not on this shard). */
    std::vector<Transceiver *> byNode;
    /** Every transceiver ever bound, attached or not. */
    std::unordered_map<Transceiver *, unsigned> nodeOf;
    /** Per-source transmit counters (only this shard's entries advance). */
    std::vector<std::uint64_t> txSeq;
    /** Per-source Gilbert-Elliott chain state (this shard's sources). */
    std::vector<std::uint8_t> geBad;

    std::vector<Flight> window;
    /** The flights of window that overlap the frame being delivered. */
    std::vector<Flight> overlapping;
    /** Spatial model: per node, the last overlap pass that stamped it
     *  (heard[n] == stamp: n was on the air during the frame). */
    std::vector<std::uint32_t> heard;
    std::uint32_t stamp = 0;
    ObjectPool<Delivery> deliveryPool;
    std::vector<Delivery *> deliveries;
    /** Records transmitted since the last publishOutbound() flush. */
    std::vector<FlightRecord> outbox;
    /** Delivery ticks that still need a pre-delivery sync: a min-heap
     *  (std::greater), so one insert allocates nothing once it has grown. */
    std::vector<sim::Tick> pendingSyncs;
    /** Per-source records drained but not yet applicable (start >= upTo). */
    std::vector<std::deque<FlightRecord>> staged;

    std::vector<DomainStats> domainStats;
};

} // namespace ulp::net

#endif // ULP_NET_CHANNEL_HH
