/**
 * @file
 * Cross-shard frame relay for the parallel simulation kernel.
 *
 * Under sim::ParallelScheduler every shard simulates its slice of the
 * network on a private EventQueue; the radio medium (net::Channel, one
 * per shard) is the only coupling between slices. The relay is the
 * shard-independent part of that coupling:
 *
 *  - FlightRecord: one transmission as seen from outside its shard — the
 *    air interval [start, end), the K-invariant identity (srcNode,
 *    srcTxSeq), the loss the transmitter drew for it, and the frame.
 *  - FlightMailbox: a lock-free single-producer single-consumer ring; one
 *    per ordered pair of distinct shards. The origin shard buffers
 *    records locally and flushes them in one batch immediately before
 *    each safe-tick publication (ShardCoupling::publishOutbound); the
 *    destination drains only at its deterministic sync points. Batching
 *    keeps the transmit hot path free of cross-shard cache traffic
 *    without weakening the safe-tick contract: the flush happens before
 *    the store that makes the records' interval claimable.
 *  - FrameRelay: the mailboxes plus the bit rate and the per-pair
 *    lookahead topology every shard's medium shares. A single-shard
 *    relay (every K=1 run, every standalone Channel) owns no mailbox.
 */

#ifndef ULP_NET_RELAY_HH
#define ULP_NET_RELAY_HH

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/frame.hh"
#include "net/medium.hh"
#include "sim/types.hh"

namespace ulp::net {

/** One transmission, published by its origin shard to every other. */
struct FlightRecord
{
    sim::Tick start = 0;       ///< first symbol on the air
    sim::Tick end = 0;         ///< last symbol off the air (delivery tick)
    /** Global index of the transmitting node. */
    std::uint32_t srcNode = 0;
    /** Per-source-node transmit counter: (srcNode, srcTxSeq) is the
     *  K-invariant flight identity that keys the canonical apply order,
     *  collision tie-breaks and every per-receiver loss draw. */
    std::uint64_t srcTxSeq = 0;
    /** Per-receiver loss probability the transmitter drew for this frame
     *  (i.i.d. loss, or its Gilbert-Elliott chain's current state). */
    double loss = 0.0;
    /** The transmitter's Gilbert-Elliott chain was in the Bad state. */
    bool geBad = false;
    Frame frame;
};

/**
 * Lock-free SPSC ring of FlightRecords. The producer is the origin
 * shard's worker thread (publishing at transmit time); the consumer is
 * the destination shard's worker thread (draining at sync points).
 * Capacity is sized for worst-case sync lag: the epoch barrier bounds
 * producer lead to under two epochs, and a node can start at most two
 * frames per epoch, so even a 64-node shard stays far below this.
 */
class FlightMailbox
{
  public:
    static constexpr std::size_t capacity = 1024;

    /** Producer side. @return false when the ring is full. */
    bool
    push(const FlightRecord &record)
    {
        const std::size_t t = _tail.load(std::memory_order_relaxed);
        if (t - _head.load(std::memory_order_acquire) == capacity)
            return false;
        slots[t % capacity] = record;
        _tail.store(t + 1, std::memory_order_release);
        return true;
    }

    /** Consumer side: pop everything currently visible into @p fn. */
    template <typename Fn>
    void
    drain(Fn &&fn)
    {
        std::size_t h = _head.load(std::memory_order_relaxed);
        const std::size_t t = _tail.load(std::memory_order_acquire);
        while (h != t) {
            fn(slots[h % capacity]);
            ++h;
        }
        _head.store(h, std::memory_order_release);
    }

  private:
    std::array<FlightRecord, capacity> slots;
    alignas(64) std::atomic<std::size_t> _head{0};
    alignas(64) std::atomic<std::size_t> _tail{0};
};

/**
 * What the shards of one network share about their radio medium: one
 * mailbox per ordered pair of distinct shards, the bit rate, and the
 * pair lookahead topology. Outlives the per-shard Simulations; owns no
 * SimObjects.
 */
class FrameRelay
{
  public:
    explicit FrameRelay(unsigned num_shards,
                        double bit_rate = defaultBitRate);

    unsigned numShards() const { return shards; }
    double bitRate() const { return _bitRate; }

    /**
     * The PDES lookahead: the airtime of the smallest possible frame
     * (header + FCS, no payload). No transmission can deliver sooner
     * than this after it starts.
     */
    sim::Tick lookahead() const;

    /**
     * Override the lookahead for one ordered shard pair. Defaults to
     * lookahead() for every pair; sim::maxTick severs the pair entirely —
     * the media then neither relay records nor sync across it. Set before
     * the run starts (the topology must match what the scheduler sees).
     */
    void setPairLookahead(unsigned from, unsigned to, sim::Tick ticks);

    sim::Tick
    pairLookahead(unsigned from, unsigned to) const
    {
        return pairLook[from * shards + to];
    }

    /** Whether an action of @p from can ever affect @p to. */
    bool
    coupled(unsigned from, unsigned to) const
    {
        return pairLookahead(from, to) != sim::maxTick;
    }

    /** Shards whose transmissions can reach @p to (ascending). */
    const std::vector<unsigned> &
    inboundPeers(unsigned to) const
    {
        return inbound[to];
    }

    /** Shards that @p from's transmissions can reach (ascending). */
    const std::vector<unsigned> &
    outboundPeers(unsigned from) const
    {
        return outbound[from];
    }

    /** Mailboxes allocated: one per ordered pair of distinct shards. */
    std::size_t
    numMailboxes() const
    {
        return static_cast<std::size_t>(
            std::count_if(boxes.begin(), boxes.end(),
                          [](const auto &box) { return box != nullptr; }));
    }

    /** Mailbox carrying records from shard @p from to the distinct shard
     *  @p to. */
    FlightMailbox &
    mailbox(unsigned from, unsigned to)
    {
        return *boxes[from * shards + to];
    }

  private:
    void rebuildPeers();

    unsigned shards;
    double _bitRate;
    /** Row-major [from][to]; null on the diagonal. */
    std::vector<std::unique_ptr<FlightMailbox>> boxes;
    /** Row-major [from][to] pair lookaheads; maxTick = decoupled. */
    std::vector<sim::Tick> pairLook;
    std::vector<std::vector<unsigned>> inbound;
    std::vector<std::vector<unsigned>> outbound;
};

} // namespace ulp::net

#endif // ULP_NET_RELAY_HH
