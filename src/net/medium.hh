/**
 * @file
 * Abstract radio medium: the surface a transceiver (radio device) needs
 * from whatever carries its frames. It has one implementation,
 * net::Channel: one instance per shard of a network (or one standalone
 * instance), coupled to the other shards' instances through a
 * net::FrameRelay, so it runs at every thread count. Keeping the
 * transceiver side behind this interface keeps RadioDevice free of the
 * relay and topology machinery.
 *
 * Multi-domain invariant
 * ----------------------
 * A network is partitioned into interference domains: two nodes hear
 * (and collide with) each other only within one domain, and frames never
 * cross domains. The medium holds every domain of its shard:
 *
 *  - broadcast topology: each node declares its domain (NodeSpec::domain,
 *    default 0); every member hears every other member;
 *  - spatial topology: the domains are the connected components of the
 *    interference graph derived from node positions
 *    (SpatialModel::domainOf), with no declaration needed.
 *
 * Both work at every thread count.
 */

#ifndef ULP_NET_MEDIUM_HH
#define ULP_NET_MEDIUM_HH

#include "net/frame.hh"
#include "sim/types.hh"

namespace ulp::net {

/** 802.15.4: 250 kbit/s. */
inline constexpr double defaultBitRate = 250'000.0;

/** Callback interface a radio device implements to hear the channel. */
class Transceiver
{
  public:
    virtual ~Transceiver() = default;

    /**
     * A frame addressed through the air has fully arrived.
     * @param frame the frame (header-valid; FCS already applied)
     * @param corrupted true when loss/collision damaged the frame; a real
     *        radio would fail the FCS check
     */
    virtual void frameArrived(const Frame &frame, bool corrupted) = 0;

    /** The first symbol of a frame is on the air (start-symbol detect). */
    virtual void frameStarted(sim::Tick end_tick) { (void)end_tick; }

  private:
    friend class Channel;

    static constexpr unsigned noNode = ~0u;
    /** The node index the medium bound this transceiver to, kept here so
     *  a transmit finds its sender without a lookup; noNode until then.
     *  A transceiver is attached to one medium in its life. */
    unsigned mediumNode = noNode;
};

/** The medium a transceiver transmits into and receives from. */
class Medium
{
  public:
    virtual ~Medium() = default;

    /** Register @p transceiver as a receiver on this medium. */
    virtual void attach(Transceiver *transceiver) = 0;

    /** Remove @p transceiver from this medium. */
    virtual void detach(Transceiver *transceiver) = 0;

    /**
     * Begin transmitting @p frame from @p sender. Delivery to the other
     * attached transceivers happens when the last byte has been sent.
     * @return the tick at which transmission completes.
     */
    virtual sim::Tick transmit(Transceiver *sender, const Frame &frame) = 0;

    /** Frame airtime at the medium's bit rate. */
    virtual sim::Tick frameAirTicks(const Frame &frame) const = 0;
};

} // namespace ulp::net

#endif // ULP_NET_MEDIUM_HH
