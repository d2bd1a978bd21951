/**
 * @file
 * The message processor accelerator (paper §4.3.5): offloads regular
 * message handling so the microcontroller need not wake for packet
 * preparation or forwarding. It contains two 32-byte frame buffers (so
 * processing and EP transfers can overlap), a CAM holding recently seen
 * packet ids for duplicate suppression / routing lookup, a transmit
 * counter, and memory-mapped control words. It handles standard 802.15.4
 * frames.
 *
 * Commands (written to the control register):
 *   CmdPrepare   build an 802.15.4 data frame in the OUT buffer from the
 *                staged payload and the configured addresses; posts
 *                MsgTxReady when done.
 *   CmdProcessRx classify the frame the EP transferred into the IN
 *                buffer: duplicate -> MsgRxDrop; addressed to this node
 *                -> MsgRxLocal; irregular (802.15.4 command frame) ->
 *                MsgRxIrregular (the EP will wake the uC); otherwise the
 *                frame is copied to the OUT buffer for forwarding and
 *                MsgRxForward is posted.
 *   CmdRouteAdd  latch the staged (origin -> next hop) pair into the
 *                routing CAM (immediate, like CmdClearCam).
 *   CmdRouteClear empty the routing CAM.
 *
 * Routing CAM (multi-hop relay): entries map a frame's *origin* address
 * to the next hop toward the sink; origin 0xFFFF is the wildcard default
 * route. With routes configured, the MAC destination of every data frame
 * is the current hop: a frame addressed to this node whose route lookup
 * hits is *readdressed* to the next hop (dest rewritten, FCS recomputed)
 * and staged for forwarding; a lookup miss means this node is the
 * frame's final destination (MsgRxLocal). Frames overheard for another
 * address are dropped. With no routes configured the legacy behavior is
 * unchanged: frames for other nodes are flood-forwarded verbatim. The
 * routing CAM, like the duplicate CAM, lives in always-on retention
 * latches and survives power gating.
 */

#ifndef ULP_CORE_MESSAGE_PROCESSOR_HH
#define ULP_CORE_MESSAGE_PROCESSOR_HH

#include <array>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "core/slave_device.hh"
#include "net/frame.hh"

namespace ulp::core {

class MessageProcessor : public SlaveDevice
{
  public:
    static constexpr std::uint8_t cmdPrepare = 1;
    static constexpr std::uint8_t cmdProcessRx = 2;
    static constexpr std::uint8_t cmdClearCam = 3;
    static constexpr std::uint8_t cmdRouteAdd = 4;
    static constexpr std::uint8_t cmdRouteClear = 5;

    /** Route-CAM origin wildcard: matches any origin (default route). */
    static constexpr std::uint16_t routeWildcard = 0xFFFF;

    /** Status register bits. */
    static constexpr std::uint8_t statusBusy = 0x1;
    static constexpr std::uint8_t statusTxReady = 0x2;

    static constexpr std::size_t bufferBytes = 32;
    static constexpr std::size_t payloadBytes = 21;
    static constexpr std::size_t camEntries = 16;
    static constexpr std::size_t routeEntries = 16;

    /** One routing-CAM entry: frames originated by @c origin relay via
     *  @c nextHop. @c origin == routeWildcard matches any origin. */
    struct Route
    {
        std::uint16_t origin;
        std::uint16_t nextHop;

        bool operator==(const Route &) const = default;
    };

    struct Timing
    {
        /** Fixed prepare cost plus per-frame-byte cost (header build,
         *  checksum). Tuned so the send path lands near Table 4. */
        sim::Cycles prepareFixed = 11;
        sim::Cycles preparePerByte = 2;
        /** Fixed receive-classify cost plus per-byte cost (checksum
         *  verify, CAM search). */
        sim::Cycles rxFixed = 35;
        sim::Cycles rxPerByte = 3;
    };

    /** The calibrated command costs. */
    static const Timing timing;

    MessageProcessor(sim::Simulation &simulation, const std::string &name,
                     sim::SimObject *parent, fabric::EventSource &event_port,
                     ProbeRecorder &probes, const sim::ClockDomain &clock);

    void visitStats(sim::stats::Visitor &v) const override;

    std::uint8_t busRead(map::Addr offset) override;
    void busWrite(map::Addr offset, std::uint8_t value) override;

    /** The last fully prepared outgoing frame (tests/benches). */
    const std::array<std::uint8_t, bufferBytes> &outBuffer() const
    {
        return outBuf;
    }
    std::uint8_t outLength() const { return outLen; }

    std::uint64_t framesPrepared() const
    {
        return static_cast<std::uint64_t>(statPrepared.value());
    }
    std::uint64_t duplicatesDropped() const
    {
        return static_cast<std::uint64_t>(statDuplicates.value());
    }
    std::uint64_t forwarded() const
    {
        return static_cast<std::uint64_t>(statForwards.value());
    }
    std::uint64_t localDeliveries() const
    {
        return static_cast<std::uint64_t>(statLocal.value());
    }
    std::uint64_t irregulars() const
    {
        return static_cast<std::uint64_t>(statIrregular.value());
    }
    std::uint64_t malformed() const
    {
        return static_cast<std::uint64_t>(statMalformed.value());
    }

    std::uint64_t overheard() const
    {
        return static_cast<std::uint64_t>(statOverheard.value());
    }

    /** CAM occupancy (tests). */
    std::size_t camSize() const { return cam.size(); }

    /**
     * Full supply loss (node death): unlike power gating, the always-on
     * retention latches lose their charge too, so the duplicate CAM is
     * wiped. The lifecycle layer pairs this with clearRoutes().
     */
    void clearDuplicateCam() { cam.clear(); }

    // --- Routing CAM (C++ preload API for the scenario engine) -----------
    /** Install (origin -> next hop); exact entries replace, wildcard too.
     *  FIFO eviction when the CAM is full, like the duplicate CAM. */
    void preloadRoute(std::uint16_t origin, std::uint16_t next_hop);
    void clearRoutes() { routes.clear(); }
    /** Exact-origin match first, else the wildcard entry if present. */
    std::optional<std::uint16_t> lookupRoute(std::uint16_t origin) const;

    /** Per-origin counts of frames locally delivered at this node (the
     *  sink's view of who reached it). */
    const std::map<std::uint16_t, std::uint64_t> &
    localDeliveriesBySource() const
    {
        return localBySource;
    }

  protected:
    void onPowerOff() override;

  private:
    void startCommand(std::uint8_t cmd);
    /** The active command's end: finish it and clear BUSY. */
    void commandDone();
    void finishPrepare();
    void finishProcessRx();
    bool camLookupInsert(std::uint16_t src, std::uint8_t seq);
    std::uint16_t ourAddr() const
    {
        return static_cast<std::uint16_t>((srcHi << 8) | srcLo);
    }

    // Configuration registers.
    std::uint8_t seq = 0;
    std::uint8_t srcHi = 0, srcLo = 0;
    std::uint8_t destHi = 0, destLo = 0;
    std::uint8_t panHi = 0, panLo = 0;
    std::uint8_t payloadLen = 0;
    std::uint8_t batch = 0;
    std::uint8_t inLen = 0;
    std::uint8_t outLen = 0;
    std::uint8_t status = 0;

    std::array<std::uint8_t, payloadBytes> payload{};
    std::array<std::uint8_t, bufferBytes> outBuf{};
    std::array<std::uint8_t, bufferBytes> inBuf{};

    /** Recently seen (src, seq) packet ids, FIFO replacement. */
    std::deque<std::uint32_t> cam;

    /** Routing CAM (always-on retention latches, like `cam`). */
    std::vector<Route> routes;
    /** Route staging registers (latched by CmdRouteAdd). */
    std::uint8_t routeOrigHi = 0, routeOrigLo = 0;
    std::uint8_t routeNextHi = 0, routeNextLo = 0;

    /** Per-origin local-delivery counts (observability, not hardware). */
    std::map<std::uint16_t, std::uint64_t> localBySource;

    sim::MemberEvent<&MessageProcessor::commandDone> doneEvent{
        this, "cmdDone"};
    std::uint8_t activeCmd = 0;

    sim::stats::Scalar statPrepared;
    sim::stats::Scalar statRxProcessed;
    sim::stats::Scalar statDuplicates;
    sim::stats::Scalar statForwards;
    sim::stats::Scalar statLocal;
    sim::stats::Scalar statIrregular;
    sim::stats::Scalar statMalformed;
    sim::stats::Scalar statOverheard;
};

// Defined outside the class: Timing's default member initializers
// cannot be used before the enclosing class is complete.
inline constexpr MessageProcessor::Timing MessageProcessor::timing{};

} // namespace ulp::core

#endif // ULP_CORE_MESSAGE_PROCESSOR_HH
