/**
 * @file
 * CC2420-class 802.15.4 radio device (paper §4.3.6). Like the real chip
 * it provides hardware start-symbol detection and error detection: frames
 * that arrive corrupted fail the hardware CRC and are silently counted,
 * never bothering the masters. TX and RX move whole frames through
 * 32-byte FIFOs at 250 kbit/s (32 us per byte).
 *
 * The paper's evaluation uses "a simple radio model" without a physical
 * transceiver and excludes radio power from its estimates; we do the
 * same by default (a zero PowerModel) but optionally attach to a
 * net::Channel for real multi-node exchange, and accept a CC2420-like
 * power model for whole-platform studies.
 *
 * Reliability layer: the radio optionally runs an 802.15.4-flavoured MAC
 * (register map::radioMacCtrl). When enabled, unicast data transmissions
 * use CSMA-CA (carrier sense via the channel's start-symbol hook, random
 * backoff in 20-symbol slots with exponential BE in [3, 5]) and wait for
 * an Ack frame; a missing ACK triggers bounded retransmission. The MAC
 * auto-acknowledges intact unicast data frames after the 12-symbol
 * turnaround. Success posts Irq::RadioTxDone; exhausting the retry budget
 * posts Irq::RadioTxFail. With radioMacCtrl == 0 (the reset value) every
 * frame is fire-and-forget: it goes on the air at the TX command and
 * posts Irq::RadioTxDone when it ends.
 *
 * One on-air path: every frame -- fire-and-forget data, the MAC's frame,
 * an ACK, a beacon, an indirect frame, a data request, and the
 * undecodable FIFO image that is timed but never sent -- goes through
 * transmit(), which takes the end tick from the medium (or times the
 * frame without one), charges the active stint and schedules the one
 * air-end event. One frame is on the air at a time; onAir says which.
 *
 * Duty-cycled beacon mode (map::radioMacMode, 802.15.4 beacon-enabled
 * PAN): one coordinator emits beacons every aBaseSuperframeDuration x
 * 2^BO; the active (CAP) portion lasts aBaseSuperframeDuration x 2^SO
 * from the beacon, and outside it the radio MAC sleeps (energy tracker
 * Gated). Devices sync to beacon arrivals, wake a guard window (plus a
 * configurable clock-drift compensation) before the next expected
 * beacon, and count missed beacons; four consecutive misses drop sync
 * and the device stays in RX hunting for one. Transmissions happen only
 * inside the CAP with slotted random backoff and NO carrier sense --
 * CCA reads the K-approximate mediumBusyUntil and would break the
 * byte-identical K=1/2/4 stats oracle, while the superframe structure
 * already serialises contention -- and a TX issued outside the CAP is
 * deferred to the next one. A coordinator's unicast data to a (likely
 * sleeping) device goes to a small pending-indirect queue advertised in
 * the beacon; the device pulls it with a MAC data-request command
 * during the CAP, exactly the 802.15.4 indirect-delivery shape.
 */

#ifndef ULP_CORE_RADIO_DEVICE_HH
#define ULP_CORE_RADIO_DEVICE_HH

#include <array>
#include <functional>
#include <vector>

#include "core/slave_device.hh"
#include "net/channel.hh"
#include "net/frame.hh"
#include "sim/random.hh"

namespace ulp::core {

class RadioDevice : public SlaveDevice, public net::Transceiver
{
  public:
    static constexpr std::uint8_t cmdTx = 1;
    static constexpr std::uint8_t cmdRxOn = 2;
    static constexpr std::uint8_t cmdRxOff = 3;

    static constexpr std::uint8_t statusTxBusy = 0x1;
    static constexpr std::uint8_t statusRxOn = 0x2;
    static constexpr std::uint8_t statusRxReady = 0x4;

    /** map::radioMacCtrl layout. */
    static constexpr std::uint8_t macRetriesMask = 0x07;
    static constexpr std::uint8_t macAutoAckBit = 0x08;

    static constexpr std::size_t fifoBytes = 32;

    // 802.15.4 MAC timing at 250 kbit/s: one symbol is 16 us.
    static constexpr sim::Tick symbolTicks = 16'000;
    /** aUnitBackoffPeriod: 20 symbols. */
    static constexpr sim::Tick backoffSlotTicks = 20 * symbolTicks;
    /** CCA duration: 8 symbols after the backoff. */
    static constexpr sim::Tick ccaTicks = 8 * symbolTicks;
    /** aTurnaroundTime: RX->TX switch before the ACK, 12 symbols. */
    static constexpr sim::Tick turnaroundTicks = 12 * symbolTicks;
    /** macAckWaitDuration: 54 symbols. */
    static constexpr sim::Tick ackWaitTicks = 54 * symbolTicks;
    static constexpr unsigned macMinBE = 3;
    static constexpr unsigned macMaxBE = 5;
    /** macMaxCSMABackoffs: busy CCAs before the attempt is abandoned. */
    static constexpr unsigned macMaxCsmaBackoffs = 4;

    /** map::radioMacMode values. */
    static constexpr std::uint8_t macModeCsma = 0;
    static constexpr std::uint8_t macModeBeaconDevice = 1;
    static constexpr std::uint8_t macModeBeaconCoord = 2;

    /** aBaseSuperframeDuration: 960 symbols. */
    static constexpr sim::Tick baseSuperframeTicks = 960 * symbolTicks;
    /** Largest beacon/superframe order accepted by the registers. */
    static constexpr unsigned maxBeaconOrder = 14;
    /** Pre-beacon wake guard when map::radioGuard is 0, in symbols. */
    static constexpr unsigned defaultGuardSymbols = 128;
    /** CAP slotted backoff draws from [0, 2^capBackoffExp) slots. */
    static constexpr unsigned capBackoffExp = 3;
    /** Consecutive missed beacons before a device drops superframe sync. */
    static constexpr unsigned maxLostBeacons = 4;
    /** Indirect (pending) frames a coordinator holds for sleeping
     *  devices; 802.15.4 calls this the transaction queue. */
    static constexpr std::size_t pendingIndirectCap = 4;
    /** Beacons an unclaimed indirect frame is advertised in before the
     *  coordinator expires it (macTransactionPersistenceTime). */
    static constexpr unsigned indirectExpiryBeacons = 4;
    /** Command-frame identifier of a MAC data request (payload[0]). */
    static constexpr std::uint8_t cmdFrameDataRequest = 0x04;

    RadioDevice(sim::Simulation &simulation, const std::string &name,
                sim::SimObject *parent, fabric::EventSource &event_port,
                ProbeRecorder &probes, const sim::ClockDomain &clock,
                const power::PowerModel &model, net::Medium *channel,
                std::uint64_t seed = 0x5eed);

    ~RadioDevice() override;

    void visitStats(sim::stats::Visitor &v) const override;

    std::uint8_t busRead(map::Addr offset) override;
    void busWrite(map::Addr offset, std::uint8_t value) override;

    // net::Transceiver
    void frameArrived(const net::Frame &frame, bool corrupted) override;
    void frameStarted(sim::Tick end_tick) override;

    /** Deliver a frame as if it arrived over the air (single-node tests). */
    void injectFrame(const net::Frame &frame);

    /**
     * Lifecycle: leave the medium (full supply loss, node death). A frame
     * this radio already put on the air *completes* — the medium owns its
     * in-flight state, so the delivery resolves identically at any thread
     * count — but the radio stops hearing anything from the detach on,
     * and a MAC transaction still in backoff dies with the node. Safe to
     * call when already detached.
     */
    void detachFromMedium();

    /** Lifecycle: rejoin the medium on revive (the medium re-binds the
     *  radio to the node index it was bound to before). */
    void attachToMedium();

    bool attachedToMedium() const { return attachedToChannel; }

    std::uint64_t framesSent() const
    {
        return static_cast<std::uint64_t>(statTx.value());
    }
    std::uint64_t framesReceived() const
    {
        return static_cast<std::uint64_t>(statRx.value());
    }
    std::uint64_t crcErrors() const
    {
        return static_cast<std::uint64_t>(statCrcErrors.value());
    }
    std::uint64_t framesMissed() const
    {
        return static_cast<std::uint64_t>(statMissed.value());
    }
    std::uint64_t retransmissions() const
    {
        return static_cast<std::uint64_t>(statRetransmissions.value());
    }
    std::uint64_t ackTimeouts() const
    {
        return static_cast<std::uint64_t>(statAckTimeouts.value());
    }
    std::uint64_t backoffSlots() const
    {
        return static_cast<std::uint64_t>(statBackoffSlots.value());
    }
    std::uint64_t txFailures() const
    {
        return static_cast<std::uint64_t>(statTxFailures.value());
    }
    std::uint64_t acksSent() const
    {
        return static_cast<std::uint64_t>(statAcksSent.value());
    }
    std::uint64_t acksReceived() const
    {
        return static_cast<std::uint64_t>(statAcksReceived.value());
    }

    /** The last frame handed to the channel (tests/benches). */
    const net::Frame &lastTxFrame() const { return lastTx; }

    /** MAC control value (tests; normally programmed over the bus). */
    std::uint8_t macCtrl() const { return macCtrlReg; }
    unsigned macMaxRetries() const { return macCtrlReg & macRetriesMask; }
    bool macAutoAck() const { return macCtrlReg & macAutoAckBit; }

    // --- beacon-enabled (duty-cycled) MAC ---------------------------------
    bool beaconMode() const { return macModeReg != macModeCsma; }
    bool beaconCoordinator() const
    {
        return macModeReg == macModeBeaconCoord;
    }
    /** A device has heard a beacon and tracks the superframe grid. */
    bool beaconSynced() const { return _beaconSynced; }
    std::uint16_t macAddress() const { return macAddr; }

    /** Beacon interval: aBaseSuperframeDuration x 2^BO. */
    sim::Tick beaconIntervalTicks() const
    {
        return baseSuperframeTicks << beaconOrderEff();
    }
    /** Active (CAP) portion: aBaseSuperframeDuration x 2^SO. */
    sim::Tick superframeTicks() const
    {
        return baseSuperframeTicks << sfOrderEff();
    }

    /**
     * Device clock-drift compensation in parts per million: the device
     * wakes (drift_ppm * beacon interval) early on top of the guard, the
     * classic crystal-tolerance budget of a beacon-tracking 802.15.4
     * node. Scenario-programmed (no hardware register on the real chip
     * either; it is a property of the crystal, not the MAC).
     */
    void setBeaconDriftPpm(double ppm) { driftPpm = ppm < 0 ? 0.0 : ppm; }

    /**
     * Called whenever an intact frame is surfaced to the masters
     * (injectFrame), before the RX interrupt fires. The sleep controller
     * uses it for light-sleep wake-on-frame: the hook runs synchronously,
     * so the node is fully awake before the ISR executes.
     */
    void setRxWakeHook(std::function<void()> hook)
    {
        rxWakeHook = std::move(hook);
    }

    std::uint64_t beaconsSent() const
    {
        return static_cast<std::uint64_t>(statBeaconsSent.value());
    }
    std::uint64_t beaconsReceived() const
    {
        return static_cast<std::uint64_t>(statBeaconsReceived.value());
    }
    std::uint64_t beaconsMissed() const
    {
        return static_cast<std::uint64_t>(statBeaconsMissed.value());
    }
    std::uint64_t macSleeps() const
    {
        return static_cast<std::uint64_t>(statMacSleeps.value());
    }
    std::uint64_t deferredTx() const
    {
        return static_cast<std::uint64_t>(statDeferredTx.value());
    }
    std::uint64_t dataRequests() const
    {
        return static_cast<std::uint64_t>(statDataRequests.value());
    }
    std::uint64_t indirectQueued() const
    {
        return static_cast<std::uint64_t>(statIndirectQueued.value());
    }
    std::uint64_t indirectDelivered() const
    {
        return static_cast<std::uint64_t>(statIndirectDelivered.value());
    }
    std::uint64_t indirectExpired() const
    {
        return static_cast<std::uint64_t>(statIndirectExpired.value());
    }
    std::uint64_t indirectDropped() const
    {
        return static_cast<std::uint64_t>(statIndirectDropped.value());
    }

  protected:
    void onPowerOn() override;
    void onPowerOff() override;

    /** While the beacon MAC sleeps between superframes the radio rests at
     *  the gated draw instead of idle-listening. */
    power::PowerState restingState() const override
    {
        return macAsleep ? power::PowerState::Gated
                         : power::PowerState::Idle;
    }

  private:
    /** What this radio has on the air: one frame at a time. */
    enum class Air : std::uint8_t {
        None,
        Data,        ///< fire-and-forget data
        Malformed,   ///< the undecodable FIFO image, timed, never sent
        Mac,         ///< the MAC transaction's frame (lastTx)
        Ack,
        Beacon,
        Indirect,    ///< a coordinator's frame for a data request
        DataRequest,
    };

    void startTx();
    /** The one path to the air: times @p frame (with the medium, or
     *  locally without one), charges the active stint and schedules
     *  airEndEvent, whose handler acts on @p what. */
    void transmit(Air what, const net::Frame &frame);
    void airEnd();
    /** A frame on the air or a MAC transaction running. */
    bool transmitting() const { return onAir != Air::None || macActive; }
    void reportTxDone();
    /** Draw [0, 2^exponent) backoff slots; count them, return their span. */
    sim::Tick backoff(unsigned exponent);

    // MAC (acknowledged transmission) path.
    /** Frames the MAC acknowledges: unicast data with a retry budget. */
    bool
    acknowledged(const net::Frame &frame) const
    {
        return macMaxRetries() > 0 && frame.type == net::Frame::Type::Data &&
               frame.dest != net::Frame::broadcastAddr;
    }
    void macStartTx(const net::Frame &frame);
    void macCsmaBegin();
    void macCcaDecide();
    void macAckTimeout();
    void macAckReceived();
    void macRetryOrFail();
    void macFinish(bool success);
    void macSendAck();
    bool mediumBusy() const { return curTick() < mediumBusyUntil; }

    // Beacon-mode (duty-cycled) path.
    unsigned beaconOrderEff() const;
    unsigned sfOrderEff() const;
    sim::Tick guardTicks() const;
    bool inCap() const { return curTick() < capEndTick; }
    void macCapBegin();
    void macReleaseParked();
    void scheduleBeacons();
    void beaconTx();
    void beaconReceived(const net::Frame &frame);
    void beaconMissed();
    void capEnd();
    void macTrySleep();
    void macWakeNow();
    void macGuardWake();
    void queueIndirect(const net::Frame &frame);
    void indirectRequested(std::uint16_t src);
    void indirectTxSend();
    void dataReqSend();

    net::Medium *channel;
    bool attachedToChannel = false;
    sim::Random random;
    bool rxEnabled = false;
    Air onAir = Air::None;
    std::uint8_t txLen = 0;
    std::uint8_t rxLen = 0;
    bool rxReady = false;
    std::array<std::uint8_t, fifoBytes> txFifo{};
    std::array<std::uint8_t, fifoBytes> rxFifo{};
    /** While macActive nothing else transmits: this is the MAC's frame. */
    net::Frame lastTx;
    sim::MemberEvent<&RadioDevice::airEnd> airEndEvent{this, "airEnd"};

    // MAC transaction state. The ACK wait and the auto-ACK turnaround
    // are their events' scheduled().
    std::uint8_t macCtrlReg = 0;     ///< persists across power gating
    bool macActive = false;          ///< a MAC TX transaction is running
    unsigned macRetries = 0;         ///< retransmissions used so far
    unsigned macBe = macMinBE;       ///< current backoff exponent
    unsigned macCcaBusyCount = 0;    ///< busy CCAs this attempt
    sim::Tick mediumBusyUntil = 0;   ///< carrier sense from frameStarted
    net::Frame ackTx;
    sim::MemberEvent<&RadioDevice::macCcaDecide> macCcaEvent{this, "macCca"};
    sim::MemberEvent<&RadioDevice::macAckTimeout> macAckTimeoutEvent{
        this, "macAckWait"};
    sim::MemberEvent<&RadioDevice::macSendAck> macAckTxEvent{
        this, "macAckTx"};

    // Beacon-mode state. The mode and superframe registers persist
    // across power gating like macCtrlReg (they are configuration);
    // everything below them is transaction state and resets.
    std::uint8_t macModeReg = macModeCsma;
    std::uint8_t beaconOrderReg = 6;   ///< BI = 960 x 2^6 symbols ~ 983 ms
    std::uint8_t sfOrderReg = 3;       ///< CAP = 960 x 2^3 symbols ~ 123 ms
    std::uint8_t guardSymbolsReg = 0;  ///< 0 selects defaultGuardSymbols
    std::uint16_t macAddr = 0;
    double driftPpm = 0.0;
    std::function<void()> rxWakeHook;

    bool macAsleep = false;
    bool _beaconSynced = false;        ///< device tracks the beacon grid
    std::uint8_t syncedBo = 0;         ///< BO adopted from the last beacon
    std::uint8_t syncedSo = 0;         ///< SO adopted from the last beacon
    sim::Tick lastBeaconAt = 0;        ///< arrival (device) / TX (coord)
    sim::Tick expectedBeaconAt = 0;    ///< device: next beacon due
    sim::Tick capEndTick = 0;          ///< absolute end of the current CAP
    unsigned lostBeacons = 0;          ///< consecutive misses
    bool macWaitingCap = false;        ///< TX parked until the next CAP
    std::uint8_t beaconSeq = 0;
    sim::Tick nextBeaconAt = 0;

    struct PendingIndirect
    {
        net::Frame frame;
        unsigned beaconsLeft;
    };
    std::vector<PendingIndirect> pendingIndirect;
    net::Frame indirectTx;             ///< sent when indirectTxEvent fires
    net::Frame dataReq;                ///< sent when dataReqEvent fires

    sim::MemberEvent<&RadioDevice::beaconTx> beaconEvent{this, "beacon"};
    sim::MemberEvent<&RadioDevice::capEnd> capEndEvent{this, "capEnd"};
    sim::MemberEvent<&RadioDevice::macGuardWake> guardWakeEvent{
        this, "guardWake"};
    sim::MemberEvent<&RadioDevice::beaconMissed> beaconMissEvent{
        this, "beaconMiss"};
    sim::MemberEvent<&RadioDevice::indirectTxSend> indirectTxEvent{
        this, "indirectTx"};
    sim::MemberEvent<&RadioDevice::dataReqSend> dataReqEvent{this, "dataReq"};

    sim::stats::Scalar statTx;
    sim::stats::Scalar statRx;
    sim::stats::Scalar statCrcErrors;
    sim::stats::Scalar statMissed;
    sim::stats::Scalar statTxMalformed;
    sim::stats::Scalar statRxOverruns;
    sim::stats::Scalar statRetransmissions;
    sim::stats::Scalar statAckTimeouts;
    sim::stats::Scalar statBackoffSlots;
    sim::stats::Scalar statCcaBusy;
    sim::stats::Scalar statTxFailures;
    sim::stats::Scalar statAcksSent;
    sim::stats::Scalar statAcksReceived;
    sim::stats::Scalar statBeaconsSent;
    sim::stats::Scalar statBeaconsReceived;
    sim::stats::Scalar statBeaconsMissed;
    sim::stats::Scalar statMacSleeps;
    sim::stats::Scalar statDeferredTx;
    sim::stats::Scalar statDataRequests;
    sim::stats::Scalar statIndirectQueued;
    sim::stats::Scalar statIndirectDelivered;
    sim::stats::Scalar statIndirectExpired;
    sim::stats::Scalar statIndirectDropped;
};

} // namespace ulp::core

#endif // ULP_CORE_RADIO_DEVICE_HH
