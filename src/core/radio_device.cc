#include "core/radio_device.hh"

#include <algorithm>
#include <initializer_list>

#include "sim/logging.hh"

namespace ulp::core {

namespace {

/** Air time of @p bytes at 250 kbit/s, for frames no medium times. */
sim::Tick
airTicks(std::size_t bytes)
{
    return sim::secondsToTicks(static_cast<double>(bytes) * 8.0 /
                               net::Channel::defaultBitRate);
}

} // namespace

RadioDevice::RadioDevice(sim::Simulation &simulation, const std::string &name,
                         sim::SimObject *parent, fabric::EventSource &event_port,
                         ProbeRecorder &probes,
                         const sim::ClockDomain &clock,
                         const power::PowerModel &model, net::Medium *channel,
                         std::uint64_t seed)
    : SlaveDevice(simulation, name, parent,
                  {map::radioBase, map::radioSize}, event_port, probes, clock,
                  model, true),
      channel(channel), random(seed)
{
    if (channel) {
        channel->attach(this);
        attachedToChannel = true;
    }
}

void
RadioDevice::visitStats(sim::stats::Visitor &v) const
{
    v.group(name());
    v.scalar(statTx, "framesSent", "frames transmitted");
    v.scalar(statRx, "framesReceived", "intact frames received");
    v.scalar(statCrcErrors, "crcErrors",
             "corrupted frames rejected by hardware CRC");
    v.scalar(statMissed, "framesMissed",
             "frames on the air while powered off / RX disabled");
    v.scalar(statTxMalformed, "txMalformed",
             "TX commands with an undecodable FIFO image");
    v.scalar(statRxOverruns, "rxOverruns",
             "frames lost because the RX FIFO was still full");
    v.scalar(statRetransmissions, "retransmissions",
             "MAC retransmissions after missing ACKs");
    v.scalar(statAckTimeouts, "ackTimeouts",
             "ACK wait windows that expired empty");
    v.scalar(statBackoffSlots, "backoffSlots", "CSMA-CA backoff slots waited");
    v.scalar(statCcaBusy, "ccaBusy",
             "clear-channel assessments that found the medium busy");
    v.scalar(statTxFailures, "txFailures",
             "MAC transactions abandoned after the retry budget");
    v.scalar(statAcksSent, "acksSent", "auto-acknowledgements transmitted");
    v.scalar(statAcksReceived, "acksReceived",
             "ACKs that completed a MAC transaction");
    v.scalar(statBeaconsSent, "beaconsSent",
             "superframe beacons transmitted (coordinator)");
    v.scalar(statBeaconsReceived, "beaconsReceived",
             "beacons heard and synced to (device)");
    v.scalar(statBeaconsMissed, "beaconsMissed",
             "expected beacons that never arrived");
    v.scalar(statMacSleeps, "macSleeps",
             "radio MAC sleeps between superframes");
    v.scalar(statDeferredTx, "deferredTx",
             "transmissions parked until the next CAP");
    v.scalar(statDataRequests, "dataRequests",
             "MAC data-request commands transmitted");
    v.scalar(statIndirectQueued, "indirectQueued",
             "frames queued for indirect delivery");
    v.scalar(statIndirectDelivered, "indirectDelivered",
             "indirect frames delivered on data request");
    v.scalar(statIndirectExpired, "indirectExpired",
             "indirect frames expired unclaimed");
    v.scalar(statIndirectDropped, "indirectDropped",
             "indirect frames dropped, transaction queue full");
}

RadioDevice::~RadioDevice()
{
    detachFromMedium();
}

void
RadioDevice::detachFromMedium()
{
    if (channel && attachedToChannel) {
        channel->detach(this);
        attachedToChannel = false;
    }
}

void
RadioDevice::attachToMedium()
{
    if (channel && !attachedToChannel) {
        channel->attach(this);
        attachedToChannel = true;
    }
}

std::uint8_t
RadioDevice::busRead(map::Addr offset)
{
    using namespace map;
    switch (offset) {
      case radioCtrl:
        return 0;
      case radioStatus:
        return static_cast<std::uint8_t>(
            (transmitting() ? statusTxBusy : 0) |
            (rxEnabled ? statusRxOn : 0) |
            (rxReady ? statusRxReady : 0));
      case radioTxLen:
        return txLen;
      case radioRxLen:
        return rxLen;
      case radioMacCtrl:
        return macCtrlReg;
      case radioMacMode:
        return macModeReg;
      case radioBeaconOrder:
        return beaconOrderReg;
      case radioSfOrder:
        return sfOrderReg;
      case radioAddrHi:
        return static_cast<std::uint8_t>(macAddr >> 8);
      case radioAddrLo:
        return static_cast<std::uint8_t>(macAddr & 0xFF);
      case radioGuard:
        return guardSymbolsReg;
      default:
        if (offset >= radioTxFifo && offset < radioTxFifo + fifoBytes)
            return txFifo[offset - radioTxFifo];
        if (offset >= radioRxFifo && offset < radioRxFifo + fifoBytes) {
            // Reading the last RX byte frees the FIFO, like the CC2420's
            // FIFO drain; we approximate by freeing on length re-read
            // from the EP transfer of the final byte.
            if (offset - radioRxFifo + 1 == rxLen)
                rxReady = false;
            return rxFifo[offset - radioRxFifo];
        }
        return 0xFF;
    }
}

void
RadioDevice::busWrite(map::Addr offset, std::uint8_t value)
{
    using namespace map;
    switch (offset) {
      case radioCtrl:
        if (value == cmdTx)
            startTx();
        else if (value == cmdRxOn)
            rxEnabled = true;
        else if (value == cmdRxOff)
            rxEnabled = false;
        return;
      case radioTxLen:
        txLen = std::min<std::uint8_t>(value, fifoBytes);
        return;
      case radioMacCtrl:
        macCtrlReg = value & (macRetriesMask | macAutoAckBit);
        return;
      case radioMacMode: {
        bool was_coord = beaconCoordinator();
        macModeReg = value <= macModeBeaconCoord ? value : macModeCsma;
        if (powered() && beaconCoordinator() && !was_coord)
            scheduleBeacons();
        if (!beaconCoordinator() && beaconEvent.scheduled())
            eventq().deschedule(&beaconEvent);
        return;
      }
      case radioBeaconOrder:
        beaconOrderReg = std::min<std::uint8_t>(value, maxBeaconOrder);
        return;
      case radioSfOrder:
        sfOrderReg = std::min<std::uint8_t>(value, maxBeaconOrder);
        return;
      case radioAddrHi:
        macAddr = static_cast<std::uint16_t>(
            (macAddr & 0x00FF) | (value << 8));
        return;
      case radioAddrLo:
        macAddr = static_cast<std::uint16_t>((macAddr & 0xFF00) | value);
        return;
      case radioGuard:
        guardSymbolsReg = value;
        return;
      default:
        if (offset >= radioTxFifo && offset < radioTxFifo + fifoBytes)
            txFifo[offset - radioTxFifo] = value;
        return;
    }
}

void
RadioDevice::startTx()
{
    if (transmitting()) {
        sim::warn("%s: TX command while transmitting ignored",
                  name().c_str());
        return;
    }
    recordProbe(Probe::RadioTxCmd);

    auto frame = net::Frame::deserialize(
        std::span<const std::uint8_t>(txFifo.data(), txLen));
    if (!frame) {
        ++statTxMalformed;
        transmit(Air::Malformed, {});
        return;
    }

    if (beaconMode()) {
        // A coordinator's unicast data is for a device that is most
        // likely asleep: it goes to the pending-indirect queue and is
        // advertised in the beacon until the device pulls it. Everything
        // else (device data upward, broadcasts, commands) contends in
        // the CAP.
        if (beaconCoordinator() &&
            frame->type == net::Frame::Type::Data &&
            frame->dest != net::Frame::broadcastAddr) {
            queueIndirect(*frame);
            return;
        }
        macStartTx(*frame);
        return;
    }

    // Unicast data frames go through the acknowledged MAC when a retry
    // budget is configured; everything else is fire-and-forget.
    if (acknowledged(*frame)) {
        macStartTx(*frame);
        return;
    }
    lastTx = std::move(*frame);
    transmit(Air::Data, lastTx);
}

void
RadioDevice::transmit(Air what, const net::Frame &frame)
{
    onAir = what;
    // The undecodable FIFO image still clocks its bytes out, but nothing
    // intelligible reaches the medium.
    const sim::Tick end =
        what == Air::Malformed ? curTick() + airTicks(txLen)
        : channel              ? channel->transmit(this, frame)
                               : curTick() + airTicks(frame.sizeBytes());
    beActiveFor(clock.ticksToCycles(end - curTick()) + 1);
    eventq().schedule(&airEndEvent, end);
}

void
RadioDevice::airEnd()
{
    const Air what = onAir;
    onAir = Air::None;
    switch (what) {
      case Air::Data:
      case Air::Malformed:
        reportTxDone();
        return;
      case Air::Mac:
        // Beacon mode routes every TX through the MAC for CAP timing,
        // but only unicast data with a retry budget is acknowledged.
        // With no medium to answer, the frame counts as acknowledged so
        // single-node setups keep working with the MAC enabled.
        if (!channel || (beaconMode() && !acknowledged(lastTx))) {
            macFinish(true);
            return;
        }
        // The receiver listens for the whole ACK window.
        beActiveFor(clock.ticksToCycles(ackWaitTicks) + 1);
        scheduleRel(&macAckTimeoutEvent, ackWaitTicks);
        return;
      case Air::Beacon:
        // Resume a transmission that was parked while our beacon was on
        // the air.
        macReleaseParked();
        return;
      case Air::Indirect:
        ++statIndirectDelivered;
        reportTxDone();
        return;
      case Air::None:
      case Air::Ack:
      case Air::DataRequest:
        return;
    }
}

void
RadioDevice::reportTxDone()
{
    ++statTx;
    recordProbe(Probe::RadioTxDone);
    postIrq(Irq::RadioTxDone);
}

sim::Tick
RadioDevice::backoff(unsigned exponent)
{
    auto slots = random.uniformInt(0, (1u << exponent) - 1);
    statBackoffSlots += static_cast<double>(slots);
    return static_cast<sim::Tick>(slots) * backoffSlotTicks;
}

// --- acknowledged-transmission MAC ----------------------------------------

void
RadioDevice::macStartTx(const net::Frame &frame)
{
    lastTx = frame;
    macActive = true;
    macRetries = 0;
    macBe = macMinBE;
    macCsmaBegin();
}

void
RadioDevice::macCsmaBegin()
{
    if (beaconMode()) {
        macCapBegin();
        return;
    }
    macCcaBusyCount = 0;
    scheduleRel(&macCcaEvent, backoff(macBe) + ccaTicks);
}

void
RadioDevice::macCcaDecide()
{
    if (beaconMode()) {
        // No carrier sense in beacon mode: CCA would read the
        // K-approximate medium-busy horizon and break the thread-count
        // oracle; the superframe already serialises contention. Our own
        // transmitter (beacon or ACK in the air) still has priority.
        if (onAir != Air::None) {
            scheduleRel(&macCcaEvent, backoffSlotTicks);
            return;
        }
        // A device that never synced (or lost sync) has no superframe
        // to respect: it transmits unsynchronized rather than deferring
        // forever, as 802.15.4 devices that fail to track beacons do.
        const bool synced = beaconCoordinator() || _beaconSynced;
        if (synced && !inCap()) {
            macWaitingCap = true;
            ++statDeferredTx;
            return;
        }
        transmit(Air::Mac, lastTx);
        return;
    }
    if (mediumBusy()) {
        ++statCcaBusy;
        if (++macCcaBusyCount >= macMaxCsmaBackoffs) {
            // Channel-access failure: spend a retry (or give up).
            macRetryOrFail();
            return;
        }
        macBe = std::min(macBe + 1, macMaxBE);
        scheduleRel(&macCcaEvent, backoff(macBe) + ccaTicks);
        return;
    }
    transmit(Air::Mac, lastTx);
}

void
RadioDevice::macAckTimeout()
{
    ++statAckTimeouts;
    macRetryOrFail();
}

void
RadioDevice::macAckReceived()
{
    eventq().deschedule(&macAckTimeoutEvent);
    ++statAcksReceived;
    macFinish(true);
}

void
RadioDevice::macRetryOrFail()
{
    if (macRetries < macMaxRetries()) {
        ++macRetries;
        ++statRetransmissions;
        recordProbe(Probe::RadioRetry);
        macBe = std::min(macBe + 1, macMaxBE);
        macCsmaBegin();
        return;
    }
    macFinish(false);
}

void
RadioDevice::macFinish(bool success)
{
    macActive = false;
    macWaitingCap = false;
    if (success) {
        reportTxDone();
    } else {
        ++statTxFailures;
        postIrq(Irq::RadioTxFail);
    }
}

void
RadioDevice::macSendAck()
{
    // The ACK yields to anything the node started during the turnaround.
    if (!powered() || transmitting())
        return;
    transmit(Air::Ack, ackTx);
    ++statAcksSent;
    recordProbe(Probe::RadioAckSent);
}

// --- beacon-enabled (duty-cycled) MAC --------------------------------------

unsigned
RadioDevice::beaconOrderEff() const
{
    // Devices follow the coordinator's advertised orders once synced;
    // before the first beacon (and on the coordinator) the registers rule.
    unsigned bo = (!beaconCoordinator() && _beaconSynced) ? syncedBo
                                                          : beaconOrderReg;
    return std::min<unsigned>(bo, maxBeaconOrder);
}

unsigned
RadioDevice::sfOrderEff() const
{
    unsigned so = (!beaconCoordinator() && _beaconSynced) ? syncedSo
                                                          : sfOrderReg;
    return std::min(so, beaconOrderEff());
}

sim::Tick
RadioDevice::guardTicks() const
{
    unsigned symbols = guardSymbolsReg ? guardSymbolsReg
                                       : defaultGuardSymbols;
    sim::Tick guard = static_cast<sim::Tick>(symbols) * symbolTicks;
    // Crystal-tolerance budget: the longer the sleep, the earlier the
    // device must wake to be sure of catching the beacon.
    guard += static_cast<sim::Tick>(
        driftPpm * 1e-6 * static_cast<double>(beaconIntervalTicks()));
    return guard;
}

void
RadioDevice::scheduleBeacons()
{
    // First beacon one base superframe out: devices configured in the
    // same scenario are awake and hunting by then.
    nextBeaconAt = curTick() + baseSuperframeTicks;
    eventq().reschedule(&beaconEvent, nextBeaconAt);
}

void
RadioDevice::beaconTx()
{
    if (!powered())
        return;
    macWakeNow();

    // Age the transaction queue: a frame is advertised for a bounded
    // number of beacons, then expires with a TX failure to the app.
    for (auto it = pendingIndirect.begin(); it != pendingIndirect.end();) {
        if (it->beaconsLeft == 0) {
            ++statIndirectExpired;
            postIrq(Irq::RadioTxFail);
            it = pendingIndirect.erase(it);
        } else {
            --it->beaconsLeft;
            ++it;
        }
    }

    // A radio busy at the beacon point (a CAP transaction spilled over)
    // skips this beacon but holds the grid.
    if (!transmitting()) {
        net::Frame beacon;
        beacon.type = net::Frame::Type::Beacon;
        beacon.seq = beaconSeq++;
        beacon.src = macAddr;
        beacon.dest = net::Frame::broadcastAddr;
        beacon.payload.push_back(beaconOrderReg);
        beacon.payload.push_back(sfOrderReg);
        beacon.payload.push_back(
            static_cast<std::uint8_t>(pendingIndirect.size()));
        for (const PendingIndirect &p : pendingIndirect) {
            beacon.payload.push_back(
                static_cast<std::uint8_t>(p.frame.dest >> 8));
            beacon.payload.push_back(
                static_cast<std::uint8_t>(p.frame.dest & 0xFF));
        }
        transmit(Air::Beacon, beacon);
        ++statBeaconsSent;
        recordProbe(Probe::BeaconTx);
    }

    lastBeaconAt = curTick();
    capEndTick = curTick() + superframeTicks();
    eventq().reschedule(&capEndEvent, capEndTick);
    nextBeaconAt += beaconIntervalTicks();
    eventq().reschedule(&beaconEvent, nextBeaconAt);
}

void
RadioDevice::beaconReceived(const net::Frame &frame)
{
    if (beaconCoordinator())
        return; // another PAN's coordinator; not our problem
    lastBeaconAt = curTick();
    _beaconSynced = true;
    lostBeacons = 0;
    if (frame.payload.size() >= 2) {
        syncedBo = std::min<std::uint8_t>(frame.payload[0], maxBeaconOrder);
        syncedSo = std::min(frame.payload[1], syncedBo);
    } else {
        syncedBo = beaconOrderReg;
        syncedSo = sfOrderReg;
    }
    for (sim::Event *ev : std::initializer_list<sim::Event *>{
             &guardWakeEvent, &beaconMissEvent}) {
        if (ev->scheduled())
            eventq().deschedule(ev);
    }
    macWakeNow();
    ++statBeaconsReceived;
    recordProbe(Probe::BeaconRx);
    capEndTick = curTick() + superframeTicks();
    eventq().reschedule(&capEndEvent, capEndTick);
    expectedBeaconAt = curTick() + beaconIntervalTicks();

    // A CAP opened: release a deferred transmission.
    macReleaseParked();

    // Pull indirect data advertised for us: data request after the
    // turnaround plus a slotted backoff (several children may have heard
    // their address in the same beacon).
    std::size_t n = frame.payload.size() >= 3 ? frame.payload[2] : 0;
    for (std::size_t i = 0;
         i < n && 3 + 2 * i + 1 < frame.payload.size(); ++i) {
        std::uint16_t addr = static_cast<std::uint16_t>(
            (frame.payload[3 + 2 * i] << 8) | frame.payload[4 + 2 * i]);
        if (addr != macAddr)
            continue;
        if (dataReqEvent.scheduled() || transmitting())
            break; // busy this CAP; the frame stays advertised
        dataReq = net::Frame{};
        dataReq.type = net::Frame::Type::Command;
        dataReq.seq = beaconSeq++;
        dataReq.destPan = frame.destPan;
        dataReq.dest = frame.src;
        dataReq.src = macAddr;
        dataReq.payload.push_back(cmdFrameDataRequest);
        scheduleRel(&dataReqEvent,
                    turnaroundTicks + backoff(capBackoffExp));
        break;
    }
}

void
RadioDevice::capEnd()
{
    if (beaconCoordinator()) {
        macTrySleep();
        return;
    }
    if (!_beaconSynced)
        return;
    sim::Tick guard = guardTicks();
    sim::Tick wake_at =
        expectedBeaconAt > guard ? expectedBeaconAt - guard : curTick();
    if (wake_at <= curTick()) {
        // The guard swallows the whole inactive span: stay awake and
        // just arm the miss check.
        eventq().reschedule(&beaconMissEvent, expectedBeaconAt + guard);
        return;
    }
    eventq().reschedule(&guardWakeEvent, wake_at);
    macTrySleep();
}

void
RadioDevice::macGuardWake()
{
    macWakeNow();
    eventq().reschedule(&beaconMissEvent,
                        expectedBeaconAt + guardTicks());
}

void
RadioDevice::beaconMissed()
{
    ++statBeaconsMissed;
    recordProbe(Probe::BeaconMiss);
    if (++lostBeacons >= maxLostBeacons) {
        // Sync loss: stay awake in RX and hunt for a beacon. With no
        // CAP to honour, a parked transmission goes out unsynchronized.
        _beaconSynced = false;
        macReleaseParked();
        return;
    }
    // Keep the grid: stay awake through the gap and expect the next one.
    expectedBeaconAt += beaconIntervalTicks();
    eventq().reschedule(&beaconMissEvent,
                        expectedBeaconAt + guardTicks());
}

void
RadioDevice::macTrySleep()
{
    if (sfOrderEff() >= beaconOrderEff())
        return; // always-active superframe
    if (!powered() || macAsleep)
        return;
    // A transaction (the ACK wait is part of the MAC's) is still running:
    // skip this sleep window.
    if (transmitting() || macAckTxEvent.scheduled() ||
        dataReqEvent.scheduled() || indirectTxEvent.scheduled())
        return;
    macAsleep = true;
    ++statMacSleeps;
    recordProbe(Probe::MacSleep);
    recordSleepState(sim::SleepCode::MacSleep, sim::SleepCode::Awake);
    tracker.setState(power::PowerState::Gated);
}

void
RadioDevice::macWakeNow()
{
    if (!macAsleep)
        return;
    macAsleep = false;
    recordProbe(Probe::MacWake);
    recordSleepState(sim::SleepCode::Awake, sim::SleepCode::MacSleep);
    if (powered())
        tracker.setState(power::PowerState::Idle);
}

void
RadioDevice::macCapBegin()
{
    // Unsynced devices bypass the CAP gate (see macCcaDecide).
    const bool synced = beaconCoordinator() || _beaconSynced;
    if (synced && !inCap()) {
        if (!macWaitingCap) {
            macWaitingCap = true;
            ++statDeferredTx;
        }
        return;
    }
    scheduleRel(&macCcaEvent, backoff(capBackoffExp));
}

void
RadioDevice::macReleaseParked()
{
    if (macActive && macWaitingCap) {
        macWaitingCap = false;
        macCapBegin();
    }
}

void
RadioDevice::queueIndirect(const net::Frame &frame)
{
    if (pendingIndirect.size() >= pendingIndirectCap) {
        ++statIndirectDropped;
        postIrq(Irq::RadioTxFail);
        return;
    }
    pendingIndirect.push_back({frame, indirectExpiryBeacons});
    ++statIndirectQueued;
}

void
RadioDevice::indirectRequested(std::uint16_t src)
{
    if (indirectTxEvent.scheduled())
        return;
    auto it = std::find_if(pendingIndirect.begin(), pendingIndirect.end(),
                           [src](const PendingIndirect &p) {
                               return p.frame.dest == src;
                           });
    if (it == pendingIndirect.end())
        return;
    indirectTx = it->frame;
    pendingIndirect.erase(it);
    scheduleRel(&indirectTxEvent, turnaroundTicks);
}

void
RadioDevice::indirectTxSend()
{
    if (!powered())
        return;
    if (transmitting()) {
        // Transmitter claimed during the turnaround: requeue for one
        // more beacon; the device will ask again.
        pendingIndirect.insert(pendingIndirect.begin(), {indirectTx, 1});
        return;
    }
    lastTx = indirectTx;
    transmit(Air::Indirect, lastTx);
}

void
RadioDevice::dataReqSend()
{
    if (!powered() || transmitting() || macAsleep)
        return;
    transmit(Air::DataRequest, dataReq);
    ++statDataRequests;
    recordProbe(Probe::MacDataRequest);
}

void
RadioDevice::frameStarted(sim::Tick end_tick)
{
    // Start-symbol detect doubles as carrier sense: remember how long the
    // medium stays occupied so CCA can consult it.
    mediumBusyUntil = std::max(mediumBusyUntil, end_tick);
}

void
RadioDevice::frameArrived(const net::Frame &frame, bool corrupted)
{
    if (!powered()) {
        ++statMissed;
        return;
    }
    if (macAsleep) {
        // A sleeping radio MAC hears nothing: anything on the air while
        // we sleep is missed, exactly like a powered-off radio.
        ++statMissed;
        return;
    }
    if (beaconMode() && frame.type == net::Frame::Type::Beacon) {
        // Beacon tracking is MAC-level: it runs even for pure senders
        // with RX disabled (they need the superframe grid to transmit).
        if (corrupted)
            ++statCrcErrors;
        else
            beaconReceived(frame);
        return;
    }
    if (beaconMode() && frame.type == net::Frame::Type::Command &&
        frame.payload.size() == 1 &&
        frame.payload[0] == cmdFrameDataRequest) {
        // MAC-internal traffic: the coordinator serves it, devices drop
        // their neighbours' requests; never surfaced to the masters.
        if (corrupted)
            ++statCrcErrors;
        else if (beaconCoordinator() && frame.dest == macAddr)
            indirectRequested(frame.src);
        return;
    }
    if (macCtrlReg != 0 && frame.type == net::Frame::Type::Ack) {
        // ACKs are MAC-level traffic: matched against the pending
        // transaction (even with RX nominally off -- the radio sits in
        // RX-after-TX while awaiting one) and never surfaced to masters.
        if (!corrupted && macAckTimeoutEvent.scheduled() &&
            frame.seq == lastTx.seq && frame.src == lastTx.dest) {
            macAckReceived();
        }
        return;
    }
    if (!rxEnabled) {
        ++statMissed;
        return;
    }
    if (corrupted) {
        ++statCrcErrors;
        return;
    }
    if (macAutoAck() && frame.type == net::Frame::Type::Data &&
        frame.dest != net::Frame::broadcastAddr && !transmitting() &&
        !macAckTxEvent.scheduled()) {
        // The radio has no address filter (the message processor owns
        // addressing), so any intact unicast data frame is acknowledged
        // after the RX->TX turnaround.
        ackTx = net::Frame{};
        ackTx.type = net::Frame::Type::Ack;
        ackTx.seq = frame.seq;
        ackTx.destPan = frame.destPan;
        ackTx.dest = frame.src;
        ackTx.src = frame.dest;
        scheduleRel(&macAckTxEvent, turnaroundTicks);
    }
    injectFrame(frame);
}

void
RadioDevice::injectFrame(const net::Frame &frame)
{
    if (!powered())
        return;
    if (rxReady) {
        ++statRxOverruns;
        return;
    }
    std::vector<std::uint8_t> wire = frame.serialize();
    if (wire.size() > fifoBytes) {
        ++statRxOverruns;
        return;
    }
    std::copy(wire.begin(), wire.end(), rxFifo.begin());
    rxLen = static_cast<std::uint8_t>(wire.size());
    rxReady = true;
    ++statRx;
    // Light-sleep wake-on-frame: the controller's hook runs before the
    // RX interrupt so the node is fully awake when the ISR executes.
    if (rxWakeHook)
        rxWakeHook();
    recordProbe(Probe::RadioRxDone);
    postIrq(Irq::RadioRxDone);
}

void
RadioDevice::onPowerOn()
{
    // Beacon configuration persists like macCtrlReg; a re-powered
    // coordinator restarts its grid, a device wakes unsynced and hunts.
    if (beaconCoordinator())
        scheduleBeacons();
}

void
RadioDevice::onPowerOff()
{
    for (sim::Event *ev : std::initializer_list<sim::Event *>{
             &airEndEvent, &macCcaEvent, &macAckTimeoutEvent, &macAckTxEvent,
             &beaconEvent, &capEndEvent, &guardWakeEvent, &beaconMissEvent,
             &indirectTxEvent, &dataReqEvent}) {
        if (ev->scheduled())
            eventq().deschedule(ev);
    }
    onAir = Air::None;
    macActive = false;
    rxReady = false;
    rxLen = 0;
    txLen = 0;
    txFifo.fill(0);
    rxFifo.fill(0);
    // Beacon-MAC transaction state dies with the supply. macAsleep is
    // cleared silently: losing power is not a MAC sleep transition (the
    // power tracker is already Gated by powerOff itself).
    macAsleep = false;
    _beaconSynced = false;
    lostBeacons = 0;
    capEndTick = 0;
    expectedBeaconAt = 0;
    macWaitingCap = false;
    pendingIndirect.clear();
    // rxEnabled persists as configuration so forwarding nodes return to
    // listening when the ISR powers the radio back on; the MAC control,
    // mode, superframe-order, address, and guard registers persist the
    // same way.
}

} // namespace ulp::core
