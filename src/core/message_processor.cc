#include "core/message_processor.hh"

#include <algorithm>

#include "core/power_library.hh"
#include "sim/logging.hh"

namespace ulp::core {

MessageProcessor::MessageProcessor(sim::Simulation &simulation,
                                   const std::string &name,
                                   sim::SimObject *parent,
                                   fabric::EventSource &event_port,
                                   ProbeRecorder &probes,
                                   const sim::ClockDomain &clock)
    : SlaveDevice(simulation, name, parent, {map::msgBase, map::msgSize},
                  event_port, probes, clock, table5::messageProcessor, true)
{
}

std::uint8_t
MessageProcessor::busRead(map::Addr offset)
{
    using namespace map;
    switch (offset) {
      case msgCtrl: return activeCmd;
      case msgStatus: return status;
      case msgSeq: return seq;
      case msgSrcHi: return srcHi;
      case msgSrcLo: return srcLo;
      case msgDestHi: return destHi;
      case msgDestLo: return destLo;
      case msgPanHi: return panHi;
      case msgPanLo: return panLo;
      case msgPayloadLen: return payloadLen;
      case msgAppend: return payloadLen;
      case msgBatch: return batch;
      case msgOutLen: return outLen;
      case msgInLen: return inLen;
      case msgRouteOrigHi: return routeOrigHi;
      case msgRouteOrigLo: return routeOrigLo;
      case msgRouteNextHi: return routeNextHi;
      case msgRouteNextLo: return routeNextLo;
      default:
        if (offset >= msgPayload && offset < msgPayload + payloadBytes)
            return payload[offset - msgPayload];
        if (offset >= msgOutBuf && offset < msgOutBuf + bufferBytes)
            return outBuf[offset - msgOutBuf];
        if (offset >= msgInBuf && offset < msgInBuf + bufferBytes)
            return inBuf[offset - msgInBuf];
        return 0xFF;
    }
}

void
MessageProcessor::visitStats(sim::stats::Visitor &v) const
{
    v.group(name());
    v.scalar(statPrepared, "framesPrepared", "outgoing frames built");
    v.scalar(statRxProcessed, "rxProcessed", "received frames classified");
    v.scalar(statDuplicates, "duplicates", "CAM-matched duplicates dropped");
    v.scalar(statForwards, "forwards", "frames staged for forwarding");
    v.scalar(statLocal, "localDeliveries", "frames addressed to this node");
    v.scalar(statIrregular, "irregulars",
             "irregular messages referred to the uC");
    v.scalar(statMalformed, "malformed", "undecodable frames dropped");
    v.scalar(statOverheard, "overheard",
             "frames for another hop dropped by the routing CAM");
}

void
MessageProcessor::busWrite(map::Addr offset, std::uint8_t value)
{
    using namespace map;
    switch (offset) {
      case msgCtrl:
        startCommand(value);
        return;
      case msgSeq: seq = value; return;
      case msgSrcHi: srcHi = value; return;
      case msgSrcLo: srcLo = value; return;
      case msgDestHi: destHi = value; return;
      case msgDestLo: destLo = value; return;
      case msgPanHi: panHi = value; return;
      case msgPanLo: panLo = value; return;
      case msgPayloadLen:
        payloadLen = std::min<std::uint8_t>(value, payloadBytes);
        return;
      case msgAppend:
        // Sample accumulation for multi-sample packets: append and count;
        // reaching the configured batch signals the EP to fire a prepare.
        if (payloadLen < payloadBytes)
            payload[payloadLen++] = value;
        beActiveFor(1);
        if (batch != 0 && payloadLen >= batch)
            postIrq(Irq::MsgBatchFull);
        return;
      case msgBatch:
        batch = std::min<std::uint8_t>(value, payloadBytes);
        return;
      case msgInLen:
        inLen = std::min<std::uint8_t>(value, bufferBytes);
        return;
      case msgRouteOrigHi: routeOrigHi = value; return;
      case msgRouteOrigLo: routeOrigLo = value; return;
      case msgRouteNextHi: routeNextHi = value; return;
      case msgRouteNextLo: routeNextLo = value; return;
      default:
        if (offset >= msgPayload && offset < msgPayload + payloadBytes) {
            payload[offset - msgPayload] = value;
            return;
        }
        if (offset >= msgInBuf && offset < msgInBuf + bufferBytes) {
            inBuf[offset - msgInBuf] = value;
            return;
        }
        // OUT buffer and the remaining registers are read-only.
        return;
    }
}

void
MessageProcessor::startCommand(std::uint8_t cmd)
{
    if (status & statusBusy) {
        sim::warn("%s: command %u while busy ignored", name().c_str(), cmd);
        return;
    }
    if (cmd == cmdClearCam) {
        cam.clear();
        return;
    }
    if (cmd == cmdRouteAdd) {
        preloadRoute(
            static_cast<std::uint16_t>((routeOrigHi << 8) | routeOrigLo),
            static_cast<std::uint16_t>((routeNextHi << 8) | routeNextLo));
        return;
    }
    if (cmd == cmdRouteClear) {
        clearRoutes();
        return;
    }
    if (cmd != cmdPrepare && cmd != cmdProcessRx)
        return;

    sim::Cycles cost = 0;
    if (cmd == cmdPrepare) {
        std::size_t frame_len = net::Frame::overheadBytes + payloadLen;
        cost = timing.prepareFixed + timing.preparePerByte * frame_len;
    } else {
        cost = timing.rxFixed + timing.rxPerByte * inLen;
    }
    if (faultSlowdown() > 1.0) {
        cost = static_cast<sim::Cycles>(
            static_cast<double>(cost) * faultSlowdown());
    }

    activeCmd = cmd;
    status |= statusBusy;
    beActiveFor(cost);
    eventq().reschedule(&doneEvent, curTick() + cyclesToTicks(cost));
}

void
MessageProcessor::commandDone()
{
    if (activeCmd == cmdPrepare)
        finishPrepare();
    else if (activeCmd == cmdProcessRx)
        finishProcessRx();
    activeCmd = 0;
    status &= static_cast<std::uint8_t>(~statusBusy);
}

void
MessageProcessor::finishPrepare()
{
    net::Frame frame;
    frame.type = net::Frame::Type::Data;
    frame.seq = seq++;
    frame.destPan = static_cast<std::uint16_t>((panHi << 8) | panLo);
    frame.dest = static_cast<std::uint16_t>((destHi << 8) | destLo);
    frame.src = ourAddr();
    frame.payload.assign(payload.begin(), payload.begin() + payloadLen);

    std::vector<std::uint8_t> wire = frame.serialize();
    outLen = static_cast<std::uint8_t>(wire.size());
    std::copy(wire.begin(), wire.end(), outBuf.begin());

    status |= statusTxReady;
    // Batching consumes the staged samples; fixed-payload applications
    // (batch == 0) keep their configured length.
    if (batch != 0)
        payloadLen = 0;
    ++statPrepared;
    recordProbe(Probe::MsgPrepared);
    postIrq(Irq::MsgTxReady);
}

bool
MessageProcessor::camLookupInsert(std::uint16_t src, std::uint8_t seq_no)
{
    std::uint32_t key = (static_cast<std::uint32_t>(src) << 8) | seq_no;
    if (std::find(cam.begin(), cam.end(), key) != cam.end())
        return true;
    cam.push_back(key);
    if (cam.size() > camEntries)
        cam.pop_front();
    return false;
}

void
MessageProcessor::finishProcessRx()
{
    ++statRxProcessed;
    recordProbe(Probe::MsgRxProcessed);

    auto frame = net::Frame::deserialize(
        std::span<const std::uint8_t>(inBuf.data(), inLen));
    if (!frame) {
        ++statMalformed;
        postIrq(Irq::MsgRxDrop);
        return;
    }

    if (frame->type == net::Frame::Type::Command) {
        // Irregular message: reconfiguration etc. — needs the uC.
        ++statIrregular;
        postIrq(Irq::MsgRxIrregular);
        return;
    }

    if (camLookupInsert(frame->src, frame->seq)) {
        ++statDuplicates;
        postIrq(Irq::MsgRxDrop);
        return;
    }

    if (frame->dest == ourAddr()) {
        // Hop-by-hop routing: a frame addressed to us either relays to
        // its origin's next hop or terminates here (the sink case).
        if (auto next = lookupRoute(frame->src)) {
            frame->dest = *next;
            std::vector<std::uint8_t> wire = frame->serialize();
            outLen = static_cast<std::uint8_t>(wire.size());
            std::copy(wire.begin(), wire.end(), outBuf.begin());
            status |= statusTxReady;
            ++statForwards;
            postIrq(Irq::MsgRxForward);
            return;
        }
        ++statLocal;
        ++localBySource[frame->src];
        postIrq(Irq::MsgRxLocal);
        return;
    }

    if (!routes.empty()) {
        // Routed network: a frame for another hop is overheard traffic.
        ++statOverheard;
        postIrq(Irq::MsgRxDrop);
        return;
    }

    // Regular forwarding: stage an identical copy in the OUT buffer so
    // the EP can move it to the radio.
    std::copy(inBuf.begin(), inBuf.begin() + inLen, outBuf.begin());
    outLen = inLen;
    status |= statusTxReady;
    ++statForwards;
    postIrq(Irq::MsgRxForward);
}

void
MessageProcessor::preloadRoute(std::uint16_t origin, std::uint16_t next_hop)
{
    for (Route &r : routes) {
        if (r.origin == origin) {
            r.nextHop = next_hop;
            return;
        }
    }
    routes.push_back({origin, next_hop});
    if (routes.size() > routeEntries)
        routes.erase(routes.begin());
}

std::optional<std::uint16_t>
MessageProcessor::lookupRoute(std::uint16_t origin) const
{
    std::optional<std::uint16_t> wildcard;
    for (const Route &r : routes) {
        if (r.origin == origin)
            return r.nextHop;
        if (r.origin == routeWildcard)
            wildcard = r.nextHop;
    }
    return wildcard;
}

void
MessageProcessor::onPowerOff()
{
    if (doneEvent.scheduled())
        eventq().deschedule(&doneEvent);
    activeCmd = 0;
    status = 0;
    // The frame buffers are in the gated domain and lose content. The
    // address configuration registers and the CAM persist (always-on
    // retention latches): duplicate suppression must survive the
    // per-message SWITCHOFF the forwarding ISRs perform.
    payload.fill(0);
    inBuf.fill(0);
    outBuf.fill(0);
    outLen = 0;
    inLen = 0;
    // The staged-payload count describes buffer content, so it goes with
    // the buffers; ISRs rewrite it before every prepare.
    payloadLen = 0;
}

} // namespace ulp::core
