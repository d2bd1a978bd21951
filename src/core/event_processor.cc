#include "core/event_processor.hh"

#include "core/memory_map.hh"
#include "core/power_library.hh"
#include "sim/logging.hh"
#include "sim/telemetry.hh"

namespace ulp::core {

EventProcessor::EventProcessor(sim::Simulation &simulation,
                               const std::string &name,
                               sim::SimObject *parent, DataBus &bus,
                               InterruptBus &irq_bus,
                               PowerController &power_ctrl,
                               ProbeRecorder &probes,
                               const sim::ClockDomain &clock)
    : sim::SimObject(simulation, name, parent),
      bus(bus), irqBus(irq_bus), powerCtrl(power_ctrl), probes(probes),
      clock(clock),
      tracker(*this, table5::eventProcessor, power::PowerState::Idle)
{
    irqBus.setSink(this);
    obs = simulation.telemetry();
    if (obs) {
        obsId = obs->registerComponent(this->name());
        if (obs->wants(sim::TelemetryChannel::EpFsm)) {
            obs->record(curTick(), obsId, sim::TelemetryChannel::EpFsm,
                        static_cast<std::uint8_t>(_state),
                        static_cast<std::uint16_t>(_state), 0);
        }
    }
}

void
EventProcessor::visitStats(sim::stats::Visitor &v) const
{
    v.group(name());
    v.scalar(statIsrs, "isrs", "interrupt service routines executed");
    v.scalar(statInstructions, "instructions", "EP instructions executed");
    v.scalar(statBusyCycles, "busyCycles", "cycles spent out of READY");
    v.scalar(statBusWaits, "busWaits",
             "services stalled waiting for the data bus");
    v.scalar(statWakeups, "wakeups", "WAKEUP instructions executed");
}

void
EventProcessor::setFsmState(State next)
{
    if (next == _state)
        return;
    if (obs && obs->wants(sim::TelemetryChannel::EpFsm)) {
        obs->record(curTick(), obsId, sim::TelemetryChannel::EpFsm,
                    static_cast<std::uint8_t>(next),
                    static_cast<std::uint16_t>(_state),
                    static_cast<std::uint64_t>(servicing));
    }
    _state = next;
}

void
EventProcessor::wakeup()
{
    if ((_state == State::Ready) && !advanceEvent.scheduled())
        eventq().schedule(&advanceEvent, clock.nextEdge(curTick()));
}

void
EventProcessor::busReleased()
{
    if (_state == State::WaitBus && !advanceEvent.scheduled())
        eventq().schedule(&advanceEvent, clock.nextEdge(curTick()));
}

void
EventProcessor::forceIdle()
{
    if (advanceEvent.scheduled())
        eventq().deschedule(&advanceEvent);
    wakeupPending = false;
    servicing = Irq::None;
    setFsmState(State::Ready);
    tracker.setState(power::PowerState::Idle);
}

void
EventProcessor::consume(sim::Cycles cycles, sim::Tick extra_ticks)
{
    statBusyCycles += static_cast<double>(cycles);
    sim::Tick when = curTick() + clock.cyclesToTicks(cycles) + extra_ticks;
    eventq().schedule(&advanceEvent, clock.nextEdge(when));
}

void
EventProcessor::beginService()
{
    auto irq = irqBus.take();
    if (!irq)
        sim::panic("%s: beginService with no pending interrupt",
                   name().c_str());
    servicing = *irq;
    tracker.setState(power::PowerState::Active);
    ++statIsrs;
    probes.record(Probe::EpIsrStart);

    // LOOKUP: the table entry's two bytes come over the data bus.
    std::uint16_t entry = static_cast<std::uint16_t>(
        map::isrTableBase + 2 * static_cast<unsigned>(servicing));
    pc = static_cast<std::uint16_t>((bus.read(entry) << 8) |
                                    bus.read(entry + 1));
    if (pc == 0x0000 || pc == 0xFFFF) {
        sim::warn("%s: no ISR bound for %s; event ignored", name().c_str(),
                  irqName(servicing));
        enterReady();
        consume(timing.lookup);
        return;
    }
    setFsmState(State::Fetch);
    consume(timing.lookup);
}

void
EventProcessor::enterReady()
{
    setFsmState(State::Ready);
    probes.record(Probe::EpIsrEnd);
    servicing = Irq::None;
}

void
EventProcessor::advance()
{
    // A WAKEUP completes by handing control (and the bus) to the uC.
    if (wakeupPending && _state == State::Ready) {
        wakeupPending = false;
        if (wakeMcu)
            wakeMcu(wakeupHandler);
        else
            sim::warn("%s: WAKEUP with no microcontroller attached",
                      name().c_str());
    }

    switch (_state) {
      case State::Ready:
      case State::WaitBus:
        if (!irqBus.pending()) {
            setFsmState(State::Ready);
            tracker.setState(power::PowerState::Idle);
            return; // idle: no events in the queue
        }
        if (!bus.availableForEp()) {
            if (_state != State::WaitBus)
                ++statBusWaits;
            setFsmState(State::WaitBus);
            tracker.setState(power::PowerState::Idle);
            return; // poked by busReleased()
        }
        beginService();
        return;

      case State::Lookup:
        // Lookup work is folded into beginService(); unreachable.
        sim::panic("%s: stray LOOKUP state", name().c_str());

      case State::Fetch: {
        std::uint8_t buf[5] = {};
        buf[0] = bus.read(pc);
        auto words =
            epInstrWords(static_cast<EpOpcode>(buf[0] >> 5));
        for (unsigned i = 1; i < words; ++i)
            buf[i] = bus.read(pc + i);
        auto decoded = EpInstruction::decode(
            std::span<const std::uint8_t>(buf, words));
        if (!decoded)
            sim::panic("%s: undecodable instruction at %#06x",
                       name().c_str(), pc);
        current = *decoded;
        setFsmState(State::Execute);
        consume(timing.fetchPerWord * words);
        return;
      }

      case State::Execute:
        executeCurrent();
        ++statInstructions;
        return;
    }
}

sim::Cycles
EventProcessor::executeCurrent()
{
    const Timing &t = timing;
    sim::Cycles cycles = 0;
    sim::Tick extra = 0;
    bool terminating = false;

    switch (current.opcode) {
      case EpOpcode::SWITCHON: {
        auto id = static_cast<ComponentId>(current.operand5);
        cycles = t.switchOn;
        sim::Tick ready_at = powerCtrl.switchOn(id);
        sim::Tick done = curTick() + clock.cyclesToTicks(cycles);
        if (ready_at > done)
            extra = ready_at - done;
        break;
      }
      case EpOpcode::SWITCHOFF:
        powerCtrl.switchOff(static_cast<ComponentId>(current.operand5));
        cycles = t.switchOff;
        break;
      case EpOpcode::READ:
        reg = bus.read(current.addrA);
        cycles = t.read;
        break;
      case EpOpcode::WRITE:
        bus.write(current.addrA, reg);
        cycles = t.write;
        break;
      case EpOpcode::WRITEI:
        bus.write(current.addrA, current.operand5);
        cycles = t.writei;
        break;
      case EpOpcode::TRANSFER: {
        unsigned len = current.transferLength();
        for (unsigned i = 0; i < len; ++i) {
            bus.write(static_cast<map::Addr>(current.addrB + i),
                      bus.read(static_cast<map::Addr>(current.addrA + i)));
        }
        cycles = t.transferPerByte * len;
        break;
      }
      case EpOpcode::TERMINATE:
        cycles = t.terminate;
        terminating = true;
        break;
      case EpOpcode::WAKEUP: {
        std::uint16_t entry = static_cast<std::uint16_t>(
            map::mcuVectorBase + 2 * current.vector);
        wakeupHandler = static_cast<std::uint16_t>(
            (bus.read(entry) << 8) | bus.read(entry + 1));
        wakeupPending = true;
        ++statWakeups;
        cycles = t.wakeup;
        terminating = true;
        break;
      }
    }

    if (terminating) {
        enterReady();
    } else {
        pc = static_cast<std::uint16_t>(pc +
                                        epInstrWords(current.opcode));
        setFsmState(State::Fetch);
    }
    consume(cycles, extra);
    return cycles;
}

} // namespace ulp::core
