#include "fabric/event_fabric.hh"

#include "core/memory_map.hh"
#include "core/message_processor.hh"
#include "core/power_library.hh"
#include "core/radio_device.hh"
#include "core/timer_unit.hh"
#include "sim/logging.hh"
#include "sim/telemetry.hh"

namespace ulp::fabric {

namespace {

const char *const sourceNames[numSources] = {
    "timer.fire",     "timer1.fire",      "timer2.fire",
    "timer3.fire",    "watchdog.bark",    "adc.done",
    "adc.threshold",  "filter.pass",      "filter.fail",
    "comp.done",      "msgproc.batchfull", "msgproc.txready",
    "msgproc.rxforward", "msgproc.rxdrop", "msgproc.rxlocal",
    "msgproc.irregular", "radio.txdone",   "radio.rxdone",
    "radio.txfail",
};

const char *const sinkNames[numSinks] = {
    "adc.sample",     "msgproc.tx",     "radio.tx",
    "radio.gate",     "timer.restart",  "timer1.restart",
    "timer2.restart", "timer3.restart", "probe.latch",
    "mcu.wake",       "ep",
};

} // namespace

const char *
sourceName(Source source)
{
    auto index = static_cast<std::size_t>(source);
    return index < numSources ? sourceNames[index] : "unknown";
}

const char *
sinkName(Sink sink)
{
    auto index = static_cast<std::size_t>(sink);
    return index < numSinks ? sinkNames[index] : "unknown";
}

std::optional<Source>
parseSource(std::string_view text)
{
    for (std::size_t i = 0; i < numSources; ++i) {
        if (text == sourceNames[i])
            return static_cast<Source>(i);
    }
    return std::nullopt;
}

std::optional<Sink>
parseSink(std::string_view text)
{
    for (std::size_t i = 0; i < numSinks; ++i) {
        if (text == sinkNames[i])
            return static_cast<Sink>(i);
    }
    return std::nullopt;
}

std::string
linkName(const Link &link)
{
    return std::string(sourceName(link.source)) + " -> " +
           sinkName(link.sink);
}

EventFabric::EventFabric(sim::Simulation &simulation, const std::string &name,
                         sim::SimObject *parent, core::InterruptBus &irq_bus,
                         core::ProbeRecorder &probes,
                         const sim::ClockDomain &clock)
    : sim::SimObject(simulation, name, parent),
      irqBus(irq_bus), probes(probes), clock(clock),
      tracker(*this, core::table5::eventFabric, power::PowerState::Gated),
      obs(simulation.telemetry())
{
    if (obs)
        obsId = obs->registerComponent(this->name());
}

void
EventFabric::visitStats(sim::stats::Visitor &v) const
{
    v.group(name());
    v.scalar(statLinked, "linkedDelivered",
             "events serviced over a link without waking the EP");
    v.scalar(statSinkBusy, "sinkBusyDrops",
             "linked events dropped because the sink was busy");
    v.scalar(statFiltered, "thresholdFiltered",
             "below-threshold events retired at the comparator");
}

void
EventFabric::bind(core::DataBus &data_bus, core::PowerController &power_ctrl)
{
    bus = &data_bus;
    power = &power_ctrl;
}

void
EventFabric::configure(const std::vector<Link> &links, std::uint8_t thresh)
{
    clearLinks();
    threshold = thresh;
    for (const Link &link : links) {
        auto code = static_cast<unsigned>(sourceIrq(link.source));
        if (routes[code]) {
            sim::panic("%s: request line %s routed twice (%s and %s)",
                       name().c_str(), core::irqName(sourceIrq(link.source)),
                       sourceName(routes[code]->source),
                       sourceName(link.source));
        }
        routes[code] = Route{link.sink, link.source};
        ++linkCount;
    }
    // An armed fabric draws idle power; an empty CAM is free (so legacy
    // scenarios see a byte-identical energy ledger).
    tracker.setState(linkCount > 0 ? power::PowerState::Idle
                                   : power::PowerState::Gated);
}

void
EventFabric::clearLinks()
{
    routes.fill(std::nullopt);
    linkCount = 0;
    threshold = 0;
    if (idleEvent.scheduled())
        eventq().deschedule(&idleEvent);
    activeUntil = 0;
    tracker.setState(power::PowerState::Gated);
}

void
EventFabric::raise(const Event &event)
{
    auto code = static_cast<unsigned>(event.irq);
    const std::optional<Route> &route =
        code < core::numIrqCodes ? routes[code] : std::nullopt;
    if (!route || route->sink == Sink::Ep) {
        // Fall through to the interrupt bus -> EP path unchanged.
        irqBus.post(event.irq);
        return;
    }
    deliver(event, *route);
}

void
EventFabric::deliver(const Event &event, const Route &route)
{
    using namespace core;
    using map::Addr;

    sim::Cycles cycles = timing.route;
    sim::Tick extra = 0;

    auto on = [&](ComponentId id) {
        cycles += timing.switchOn;
        sim::Tick ready = power->switchOn(id);
        sim::Tick done = curTick() + clock.cyclesToTicks(cycles);
        if (ready > done)
            extra += ready - done;
    };
    auto off = [&](ComponentId id) {
        cycles += timing.switchOff;
        power->switchOff(id);
    };
    auto rd = [&](Addr addr) {
        cycles += timing.read;
        return bus->read(addr);
    };
    auto wr = [&](Addr addr, std::uint8_t value) {
        cycles += timing.write;
        bus->write(addr, value);
    };
    auto finish = [&](std::uint8_t kind, sim::stats::Scalar &stat) {
        ++stat;
        recordFabric(event, route.sink, kind);
        beActiveFor(cycles, extra);
    };
    auto busyDrop = [&] {
        finish(fabricSinkBusy, statSinkBusy);
    };

    // The EP ISRs' trailing SWITCHOFF of the producing accelerator moves
    // into the fabric: the datum travelled with the event, so the
    // producer is retired before the sink action runs.
    if (auto retired = sourceRetiredComponent(route.source))
        off(*retired);

    if (sourceThresholdGated(route.source) && event.hasDatum &&
        event.datum < threshold) {
        finish(fabricFiltered, statFiltered);
        return;
    }

    switch (route.sink) {
      case Sink::AdcSample:
        on(ComponentId::Sensor);
        if (rd(map::sensorBase + map::sensorCtrl) & 1) {
            busyDrop();
            return;
        }
        wr(map::sensorBase + map::sensorCtrl, 1);
        break;

      case Sink::MsgProcTx:
        on(ComponentId::MsgProc);
        if (rd(map::msgBase + map::msgStatus) & MessageProcessor::statusBusy) {
            busyDrop();
            return;
        }
        wr(map::msgBase + map::msgPayload, event.datum);
        wr(map::msgBase + map::msgPayloadLen, 1);
        wr(map::msgBase + map::msgCtrl, MessageProcessor::cmdPrepare);
        break;

      case Sink::RadioTx: {
        on(ComponentId::Radio);
        if (rd(map::radioBase + map::radioStatus) & RadioDevice::statusTxBusy) {
            busyDrop();
            return;
        }
        std::uint8_t len = rd(map::msgBase + map::msgOutLen);
        wr(map::radioBase + map::radioTxLen, len);
        for (std::uint8_t i = 0; i < len; ++i) {
            bus->write(static_cast<Addr>(map::radioBase + map::radioTxFifo + i),
                       bus->read(static_cast<Addr>(map::msgBase +
                                                   map::msgOutBuf + i)));
        }
        cycles += timing.transferPerByte * len;
        off(ComponentId::MsgProc);
        wr(map::radioBase + map::radioCtrl, RadioDevice::cmdTx);
        break;
      }

      case Sink::RadioGate:
        off(ComponentId::Radio);
        break;

      case Sink::Timer0Restart:
      case Sink::Timer1Restart:
      case Sink::Timer2Restart:
      case Sink::Timer3Restart: {
        unsigned index = static_cast<unsigned>(route.sink) -
                         static_cast<unsigned>(Sink::Timer0Restart);
        wr(static_cast<Addr>(map::timerBase + index * map::timerStride +
                             map::timerCtrl),
           TimerUnit::ctrlEnable);
        break;
      }

      case Sink::ProbeLatch:
        probes.record(Probe::FabricLatch);
        break;

      case Sink::McuWake: {
        cycles += timing.wake;
        std::uint16_t handler = static_cast<std::uint16_t>(
            (bus->read(map::mcuVectorBase) << 8) |
            bus->read(map::mcuVectorBase + 1));
        if (handler == 0x0000 || handler == 0xFFFF) {
            sim::warn("%s: mcu.wake with unbound vector 0", name().c_str());
        } else if (wakeMcu) {
            wakeMcu(handler);
        } else {
            sim::warn("%s: mcu.wake with no microcontroller attached",
                      name().c_str());
        }
        break;
      }

      case Sink::Ep:
      case Sink::NumSinks:
        break;
    }

    finish(fabricLinked, statLinked);
}

void
EventFabric::beActiveFor(sim::Cycles cycles, sim::Tick extra_ticks)
{
    tracker.setState(power::PowerState::Active);
    sim::Tick until = curTick() + clock.cyclesToTicks(cycles) + extra_ticks;
    if (until > activeUntil)
        activeUntil = until;
    eventq().reschedule(&idleEvent, activeUntil);
}

void
EventFabric::becomeIdle()
{
    tracker.setState(linkCount > 0 ? power::PowerState::Idle
                                   : power::PowerState::Gated);
}

void
EventFabric::recordFabric(const Event &event, Sink sink, std::uint8_t kind)
{
    if (obs && obs->wants(sim::TelemetryChannel::Fabric)) {
        obs->record(curTick(), obsId, sim::TelemetryChannel::Fabric,
                    static_cast<std::uint8_t>(event.irq), kind,
                    static_cast<std::uint64_t>(sink));
    }
}

} // namespace ulp::fabric
