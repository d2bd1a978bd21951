#include "core/microcontroller.hh"

#include "core/power_library.hh"

namespace ulp::core {

Microcontroller::Microcontroller(sim::Simulation &simulation,
                                 const std::string &name,
                                 sim::SimObject *parent, DataBus &bus,
                                 EventProcessor &ep, ProbeRecorder &probes,
                                 double clock_hz)
    : sim::SimObject(simulation, name, parent),
      bus(bus), ep(ep), probes(probes),
      core(simulation, "core", *this,
           mcu::Mcu::Config{clock_hz, /*fetchCostPerByte=*/1,
                            map::mcuVectorBase},
           this),
      tracker(*this, table5::microcontroller, power::PowerState::Gated)
{
    core.onSleep([this] { wentToSleep(); });
    core.onHalt([this] { wentToSleep(); });
}

void
Microcontroller::visitStats(sim::stats::Visitor &v) const
{
    v.group(name());
    v.scalar(statWakeups, "wakeups", "times the EP woke this uC");
    v.scalar(statForcedResets, "forcedResets",
             "watchdog-forced resets of a hung core");
    core.visitStats(v);
}

sim::Tick
Microcontroller::powerOn()
{
    _powered = true;
    tracker.setState(power::PowerState::Idle);
    return 0;
}

void
Microcontroller::powerOff()
{
    _powered = false;
    core.stopClock();
    tracker.setState(power::PowerState::Gated);
}

void
Microcontroller::wake(std::uint16_t handler)
{
    ++statWakeups;
    _powered = true;
    tracker.setState(power::PowerState::Active);
    bus.setMcuHoldsBus(true);
    probes.record(Probe::McuWoken);
    // Power gating lost all state: each wakeup starts from a clean core
    // with a fresh stack; the EP-supplied handler is the continuation.
    core.reset(handler);
    core.setSp(map::mcuStackTop);
    core.wakeAt(handler);
}

void
Microcontroller::boot(std::uint16_t entry)
{
    wake(entry);
}

void
Microcontroller::forceReset()
{
    if (!_powered)
        return;
    ++statForcedResets;
    lastResetReason = mcu::ResetReason::Watchdog;
    probes.record(Probe::McuForcedReset);
    core.stopClock();
    bus.setMcuHoldsBus(false);
    powerOff();
    ep.busReleased();
}

void
Microcontroller::wentToSleep()
{
    probes.record(Probe::McuSlept);
    bus.setMcuHoldsBus(false);
    powerOff();
    ep.busReleased();
}

} // namespace ulp::core
