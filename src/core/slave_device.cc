#include "core/slave_device.hh"

#include <algorithm>

namespace ulp::core {

SlaveDevice::SlaveDevice(sim::Simulation &simulation, const std::string &name,
                         sim::SimObject *parent, map::Window range,
                         fabric::EventSource &event_port,
                         ProbeRecorder &probes,
                         const sim::ClockDomain &clock,
                         const power::PowerModel &model,
                         bool initially_powered)
    : sim::SimObject(simulation, name, parent),
      clock(clock),
      tracker(*this, model,
              initially_powered ? power::PowerState::Idle
                                : power::PowerState::Gated),
      range(range), port(event_port), probes(probes),
      _powered(initially_powered)
{
}

sim::Tick
SlaveDevice::powerOn()
{
    _powered = true;
    tracker.setState(power::PowerState::Idle);
    onPowerOn();
    return wakeupTicks;
}

void
SlaveDevice::powerOff()
{
    _powered = false;
    if (idleEvent.scheduled())
        eventq().deschedule(&idleEvent);
    activeUntil = 0;
    tracker.setState(power::PowerState::Gated);
    onPowerOff();
}

void
SlaveDevice::beActiveFor(sim::Cycles cycles)
{
    if (!_powered)
        return;
    tracker.setState(power::PowerState::Active);
    sim::Tick until = curTick() + cyclesToTicks(cycles);
    if (until > activeUntil)
        activeUntil = until;
    eventq().reschedule(&idleEvent, activeUntil);
}

void
SlaveDevice::becomeIdle()
{
    if (_powered)
        tracker.setState(restingState());
}

void
SlaveDevice::injectWedge(sim::Tick duration)
{
    if (duration == 0) {
        wedgedLatched = true;
    } else {
        wedgedUntil = std::max(wedgedUntil, curTick() + duration);
    }
}

void
SlaveDevice::clearWedge()
{
    wedgedLatched = false;
    wedgedUntil = 0;
}

void
SlaveDevice::setFaultSlowdown(double factor)
{
    slowdownFactor = std::max(factor, 1.0);
}

} // namespace ulp::core
