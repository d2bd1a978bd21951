#include "power/energy_tracker.hh"

#include "sim/telemetry.hh"

namespace ulp::power {

EnergyTracker::EnergyTracker(sim::SimObject &owner, const PowerModel &model,
                             PowerState initial, const std::string &name)
    : owner(owner), _model(model), _state(initial),
      stintStart(owner.curTick()), epoch(owner.curTick()),
      obs(owner.simulation().telemetry())
{
    if (obs) {
        obsId = obs->registerComponent(owner.name() + "." + name);
        if (obs->wants(sim::TelemetryChannel::Power)) {
            obs->record(owner.curTick(), obsId,
                        sim::TelemetryChannel::Power,
                        static_cast<std::uint8_t>(initial),
                        static_cast<std::uint16_t>(initial), 0);
        }
        if (obs->wants(sim::TelemetryChannel::Energy))
            obs->addEnergyProbe(obsId, [this] { return energyJoules(); });
    }
}

void
EnergyTracker::setState(PowerState state)
{
    if (state == _state)
        return;
    sim::Tick t = now();
    closedResidency[static_cast<unsigned>(_state)] += t - stintStart;
    if (obs && obs->wants(sim::TelemetryChannel::Power)) {
        obs->record(t, obsId, sim::TelemetryChannel::Power,
                    static_cast<std::uint8_t>(state),
                    static_cast<std::uint16_t>(_state), 0);
    }
    _state = state;
    stintStart = t;
}

sim::Tick
EnergyTracker::residency(PowerState state) const
{
    sim::Tick r = closedResidency[static_cast<unsigned>(state)];
    if (state == _state)
        r += now() - stintStart;
    return r;
}

sim::Tick
EnergyTracker::observed() const
{
    return now() - epoch;
}

double
EnergyTracker::energyJoules() const
{
    double joules = 0.0;
    for (unsigned s = 0; s < numPowerStates; ++s) {
        auto state = static_cast<PowerState>(s);
        joules += _model.watts(state) *
                  sim::ticksToSeconds(residency(state));
    }
    return joules;
}

double
EnergyTracker::averagePowerWatts() const
{
    sim::Tick t = observed();
    if (t == 0)
        return 0.0;
    return energyJoules() / sim::ticksToSeconds(t);
}

double
EnergyTracker::utilization() const
{
    sim::Tick t = observed();
    if (t == 0)
        return 0.0;
    return static_cast<double>(residency(PowerState::Active)) /
           static_cast<double>(t);
}

void
EnergyTracker::restart()
{
    closedResidency.fill(0);
    stintStart = now();
    epoch = now();
}

} // namespace ulp::power
