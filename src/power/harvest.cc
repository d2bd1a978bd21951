#include "power/harvest.hh"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace ulp::power {

double
SinusoidalSource::powerAt(sim::Tick when) const
{
    double t = sim::ticksToSeconds(when);
    double phase = 2.0 * std::numbers::pi * t / periodSeconds;
    return std::max(0.0, peakWatts * std::sin(phase));
}

double
EnergyStore::deposit(double joules)
{
    double accepted = std::min(joules, capacityJoules - levelJoules);
    accepted = std::max(accepted, 0.0);
    levelJoules += accepted;
    return accepted;
}

double
EnergyStore::withdraw(double joules)
{
    double delivered = std::min(joules, levelJoules);
    delivered = std::max(delivered, 0.0);
    levelJoules -= delivered;
    return delivered;
}

HarvestingSupply::HarvestingSupply(sim::Simulation &simulation,
                                   const std::string &name,
                                   std::unique_ptr<HarvestSource> source,
                                   EnergyStore store,
                                   std::function<double()> load,
                                   sim::Tick interval,
                                   sim::SimObject *parent)
    : sim::SimObject(simulation, name, parent),
      source(std::move(source)), _store(store), load(std::move(load)),
      interval(interval)
{
}

void
HarvestingSupply::visitStats(sim::stats::Visitor &v) const
{
    v.group(name());
    v.scalar(statHarvested, "harvestedJoules",
             "energy harvested into the store");
    v.scalar(statConsumed, "consumedJoules", "energy delivered to the node");
    v.scalar(statBrownOuts, "brownOuts",
             "transitions into an exhausted-store state");
    v.scalar(statBrownOutTicks, "brownOutTicks", "ticks spent browned out");
    v.scalar(statDroops, "droops", "injected supply droop spikes");
    v.scalar(statDroopJoules, "droopJoules", "energy lost to droop spikes");
}

void
HarvestingSupply::injectDroop(double joules)
{
    double lost = _store.withdraw(joules);
    ++statDroops;
    statDroopJoules += lost;
    if (_store.empty() && !inBrownOut) {
        ++statBrownOuts;
        inBrownOut = true;
        if (brownOutCb)
            brownOutCb();
    }
}

void
HarvestingSupply::start()
{
    if (!pollEvent.scheduled())
        scheduleRel(&pollEvent, interval);
}

void
HarvestingSupply::stop()
{
    if (pollEvent.scheduled())
        eventq().deschedule(&pollEvent);
}

void
HarvestingSupply::poll()
{
    double dt = sim::ticksToSeconds(interval);

    double harvested = source->powerAt(curTick()) * dt;
    statHarvested += _store.deposit(harvested);

    double needed = load() * dt;
    double got = _store.withdraw(needed);
    statConsumed += got;

    bool starved = got + 1e-18 < needed;
    if (starved) {
        statBrownOutTicks += static_cast<double>(interval);
        if (!inBrownOut) {
            ++statBrownOuts;
            inBrownOut = true;
            if (brownOutCb)
                brownOutCb();
        }
    } else if (inBrownOut) {
        if (_store.level() + 1e-18 >=
            recoverFraction * _store.capacity()) {
            inBrownOut = false;
            if (recoverCb)
                recoverCb();
        } else {
            // Covering the (near-zero) load of a dead node is not
            // recovery; the node stays down until the store refills.
            statBrownOutTicks += static_cast<double>(interval);
        }
    }

    scheduleRel(&pollEvent, interval);
}

} // namespace ulp::power
