#include "core/bus.hh"

#include "sim/logging.hh"
#include "sim/telemetry.hh"

namespace ulp::core {

DataBus::DataBus(sim::Simulation &simulation, const std::string &name,
                 sim::SimObject *parent)
    : sim::SimObject(simulation, name, parent),
      obs(simulation.telemetry())
{
    if (obs)
        obsId = obs->registerComponent(this->name());
}

void
DataBus::visitStats(sim::stats::Visitor &v) const
{
    v.group(name());
    v.scalar(statReads, "reads", "read transactions");
    v.scalar(statWrites, "writes", "write transactions");
    v.scalar(statUnmapped, "unmapped", "accesses no slave claimed");
    v.scalar(statWedged, "wedged", "accesses to a wedged (stuck) slave");
}

void
DataBus::setMcuHoldsBus(bool holds)
{
    if (holds == mcuHoldsBus)
        return;
    mcuHoldsBus = holds;
    if (obs && obs->wants(sim::TelemetryChannel::Bus)) {
        obs->record(curTick(), obsId, sim::TelemetryChannel::Bus,
                    holds ? 1 : 0, 0, 0);
    }
}

void
DataBus::addSlave(BusSlave *slave)
{
    const map::Window range = slave->addrRange();
    for (std::size_t w = 0; w < map::windows.size(); ++w) {
        if (map::windows[w] != range)
            continue;
        if (slaves[w]) {
            sim::fatal("bus slave range [%#x,+%u) is already taken",
                       range.base, range.size);
        }
        slaves[w] = slave;
        return;
    }
    sim::fatal("bus slave range [%#x,+%u) is not a memory-map window",
               range.base, range.size);
}

BusSlave *
DataBus::decode(map::Addr addr, map::Addr &offset) const
{
    const std::uint8_t w = map::pageWindow[addr >> 8];
    if (w == map::noWindow)
        return nullptr;
    offset = static_cast<map::Addr>(addr - map::windows[w].base);
    if (offset >= map::windows[w].size)
        return nullptr;
    return slaves[w];
}

std::uint8_t
DataBus::read(map::Addr addr)
{
    ++statReads;
    map::Addr offset;
    BusSlave *slave = decode(addr, offset);
    if (!slave) {
        ++statUnmapped;
        return 0xFF;
    }
    if (slave->wedgedAt(curTick())) {
        ++statWedged;
        return 0xFF;
    }
    return slave->busRead(offset);
}

void
DataBus::write(map::Addr addr, std::uint8_t value)
{
    ++statWrites;
    map::Addr offset;
    BusSlave *slave = decode(addr, offset);
    if (!slave) {
        ++statUnmapped;
        return;
    }
    if (slave->wedgedAt(curTick())) {
        ++statWedged;
        return;
    }
    slave->busWrite(offset, value);
}

} // namespace ulp::core
