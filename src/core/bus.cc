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
    AddrRange range = slave->addrRange();
    for (BusSlave *existing : slaves) {
        AddrRange other = existing->addrRange();
        bool overlap = range.base < other.base + other.size &&
                       other.base < range.base + range.size;
        if (overlap) {
            sim::fatal("bus slave range [%#x,+%u) overlaps [%#x,+%u)",
                       range.base, range.size, other.base, other.size);
        }
    }
    slaves.push_back(slave);
}

BusSlave *
DataBus::findSlave(map::Addr addr) const
{
    for (BusSlave *slave : slaves) {
        if (slave->addrRange().contains(addr))
            return slave;
    }
    return nullptr;
}

std::uint8_t
DataBus::read(map::Addr addr)
{
    ++statReads;
    BusSlave *slave = findSlave(addr);
    if (!slave) {
        ++statUnmapped;
        return 0xFF;
    }
    if (slave->busWedged()) {
        ++statWedged;
        return 0xFF;
    }
    return slave->busRead(addr - slave->addrRange().base);
}

void
DataBus::write(map::Addr addr, std::uint8_t value)
{
    ++statWrites;
    BusSlave *slave = findSlave(addr);
    if (!slave) {
        ++statUnmapped;
        return;
    }
    if (slave->busWedged()) {
        ++statWedged;
        return;
    }
    slave->busWrite(addr - slave->addrRange().base, value);
}

} // namespace ulp::core
