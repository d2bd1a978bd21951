#include "core/power_controller.hh"

#include "sim/logging.hh"

namespace ulp::core {

PowerController::PowerController(sim::Simulation &simulation,
                                 const std::string &name,
                                 sim::SimObject *parent)
    : sim::SimObject(simulation, name, parent)
{
}

void
PowerController::visitStats(sim::stats::Visitor &v) const
{
    v.group(name());
    v.scalar(statSwitchOns, "switchOns", "power enable assertions");
    v.scalar(statSwitchOffs, "switchOffs", "power enable deassertions");
    v.scalar(statRedundantOps, "redundantOps",
             "switch operations that were already in effect");
}

void
PowerController::registerComponent(ComponentId id,
                                   PowerControllable *component)
{
    auto idx = static_cast<unsigned>(id);
    if (idx >= numComponentIds)
        sim::fatal("component id %u out of range", idx);
    if (components[idx])
        sim::fatal("component id %u registered twice", idx);
    components[idx] = component;
}

PowerControllable *
PowerController::component(ComponentId id, const char *what) const
{
    auto idx = static_cast<unsigned>(id);
    if (idx >= numComponentIds || !components[idx]) {
        sim::fatal("%s of unregistered component id %u (%s)", what, idx,
                   componentName(id));
    }
    return components[idx];
}

sim::Tick
PowerController::switchOn(ComponentId id)
{
    PowerControllable *comp = component(id, "switchOn");
    ++statSwitchOns;
    if (comp->powered()) {
        ++statRedundantOps;
        return curTick();
    }
    return curTick() + comp->powerOn();
}

void
PowerController::switchOff(ComponentId id)
{
    PowerControllable *comp = component(id, "switchOff");
    ++statSwitchOffs;
    if (gatingDisabled)
        return;
    if (!comp->powered()) {
        ++statRedundantOps;
        return;
    }
    comp->powerOff();
}

bool
PowerController::isOn(ComponentId id) const
{
    return component(id, "isOn query")->powered();
}

} // namespace ulp::core
