/**
 * @file
 * Base class for all simulated hardware components. A SimObject has a
 * hierarchical name ("node0.ep"), belongs to a Simulation (whose event
 * queue it schedules on), and names its statistics when visited.
 */

#ifndef ULP_SIM_SIM_OBJECT_HH
#define ULP_SIM_SIM_OBJECT_HH

#include <ostream>
#include <string>
#include <string_view>

#include "sim/event_queue.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ulp::sim {

class SimObject
{
  public:
    /**
     * @param simulation owning simulation context
     * @param name leaf name of this object
     * @param parent parent object for naming, or nullptr for a top-level
     *        object
     */
    SimObject(Simulation &simulation, const std::string &name,
              SimObject *parent = nullptr)
        : _simulation(simulation),
          _name(parent ? parent->name() + "." + name : name)
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    /** Fully qualified hierarchical name. */
    const std::string &name() const { return _name; }

    Simulation &simulation() { return _simulation; }
    EventQueue &eventq() { return _simulation.eventq(); }
    Tick curTick() const { return _simulation.curTick(); }

    /** Convenience: schedule @p event @p delta ticks from now. */
    void
    scheduleRel(Event *event, Tick delta)
    {
        eventq().schedule(event, curTick() + delta);
    }

    /**
     * Hand the visitor this object's statistics under its name, in
     * declaration order, then visit its children's. An object without
     * statistics visits nothing.
     */
    virtual void visitStats(stats::Visitor &) const {}

    /** Print this object's statistics and its children's. */
    void
    dumpStats(std::ostream &os) const
    {
        stats::Printer printer(os);
        visitStats(printer);
    }

    /**
     * This object's own statistic called @p name (by content, not
     * address), or nullptr; its children's do not match.
     */
    const stats::Scalar *
    findStat(std::string_view name) const
    {
        stats::Finder finder(_name, name);
        visitStats(finder);
        return finder.found;
    }

  private:
    Simulation &_simulation;
    std::string _name;
};

} // namespace ulp::sim

#endif // ULP_SIM_SIM_OBJECT_HH
