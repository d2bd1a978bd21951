/**
 * @file
 * Peripheral event-linking fabric (PELS-style).
 *
 * A small routing matrix between the peripherals' event ports and the
 * interrupt bus. Scenario-declared links (`[events] link = adc.threshold
 * -> msgproc.tx`) let the fabric service an event autonomously — a fixed
 * microcoded action over the data bus and power controller, mirroring
 * the EP ISR it replaces — without ever waking the event processor.
 * Unlinked events fall through to InterruptBus::post() unchanged, so the
 * EP/µC path is byte-identical when no links are configured.
 *
 * Overload follows the paper's §4.2.4 drop rule: a linked event that
 * arrives while its sink peripheral is still busy is dropped (counted),
 * just as a re-raised request line loses the event on the interrupt bus.
 *
 * Every routed transition is costed against the fabric's own energy
 * tracker and recorded on the Fabric telemetry channel
 * (a = interrupt code, b = disposition, payload = sink id).
 */

#ifndef ULP_FABRIC_EVENT_FABRIC_HH
#define ULP_FABRIC_EVENT_FABRIC_HH

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/bus.hh"
#include "core/interrupt_bus.hh"
#include "core/power_controller.hh"
#include "core/probes.hh"
#include "fabric/event_port.hh"
#include "fabric/links.hh"
#include "power/energy_tracker.hh"
#include "sim/clock.hh"

namespace ulp::fabric {

/** Disposition codes on the Fabric telemetry channel (the b field). */
enum FabricTelemetry : std::uint8_t {
    fabricLinked = 0,    ///< event serviced over a link, EP never woke
    fabricSinkBusy = 1,  ///< sink peripheral busy — event dropped (§4.2.4)
    fabricFiltered = 2,  ///< below-threshold datum retired at the fabric
};

class EventFabric : public sim::SimObject, public EventSource
{
  public:
    /** Cycle costs of the microcoded sink actions (system clock). */
    struct Timing {
        sim::Cycles route = 1;           ///< CAM match + grant
        sim::Cycles read = 1;            ///< data-bus read
        sim::Cycles write = 1;           ///< data-bus write
        sim::Cycles switchOn = 1;        ///< power-controller request
        sim::Cycles switchOff = 1;
        sim::Cycles transferPerByte = 2; ///< read+write per moved byte
        sim::Cycles wake = 3;            ///< µC vector fetch + handoff
    };

    /** The sink actions' cycle costs. */
    static const Timing timing;

    EventFabric(sim::Simulation &simulation, const std::string &name,
                sim::SimObject *parent, core::InterruptBus &irq_bus,
                core::ProbeRecorder &probes, const sim::ClockDomain &clock);

    void visitStats(sim::stats::Visitor &v) const override;

    /** Late binding: bus and power controller exist after the slaves. */
    void bind(core::DataBus &bus, core::PowerController &power);

    /** µC wake path for Sink::McuWake (same hook the EP uses). */
    void setWakeMcu(std::function<void(std::uint16_t)> hook)
    {
        wakeMcu = std::move(hook);
    }

    /**
     * Load the link CAM. Fatal when two links route the same request
     * line (callers validate with file:line context first). The fabric
     * leaves the zero-power Gated state once any link is armed.
     * @param threshold comparator value for adc.threshold sources
     */
    void configure(const std::vector<Link> &links, std::uint8_t threshold);

    /** Retention loss (node death / deep sleep): the CAM is wiped. */
    void clearLinks();

    bool configured() const { return linkCount > 0; }

    // EventSource
    void raise(const Event &event) override;

    std::uint64_t linkedDelivered() const
    {
        return static_cast<std::uint64_t>(statLinked.value());
    }
    std::uint64_t sinkBusyDrops() const
    {
        return static_cast<std::uint64_t>(statSinkBusy.value());
    }
    std::uint64_t thresholdFiltered() const
    {
        return static_cast<std::uint64_t>(statFiltered.value());
    }

    double averagePowerWatts() const { return tracker.averagePowerWatts(); }
    double energyJoules() const { return tracker.energyJoules(); }
    double utilization() const { return tracker.utilization(); }
    const power::EnergyTracker &energyTracker() const { return tracker; }

  private:
    struct Route {
        Sink sink;
        Source source;
    };

    void deliver(const Event &event, const Route &route);

    /**
     * Account @p cycles of fabric activity plus @p extra_ticks of
     * power-switch ack latency folded into the active window.
     */
    void beActiveFor(sim::Cycles cycles, sim::Tick extra_ticks);
    void becomeIdle();

    void recordFabric(const Event &event, Sink sink, std::uint8_t kind);

    core::InterruptBus &irqBus;
    core::ProbeRecorder &probes;
    const sim::ClockDomain &clock;
    power::EnergyTracker tracker;

    core::DataBus *bus = nullptr;
    core::PowerController *power = nullptr;
    std::function<void(std::uint16_t)> wakeMcu;

    std::array<std::optional<Route>, core::numIrqCodes> routes;
    unsigned linkCount = 0;
    std::uint8_t threshold = 0;

    sim::Tick activeUntil = 0;
    sim::MemberEvent<&EventFabric::becomeIdle> idleEvent{this, "idle"};

    sim::TelemetrySink *obs = nullptr;
    std::uint32_t obsId = 0;

    sim::stats::Scalar statLinked;
    sim::stats::Scalar statSinkBusy;
    sim::stats::Scalar statFiltered;
};

// Defined outside the class: Timing's default member initializers
// cannot be used before the enclosing class is complete.
inline constexpr EventFabric::Timing EventFabric::timing{};

} // namespace ulp::fabric

#endif // ULP_FABRIC_EVENT_FABRIC_HH
