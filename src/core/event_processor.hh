/**
 * @file
 * The event processor (paper §4.3.3): a programmable state machine that
 * performs the repetitive work of interrupt handling while the
 * microcontroller stays powered down — an "intelligent DMA controller".
 *
 * State machine (Figure 2): the EP idles in READY until the interrupt bus
 * has work; if the data bus is available it LOOKUPs the ISR address in
 * the in-memory table, then alternates FETCH (one cycle per instruction
 * word over the byte-serial bus) and EXECUTE until a TERMINATE or WAKEUP
 * instruction returns it to READY. When the bus is held by an awake
 * microcontroller the EP parks in WAIT_BUS.
 *
 * The model is event-driven: each state transition schedules the next one
 * at its cycle cost; in READY with nothing pending the EP keeps no events
 * in the queue (its tracker sits at the 18 nW idle figure of Table 5).
 */

#ifndef ULP_CORE_EVENT_PROCESSOR_HH
#define ULP_CORE_EVENT_PROCESSOR_HH

#include <functional>

#include "core/bus.hh"
#include "core/ep_isa.hh"
#include "core/interrupt_bus.hh"
#include "core/power_controller.hh"
#include "core/probes.hh"
#include "fabric/event_port.hh"
#include "power/energy_tracker.hh"
#include "sim/clock.hh"

namespace ulp::core {

class EventProcessor : public sim::SimObject, public fabric::EventSink
{
  public:
    enum class State { Ready, WaitBus, Lookup, Fetch, Execute };

    /** Cycle costs of the EP microarchitecture, calibrated against
     *  Table 4 (see DESIGN.md, "Calibration targets"). */
    struct Timing
    {
        sim::Cycles lookup = 3;        ///< 2 table bytes + dispatch
        sim::Cycles fetchPerWord = 1;
        sim::Cycles read = 1;          ///< one data-bus transaction
        sim::Cycles write = 1;
        sim::Cycles writei = 1;
        sim::Cycles switchOn = 1;      ///< plus the component's wakeup ack
        sim::Cycles switchOff = 1;
        sim::Cycles terminate = 1;
        sim::Cycles wakeup = 3;        ///< 2 vector bytes + handoff
        sim::Cycles transferPerByte = 2; ///< one read + one write per byte
    };

    /** The EP's calibrated cycle costs. */
    static const Timing timing;

    EventProcessor(sim::Simulation &simulation, const std::string &name,
                   sim::SimObject *parent, DataBus &bus,
                   InterruptBus &irq_bus, PowerController &power_ctrl,
                   ProbeRecorder &probes, const sim::ClockDomain &clock);

    void visitStats(sim::stats::Visitor &v) const override;

    /**
     * The node installs this: wake the microcontroller at a handler
     * address (the EP has already read the vector table).
     */
    void setWakeMcu(std::function<void(std::uint16_t)> fn)
    {
        wakeMcu = std::move(fn);
    }

    /** The microcontroller wrapper calls this when it releases the bus. */
    void busReleased();

    /** fabric::EventSink — the interrupt bus pokes us on accepted posts. */
    void eventPosted() override { wakeup(); }

    /**
     * Full supply loss (node death): abort whatever the FSM is doing and
     * park in READY with no scheduled events. Unlike the normal path no
     * probes fire — the node is losing power, not finishing an ISR.
     */
    void forceIdle();

    State state() const { return _state; }
    std::uint8_t dataRegister() const { return reg; }

    std::uint64_t isrsExecuted() const
    {
        return static_cast<std::uint64_t>(statIsrs.value());
    }
    std::uint64_t instructionsExecuted() const
    {
        return static_cast<std::uint64_t>(statInstructions.value());
    }
    sim::Cycles busyCycles() const
    {
        return static_cast<sim::Cycles>(statBusyCycles.value());
    }

    const power::EnergyTracker &energyTracker() const { return tracker; }
    double averagePowerWatts() const
    {
        return tracker.averagePowerWatts();
    }
    double utilization() const { return tracker.utilization(); }

  private:
    void wakeup();            ///< new-work check behind eventPosted()
    void advance();           ///< one state-machine step
    void consume(sim::Cycles cycles, sim::Tick extra_ticks = 0);
    void enterReady();
    void beginService();
    sim::Cycles executeCurrent();

    /** Transition the FSM, recording the edge on the telemetry sink. */
    void setFsmState(State next);

    DataBus &bus;
    InterruptBus &irqBus;
    PowerController &powerCtrl;
    ProbeRecorder &probes;
    const sim::ClockDomain &clock;
    std::function<void(std::uint16_t)> wakeMcu;

    State _state = State::Ready;
    std::uint8_t reg = 0;       ///< the single temporary data register
    std::uint16_t pc = 0;
    EpInstruction current;
    Irq servicing = Irq::None;
    bool wakeupPending = false; ///< WAKEUP executed; hand off in advance()
    std::uint16_t wakeupHandler = 0;

    power::EnergyTracker tracker;
    sim::MemberEvent<&EventProcessor::advance> advanceEvent{this, "advance"};

    sim::TelemetrySink *obs = nullptr;
    std::uint32_t obsId = 0;

    sim::stats::Scalar statIsrs;
    sim::stats::Scalar statInstructions;
    sim::stats::Scalar statBusyCycles;
    sim::stats::Scalar statBusWaits;
    sim::stats::Scalar statWakeups;
};

// Defined outside the class: Timing's default member initializers
// cannot be used before the enclosing class is complete.
inline constexpr EventProcessor::Timing EventProcessor::timing{};

} // namespace ulp::core

#endif // ULP_CORE_EVENT_PROCESSOR_HH
