/**
 * @file
 * The complete sensor node: the Figure 1 block diagram assembled. Masters
 * (event processor, microcontroller) and slaves (timers, filter, message
 * processor, radio, sensor/ADC, banked main memory) hang off the system
 * bus's data, interrupt, and power-control divisions. Several nodes may
 * share one Simulation and one net::Medium to form a network.
 */

#ifndef ULP_CORE_SENSOR_NODE_HH
#define ULP_CORE_SENSOR_NODE_HH

#include <memory>
#include <vector>

#include "core/bus.hh"
#include "core/compressor.hh"
#include "core/ep_assembler.hh"
#include "core/event_processor.hh"
#include "core/interrupt_bus.hh"
#include "core/main_memory.hh"
#include "core/message_processor.hh"
#include "core/microcontroller.hh"
#include "core/node_config.hh"
#include "core/power_controller.hh"
#include "core/probes.hh"
#include "core/radio_device.hh"
#include "core/sensor_adc.hh"
#include "core/threshold_filter.hh"
#include "core/timer_unit.hh"
#include "fabric/event_fabric.hh"
#include "mcu/assembler.hh"
#include "net/channel.hh"
#include "power/harvest.hh"

namespace ulp::core {

/** Per-component slice of a node power report (Figure 6 rows). */
struct ComponentPower
{
    std::string component;
    double averageWatts;
    double utilization;
    double energyJoules;
};

class SensorNode : public sim::SimObject
{
  public:
    SensorNode(sim::Simulation &simulation, const std::string &name,
               const NodeConfig &config, net::Medium *channel = nullptr);

    /** Every component's statistics, in construction order. */
    void visitStats(sim::stats::Visitor &v) const override;

    // --- program loading -------------------------------------------------
    /** Load EP ISR code and bind its .isr entries in the lookup table. */
    void loadEpProgram(const EpProgram &program);

    /** Load a uC image (code + .word tables) into main memory. */
    void loadMcuProgram(const mcu::Image &image);

    /** Point uC wakeup vector @p index at @p handler. */
    void setMcuVector(std::uint8_t index, std::uint16_t handler);

    /** Bind one EP ISR table entry directly. */
    void setEpIsr(Irq irq, std::uint16_t handler);

    /** Run the uC initialization entry point (system reset). */
    void boot(std::uint16_t init_entry);

    // --- component access -------------------------------------------------
    EventProcessor &ep() { return *eventProcessor; }
    Microcontroller &micro() { return *microcontroller; }
    TimerUnit &timers() { return *timerUnit; }
    ThresholdFilter &filter() { return *thresholdFilter; }
    MessageProcessor &msgProc() { return *messageProcessor; }
    Compressor &compressor() { return *compressorDev; }
    RadioDevice &radio() { return *radioDevice; }
    SensorAdc &sensor() { return *sensorAdc; }
    memory::Sram &memory() { return *sram; }
    DataBus &dataBus() { return *bus; }
    InterruptBus &irqBus() { return *interruptBus; }
    fabric::EventFabric &fabric() { return *eventFabric; }
    PowerController &powerCtrl() { return *powerController; }
    ProbeRecorder &probes() { return *probeRecorder; }

    const NodeConfig &config() const { return cfg; }
    const sim::ClockDomain &clock() const { return clockDomain; }

    /** Convert a tick delta to system clock cycles. */
    sim::Cycles
    cyclesBetween(sim::Tick from, sim::Tick to) const
    {
        return clockDomain.ticksToCycles(to - from);
    }

    // --- lifecycle (survivable mesh) --------------------------------------
    /** Is the node's supply up? Dead nodes neither transmit nor hear. */
    bool alive() const { return _alive; }

    /**
     * Full supply loss (scheduled failure, fault plan, or an emptied
     * battery): force both masters idle, drop every pending interrupt,
     * gate every slave and memory bank, and leave the medium. Unlike
     * ordinary power gating even the always-on retention latches lose
     * state, so the duplicate and routing CAMs are wiped. A frame this
     * node already put on the air completes (the medium owns in-flight
     * state; see RadioDevice::detachFromMedium); a MAC transaction still
     * in backoff dies with the node.
     */
    void supplyDown();

    /**
     * Supply restored: power every component back up (the cold-boot
     * state) and rejoin the medium. The owner still has to re-bind the
     * radio on spatial media, reinstall the application image, and boot —
     * SRAM contents did not survive the outage.
     */
    void supplyUp();

    /**
     * The node's harvesting battery, or null when the config declares
     * none (NodeConfig::Battery::capacityJoules == 0). When present, an
     * emptied store calls supplyDown(); once harvest refills it to
     * reviveLevel the revive hook runs (or plain supplyUp() without one).
     */
    power::HarvestingSupply *supply() { return harvestSupply.get(); }

    /** Installed by the owner (Network): full revive = supplyUp +
     *  re-bind + app reinstall + boot. */
    void setReviveHook(std::function<void()> hook)
    {
        reviveHook = std::move(hook);
    }

    // --- sleep policies (driven by sleep::SleepController) -----------------
    /**
     * Light sleep: retention sleep. Timers freeze (configuration
     * retained), the sensing chain (sensor, filter, compressor) is
     * power-gated; the radio, message processor, masters and SRAM stay
     * powered so an incoming frame wakes the node and is handled
     * immediately (RadioDevice::setRxWakeHook). No-op when already
     * sleeping or dead.
     */
    void lightSleepEnter();

    /** Leave light sleep: re-power the sensing chain, thaw the timers.
     *  No-op when not in light sleep. */
    void lightSleepExit();

    bool inLightSleep() const { return _lightSleep; }

    /**
     * Deep sleep: everything supplyDown() takes down — banks gated,
     * radio off the medium, CAM and SRAM contents lost — but deliberate:
     * no NodeDown probe, and the wake path (deepSleepWake) latches
     * mcu::ResetReason::DeepSleepTimer so boot firmware can tell a
     * scheduled wake from a power-on or watchdog reset. The owner
     * (Network::wakeNodeFromDeepSleep) re-installs the app on wake.
     */
    void deepSleepEnter();

    /** Supply back up after deep sleep; the caller re-binds the radio,
     *  reinstalls the application image, and re-preloads routes. */
    void deepSleepWake();

    bool inDeepSleep() const { return _deepSleep; }

    /** Aggregate energy drawn by every component so far (the ledger the
     *  battery integrates). */
    double totalEnergyJoules() const;

    /** Battery reserve in [0, 1]; 1.0 for nodes without a battery. */
    double reserveFraction() const;

    // --- power reporting (Figure 6) ---------------------------------------
    /** Per-component average power over the run so far. */
    std::vector<ComponentPower> powerReport() const;

    /** Whole-node average power (paper scope: EP + timers + msgproc +
     *  filter + memory + uC; radio/sensor excluded unless modelled). */
    double totalAverageWatts() const;

  private:
    void powerDownInternal();
    void powerUpInternal();

    NodeConfig cfg;
    sim::ClockDomain clockDomain;

    std::unique_ptr<ProbeRecorder> probeRecorder;
    std::unique_ptr<DataBus> bus;
    std::unique_ptr<InterruptBus> interruptBus;
    std::unique_ptr<fabric::EventFabric> eventFabric;
    std::unique_ptr<PowerController> powerController;

    std::unique_ptr<memory::Sram> sram;
    std::unique_ptr<MainMemory> mainMemory;
    /** By value (reserved up front; addresses registered with the power
     *  controller stay stable): one less allocation per bank per node. */
    std::vector<MemBankPower> bankPower;

    std::unique_ptr<TimerUnit> timerUnit;
    std::unique_ptr<ThresholdFilter> thresholdFilter;
    std::unique_ptr<MessageProcessor> messageProcessor;
    std::unique_ptr<Compressor> compressorDev;
    std::unique_ptr<RadioDevice> radioDevice;
    std::unique_ptr<SensorAdc> sensorAdc;

    std::unique_ptr<EventProcessor> eventProcessor;
    std::unique_ptr<Microcontroller> microcontroller;

    std::unique_ptr<power::HarvestingSupply> harvestSupply;
    double supplyLastEnergy = 0.0;
    bool _alive = true;
    bool _lightSleep = false;
    bool _deepSleep = false;
    std::function<void()> reviveHook;
};

} // namespace ulp::core

#endif // ULP_CORE_SENSOR_NODE_HH
