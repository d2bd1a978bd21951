/**
 * @file
 * The Mica2 baseline platform: an ATmega128-class 8-bit CPU (7.3728 MHz,
 * Harvard-style prefetched fetch) with RAM, a prescaled hardware timer,
 * an ADC, LEDs, and a packet radio, running the MiniOS event-driven
 * runtime (src/baseline/minios.hh). This is the commodity-platform
 * counterpart the paper compares against via Atemu + TinyOS.
 *
 * MARK instructions in the runtime report segment boundaries; the
 * platform records per-mark cycle counts so benches can compute the
 * Table 4 code-segment measurements exactly as an instruction-level
 * simulator would.
 */

#ifndef ULP_BASELINE_MICA2_PLATFORM_HH
#define ULP_BASELINE_MICA2_PLATFORM_HH

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "baseline/mica2_map.hh"
#include "baseline/mica2_power.hh"
#include "mcu/assembler.hh"
#include "mcu/mcu.hh"
#include "net/channel.hh"
#include "power/energy_tracker.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"

namespace ulp::baseline {

class Mica2Platform : public sim::SimObject,
                      public mcu::McuBus,
                      public net::Transceiver
{
  public:
    struct Config
    {
        double clockHz = 7'372'800.0; ///< ATmega128 on the Mica2
        std::uint16_t address = 0x0001;
        std::uint16_t pan = 0x0022;
        /** ADC conversion latency in CPU cycles (polled by software). */
        unsigned adcLatencyCycles = 56;
        std::function<std::uint8_t(sim::Tick)> sensorSignal;
        double sensorNoiseStddev = 0.0;
        std::uint64_t seed = 1;
    };

    Mica2Platform(sim::Simulation &simulation, const std::string &name,
                  const Config &config, net::Channel *channel = nullptr);
    ~Mica2Platform() override;

    void visitStats(sim::stats::Visitor &v) const override;

    // mcu::McuBus
    std::uint8_t read(std::uint16_t addr) override;
    void write(std::uint16_t addr, std::uint8_t value) override;

    // net::Transceiver
    void frameArrived(const net::Frame &frame, bool corrupted) override;

    /** Load a MiniOS/application image into RAM. */
    void loadProgram(const mcu::Image &image);

    /** Reset the CPU at @p entry and start executing. */
    void start(std::uint16_t entry);

    mcu::Mcu &cpu() { return core; }
    const Config &configuration() const { return cfg; }

    /** Deliver a frame as if received over the air. */
    void injectFrame(const net::Frame &frame);

    const net::Frame &lastTxFrame() const { return lastTx; }
    std::uint64_t framesSent() const
    {
        return static_cast<std::uint64_t>(statTx.value());
    }
    std::uint64_t framesReceived() const
    {
        return static_cast<std::uint64_t>(statRx.value());
    }
    std::uint8_t ledValue() const { return ledReg; }

    /** Cycle counts recorded at each MARK id, in order of occurrence. */
    const std::vector<std::uint64_t> &markCycles(std::uint8_t id) const;

    /** Cycles between the n-th occurrences of two marks. */
    std::uint64_t cyclesBetweenMarks(std::uint8_t start, std::uint8_t end,
                                     std::size_t occurrence = 0) const;

    /** CPU average power from Table 1 (active vs power-save residency). */
    double cpuAveragePowerWatts() const
    {
        return cpuTracker.averagePowerWatts();
    }
    double cpuUtilization() const { return cpuTracker.utilization(); }
    double radioAveragePowerWatts() const
    {
        return radioTracker.averagePowerWatts();
    }

  private:
    void timerFire();
    void adcDone();
    void txDone();
    std::uint8_t ram(std::uint16_t addr) const;

    Config cfg;
    net::Channel *channel;

    std::vector<std::uint8_t> ramBytes;
    mcu::Mcu core;
    sim::Random random;

    // Timer peripheral.
    std::uint16_t timerLoad = 0;
    std::uint8_t timerCtrlReg = 0;
    sim::MemberEvent<&Mica2Platform::timerFire> timerEvent{this, "timer"};

    // ADC peripheral.
    bool adcBusy = false;
    bool adcDoneFlag = false;
    std::uint8_t adcValue = 0;
    sim::MemberEvent<&Mica2Platform::adcDone> adcEvent{this, "adc"};

    // Radio peripheral.
    bool txBusy = false;
    bool rxEnabled = false;
    bool rxReady = false;
    std::uint8_t txLen = 0, rxLen = 0;
    std::array<std::uint8_t, 32> txBuf{}, rxBuf{};
    net::Frame lastTx;
    sim::MemberEvent<&Mica2Platform::txDone> txDoneEvent{this, "txDone"};

    std::uint8_t ledReg = 0;

    std::map<std::uint8_t, std::vector<std::uint64_t>> marks;

    power::EnergyTracker cpuTracker;
    power::EnergyTracker radioTracker;

    sim::stats::Scalar statTx;
    sim::stats::Scalar statRx;
    sim::stats::Scalar statTimerFires;
    sim::stats::Scalar statMissed;
};

} // namespace ulp::baseline

#endif // ULP_BASELINE_MICA2_PLATFORM_HH
