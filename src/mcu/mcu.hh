/**
 * @file
 * Non-pipelined 8-bit CPU core executing the U8 ISA.
 *
 * The core is event-driven on the shared simulation queue: after each
 * instruction it schedules its next execution at the clock edge the
 * instruction's cycle cost lands on, and while sleeping or halted it keeps
 * no events in the queue at all. Two deployments share this model:
 *
 *  - the node's microcontroller (paper §4.3.2): fetches byte-serially
 *    over the system bus (fetchCostPerByte = 1), is powered down between
 *    irregular events, and is woken by the event processor's WAKEUP at a
 *    vectored ISR address;
 *  - the Mica2 baseline's ATmega128-class CPU: Harvard-style prefetched
 *    fetch (fetchCostPerByte = 0), runs continuously with peripheral
 *    interrupts.
 */

#ifndef ULP_MCU_MCU_HH
#define ULP_MCU_MCU_HH

#include <array>
#include <cstdint>
#include <functional>
#include <set>

#include "mcu/isa.hh"
#include "sim/clock.hh"
#include "sim/sim_object.hh"

namespace ulp::mcu {

/** Memory-system interface the core fetches and loads/stores through. */
class McuBus
{
  public:
    virtual ~McuBus() = default;
    virtual std::uint8_t read(std::uint16_t addr) = 0;
    virtual void write(std::uint16_t addr, std::uint8_t value) = 0;
};

class Mcu : public sim::SimObject
{
  public:
    struct Config
    {
        double clockHz = 7'372'800.0; ///< Mica2's ATmega128 clock
        /** Extra cycles per instruction byte for byte-serial fetch. */
        unsigned fetchCostPerByte = 0;
        /** Base of the interrupt vector table (2 B big-endian entries). */
        std::uint16_t vectorBase = 0x0000;
    };

    /** Invoked by the MARK instruction: (mark id, cycles so far). */
    using MarkCallback =
        std::function<void(std::uint8_t, std::uint64_t)>;

    Mcu(sim::Simulation &simulation, const std::string &name, McuBus &bus,
        const Config &config, sim::SimObject *parent = nullptr);

    void visitStats(sim::stats::Visitor &v) const override;

    /** Reset architectural state and set the PC; does not start. */
    void reset(std::uint16_t pc);

    /** Begin executing at the next clock edge. */
    void start();

    /** Stop executing (leaves architectural state intact). */
    void stopClock();

    /**
     * Wake a sleeping core directly at @p handler (the node uC's WAKEUP
     * path; no stack activity — the EP supplies the continuation).
     */
    void wakeAt(std::uint16_t handler);

    /**
     * Latch interrupt @p vector (0..31). Taken when interrupts are
     * enabled; lowest vector wins. Wakes a sleeping core.
     */
    void raiseIrq(std::uint8_t vector);

    /** Execute one instruction synchronously. @return cycles consumed. */
    unsigned step();

    // --- architectural state access (tests, loaders) ---
    std::uint8_t reg(unsigned idx) const { return regs.at(idx); }
    std::uint16_t pairValue(unsigned pair) const;
    void setPair(unsigned pair, std::uint16_t v);
    std::uint16_t pc() const { return _pc; }
    std::uint16_t sp() const { return _sp; }
    void setSp(std::uint16_t sp) { _sp = sp; }
    bool flagZ() const { return fZ; }
    bool flagN() const { return fN; }
    bool flagC() const { return fC; }
    bool interruptsEnabled() const { return gie; }

    bool sleeping() const { return _sleeping; }
    bool halted() const { return _halted; }
    bool running() const { return tickEvent.scheduled(); }

    std::uint64_t cycles() const { return _cycles; }
    std::uint64_t instructions() const
    {
        return static_cast<std::uint64_t>(statInstructions.value());
    }

    const sim::ClockDomain &clock() const { return clockDomain; }

    void onSleep(std::function<void()> cb) { sleepCb = std::move(cb); }
    void onHalt(std::function<void()> cb) { haltCb = std::move(cb); }
    void setMarkCallback(MarkCallback cb) { markCb = std::move(cb); }

  private:
    void tick();
    void enterIrq(std::uint8_t vector);
    void scheduleNext(unsigned cycles_consumed);
    void push(std::uint8_t v);
    std::uint8_t pop();
    void setZN(std::uint8_t v);

    McuBus &bus;
    Config config;
    sim::ClockDomain clockDomain;

    std::array<std::uint8_t, 16> regs{};
    std::uint16_t _pc = 0;
    std::uint16_t _sp = 0;
    bool fZ = false, fN = false, fC = false;
    bool gie = false;
    bool _sleeping = false;
    bool _halted = false;
    std::uint64_t _cycles = 0;
    std::set<std::uint8_t> pendingIrqs;

    std::function<void()> sleepCb;
    std::function<void()> haltCb;
    MarkCallback markCb;

    sim::MemberEvent<&Mcu::tick> tickEvent{this, "tick"};

    sim::stats::Scalar statInstructions;
    sim::stats::Scalar statIrqsTaken;
    sim::stats::Scalar statSleeps;
    sim::stats::Scalar statBadOpcodes;
};

} // namespace ulp::mcu

#endif // ULP_MCU_MCU_HH
