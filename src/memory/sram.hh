/**
 * @file
 * The node's unified instruction/data memory: a 2 KiB SRAM divided into
 * 256 B banks so unused segments can be Vdd-gated under ISR control
 * (paper §4.2.6, §5.2). Gated banks retain no state (the supply is cut);
 * reading one returns bus idle-high (0xFF) and is counted, modelling the
 * garbage a real chip would return if an ISR forgot to SWITCHON the
 * segment first.
 *
 * The Sram knows nothing about the system bus; core/MainMemory adapts it.
 */

#ifndef ULP_MEMORY_SRAM_HH
#define ULP_MEMORY_SRAM_HH

#include <cstdint>
#include <span>
#include <vector>

#include "memory/sram_power.hh"
#include "sim/sim_object.hh"

namespace ulp::memory {

class Sram : public sim::SimObject
{
  public:
    struct Config
    {
        std::uint32_t sizeBytes = 2048;
        std::uint32_t bankBytes = 256;
        /** Duration a bank stays active per access (one system cycle). */
        sim::Tick accessTicks = 10'000;
        SramPowerModel power{};
        bool intelligentPrecharge = false;
    };

    Sram(sim::Simulation &simulation, const std::string &name,
         const Config &config, sim::SimObject *parent = nullptr);

    void visitStats(sim::stats::Visitor &v) const override;

    /** Functional+power-accounted read at @p addr. */
    std::uint8_t read(std::uint16_t addr);

    /** Functional+power-accounted write at @p addr. */
    void write(std::uint16_t addr, std::uint8_t value);

    /** Debug read: no power accounting, works on gated banks. */
    std::uint8_t peek(std::uint16_t addr) const;

    /** Debug write: no power accounting, works on gated banks. */
    void poke(std::uint16_t addr, std::uint8_t value);

    /** Load an image (program/ISR table) starting at @p base. */
    void loadImage(std::uint16_t base, std::span<const std::uint8_t> bytes);

    /**
     * Fault injection: flip bit @p bit (0..7) of the byte at @p addr,
     * modelling a particle-strike soft error.
     * @return false when the bank is gated (no state to corrupt).
     */
    bool flipBit(std::uint16_t addr, unsigned bit);

    std::uint64_t bitFlips() const
    {
        return static_cast<std::uint64_t>(statBitFlips.value());
    }

    /** Cut the supply to a bank; its contents are lost. */
    void gateBank(unsigned bank);

    /** Restore the supply; the bank is usable after the wakeup latency. */
    void ungateBank(unsigned bank);

    /**
     * Mark a powered bank's wakeup window as already elapsed. Supply-ramp
     * boots use this: the brown-in supervisor releases reset milliseconds
     * after the rails settle, far beyond the 950 ns bank wakeup, so by
     * the time the node comes back the banks are ready.
     */
    void settleBank(unsigned bank);

    bool bankGated(unsigned bank) const;

    /** Tick at which an ungated bank becomes usable. */
    sim::Tick bankReadyAt(unsigned bank) const;

    /** True when the bank is powered and past its wakeup latency. */
    bool bankReady(unsigned bank) const;

    /** The bank wakeup latency in ticks (950 ns by default). */
    sim::Tick
    wakeupTicks() const
    {
        return sim::secondsToTicks(config.power.wakeupSeconds);
    }

    unsigned numBanks() const { return static_cast<unsigned>(banks.size()); }
    std::uint32_t sizeBytes() const { return config.sizeBytes; }
    std::uint32_t bankBytes() const { return config.bankBytes; }
    unsigned bankOf(std::uint16_t addr) const;

    /** Total energy (bank residencies + access energy + global overhead). */
    double energyJoules() const;

    /** energyJoules over elapsed time. */
    double averagePowerWatts() const;

    const Config &configuration() const { return config; }

  private:
    struct Bank
    {
        bool gated = false;
        sim::Tick readyAt = 0;
        /** Residency ticks, updated lazily like EnergyTracker. */
        sim::Tick gatedTicks = 0;
        sim::Tick poweredTicks = 0;
        sim::Tick stintStart = 0;
    };

    void closeStint(Bank &bank);
    std::uint8_t &cell(std::uint16_t addr);
    const std::uint8_t &cell(std::uint16_t addr) const;
    bool checkAccessible(unsigned bank);

    Config config;
    std::vector<std::uint8_t> data;
    std::vector<Bank> banks;
    sim::Tick epoch;
    /** Energy of one access on top of the bank's idle draw. */
    double joulesPerAccess;
    double accessJoules = 0.0;

    sim::stats::Scalar statReads;
    sim::stats::Scalar statWrites;
    sim::stats::Scalar statGatedAccesses;
    sim::stats::Scalar statNotReadyAccesses;
    sim::stats::Scalar statBankGatings;
    sim::stats::Scalar statBitFlips;
};

} // namespace ulp::memory

#endif // ULP_MEMORY_SRAM_HH
