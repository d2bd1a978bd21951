/**
 * @file
 * Adapts the memory::Sram substrate to the system bus and to the power
 * control lines: the main memory is a bus slave like any accelerator, and
 * each 256 B bank is an independently gateable component (ids 8..15) so
 * ISRs can power down segments holding only temporary data (paper
 * §4.2.6).
 */

#ifndef ULP_CORE_MAIN_MEMORY_HH
#define ULP_CORE_MAIN_MEMORY_HH

#include <memory>
#include <vector>

#include "core/bus.hh"
#include "core/power_controller.hh"
#include "memory/sram.hh"

namespace ulp::core {

class MainMemory : public BusSlave
{
  public:
    explicit MainMemory(memory::Sram &sram) : sram(sram) {}

    map::Window addrRange() const override
    {
        return {map::sramBase, sram.sizeBytes()};
    }

    std::uint8_t busRead(map::Addr offset) override
    {
        return sram.read(offset);
    }

    void busWrite(map::Addr offset, std::uint8_t value) override
    {
        sram.write(offset, value);
    }

  private:
    memory::Sram &sram;
};

/** One memory bank on a power enable line. */
class MemBankPower : public PowerControllable
{
  public:
    MemBankPower(memory::Sram &sram, unsigned bank)
        : sram(sram), bank(bank)
    {}

    sim::Tick
    powerOn() override
    {
        sram.ungateBank(bank);
        return sram.wakeupTicks();
    }

    void powerOff() override { sram.gateBank(bank); }

    bool powered() const override { return !sram.bankGated(bank); }

  private:
    memory::Sram &sram;
    unsigned bank;
};

} // namespace ulp::core

#endif // ULP_CORE_MAIN_MEMORY_HH
