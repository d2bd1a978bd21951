/**
 * @file
 * Assembler for event-processor ISR programs: a back end of the shared
 * front end (mcu/asm_source.hh, which describes the syntax, expressions
 * and .org/.equ/label rules). Its own parts:
 *
 *   .isr IRQNAME, LABEL bind an interrupt code to an ISR entry point
 *                       (the node loader writes it into the lookup table)
 *
 * Instructions are the eight of Table 2. Addresses are 16-bit words;
 * component ids, WRITEI immediates and TRANSFER lengths fit the 5-bit
 * operand field, WAKEUP vectors 0..7. Code starts at map::epIsrBase
 * unless one .org, above the first instruction, places it (a program
 * has at most one). The default
 * symbol set (epDefaultSymbols) names every component id and
 * memory-mapped register so that ISRs read like the paper's Figure 5.
 */

#ifndef ULP_CORE_EP_ASSEMBLER_HH
#define ULP_CORE_EP_ASSEMBLER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/ep_isa.hh"
#include "core/interrupts.hh"

namespace ulp::core {

struct EpProgram
{
    std::uint16_t base = 0;
    std::vector<std::uint8_t> code;
    std::map<std::string, std::uint16_t> symbols;
    std::map<Irq, std::uint16_t> isrBindings;

    std::uint16_t symbol(const std::string &name) const;

    bool operator==(const EpProgram &) const = default;
};

/** Component ids, memory-mapped registers, and common constants. */
const std::map<std::string, std::uint16_t> &epDefaultSymbols();

/**
 * Assemble @p source against epDefaultSymbols(). fatal() with the line
 * number on any error (mcu/asm_source.hh lists the rules every source
 * obeys), including an operand that does not fit its field, a second
 * .org and an .org below an instruction.
 */
EpProgram epAssemble(const std::string &source);

} // namespace ulp::core

#endif // ULP_CORE_EP_ASSEMBLER_HH
