/**
 * @file
 * Assembler for event-processor ISR programs.
 *
 * Two-pass, line-oriented ( ';' comments). Directives:
 *
 *   .org ADDR           place subsequent code at ADDR
 *   .equ NAME, VALUE    define a symbol
 *   .isr IRQNAME, LABEL bind an interrupt code to an ISR entry point
 *                       (the node loader writes it into the lookup table)
 *
 * Instructions are the eight of Table 2; operands are expressions over
 * numeric literals, labels, and symbols, with + and -. The default symbol
 * set (epDefaultSymbols) names every component id and memory-mapped
 * register so that ISRs read like the paper's Figure 5.
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
 * Assemble @p source; extra symbols in @p extra shadow nothing and extend
 * the defaults. fatal() with a line number on any error, including a
 * duplicate .equ or label and an address operand wider than 16 bits.
 */
EpProgram
epAssemble(const std::string &source,
           const std::map<std::string, std::uint16_t> &extra = {});

} // namespace ulp::core

#endif // ULP_CORE_EP_ASSEMBLER_HH
