/**
 * @file
 * Two-pass assembler for the U8 ISA.
 *
 * Syntax (one statement per line; ';' starts a comment):
 *
 *   .org  ADDR            set the location counter
 *   .equ  NAME, VALUE     define a symbol
 *   .byte V1, V2, ...     emit raw bytes
 *   .word V1, V2, ...     emit 16-bit big-endian words
 *   .space N              emit N zero bytes
 *   label:                define a label at the location counter
 *   MNEMONIC operands     one instruction
 *
 * Operands: r0..r15 (registers), p0..p7 (pointer pairs), numeric literals
 * (decimal, 0x hex, 'c' character), symbols/labels, and lo(EXPR)/hi(EXPR)
 * byte selectors. Simple EXPR+EXPR / EXPR-EXPR arithmetic is supported.
 *
 * The paper's applications were "mapped to the simulator by hand" in
 * assembly for both the event processor and the microcontroller (§6.1.1);
 * this assembler plays the role their toolchain did for the uC side, and
 * doubles as the baseline's "TinyOS" build tool.
 */

#ifndef ULP_MCU_ASSEMBLER_HH
#define ULP_MCU_ASSEMBLER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mcu/isa.hh"

namespace ulp::mcu {

/** A contiguous chunk of assembled bytes. */
struct ImageChunk
{
    std::uint16_t base = 0;
    std::vector<std::uint8_t> bytes;

    bool operator==(const ImageChunk &) const = default;
};

/** Assembler output: chunks plus the resolved symbol table. */
struct Image
{
    std::vector<ImageChunk> chunks;
    std::map<std::string, std::uint16_t> symbols;

    /** Total bytes across chunks (the program's memory footprint). */
    std::size_t sizeBytes() const;

    /** Symbol lookup; fatal() when missing. */
    std::uint16_t symbol(const std::string &name) const;

    /** True when the image defines @p name. */
    bool hasSymbol(const std::string &name) const;

    bool operator==(const Image &) const = default;
};

/**
 * Assemble @p source. Errors (unknown mnemonics, bad operands, duplicate
 * or undefined symbols, range overflows, .org/.space operands that
 * depend on a symbol defined further down) raise fatal() with the line
 * number.
 *
 * @param predefined symbols visible to the source before any .equ, used
 *        to inject platform memory maps.
 */
Image assemble(const std::string &source,
               const std::map<std::string, std::uint16_t> &predefined = {});

/** One image byte that holds a parameter symbol's value. */
struct ParamSite
{
    std::uint32_t chunk = 0;  ///< index into Image::chunks
    std::uint32_t offset = 0; ///< byte offset within that chunk
    std::uint32_t param = 0;  ///< index into the parameter list

    bool operator==(const ParamSite &) const = default;
};

/** An image plus the bytes its parameter symbols landed in. */
struct ParamImage
{
    Image image;
    std::vector<ParamSite> sites;
};

/**
 * Assemble @p source with @p params as parameter symbols: .equ constants
 * whose values differ between the users of one image. A parameter may
 * appear only as a bare byte operand (an 8-bit instruction immediate or
 * a .byte item that is exactly its name); every such byte is listed in
 * the result, so writing other values over those bytes (and over the
 * parameters' symbol entries) gives exactly the image the source
 * assembles to with those values. Any other use (inside an expression,
 * as a word operand, in .org, .space or another .equ, or as a label) is
 * fatal with the line number.
 */
ParamImage
assembleWithParams(const std::string &source,
                   const std::map<std::string, std::uint16_t> &predefined,
                   const std::vector<std::string> &params);

/** Disassemble one instruction at @p bytes; for debugging and tests. */
std::string disassemble(const std::uint8_t *bytes, std::size_t available);

} // namespace ulp::mcu

#endif // ULP_MCU_ASSEMBLER_HH
