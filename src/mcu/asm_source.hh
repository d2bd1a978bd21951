/**
 * @file
 * The assembly front end the µC assembler (mcu/assembler.hh) and the
 * event-processor assembler (core/ep_assembler.hh) share. It splits the
 * source into statements, owns the symbol table and the one expression
 * evaluator, and runs the label, .equ and .org parts of both passes; each
 * assembler is a back end that sizes and encodes its own instructions and
 * directives.
 *
 * Syntax (one statement per line; ';' starts a comment):
 *
 *   label:                define a label at the location counter
 *   .org  ADDR            set the location counter
 *   .equ  NAME, VALUE     define a symbol
 *   MNEMONIC operands     an instruction or a back end's directive
 *
 * A label is a leading identifier (letters, digits, '_') followed by ':'.
 * Mnemonics and directives are case-insensitive. Operands are split on
 * commas outside parentheses. An expression is a sum of terms joined by
 * + and -; a term is a decimal or 0x literal of at most 32 bits, a 'c'
 * character, a symbol, lo(EXPR) or hi(EXPR) (bits 0-7 or 8-15 of EXPR),
 * or (EXPR).
 *
 * Symbol rules:
 *  - a label or .equ name is defined once, and never takes the name of a
 *    predefined symbol;
 *  - a .org operand, and any length a back end reports, may not read a
 *    symbol defined further down (pass 1 would read it as 0 and misplace
 *    every later label), nor an .equ that does;
 *  - the location counter stays within 64 KiB;
 *  - pass 2 re-evaluates each .equ with the whole table, so an .equ may
 *    read a later label; but nothing may read such an .equ above its
 *    line, where it still holds pass 1's guess.
 *
 * Every diagnostic is a sim::FatalError "<what> line N: message".
 */

#ifndef ULP_MCU_ASM_SOURCE_HH
#define ULP_MCU_ASM_SOURCE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ulp::mcu {

class AsmSource
{
  public:
    using Symbols = std::map<std::string, std::uint16_t>;

    /** One statement: an optional label, then a mnemonic or directive
     *  with its operands. */
    struct Statement
    {
        int line = 0;
        std::string label;
        std::string mnemonic; ///< empty for a bare label
        std::vector<std::string> operands;

        /** Is the mnemonic @p name, in any case? */
        bool is(std::string_view name) const;
    };

    /**
     * Split @p text into statements. @p what starts every diagnostic.
     * @p predefined symbols are visible from the first line. @p params
     * name .equ symbols that only the back end reads (see param()): an
     * expression that reads one, or a label that takes its name, is fatal.
     */
    AsmSource(std::string what, const std::string &text,
              const Symbols &predefined,
              std::vector<std::string> params = {});

    using Length = std::function<std::uint32_t(const Statement &)>;
    using Emit = std::function<void(const Statement &)>;

    /**
     * Run both passes. Pass 1 places labels from @p origin: .org sets the
     * location counter and every other statement with a mnemonic, except
     * .equ, advances it by @p length. Pass 2 calls @p emit for each of
     * those statements, .org included, in source order.
     */
    void assemble(std::uint32_t origin, const Length &length,
                  const Emit &emit);

    /** The value of @p expr. In pass 1 a symbol not yet defined reads as
     *  0; in pass 2 it is fatal. */
    std::uint32_t value(const std::string &expr) const;

    /** value(), fatal unless it fits in a byte. */
    std::uint8_t byte(const std::string &expr) const;

    /** value(), fatal unless it fits in a word. */
    std::uint16_t word(const std::string &expr) const;

    /** The index of @p name among the parameters, or -1. */
    int param(const std::string &name) const;

    /** The value of symbol @p name, from the source or predefined. As in
     *  value(), pass 2 may not read an .equ above its line while that
     *  .equ still holds pass 1's guess for a later symbol. */
    std::optional<std::uint32_t> lookup(const std::string &name) const;

    /** Throw "<what> line N: @p message" for the current statement. */
    [[noreturn]] void fail(const std::string &message) const;

    /** The source's labels and .equ symbols that fit in 16 bits. */
    Symbols symbols() const;

  private:
    struct Symbol
    {
        std::uint32_t value = 0;
        /** Pass 1 read a symbol defined later, and pass 2 has not yet
         *  re-evaluated it. */
        bool provisional = false;
    };

    std::uint32_t term(const std::string &s) const;
    std::uint32_t literal(const std::string &s) const;
    /** Fatal unless @p name may be defined here. */
    void checkNew(const std::string &name, bool label) const;

    const std::string what;
    const Symbols &predefined;
    const std::vector<std::string> params;
    std::vector<Statement> statements;
    std::map<std::string, Symbol> table;
    int line = 0;
    bool final = false; ///< pass 2: every symbol must be defined
    /** Pass 1: the first symbol the current statement read that is not
     *  yet defined, or provisional; empty when its value is final. */
    mutable std::string forward;
};

} // namespace ulp::mcu

#endif // ULP_MCU_ASM_SOURCE_HH
