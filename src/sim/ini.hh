/**
 * @file
 * The one reader of the INI dialect that scenario and campaign files
 * share, its number parsers, and the whole-file reader every text
 * format loads through.
 *
 * The dialect: '#' and ';' start a comment that runs to the end of the
 * line; blank lines are skipped; `[name]` opens a section; every other
 * line is `key = value` inside a section. Keys and values are trimmed,
 * and neither may be empty. Every diagnostic is a sim::FatalError
 * "file:line: message" raised through a Cursor.
 */

#ifndef ULP_SIM_INI_HH
#define ULP_SIM_INI_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace ulp::sim {

/** The bytes of the file at @p path; fatal "cannot open <what> '<path>'"
 *  when it cannot be read. */
std::string readFile(const std::string &path, const std::string &what);

namespace ini {

/** Where a diagnostic points: a file (or other label) and a line. */
struct Cursor
{
    std::string file;
    unsigned line = 0; ///< 0 = no line (command-line and override keys)

    /** Throw sim::FatalError "file:line: message", or "file: message"
     *  at line 0. */
    [[noreturn]] void fail(const std::string &message) const;
};

/** @p s without leading and trailing spaces, tabs and CRs. */
std::string trim(std::string_view s);

/** The comma-separated items of @p list, each trimmed. A trailing comma
 *  adds no item; an empty item in between is returned empty. */
std::vector<std::string> split(const std::string &list);

/**
 * @p value of @p key as an unsigned integer up to @p max: decimal, or
 * hexadecimal after `0x` or `0X`. A leading zero is still decimal.
 */
std::uint64_t parseUnsigned(const Cursor &at, const std::string &key,
                            const std::string &value, std::uint64_t max);

/** @p value of @p key as a finite number. */
double parseDouble(const Cursor &at, const std::string &key,
                   const std::string &value);

/**
 * Read INI @p text: call @p section with the trimmed name of every
 * `[name]` header and @p entry with every `key = value` line. at.line
 * follows the line being read, so the callbacks report through @p at.
 * An unterminated header, a line without '=', an empty key or value, or
 * a key before the first header is fatal.
 */
void read(const std::string &text, Cursor &at,
          const std::function<void(const std::string &name)> &section,
          const std::function<void(const std::string &key,
                                   const std::string &value)> &entry);

} // namespace ini

} // namespace ulp::sim

#endif // ULP_SIM_INI_HH
