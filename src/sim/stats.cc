#include "sim/stats.hh"

#include <charconv>

namespace ulp::sim::stats {

void
Printer::group(std::string_view prefix)
{
    line.assign(prefix);
    if (!prefix.empty())
        line.push_back('.');
    prefixLen = line.size();
}

void
Printer::scalar(const Scalar &stat, std::string_view name,
                std::string_view desc)
{
    // The layout of `os << left << setw(44) << name << " " << right
    // << setw(16) << value`: a stream's default float format is printf's
    // %.6g, which is what to_chars' general format with precision 6 is.
    constexpr std::size_t nameWidth = 44, valueWidth = 16;
    char value[32];
    const char *end = std::to_chars(value, value + sizeof value,
                                    stat.value(),
                                    std::chars_format::general, 6).ptr;
    const auto valueLen = static_cast<std::size_t>(end - value);

    line.resize(prefixLen);
    line.append(name);
    if (line.size() < nameWidth)
        line.append(nameWidth - line.size(), ' ');
    line.push_back(' ');
    if (valueLen < valueWidth)
        line.append(valueWidth - valueLen, ' ');
    line.append(value, valueLen).append("  # ").append(desc);
    line.push_back('\n');
    os.write(line.data(), static_cast<std::streamsize>(line.size()));
}

} // namespace ulp::sim::stats
