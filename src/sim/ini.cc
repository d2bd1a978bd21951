#include "sim/ini.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace ulp::sim {

std::string
readFile(const std::string &path, const std::string &what)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open %s '%s'", what.c_str(), path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

namespace ini {

void
Cursor::fail(const std::string &message) const
{
    if (line == 0)
        fatal("%s: %s", file.c_str(), message.c_str());
    fatal("%s:%u: %s", file.c_str(), line, message.c_str());
}

std::string
trim(std::string_view s)
{
    const char *ws = " \t\r";
    const auto b = s.find_first_not_of(ws);
    if (b == std::string_view::npos)
        return "";
    return std::string(s.substr(b, s.find_last_not_of(ws) - b + 1));
}

std::vector<std::string>
split(const std::string &list)
{
    std::vector<std::string> items;
    std::istringstream in(list);
    std::string item;
    while (std::getline(in, item, ','))
        items.push_back(trim(item));
    return items;
}

std::uint64_t
parseUnsigned(const Cursor &at, const std::string &key,
              const std::string &value, std::uint64_t max)
{
    const bool hex = value.size() > 1 && value[0] == '0' &&
                     (value[1] == 'x' || value[1] == 'X');
    errno = 0;
    char *end = nullptr;
    const unsigned long long v =
        std::strtoull(value.c_str(), &end, hex ? 16 : 10);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
        value[0] == '-') {
        at.fail("'" + key + "' needs an unsigned integer, got '" + value +
                "'");
    }
    if (v > max) {
        at.fail("'" + key + "' value " + value + " exceeds the maximum " +
                std::to_string(max));
    }
    return v;
}

double
parseDouble(const Cursor &at, const std::string &key,
            const std::string &value)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v))
        at.fail("'" + key + "' needs a finite number, got '" + value + "'");
    return v;
}

void
read(const std::string &text, Cursor &at,
     const std::function<void(const std::string &name)> &section,
     const std::function<void(const std::string &key,
                              const std::string &value)> &entry)
{
    bool inSection = false;
    std::istringstream in(text);
    std::string raw;
    while (std::getline(in, raw)) {
        ++at.line;
        if (const auto hash = raw.find_first_of("#;");
            hash != std::string::npos)
            raw.erase(hash);
        const std::string line = trim(raw);
        if (line.empty())
            continue;

        if (line.front() == '[') {
            if (line.back() != ']')
                at.fail("unterminated section header '" + line + "'");
            section(trim(std::string_view(line).substr(1, line.size() - 2)));
            inSection = true;
            continue;
        }

        const auto eq = line.find('=');
        if (eq == std::string::npos)
            at.fail("expected 'key = value', got '" + line + "'");
        const std::string key = trim(std::string_view(line).substr(0, eq));
        const std::string value = trim(std::string_view(line).substr(eq + 1));
        if (key.empty())
            at.fail("empty key");
        if (value.empty())
            at.fail("'" + key + "' has an empty value");
        if (!inSection)
            at.fail("'" + key + "' appears before any [section]");
        entry(key, value);
    }
}

} // namespace ini

} // namespace ulp::sim
