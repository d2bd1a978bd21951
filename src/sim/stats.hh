/**
 * @file
 * Statistics: counters that are only their value.
 *
 * A network repeats the same statistics on every node, so a statistic
 * holds nothing but its value. Its owner names it when asked:
 * SimObject::visitStats hands each of its counters to a Visitor with
 * the counter's literal name and description, then visits the owner's
 * children. Printing and lookup by name are each a visitor.
 */

#ifndef ULP_SIM_STATS_HH
#define ULP_SIM_STATS_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>

namespace ulp::sim::stats {

/** An accumulating counter or gauge. */
class Scalar
{
  public:
    Scalar &operator=(double v) { _value = v; return *this; }
    Scalar &operator+=(double v) { _value += v; return *this; }
    Scalar &operator++() { _value += 1.0; return *this; }
    double value() const { return _value; }
    operator double() const { return _value; }

  private:
    double _value = 0.0;
};

/** Receives an object tree's statistics in print order. */
class Visitor
{
  public:
    /** The statistics that follow belong to @p prefix ("node3.radio"). */
    virtual void group(std::string_view prefix) = 0;

    /** One statistic of the current group. */
    virtual void scalar(const Scalar &stat, std::string_view name,
                        std::string_view desc) = 0;

  protected:
    ~Visitor() = default;
};

/** Prints one "prefix.name  value  # desc" line per statistic. */
class Printer : public Visitor
{
  public:
    explicit Printer(std::ostream &os) : os(os) {}

    void group(std::string_view prefix) override;
    void scalar(const Scalar &stat, std::string_view name,
                std::string_view desc) override;

  private:
    std::ostream &os;
    std::string line;          ///< reused for every line
    std::size_t prefixLen = 0; ///< "prefix." at the start of line
};

/** Finds the statistic @p name of the group @p prefix, by content. */
class Finder : public Visitor
{
  public:
    Finder(std::string_view prefix, std::string_view name)
        : wantedPrefix(prefix), wantedName(name)
    {}

    void
    group(std::string_view prefix) override
    {
        inGroup = prefix == wantedPrefix;
    }

    void
    scalar(const Scalar &stat, std::string_view name,
           std::string_view) override
    {
        if (inGroup && !found && name == wantedName)
            found = &stat;
    }

    const Scalar *found = nullptr; ///< null until visited, or if absent

  private:
    std::string_view wantedPrefix;
    std::string_view wantedName;
    bool inGroup = false;
};

} // namespace ulp::sim::stats

#endif // ULP_SIM_STATS_HH
