/**
 * @file
 * A small gem5-flavoured statistics package.
 *
 * Statistics belong to a Group (every SimObject is a Group); groups form a
 * tree mirroring the system hierarchy. Each statistic has a name and a
 * description and can be printed or reset through the group tree.
 *
 * A network repeats the same statistics on every node, so a statistic
 * holds only pointers to its static name and description, and the tree
 * links its members intrusively: registering a statistic or a group
 * allocates nothing, and a group unlinks from its parent in O(1).
 */

#ifndef ULP_SIM_STATS_HH
#define ULP_SIM_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>

#include "sim/types.hh"

namespace ulp::sim::stats {

class Group;

/** Base class for a named, described statistic. */
class Info
{
  public:
    Info(Group *parent, StaticText name, StaticText desc);
    virtual ~Info() = default;

    Info(const Info &) = delete;
    Info &operator=(const Info &) = delete;

    std::string_view name() const { return _name; }
    std::string_view desc() const { return _desc; }

    /** Print "prefix.name  value  # desc" line(s). */
    virtual void print(std::ostream &os, const std::string &prefix) const = 0;

    /** Reset to the initial (zero) state. */
    virtual void reset() = 0;

  protected:
    /** Print one "prefix.name<suffix>  value  # desc" line. */
    void printLine(std::ostream &os, const std::string &prefix,
                   const char *suffix, double value) const;

  private:
    friend class Group;

    const char *_name;
    const char *_desc;
    /** The next statistic of the same group, in registration order. */
    Info *_next = nullptr;
};

/** A simple accumulating scalar (counter or gauge). */
class Scalar : public Info
{
  public:
    Scalar(Group *parent, StaticText name, StaticText desc)
        : Info(parent, name, desc)
    {}

    Scalar &operator=(double v) { _value = v; return *this; }
    Scalar &operator+=(double v) { _value += v; return *this; }
    Scalar &operator-=(double v) { _value -= v; return *this; }
    Scalar &operator++() { _value += 1.0; return *this; }
    double value() const { return _value; }
    operator double() const { return _value; }

    void print(std::ostream &os, const std::string &prefix) const override;
    void reset() override { _value = 0.0; }

  private:
    double _value = 0.0;
};

/** A scalar computed on demand from other statistics. */
class Formula : public Info
{
  public:
    Formula(Group *parent, StaticText name, StaticText desc,
            std::function<double()> fn)
        : Info(parent, name, desc), fn(std::move(fn))
    {}

    double value() const { return fn ? fn() : 0.0; }

    void print(std::ostream &os, const std::string &prefix) const override;
    void reset() override {}

  private:
    std::function<double()> fn;
};

/** Running min/max/mean/stddev over sampled values. */
class Distribution : public Info
{
  public:
    Distribution(Group *parent, StaticText name, StaticText desc)
        : Info(parent, name, desc)
    {}

    void
    sample(double v)
    {
        ++_count;
        _sum += v;
        _sumSq += v * v;
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }

    /** Fold another distribution's samples into this one. */
    void
    merge(const Distribution &other)
    {
        _count += other._count;
        _sum += other._sum;
        _sumSq += other._sumSq;
        _min = std::min(_min, other._min);
        _max = std::max(_max, other._max);
    }

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }

    double
    stddev() const
    {
        if (_count < 2)
            return 0.0;
        double m = mean();
        double var = (_sumSq - _count * m * m) / (_count - 1);
        return var > 0.0 ? std::sqrt(var) : 0.0;
    }

    void print(std::ostream &os, const std::string &prefix) const override;

    void
    reset() override
    {
        _count = 0;
        _sum = _sumSq = 0.0;
        _min = std::numeric_limits<double>::infinity();
        _max = -std::numeric_limits<double>::infinity();
    }

  private:
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _sumSq = 0.0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

/**
 * A node in the statistics tree. Groups own neither their child groups nor
 * their statistics; both typically live as members of SimObjects. Each
 * statistic and child group carries its own list links, in registration
 * order, so membership costs no allocation. A statistic must outlive any
 * print, reset or merge of its group; a child group unlinks itself when
 * destroyed, and a destroyed group orphans its remaining children.
 */
class Group
{
  public:
    Group() = default;
    explicit Group(Group *parent, std::string name = "");
    virtual ~Group();

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    const std::string &groupName() const { return _groupName; }
    void setGroupName(std::string name) { _groupName = std::move(name); }

    /** Depth-first print of this group's stats and all children. */
    void printStats(std::ostream &os, const std::string &prefix = "") const;

    /** Depth-first reset. */
    void resetStats();

    /**
     * Find a statistic by name in this group only; nullptr if absent.
     * Names compare by content, so trees built from different copies of
     * the same text still match.
     */
    Info *findStat(std::string_view name) const;

    /** Find a direct child group by name; nullptr if absent. */
    Group *findChild(std::string_view name) const;

    /**
     * Fold @p other into this group: same-named Scalars accumulate,
     * same-named Distributions merge their sample sets, and same-named
     * child groups merge recursively. Stats present only on one side are
     * left alone; Formulas recompute from their merged inputs. Used by the
     * parallel kernel to combine per-shard stat trees into one report.
     */
    void mergeFrom(const Group &other);

  private:
    friend class Info;

    void addStat(Info *info);
    void addChildGroup(Group *child);

    std::string _groupName;
    Group *_parent = nullptr;
    Info *_firstStat = nullptr;
    Info *_lastStat = nullptr;
    Group *_firstChild = nullptr;
    Group *_lastChild = nullptr;
    Group *_prevSibling = nullptr;
    Group *_nextSibling = nullptr;
};

} // namespace ulp::sim::stats

#endif // ULP_SIM_STATS_HH
