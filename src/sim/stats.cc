#include "sim/stats.hh"

#include <iomanip>

#include "sim/logging.hh"

namespace ulp::sim::stats {

Info::Info(Group *parent, StaticText name, StaticText desc)
    : _name(name.c_str()), _desc(desc.c_str())
{
    if (parent)
        parent->addStat(this);
}

void
Info::printLine(std::ostream &os, const std::string &prefix,
                const char *suffix, double value) const
{
    std::string full;
    if (!prefix.empty())
        full.append(prefix).push_back('.');
    full.append(_name).append(suffix);
    os << std::left << std::setw(44) << full << " "
       << std::right << std::setw(16) << value
       << "  # " << _desc << "\n";
}

void
Scalar::print(std::ostream &os, const std::string &prefix) const
{
    printLine(os, prefix, "", _value);
}

void
Formula::print(std::ostream &os, const std::string &prefix) const
{
    printLine(os, prefix, "", value());
}

void
Distribution::print(std::ostream &os, const std::string &prefix) const
{
    printLine(os, prefix, ".count", static_cast<double>(_count));
    printLine(os, prefix, ".mean", mean());
    printLine(os, prefix, ".min", min());
    printLine(os, prefix, ".max", max());
    printLine(os, prefix, ".stddev", stddev());
}

Group::Group(Group *parent, std::string name)
    : _groupName(std::move(name)), _parent(parent)
{
    if (parent)
        parent->addChildGroup(this);
}

Group::~Group()
{
    if (_parent) {
        (_prevSibling ? _prevSibling->_nextSibling : _parent->_firstChild) =
            _nextSibling;
        (_nextSibling ? _nextSibling->_prevSibling : _parent->_lastChild) =
            _prevSibling;
    }
    for (Group *child = _firstChild; child; child = child->_nextSibling)
        child->_parent = nullptr;
}

void
Group::addStat(Info *info)
{
    (_lastStat ? _lastStat->_next : _firstStat) = info;
    _lastStat = info;
}

void
Group::addChildGroup(Group *child)
{
    child->_prevSibling = _lastChild;
    (_lastChild ? _lastChild->_nextSibling : _firstChild) = child;
    _lastChild = child;
}

void
Group::printStats(std::ostream &os, const std::string &prefix) const
{
    std::string here = prefix;
    if (!_groupName.empty())
        here = prefix.empty() ? _groupName : prefix + "." + _groupName;
    for (const Info *info = _firstStat; info; info = info->_next)
        info->print(os, here);
    for (const Group *child = _firstChild; child; child = child->_nextSibling)
        child->printStats(os, here);
}

void
Group::resetStats()
{
    for (Info *info = _firstStat; info; info = info->_next)
        info->reset();
    for (Group *child = _firstChild; child; child = child->_nextSibling)
        child->resetStats();
}

Info *
Group::findStat(std::string_view name) const
{
    for (Info *info = _firstStat; info; info = info->_next) {
        if (info->name() == name)
            return info;
    }
    return nullptr;
}

Group *
Group::findChild(std::string_view name) const
{
    for (Group *child = _firstChild; child; child = child->_nextSibling) {
        if (child->groupName() == name)
            return child;
    }
    return nullptr;
}

void
Group::mergeFrom(const Group &other)
{
    for (Info *info = _firstStat; info; info = info->_next) {
        const Info *src = other.findStat(info->name());
        if (!src)
            continue;
        if (auto *dst_s = dynamic_cast<Scalar *>(info)) {
            if (auto *src_s = dynamic_cast<const Scalar *>(src))
                *dst_s += src_s->value();
        } else if (auto *dst_d = dynamic_cast<Distribution *>(info)) {
            if (auto *src_d = dynamic_cast<const Distribution *>(src))
                dst_d->merge(*src_d);
        }
    }
    for (Group *child = _firstChild; child; child = child->_nextSibling) {
        if (const Group *src = other.findChild(child->groupName()))
            child->mergeFrom(*src);
    }
}

} // namespace ulp::sim::stats
