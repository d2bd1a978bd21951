#include "fault/fault_injector.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "sim/logging.hh"

namespace ulp::fault {

namespace {

using Kind = Action::Kind;

/** What a numeric argument is, and so which values it may take. */
enum class Arg { Probability, Duration, Factor, Joules, Address, Bit, Count };

/** One action word: its kind, whether a device name follows it, and
 *  the numeric arguments after that (into Action::a, b, c, d). */
struct Syntax
{
    const char *word;
    Kind kind;
    bool target;
    std::vector<Arg> args;
};

const std::vector<Syntax> &
syntax()
{
    using A = Arg;
    static const std::vector<Syntax> table = {
        {"channel-ge", Kind::ChannelGe, false,
         {A::Probability, A::Probability, A::Probability, A::Probability}},
        {"channel-ge-off", Kind::ChannelGeOff, false, {}},
        {"channel-loss", Kind::ChannelLoss, false, {A::Probability}},
        {"sram-flip", Kind::SramFlip, false, {A::Address, A::Bit}},
        {"sram-random-flip", Kind::SramRandomFlip, false, {A::Count}},
        {"wedge", Kind::Wedge, true, {A::Duration}},
        {"unwedge", Kind::Unwedge, true, {}},
        {"slowdown", Kind::Slowdown, true, {A::Factor}},
        {"droop", Kind::Droop, false, {A::Joules}},
        {"node-fail", Kind::NodeFail, false, {}},
        {"node-revive", Kind::NodeRevive, false, {}},
    };
    return table;
}

const char *
word(Kind kind)
{
    for (const Syntax &s : syntax()) {
        if (s.kind == kind)
            return s.word;
    }
    return "?";
}

/** The seconds in @p text, fatal unless they are finite and not
 *  negative and, counted from @p from, end before the last tick. */
double
seconds(const sim::ini::Cursor &at, const std::string &what,
        const std::string &text, double from = 0.0)
{
    const double v = sim::ini::parseDouble(at, what, text);
    if (v < 0.0)
        at.fail("negative " + what + " " + text);
    // The end converts to a tick only below 2^64 ns.
    if ((from + v) * static_cast<double>(sim::ticksPerSecond) + 0.5 >=
        0x1p64)
        at.fail(what + " " + text + " lies past the last simulated tick");
    return v;
}

double
argument(const sim::ini::Cursor &at, Arg arg, const std::string &text,
         double time)
{
    auto real = [&](const char *what, double lo, double hi) {
        const double v = sim::ini::parseDouble(at, what, text);
        if (v < lo || v > hi) {
            at.fail(sim::csprintf("%s %s is outside [%g, %g]", what,
                                  text.c_str(), lo, hi));
        }
        return v;
    };
    switch (arg) {
      case Arg::Probability:
        return real("probability", 0.0, 1.0);
      case Arg::Duration:
        return seconds(at, "duration", text, time);
      case Arg::Factor:
        return real("slowdown factor", 1.0, 1e6);
      case Arg::Joules:
        return real("droop", 0.0, HUGE_VAL);
      case Arg::Address:
        return sim::ini::parseUnsigned(at, "address", text, UINT32_MAX);
      case Arg::Bit:
        return sim::ini::parseUnsigned(at, "bit", text, UINT32_MAX);
      case Arg::Count:
        return sim::ini::parseUnsigned(at, "count", text, UINT32_MAX);
    }
    return 0.0;
}

} // namespace

CampaignPlan
parsePlan(const std::string &text, const std::string &file)
{
    CampaignPlan plan;
    plan.file = file;
    sim::ini::Cursor at{file, 0};
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        ++at.line;
        std::istringstream fields(line.substr(0, line.find_first_of("#;")));
        std::vector<std::string> tokens;
        for (std::string token; fields >> token;)
            tokens.push_back(token);
        if (tokens.empty())
            continue;

        Action action;
        action.line = at.line;
        action.atSeconds = seconds(at, "time", tokens[0]);
        if (tokens.size() < 2)
            at.fail("missing action");
        const auto &table = syntax();
        const auto it = std::find_if(
            table.begin(), table.end(),
            [&](const Syntax &s) { return tokens[1] == s.word; });
        if (it == table.end())
            at.fail("unknown action '" + tokens[1] + "'");
        action.kind = it->kind;

        std::size_t next = 2;
        if (it->target) {
            if (tokens.size() <= next)
                at.fail("missing target device");
            action.target = tokens[next++];
        }
        if (tokens.size() != next + it->args.size()) {
            at.fail(sim::csprintf("expected %zu argument(s) for '%s', got %zu",
                                  it->args.size(), it->word,
                                  tokens.size() - next));
        }
        double *slots[] = {&action.a, &action.b, &action.c, &action.d};
        for (std::size_t i = 0; i < it->args.size(); ++i) {
            *slots[i] = argument(at, it->args[i], tokens[next + i],
                                 action.atSeconds);
        }
        plan.actions.push_back(std::move(action));
    }
    return plan;
}

FaultInjector::FaultInjector(sim::Simulation &simulation,
                             const std::string &name, std::uint64_t seed)
    : sim::SimObject(simulation, name), random(seed)
{
}

void
FaultInjector::run(const CampaignPlan &plan)
{
    for (const Action &action : plan.actions)
        check(sim::ini::Cursor{plan.file, action.line}, action);
    for (const Action &action : plan.actions) {
        Scheduled &record =
            *scheduled.emplace_back(std::make_unique<Scheduled>(this, action));
        sim::Tick at = std::max(curTick(),
                                sim::secondsToTicks(action.atSeconds));
        eventq().schedule(&record.event, at);
    }
}

void
FaultInjector::check(const sim::ini::Cursor &at, const Action &action) const
{
    const std::string act = std::string("'") + word(action.kind) + "'";
    switch (action.kind) {
      case Kind::ChannelGe:
      case Kind::ChannelGeOff:
      case Kind::ChannelLoss:
        if (!channel) {
            at.fail(act + " needs a channel (threads = 1 and the broadcast "
                          "model)");
        }
        break;
      case Kind::SramFlip:
      case Kind::SramRandomFlip: {
        if (!sram)
            at.fail(act + " needs an SRAM");
        const std::uint32_t bytes = sram->sizeBytes();
        if (action.kind == Kind::SramRandomFlip) {
            if (action.a > 8.0 * bytes) {
                at.fail(sim::csprintf("%.0f flips exceed the SRAM's %u bits",
                                      action.a, 8 * bytes));
            }
        } else if (action.a >= bytes) {
            at.fail(sim::csprintf("address %#x lies outside the %u-byte SRAM",
                                  static_cast<unsigned>(action.a), bytes));
        } else if (action.b > 7) {
            at.fail(sim::csprintf("bit %.0f is not in 0..7", action.b));
        }
        break;
      }
      case Kind::Wedge:
      case Kind::Unwedge:
      case Kind::Slowdown:
        if (!devices.count(action.target)) {
            std::string known;
            for (const auto &[name, device] : devices)
                known += (known.empty() ? "" : ", ") + name;
            at.fail(act + " names unknown device '" + action.target +
                    "' (attached: " + (known.empty() ? "none" : known) +
                    ")");
        }
        break;
      case Kind::Droop:
        if (!supply)
            at.fail(act + " needs a supply (a node with a battery)");
        break;
      case Kind::NodeFail:
      case Kind::NodeRevive:
        if (!lifecycle)
            at.fail(act + " needs a node lifecycle hook");
        break;
    }
}

void
FaultInjector::visitStats(sim::stats::Visitor &v) const
{
    v.group(name());
    v.scalar(statChannelFaults, "channelFaults",
             "channel loss-model changes applied");
    v.scalar(statBitFlips, "bitFlips", "SRAM bit flips injected");
    v.scalar(statDeviceFaults, "deviceFaults",
             "wedge/unwedge/slowdown faults applied");
    v.scalar(statDroops, "droops", "supply droop spikes injected");
    v.scalar(statLifecycle, "lifecycleEvents",
             "node fail/revive lifecycle events applied");
}

void
FaultInjector::apply(const Action &action)
{
    switch (action.kind) {
      case Kind::ChannelGe:
        channel->setGilbertElliott({action.a, action.b, action.c, action.d});
        ++statChannelFaults;
        break;
      case Kind::ChannelGeOff:
        channel->clearGilbertElliott();
        ++statChannelFaults;
        break;
      case Kind::ChannelLoss:
        channel->setLossProbability(action.a);
        ++statChannelFaults;
        break;
      case Kind::SramFlip:
        if (sram->flipBit(static_cast<std::uint16_t>(action.a),
                          static_cast<unsigned>(action.b)))
            ++statBitFlips;
        break;
      case Kind::SramRandomFlip: {
        auto flips = static_cast<unsigned>(action.a);
        for (unsigned i = 0; i < flips; ++i) {
            auto addr = static_cast<std::uint16_t>(
                random.uniformInt(0, sram->sizeBytes() - 1));
            auto bit = static_cast<unsigned>(random.uniformInt(0, 7));
            if (sram->flipBit(addr, bit))
                ++statBitFlips;
        }
        break;
      }
      case Kind::Wedge:
        devices.at(action.target)
            ->injectWedge(action.a > 0.0 ? sim::secondsToTicks(action.a)
                                         : 0);
        ++statDeviceFaults;
        break;
      case Kind::Unwedge:
        devices.at(action.target)->clearWedge();
        ++statDeviceFaults;
        break;
      case Kind::Slowdown:
        devices.at(action.target)->setFaultSlowdown(action.a);
        ++statDeviceFaults;
        break;
      case Kind::Droop:
        supply->injectDroop(action.a);
        ++statDroops;
        break;
      case Kind::NodeFail:
      case Kind::NodeRevive:
        lifecycle(action.kind == Kind::NodeRevive);
        ++statLifecycle;
        break;
    }
}

} // namespace ulp::fault
