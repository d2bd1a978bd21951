#include "fault/fault_injector.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "sim/logging.hh"

namespace ulp::fault {

namespace {

double
parseNumber(const std::string &token, unsigned line_no)
{
    // strtod handles "0x.." hex (addresses) as well as decimals.
    const char *begin = token.c_str();
    char *end = nullptr;
    double value = std::strtod(begin, &end);
    if (end == begin || *end != '\0')
        sim::fatal("campaign plan line %u: bad number '%s'", line_no,
                   token.c_str());
    return value;
}

Action::Kind
parseKind(const std::string &word, unsigned line_no)
{
    if (word == "channel-ge")
        return Action::Kind::ChannelGe;
    if (word == "channel-ge-off")
        return Action::Kind::ChannelGeOff;
    if (word == "channel-loss")
        return Action::Kind::ChannelLoss;
    if (word == "sram-flip")
        return Action::Kind::SramFlip;
    if (word == "sram-random-flip")
        return Action::Kind::SramRandomFlip;
    if (word == "wedge")
        return Action::Kind::Wedge;
    if (word == "unwedge")
        return Action::Kind::Unwedge;
    if (word == "slowdown")
        return Action::Kind::Slowdown;
    if (word == "droop")
        return Action::Kind::Droop;
    if (word == "node-fail")
        return Action::Kind::NodeFail;
    if (word == "node-revive")
        return Action::Kind::NodeRevive;
    sim::fatal("campaign plan line %u: unknown action '%s'", line_no,
               word.c_str());
    return Action::Kind::ChannelLoss; // unreachable
}

bool
takesTarget(Action::Kind kind)
{
    return kind == Action::Kind::Wedge || kind == Action::Kind::Unwedge ||
           kind == Action::Kind::Slowdown;
}

unsigned
numericArgs(Action::Kind kind)
{
    switch (kind) {
      case Action::Kind::ChannelGe: return 4;
      case Action::Kind::ChannelGeOff: return 0;
      case Action::Kind::ChannelLoss: return 1;
      case Action::Kind::SramFlip: return 2;
      case Action::Kind::SramRandomFlip: return 1;
      case Action::Kind::Wedge: return 1;
      case Action::Kind::Unwedge: return 0;
      case Action::Kind::Slowdown: return 1;
      case Action::Kind::Droop: return 1;
      case Action::Kind::NodeFail: return 0;
      case Action::Kind::NodeRevive: return 0;
    }
    return 0;
}

} // namespace

CampaignPlan
parsePlan(const std::string &text)
{
    CampaignPlan plan;
    std::istringstream lines(text);
    std::string line;
    unsigned line_no = 0;
    while (std::getline(lines, line)) {
        ++line_no;
        auto cut = line.find_first_of("#;");
        if (cut != std::string::npos)
            line.erase(cut);

        std::istringstream fields(line);
        std::vector<std::string> tokens;
        std::string token;
        while (fields >> token)
            tokens.push_back(token);
        if (tokens.empty())
            continue;

        Action action;
        action.atSeconds = parseNumber(tokens[0], line_no);
        if (action.atSeconds < 0.0)
            sim::fatal("campaign plan line %u: negative time", line_no);
        if (tokens.size() < 2)
            sim::fatal("campaign plan line %u: missing action", line_no);
        action.kind = parseKind(tokens[1], line_no);

        std::size_t next = 2;
        if (takesTarget(action.kind)) {
            if (tokens.size() <= next)
                sim::fatal("campaign plan line %u: missing target device",
                           line_no);
            action.target = tokens[next++];
        }
        unsigned wanted = numericArgs(action.kind);
        if (tokens.size() != next + wanted) {
            sim::fatal("campaign plan line %u: expected %u argument(s) for "
                       "'%s', got %zu", line_no, wanted, tokens[1].c_str(),
                       tokens.size() - next);
        }
        double *slots[] = {&action.a, &action.b, &action.c, &action.d};
        for (unsigned i = 0; i < wanted; ++i)
            *slots[i] = parseNumber(tokens[next + i], line_no);
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
    for (const Action &action : plan.actions) {
        scheduled.push_back(std::make_unique<Action>(action));
        Action *stable = scheduled.back().get();
        events.push_back(std::make_unique<sim::EventFunctionWrapper>(
            [this, stable] { apply(*stable); },
            sim::EventName(name(), "action")));
        sim::Tick at = std::max(curTick(),
                                sim::secondsToTicks(action.atSeconds));
        eventq().schedule(events.back().get(), at);
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

core::SlaveDevice *
FaultInjector::device(const Action &action)
{
    auto it = devices.find(action.target);
    if (it == devices.end())
        sim::fatal("%s: campaign targets unattached device '%s'",
                   name().c_str(), action.target.c_str());
    return it->second;
}

void
FaultInjector::apply(const Action &action)
{
    switch (action.kind) {
      case Action::Kind::ChannelGe:
        if (!channel)
            sim::fatal("%s: channel action without an attached channel",
                       name().c_str());
        channel->setGilbertElliott({action.a, action.b, action.c, action.d});
        ++statChannelFaults;
        break;
      case Action::Kind::ChannelGeOff:
        if (!channel)
            sim::fatal("%s: channel action without an attached channel",
                       name().c_str());
        channel->clearGilbertElliott();
        ++statChannelFaults;
        break;
      case Action::Kind::ChannelLoss:
        if (!channel)
            sim::fatal("%s: channel action without an attached channel",
                       name().c_str());
        channel->setLossProbability(action.a);
        ++statChannelFaults;
        break;
      case Action::Kind::SramFlip:
        if (!sram)
            sim::fatal("%s: SRAM action without an attached SRAM",
                       name().c_str());
        if (sram->flipBit(static_cast<std::uint16_t>(action.a),
                          static_cast<unsigned>(action.b)))
            ++statBitFlips;
        break;
      case Action::Kind::SramRandomFlip: {
        if (!sram)
            sim::fatal("%s: SRAM action without an attached SRAM",
                       name().c_str());
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
      case Action::Kind::Wedge:
        device(action)->injectWedge(action.a > 0.0
                                        ? sim::secondsToTicks(action.a)
                                        : 0);
        ++statDeviceFaults;
        break;
      case Action::Kind::Unwedge:
        device(action)->clearWedge();
        ++statDeviceFaults;
        break;
      case Action::Kind::Slowdown:
        device(action)->setFaultSlowdown(action.a);
        ++statDeviceFaults;
        break;
      case Action::Kind::Droop:
        if (!supply)
            sim::fatal("%s: droop action without an attached supply",
                       name().c_str());
        supply->injectDroop(action.a);
        ++statDroops;
        break;
      case Action::Kind::NodeFail:
      case Action::Kind::NodeRevive:
        if (!lifecycle)
            sim::fatal("%s: lifecycle action without an attached hook",
                       name().c_str());
        lifecycle(action.kind == Action::Kind::NodeRevive);
        ++statLifecycle;
        break;
    }
}

} // namespace ulp::fault
