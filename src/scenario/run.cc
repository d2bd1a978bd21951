#include "scenario/run.hh"

#include <string>

#include "core/sensor_node.hh"
#include "sim/ini.hh"
#include "sim/logging.hh"

namespace ulp::scenario {

namespace {

/** The [trace] out log, wired into @p low's spec; null without one. */
std::unique_ptr<obs::EventLog>
openLog(Lowered &low, unsigned threads)
{
    if (!low.trace || low.trace->out.empty())
        return nullptr;
    obs::EventLogConfig ecfg;
    ecfg.dir = low.trace->out;
    ecfg.energySamplePeriod = sim::secondsToTicks(low.trace->energyPeriod);
    std::string bad;
    if (!obs::parseChannelList(low.trace->channels, &ecfg.channelMask, &bad))
        sim::fatal("bad trace channel '%s'", bad.c_str());
    auto log = std::make_unique<obs::EventLog>(ecfg, threads);
    low.spec.telemetrySink = [log = log.get()](unsigned s) {
        return &log->sink(s);
    };
    return log;
}

} // namespace

ScenarioRun::ScenarioRun(const Scenario &scenario)
    : low(lower(scenario)), log(openLog(low, scenario.threads)),
      network(low.spec), sc(scenario)
{
    if (log) {
        for (unsigned s = 0; s < sc.threads; ++s)
            log->attachSampler(s, network.shardSimulation(s));
    }

    // Duty-cycled sleep schedules from the [sleep] section (a no-op
    // when every node's policy is none).
    sleepCtl.emplace(network);

    if (low.broadcastLoss > 0.0) {
        net::Channel *ch = network.broadcastChannel();
        if (!ch) {
            sim::fatal("[radio] loss needs threads = 1 and model = "
                       "broadcast (the spatial model has per-link "
                       "loss instead)");
        }
        ch->setLossProbability(low.broadcastLoss);
    }

    // The fault campaign attaches to one node's fabric (and, when
    // available, the broadcast channel and the node's battery), on that
    // node's shard.
    if (sc.fault) {
        const unsigned target = sc.fault->node;
        core::SensorNode &node = network.node(target);
        injector = std::make_unique<fault::FaultInjector>(
            network.shardSimulation(network.shardOf(target)), "fault",
            sc.seed);
        injector->attachSram(&node.memory());
        injector->attachDevice("msgProc", &node.msgProc());
        injector->attachDevice("compressor", &node.compressor());
        if (net::Channel *ch = network.broadcastChannel())
            injector->attachChannel(ch);
        if (power::HarvestingSupply *supply = node.supply())
            injector->attachSupply(supply);
        // node-fail / node-revive plan actions act on the target node.
        injector->attachLifecycle([this, target](bool up) {
            if (up)
                network.reviveNodeNow(target);
            else
                network.powerOffNodeNow(target);
        });
        injector->runText(sim::readFile(sc.fault->campaign, "fault plan"),
                          sc.fault->campaign);
    }
}

void
ScenarioRun::run()
{
    // A [lifecycle] section hands the run loop to the resilience layer:
    // segmented execution with churn, repair and degradation metrics.
    if (sc.lifecycle)
        resilience = ResilienceManager(network, sc, low).run();
    else
        network.runForSeconds(low.seconds);
    if (log)
        log->finish();
}

RunTotals
ScenarioRun::totals()
{
    RunTotals t;
    if (low.sink) {
        const core::MessageProcessor &mp = network.node(*low.sink).msgProc();
        t.sinkPackets = mp.localDeliveries();
        t.origins = mp.localDeliveriesBySource().size();
    }
    for (unsigned i = 0; i < network.numNodes(); ++i) {
        t.framesPrepared += network.node(i).msgProc().framesPrepared();
        t.energyJoules += network.node(i).totalAverageWatts() * low.seconds;
    }
    return t;
}

void
ScenarioRun::dumpStats(std::ostream &os)
{
    network.dumpStats(os);
    if (injector)
        injector->dumpStats(os);
}

} // namespace ulp::scenario
