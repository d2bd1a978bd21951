/**
 * @file
 * Event-fabric tests: the peripheral event-linking fabric must service
 * scenario-declared routes without waking the event processor, and must
 * be invisible (byte-identical behaviour, zero energy) when no links are
 * armed.
 *
 *  - link vocabulary: names round-trip through parseSource/parseSink
 *  - [events] scenario section: parse, canonical print round-trip,
 *    per-node overrides, file:line diagnostics
 *  - linked delivery: a full sensing chain runs EP-silent
 *  - threshold comparator and §4.2.4 busy-sink overload drops
 *  - EP fallback: unlinked events reach the EP unchanged
 *  - the K = 1/2/4 oracle on a 64-node linked network
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/apps.hh"
#include "core/network.hh"
#include "core/sensor_node.hh"
#include "fabric/event_fabric.hh"
#include "scenario/lower.hh"
#include "scenario/scenario.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

using namespace ulp;
using fabric::Link;
using fabric::Sink;
using fabric::Source;
using scenario::Scenario;

namespace {

/** Parse @p text expecting a diagnostic that contains @p where. */
void
expectParseError(const std::string &text, const std::string &where)
{
    try {
        scenario::parseScenario(text, "bad.ini");
        FAIL() << "expected a parse error mentioning '" << where << "'";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
            << "diagnostic was: " << e.what();
    }
}

core::NodeConfig
nodeConfig(std::uint8_t sensor_value = 200)
{
    core::NodeConfig cfg;
    cfg.sensorSignal = [sensor_value](sim::Tick) { return sensor_value; };
    return cfg;
}

/** The canonical fully-linked sensing chain (ISSUE example). */
std::vector<Link>
sensingChain()
{
    return {{Source::Timer0Fire, Sink::AdcSample},
            {Source::AdcThreshold, Sink::MsgProcTx},
            {Source::MsgTxReady, Sink::RadioTx},
            {Source::RadioTxDone, Sink::RadioGate}};
}

/** The chain minus the timer entry: tests inject the ADC event. */
std::vector<Link>
txChain()
{
    return {{Source::AdcThreshold, Sink::MsgProcTx},
            {Source::MsgTxReady, Sink::RadioTx},
            {Source::RadioTxDone, Sink::RadioGate}};
}

} // namespace

// ---------------------------------------------------------------------------
// Link vocabulary
// ---------------------------------------------------------------------------

TEST(FabricLinks, SourceNamesRoundTrip)
{
    for (unsigned i = 0; i < fabric::numSources; ++i) {
        auto source = static_cast<Source>(i);
        auto parsed = fabric::parseSource(fabric::sourceName(source));
        ASSERT_TRUE(parsed.has_value()) << fabric::sourceName(source);
        EXPECT_EQ(*parsed, source);
    }
    EXPECT_FALSE(fabric::parseSource("adc.bogus").has_value());
}

TEST(FabricLinks, SinkNamesRoundTrip)
{
    for (unsigned i = 0; i < fabric::numSinks; ++i) {
        auto sink = static_cast<Sink>(i);
        auto parsed = fabric::parseSink(fabric::sinkName(sink));
        ASSERT_TRUE(parsed.has_value()) << fabric::sinkName(sink);
        EXPECT_EQ(*parsed, sink);
    }
    EXPECT_FALSE(fabric::parseSink("radio.bogus").has_value());
}

TEST(FabricLinks, ThresholdSourceSharesTheAdcRequestLine)
{
    // adc.done and adc.threshold are two dispositions of one request
    // line, so they can never both be armed.
    EXPECT_EQ(fabric::sourceIrq(Source::AdcDone),
              fabric::sourceIrq(Source::AdcThreshold));
    EXPECT_NE(fabric::sourceIrq(Source::AdcDone),
              fabric::sourceIrq(Source::FilterPass));
}

// ---------------------------------------------------------------------------
// [events] scenario section
// ---------------------------------------------------------------------------

TEST(FabricScenario, EventsSectionParsesAndRoundTrips)
{
    const std::string text = R"(
[scenario]
name = fabric
seconds = 0.2

[nodes]
count = 3
app = app1
period = 1000

[events]
link = timer.fire -> adc.sample
link = adc.threshold -> msgproc.tx

[node 1]
links = msgproc.txready -> radio.tx, radio.txdone -> radio.gate

[node 2]
links = none
)";
    Scenario sc = scenario::parseScenario(text, "fabric.ini");

    ASSERT_TRUE(sc.events.has_value());
    ASSERT_EQ(sc.events->links.size(), 2u);
    EXPECT_EQ(sc.events->links[0], (Link{Source::Timer0Fire, Sink::AdcSample}));
    EXPECT_EQ(sc.events->links[1],
              (Link{Source::AdcThreshold, Sink::MsgProcTx}));

    // [node 1] replaces the base set wholesale; [node 2] disarms.
    ASSERT_TRUE(sc.overrides.at(1).links.has_value());
    ASSERT_EQ(sc.overrides.at(1).links->size(), 2u);
    EXPECT_EQ(sc.overrides.at(1).links->at(0),
              (Link{Source::MsgTxReady, Sink::RadioTx}));
    ASSERT_TRUE(sc.overrides.at(2).links.has_value());
    EXPECT_TRUE(sc.overrides.at(2).links->empty());

    // Canonical print/parse identity.
    std::string canonical = scenario::printScenario(sc);
    EXPECT_EQ(scenario::parseScenario(canonical, "canonical.ini"), sc);
}

TEST(FabricScenario, LoweringArmsLinksPerNode)
{
    const std::string text = R"(
[scenario]
seconds = 0.1

[nodes]
count = 3
period = 1000

[events]
link = adc.threshold -> msgproc.tx

[node 1]
links = radio.txdone -> radio.gate

[node 2]
links = none
)";
    scenario::Lowered low =
        scenario::lower(scenario::parseScenario(text, "lower.ini"));
    ASSERT_EQ(low.spec.nodes.size(), 3u);
    ASSERT_EQ(low.spec.nodes[0].links.size(), 1u);
    EXPECT_EQ(low.spec.nodes[0].links[0],
              (Link{Source::AdcThreshold, Sink::MsgProcTx}));
    ASSERT_EQ(low.spec.nodes[1].links.size(), 1u);
    EXPECT_EQ(low.spec.nodes[1].links[0],
              (Link{Source::RadioTxDone, Sink::RadioGate}));
    EXPECT_TRUE(low.spec.nodes[2].links.empty());
}

TEST(FabricScenario, DiagnosticsNameTheFileAndLine)
{
    // Unknown source, with the declaring line number.
    expectParseError("[events]\nlink = adc.bogus -> msgproc.tx\n",
                     "bad.ini:2: 'link': unknown event source 'adc.bogus'");
    // Unknown sink.
    expectParseError("[events]\nlink = adc.done -> nowhere\n",
                     "unknown event sink 'nowhere'");
    // Malformed (no arrow).
    expectParseError("[events]\nlink = adc.done msgproc.tx\n",
                     "entries are 'source -> sink'");
    // Unknown key in the section.
    expectParseError("[events]\nroute = adc.done -> msgproc.tx\n",
                     "unknown key 'route' in [events]");
}

TEST(FabricScenario, DuplicateRequestLineIsRejected)
{
    expectParseError("[events]\n"
                     "link = adc.done -> msgproc.tx\n"
                     "link = adc.threshold -> probe.latch\n",
                     "'adc.threshold' routes the same request line as the "
                     "earlier 'adc.done' link");
    // Also inside a [node N] comma list.
    expectParseError("[nodes]\ncount = 2\n"
                     "[node 0]\n"
                     "links = timer.fire -> adc.sample, timer.fire -> ep\n",
                     "routes the same request line");
}

TEST(FabricScenario, MsgProcTxSinkRequiresADatumSource)
{
    expectParseError("[events]\nlink = timer.fire -> msgproc.tx\n",
                     "msgproc.tx needs a datum-carrying source");
    expectParseError("[nodes]\ncount = 2\n"
                     "[node 1]\nlinks = radio.txdone -> msgproc.tx\n",
                     "[node 1] link 'radio.txdone -> msgproc.tx'");
}

TEST(FabricScenario, ApplyScenarioKeyAppendsLinks)
{
    Scenario sc;
    scenario::applyScenarioKey(sc, "events.link",
                               "adc.threshold -> msgproc.tx", "override");
    scenario::applyScenarioKey(sc, "events.link",
                               "msgproc.txready -> radio.tx", "override");
    ASSERT_TRUE(sc.events.has_value());
    ASSERT_EQ(sc.events->links.size(), 2u);
    EXPECT_EQ(sc.events->links[1], (Link{Source::MsgTxReady, Sink::RadioTx}));

    sc.nodes.count = 2;
    scenario::applyScenarioKey(sc, "node.1.links", "none", "override");
    ASSERT_TRUE(sc.overrides.at(1).links.has_value());
    EXPECT_TRUE(sc.overrides.at(1).links->empty());
    scenario::validateScenario(sc, "override");
}

// ---------------------------------------------------------------------------
// Linked delivery (single node, no EP program installed: any event that
// fell through to the interrupt bus would find no ISR, so an EP-silent
// run proves the whole chain stayed inside the fabric)
// ---------------------------------------------------------------------------

TEST(FabricDelivery, LinkedChainRunsWithoutWakingTheEp)
{
    sim::Simulation simulation;
    core::SensorNode node(simulation, "node", nodeConfig(200));

    node.fabric().configure(sensingChain(), 0);
    EXPECT_TRUE(node.fabric().configured());

    // One timer alarm enters the chain; everything downstream (sample,
    // prepare, transmit, gate) is fabric-serviced.
    node.fabric().raise({core::Irq::Timer0});
    simulation.runForSeconds(0.01);

    EXPECT_EQ(node.radio().framesSent(), 1u);
    EXPECT_GE(node.sensor().samples(), 1u);
    EXPECT_EQ(node.fabric().linkedDelivered(), 4u);
    EXPECT_EQ(node.fabric().sinkBusyDrops(), 0u);
    EXPECT_EQ(node.ep().isrsExecuted(), 0u);
    EXPECT_EQ(node.micro().wakeups(), 0u);
    EXPECT_EQ(node.irqBus().dropped(), 0u);

    // The transmitted frame carries the sampled datum.
    const net::Frame &frame = node.radio().lastTxFrame();
    ASSERT_EQ(frame.payload.size(), 1u);
    EXPECT_EQ(frame.payload[0], 200);

    // Routed transitions are costed against the fabric's own ledger.
    EXPECT_GT(node.fabric().energyJoules(), 0.0);
}

TEST(FabricDelivery, ThresholdComparatorRetiresBelowThresholdEvents)
{
    sim::Simulation simulation;
    core::SensorNode node(simulation, "node", nodeConfig());

    node.fabric().configure(txChain(), 128);

    node.fabric().raise({core::Irq::AdcDone, 100, true});
    EXPECT_EQ(node.fabric().thresholdFiltered(), 1u);
    EXPECT_EQ(node.fabric().linkedDelivered(), 0u);

    node.fabric().raise({core::Irq::AdcDone, 150, true});
    simulation.runForSeconds(0.01);

    EXPECT_EQ(node.fabric().thresholdFiltered(), 1u);
    EXPECT_EQ(node.fabric().linkedDelivered(), 3u);
    EXPECT_EQ(node.radio().framesSent(), 1u);
    EXPECT_EQ(node.ep().isrsExecuted(), 0u);
}

TEST(FabricDelivery, BusySinkDropsTheEventPerOverloadRule)
{
    sim::Simulation simulation;
    core::SensorNode node(simulation, "node", nodeConfig());

    node.fabric().configure(txChain(), 0);

    // Two back-to-back events: the first starts CMD_PREPARE, so the
    // message processor is still busy when the second arrives — §4.2.4
    // says the later event is simply lost (and counted).
    node.fabric().raise({core::Irq::AdcDone, 200, true});
    node.fabric().raise({core::Irq::AdcDone, 210, true});
    EXPECT_EQ(node.fabric().sinkBusyDrops(), 1u);

    simulation.runForSeconds(0.01);
    EXPECT_EQ(node.radio().framesSent(), 1u);
    EXPECT_EQ(node.fabric().sinkBusyDrops(), 1u);
    EXPECT_EQ(node.fabric().linkedDelivered(), 3u);

    // Once the prepare completed, the sink accepts events again.
    node.fabric().raise({core::Irq::AdcDone, 220, true});
    simulation.runForSeconds(0.01);
    EXPECT_EQ(node.radio().framesSent(), 2u);
    EXPECT_EQ(node.fabric().sinkBusyDrops(), 1u);
}

TEST(FabricDelivery, ClearLinksRestoresTheZeroPowerPassThrough)
{
    sim::Simulation simulation;
    core::SensorNode node(simulation, "node", nodeConfig());

    node.fabric().configure(txChain(), 0);
    EXPECT_TRUE(node.fabric().configured());
    node.fabric().clearLinks();
    EXPECT_FALSE(node.fabric().configured());

    // With the CAM wiped the fabric is a wire to the interrupt bus.
    simulation.runForSeconds(0.001);
    EXPECT_EQ(node.fabric().energyJoules(), 0.0);
    EXPECT_EQ(node.fabric().averagePowerWatts(), 0.0);
}

TEST(FabricDelivery, ProbeLatchSinkRecordsAFabricProbe)
{
    sim::Simulation simulation;
    core::SensorNode node(simulation, "node", nodeConfig());

    node.fabric().configure({{Source::Timer0Fire, Sink::ProbeLatch}}, 0);
    node.fabric().raise({core::Irq::Timer0});
    simulation.runForSeconds(0.001);

    EXPECT_EQ(node.probes().count(core::Probe::FabricLatch), 1u);
    EXPECT_EQ(node.fabric().linkedDelivered(), 1u);
}

// ---------------------------------------------------------------------------
// EP fallback: unlinked events take the legacy interrupt-bus path
// ---------------------------------------------------------------------------

TEST(FabricFallback, UnconfiguredFabricLeavesTheEpPathUntouched)
{
    sim::Simulation simulation;
    core::SensorNode node(simulation, "node", nodeConfig(42));

    core::apps::AppParams params;
    params.samplePeriodCycles = 1000;
    core::apps::install(node, core::apps::buildApp1(params));
    simulation.runForSeconds(0.1);

    EXPECT_FALSE(node.fabric().configured());
    EXPECT_EQ(node.fabric().linkedDelivered(), 0u);
    EXPECT_GE(node.radio().framesSent(), 8u);
    EXPECT_GT(node.ep().isrsExecuted(), 0u);
    // An empty CAM is free: the legacy energy ledger is unchanged.
    EXPECT_EQ(node.fabric().energyJoules(), 0.0);
}

TEST(FabricFallback, PartialLinksMixWithEpServicing)
{
    // Only the TX-done gate is linked; the EP still services the timer
    // and tx-ready interrupts. Both paths must interleave cleanly.
    sim::Simulation simulation;
    core::SensorNode node(simulation, "node", nodeConfig(42));

    core::apps::AppParams params;
    params.samplePeriodCycles = 1000;
    core::apps::install(node, core::apps::buildApp1(params));
    node.fabric().configure({{Source::RadioTxDone, Sink::RadioGate}}, 0);
    simulation.runForSeconds(0.1);

    EXPECT_GE(node.radio().framesSent(), 8u);
    // Every TX-done was fabric-serviced; the EP saw timer + tx-ready.
    EXPECT_EQ(node.fabric().linkedDelivered(), node.radio().framesSent());
    EXPECT_GT(node.ep().isrsExecuted(), 0u);
    EXPECT_EQ(node.irqBus().dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Network-level determinism and the EP-bypass payoff
// ---------------------------------------------------------------------------

namespace {

Scenario
linkedScenario(unsigned count, unsigned threads, bool linked)
{
    Scenario sc;
    sc.name = "fabric-oracle";
    sc.seconds = 0.3;
    sc.seed = 11;
    sc.threads = threads;
    sc.nodes.count = count;
    sc.nodes.app = "app1";
    sc.nodes.period = 2000;
    sc.nodes.signal = "const:200";
    if (linked) {
        sc.events.emplace();
        sc.events->links = sensingChain();
    }
    return sc;
}

core::Network::Counters
runScenario(const Scenario &sc)
{
    scenario::Lowered low = scenario::lower(sc);
    core::Network network(low.spec);
    network.runForSeconds(low.seconds);
    return network.counters();
}

} // namespace

TEST(FabricNetwork, LinkedCountersAreThreadCountInvariant)
{
    core::Network::Counters k1 = runScenario(linkedScenario(64, 1, true));
    core::Network::Counters k2 = runScenario(linkedScenario(64, 2, true));
    core::Network::Counters k4 = runScenario(linkedScenario(64, 4, true));

    EXPECT_GT(k1.fabricLinked, 0u);
    EXPECT_GT(k1.framesSent, 0u);
    EXPECT_EQ(k1, k2);
    EXPECT_EQ(k1, k4);
}

TEST(FabricNetwork, LinkedNetworkWakesTheEpLessPerSensorAction)
{
    core::Network::Counters linked = runScenario(linkedScenario(64, 1, true));
    core::Network::Counters ep = runScenario(linkedScenario(64, 1, false));

    // Same workload, but every sensing-chain event is fabric-serviced:
    // the EP services (almost) nothing, and the kernel processes fewer
    // simulated events per sensor action.
    EXPECT_GT(linked.framesSent, 0u);
    EXPECT_GT(ep.epIsrs, 0u);
    EXPECT_LT(linked.epIsrs, ep.epIsrs);
    EXPECT_LT(linked.eventsProcessed / std::max<std::uint64_t>(
                  linked.framesSent, 1),
              ep.eventsProcessed / std::max<std::uint64_t>(ep.framesSent, 1));
    EXPECT_EQ(ep.fabricLinked, 0u);
}
