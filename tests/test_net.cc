/**
 * @file
 * Tests of the 802.15.4 substrate: CRC-16 correctness (the table-driven
 * codec against the bitwise definition), frame codec round-trips
 * (property-swept over payload sizes), corruption detection (any flipped
 * byte must fail the FCS), and the broadcast medium's delivery, loss,
 * and collision models — including that loss draws are binomial and
 * independent of attach order and transmit interleaving — the spatial
 * model's adjacency rows against its closed-form propagation law, and
 * every verdict of the medium against its interval definition.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <compare>
#include <functional>
#include <memory>
#include <ostream>
#include <set>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "function_event.hh"
#include "net/channel.hh"
#include "sim/logging.hh"
#include "net/frame.hh"
#include "net/packet_sink.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

using namespace ulp;
using namespace ulp::net;

TEST(Crc16, KnownVectors)
{
    // CRC-16/CCITT (XModem variant: poly 0x1021, init 0): "123456789"
    // yields 0x31C3.
    const std::uint8_t digits[] = {'1', '2', '3', '4', '5',
                                   '6', '7', '8', '9'};
    EXPECT_EQ(crc16(digits), 0x31C3);

    EXPECT_EQ(crc16(std::span<const std::uint8_t>{}), 0x0000);
    const std::uint8_t zero[] = {0x00};
    EXPECT_EQ(crc16(zero), 0x0000);
    const std::uint8_t ff[] = {0xFF};
    // One 0xFF byte through the bitwise definition.
    EXPECT_EQ(crc16(ff), 0x1EF0);
}

namespace {

/** CRC-16/CCITT by its definition: poly 0x1021, init 0, MSB first,
 *  one bit at a time. */
std::uint16_t
bitwiseCrc16(std::span<const std::uint8_t> bytes)
{
    std::uint16_t crc = 0x0000;
    for (std::uint8_t byte : bytes) {
        crc ^= static_cast<std::uint16_t>(byte) << 8;
        for (int bit = 0; bit < 8; ++bit) {
            if (crc & 0x8000)
                crc = static_cast<std::uint16_t>((crc << 1) ^ 0x1021);
            else
                crc = static_cast<std::uint16_t>(crc << 1);
        }
    }
    return crc;
}

} // namespace

TEST(Crc16, TableMatchesTheBitwiseDefinition)
{
    // Every one- and two-byte input.
    for (unsigned a = 0; a < 256; ++a) {
        const std::uint8_t one[] = {static_cast<std::uint8_t>(a)};
        ASSERT_EQ(crc16(one), bitwiseCrc16(one)) << a;
        for (unsigned b = 0; b < 256; ++b) {
            const std::uint8_t two[] = {static_cast<std::uint8_t>(a),
                                        static_cast<std::uint8_t>(b)};
            ASSERT_EQ(crc16(two), bitwiseCrc16(two)) << a << ' ' << b;
        }
    }
    // Seeded random spans of every length up to a whole 802.15.4 frame.
    sim::Random rng(0xcc17);
    std::vector<std::uint8_t> bytes;
    for (int iteration = 0; iteration < 2000; ++iteration) {
        bytes.resize(rng.uniformInt(0, Frame::maxFrameBytes));
        for (auto &b : bytes)
            b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        ASSERT_EQ(crc16(bytes), bitwiseCrc16(bytes)) << bytes.size();
    }
}

TEST(Frame, SerializeLayout)
{
    Frame frame;
    frame.type = Frame::Type::Data;
    frame.seq = 0x42;
    frame.destPan = 0x2211;
    frame.dest = 0x4433;
    frame.src = 0x6655;
    frame.payload = {0xAA};

    std::vector<std::uint8_t> wire = frame.serialize();
    ASSERT_EQ(wire.size(), 12u);
    EXPECT_EQ(wire[0], 0x01); // FCF lo: data frame
    EXPECT_EQ(wire[1], 0x88); // FCF hi: 16-bit addressing both ways
    EXPECT_EQ(wire[2], 0x42);
    EXPECT_EQ(wire[3], 0x11); // PAN little-endian
    EXPECT_EQ(wire[4], 0x22);
    EXPECT_EQ(wire[5], 0x33); // dest little-endian
    EXPECT_EQ(wire[6], 0x44);
    EXPECT_EQ(wire[7], 0x55); // src little-endian
    EXPECT_EQ(wire[8], 0x66);
    EXPECT_EQ(wire[9], 0xAA);

    std::uint16_t fcs = crc16(std::span(wire.data(), 10));
    EXPECT_EQ(wire[10], fcs & 0xFF);
    EXPECT_EQ(wire[11], fcs >> 8);
}

TEST(Frame, OversizedPayloadIsFatal)
{
    Frame frame;
    frame.payload.assign(Frame::maxPayloadBytes + 1, 0);
    EXPECT_THROW(frame.serialize(), sim::FatalError);
}

TEST(Frame, DeserializeRejectsRunts)
{
    std::vector<std::uint8_t> tiny(Frame::overheadBytes - 1, 0);
    EXPECT_FALSE(Frame::deserialize(tiny).has_value());
    std::vector<std::uint8_t> huge(Frame::maxFrameBytes + 1, 0);
    EXPECT_FALSE(Frame::deserialize(huge).has_value());
}

class FrameRoundTrip : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(FrameRoundTrip, SerializeDeserializeIdentity)
{
    sim::Random rng(GetParam() * 1234 + 5);
    for (int iteration = 0; iteration < 20; ++iteration) {
        Frame frame;
        frame.type = static_cast<Frame::Type>(rng.uniformInt(0, 3));
        frame.seq = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        frame.destPan = static_cast<std::uint16_t>(rng.uniformInt(0, 0xFFFF));
        frame.dest = static_cast<std::uint16_t>(rng.uniformInt(0, 0xFFFF));
        frame.src = static_cast<std::uint16_t>(rng.uniformInt(0, 0xFFFF));
        frame.payload.resize(GetParam());
        for (auto &b : frame.payload)
            b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));

        auto wire = frame.serialize();
        auto parsed = Frame::deserialize(wire);
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, frame);
    }
}

TEST_P(FrameRoundTrip, AnySingleCorruptionFailsFcs)
{
    Frame frame;
    frame.seq = 9;
    frame.dest = 0x1234;
    frame.src = 0x5678;
    frame.payload.assign(GetParam(), 0x3C);
    auto wire = frame.serialize();

    for (std::size_t i = 0; i < wire.size(); ++i) {
        for (std::uint8_t bit : {0x01, 0x80}) {
            auto corrupted = wire;
            corrupted[i] ^= bit;
            auto parsed = Frame::deserialize(corrupted);
            // A flip may survive only by decoding to a *different* frame
            // with a matching FCS — impossible for single-bit errors
            // under CRC-16.
            EXPECT_FALSE(parsed.has_value())
                << "byte " << i << " bit " << int(bit);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(PayloadSizes, FrameRoundTrip,
                         ::testing::Values(0u, 1u, 5u, 21u, 64u,
                                           Frame::maxPayloadBytes));

// --------------------------------------------------------------------------
// Channel
// --------------------------------------------------------------------------

namespace {

struct Listener : Transceiver
{
    std::vector<Frame> got;
    int corrupted = 0;
    int starts = 0;

    void
    frameArrived(const Frame &frame, bool bad) override
    {
        if (bad)
            ++corrupted;
        else
            got.push_back(frame);
    }

    void frameStarted(sim::Tick) override { ++starts; }
};

Frame
makeFrame(std::uint8_t seq)
{
    Frame frame;
    frame.seq = seq;
    frame.src = 1;
    frame.dest = 2;
    frame.payload = {seq};
    return frame;
}

} // namespace

TEST(Channel, DeliversToAllButSender)
{
    sim::Simulation simulation;
    Channel channel(simulation, "ch");
    Listener tx, rx1, rx2;
    channel.attach(&tx);
    channel.attach(&rx1);
    channel.attach(&rx2);

    sim::Tick end = channel.transmit(&tx, makeFrame(1));
    // 12 bytes at 250 kbit/s = 384 us.
    EXPECT_EQ(end, sim::secondsToTicks(12 * 8 / 250e3));
    EXPECT_EQ(rx1.starts, 1);
    EXPECT_TRUE(rx1.got.empty()); // not yet delivered

    simulation.runUntil(end);
    ASSERT_EQ(rx1.got.size(), 1u);
    ASSERT_EQ(rx2.got.size(), 1u);
    EXPECT_TRUE(tx.got.empty());
    EXPECT_EQ(channel.framesDelivered(), 2u);
}

TEST(Channel, OverlappingTransmissionsCollide)
{
    sim::Simulation simulation;
    Channel channel(simulation, "ch");
    Listener a, b, rx;
    channel.attach(&a);
    channel.attach(&b);
    channel.attach(&rx);

    channel.transmit(&a, makeFrame(1));
    simulation.runFor(sim::secondsToTicks(100e-6)); // mid-flight
    channel.transmit(&b, makeFrame(2));
    simulation.runForSeconds(0.01);

    EXPECT_EQ(channel.collisions(), 1u);
    EXPECT_TRUE(rx.got.empty());
    EXPECT_EQ(rx.corrupted, 2); // both frames arrive corrupted
}

TEST(Channel, LossProbabilityDropsFrames)
{
    sim::Simulation simulation;
    Channel channel(simulation, "ch", Channel::defaultBitRate, 99);
    channel.setLossProbability(0.5);
    Listener tx, rx;
    channel.attach(&tx);
    channel.attach(&rx);

    for (int i = 0; i < 400; ++i) {
        channel.transmit(&tx, makeFrame(static_cast<std::uint8_t>(i)));
        simulation.runFor(sim::secondsToTicks(1e-3));
    }
    EXPECT_NEAR(static_cast<double>(rx.got.size()), 200.0, 50.0);
    EXPECT_GT(rx.got.size(), 0u);
}

TEST(Channel, LossRateWithinBinomialBounds)
{
    // 600 frames to 7 receivers at p = 0.3 are 4,200 independent draws:
    // the lost count must sit inside the two-sided 99.9% bound
    // n p +- 3.29 sqrt(n p (1 - p)).
    constexpr double p = 0.3;
    constexpr int frames = 600;
    constexpr int receivers = 7;
    sim::Simulation simulation;
    Channel channel(simulation, "ch", Channel::defaultBitRate, 7);
    channel.setLossProbability(p);
    Listener tx;
    std::vector<Listener> rx(receivers);
    channel.attach(&tx);
    for (Listener &l : rx)
        channel.attach(&l);

    for (int i = 0; i < frames; ++i) {
        channel.transmit(&tx, makeFrame(static_cast<std::uint8_t>(i)));
        simulation.runFor(sim::secondsToTicks(1e-3));
    }
    double heard = 0;
    for (const Listener &l : rx)
        heard += static_cast<double>(l.got.size());
    const double n = frames * receivers;
    EXPECT_NEAR(n - heard, n * p, 3.29 * std::sqrt(n * p * (1 - p)));
    EXPECT_EQ(static_cast<double>(channel.framesDelivered()), heard);
}

namespace {

using Heard = std::vector<std::set<std::pair<int, int>>>;

/**
 * What each of six broadcast nodes hears, as (src, seq) sets, when they
 * attach in @p attach_order (bound to fixed node indices) and nodes 0
 * and 1 transmit one frame each, 1 ms apart, in the order @p turns.
 */
Heard
lossOutcome(const std::vector<unsigned> &attach_order,
            const std::vector<unsigned> &turns, bool bursty)
{
    constexpr unsigned nodes = 6;
    sim::Simulation simulation;
    FrameRelay relay(1);
    Channel channel(simulation, "ch", relay, 0,
                    std::vector<unsigned>(nodes, 0), 11);
    if (bursty)
        channel.setGilbertElliott({0.1, 0.3, 0.05, 0.9});
    else
        channel.setLossProbability(0.4);
    std::vector<Listener> node(nodes);
    for (unsigned i : attach_order) {
        channel.attach(&node[i]);
        channel.bind(&node[i], i);
    }

    std::uint8_t next[2] = {0, 0};
    for (unsigned src : turns) {
        Frame frame = makeFrame(next[src]++);
        frame.src = static_cast<std::uint16_t>(src);
        channel.transmit(&node[src], frame);
        simulation.runFor(sim::secondsToTicks(1e-3));
    }
    Heard heard(nodes);
    for (unsigned r = 0; r < nodes; ++r) {
        for (const Frame &f : node[r].got)
            heard[r].insert({f.src, f.seq});
    }
    return heard;
}

} // namespace

TEST(Channel, LossOutcomeIgnoresAttachOrderAndInterleaving)
{
    // Loss draws are keyed on (seed, src, dst, per-source frame number),
    // and the Gilbert-Elliott chain is one per transmitter: reordering
    // attaches and interleaving the two transmitters differently must
    // leave every receiver's outcome untouched.
    std::vector<unsigned> alternating, grouped;
    for (unsigned i = 0; i < 200; ++i) {
        alternating.push_back(i % 2);
        grouped.push_back(i < 100 ? 0 : 1);
    }
    for (bool bursty : {false, true}) {
        const Heard a = lossOutcome({0, 1, 2, 3, 4, 5}, alternating, bursty);
        const Heard b = lossOutcome({5, 3, 1, 4, 0, 2}, grouped, bursty);
        EXPECT_EQ(a, b) << (bursty ? "Gilbert-Elliott" : "i.i.d.");
        std::size_t heard = 0;
        for (unsigned r = 2; r < 6; ++r)
            heard += a[r].size();
        EXPECT_GT(heard, 0u);
        EXPECT_LT(heard, 4u * 200u); // some frames were lost
    }
}

TEST(Channel, DetachStopsDelivery)
{
    sim::Simulation simulation;
    Channel channel(simulation, "ch");
    Listener tx, rx;
    channel.attach(&tx);
    channel.attach(&rx);
    channel.transmit(&tx, makeFrame(1));
    channel.detach(&rx);
    simulation.runForSeconds(0.01);
    EXPECT_TRUE(rx.got.empty());
}

TEST(Channel, DuplicateAttachPanics)
{
    sim::Simulation simulation;
    Channel channel(simulation, "ch");
    Listener rx;
    channel.attach(&rx);
    EXPECT_THROW(channel.attach(&rx), sim::PanicError);
}

TEST(Channel, DetachIsIdempotent)
{
    sim::Simulation simulation;
    Channel channel(simulation, "ch");
    Listener tx, a, b, c;
    channel.attach(&tx);
    channel.attach(&a);
    channel.attach(&b);
    channel.attach(&c);

    // Remove from the middle: the remaining receivers must still all
    // hear the frame, and a second detach of the same transceiver must
    // be a no-op.
    channel.detach(&a);
    channel.detach(&a);

    channel.transmit(&tx, makeFrame(3));
    simulation.runForSeconds(0.01);
    EXPECT_TRUE(a.got.empty());
    EXPECT_EQ(b.got.size(), 1u);
    EXPECT_EQ(c.got.size(), 1u);

    // And `a` can come back after detaching (not "attached twice").
    channel.attach(&a);
    channel.transmit(&tx, makeFrame(4));
    simulation.runForSeconds(0.01);
    EXPECT_EQ(a.got.size(), 1u);
}

TEST(PacketSink, DeduplicatesAndCounts)
{
    sim::Simulation simulation;
    Channel channel(simulation, "ch");
    PacketSink sink(channel);
    Listener tx;
    channel.attach(&tx);

    channel.transmit(&tx, makeFrame(7));
    simulation.runForSeconds(0.01);
    channel.transmit(&tx, makeFrame(7)); // same (src, seq)
    simulation.runForSeconds(0.01);
    channel.transmit(&tx, makeFrame(8));
    simulation.runForSeconds(0.01);

    EXPECT_EQ(sink.uniqueDeliveries(), 2u);
    EXPECT_EQ(sink.duplicates(), 1u);
    EXPECT_EQ(sink.deliveriesFrom(1), 2u);
}

// --------------------------------------------------------------------------
// Spatial model adjacency
// --------------------------------------------------------------------------

namespace {

struct AdjacencyCounts
{
    unsigned neighborPairs = 0;
    unsigned interfererPairs = 0;
};

/**
 * For every ordered pair a != b, the CSR rows and interferes() must say
 * exactly what the log-distance law says: b is an interferer of a iff
 * rxPower(a, b) >= sensitivity - interferenceMarginDb, and a neighbor
 * iff rxPower(a, b) >= sensitivity. Rows must be strictly ascending.
 */
AdjacencyCounts
expectAdjacencyIsClosedForm(const SpatialModel &model)
{
    const SpatialConfig &cfg = model.config();
    const double interference_floor =
        cfg.sensitivityDbm - cfg.interferenceMarginDb;
    AdjacencyCounts counts;
    for (unsigned a = 0; a < model.numNodes(); ++a) {
        const auto ints = model.interferers(a);
        const auto neighs = model.neighbors(a);
        EXPECT_TRUE(std::adjacent_find(ints.begin(), ints.end(),
                                       std::greater_equal<>()) ==
                    ints.end())
            << "interferers(" << a << ") not strictly ascending";
        EXPECT_TRUE(std::adjacent_find(neighs.begin(), neighs.end(),
                                       std::greater_equal<>()) ==
                    neighs.end())
            << "neighbors(" << a << ") not strictly ascending";
        EXPECT_FALSE(model.interferes(a, a)) << a;
        for (unsigned b = 0; b < model.numNodes(); ++b) {
            if (a == b)
                continue;
            const double rx = model.rxPowerDbm(a, b);
            const bool interferes = rx >= interference_floor;
            const bool decodes = rx >= cfg.sensitivityDbm;
            EXPECT_EQ(std::binary_search(ints.begin(), ints.end(), b),
                      interferes)
                << a << " -> " << b << " at " << rx << " dBm";
            EXPECT_EQ(std::binary_search(neighs.begin(), neighs.end(), b),
                      decodes)
                << a << " -> " << b << " at " << rx << " dBm";
            EXPECT_EQ(model.interferes(a, b), interferes)
                << a << " -> " << b << " at " << rx << " dBm";
            counts.interfererPairs += interferes;
            counts.neighborPairs += decodes;
        }
    }
    return counts;
}

} // namespace

TEST(SpatialModelAdjacency, UniformLayoutsMatchTheClosedForm)
{
    SpatialConfig cfg;
    cfg.pathLossExponent = 2.8;
    cfg.sensitivityDbm = -90.0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        std::vector<Position> pos;
        for (unsigned i = 0; i < 300; ++i) {
            pos.push_back({counterDraw(seed, i, 0) * 800.0 - 100.0,
                           counterDraw(seed, i, 1) * 800.0 - 100.0});
        }
        SpatialModel model(cfg, pos);
        AdjacencyCounts counts = expectAdjacencyIsClosedForm(model);
        // Some pairs decode, and some only interfere.
        EXPECT_GT(counts.neighborPairs, 0u) << seed;
        EXPECT_GT(counts.interfererPairs, counts.neighborPairs) << seed;
    }
}

TEST(SpatialModelAdjacency, PairsAtExactlyTheRangesMatchTheClosedForm)
{
    SpatialConfig cfg;
    cfg.sensitivityDbm = -80.0;
    // A placeholder layout, only to ask the model its ranges.
    SpatialModel probe(cfg, {{0.0, 0.0}});
    const double decode = probe.maxRangeMeters(cfg.sensitivityDbm);
    const double reach = probe.interferenceRangeMeters();
    ASSERT_GT(reach, decode);

    // Pairs exactly one decode range or one interference reach apart, on
    // both sides of the origin, so the grid scan's cells straddle zero.
    const double start = -2.0 * reach;
    std::vector<Position> pos;
    for (int i = 0; i < 5; ++i) {
        for (int j = 0; j < 3; ++j) {
            pos.push_back({start + i * reach + j * decode, 0.0});
            pos.push_back({0.0, start + i * decode + j * reach});
        }
    }
    SpatialModel model(cfg, pos);
    AdjacencyCounts counts = expectAdjacencyIsClosedForm(model);
    EXPECT_GT(counts.neighborPairs, 0u);
    EXPECT_GT(counts.interfererPairs, counts.neighborPairs);
}

TEST(SpatialModelAdjacency, CoLocatedAndSubMeterPairsMatchTheClosedForm)
{
    SpatialConfig cfg;
    cfg.sensitivityDbm = -60.0; // about 10 m of decode range
    const std::vector<Position> pos = {
        {5.0, 5.0}, {5.0, 5.0},         // co-located
        {5.3, 5.4}, {5.9, 5.0},         // under 1 m from the first two
        {-0.2, -0.7}, {0.0, 0.0},       // a sub-meter pair at the origin
        {9.0, 9.0}, {9.0, 9.0}, {9.5, 9.0},
        {40.0, 40.0},                   // out of everyone's reach
    };
    SpatialModel model(cfg, pos);
    AdjacencyCounts counts = expectAdjacencyIsClosedForm(model);
    EXPECT_TRUE(model.interferes(0, 1));
    EXPECT_TRUE(model.interferes(1, 0));
    EXPECT_TRUE(model.interferers(9).empty());
    EXPECT_GT(counts.neighborPairs, 0u);
}

TEST(SpatialModelAdjacency, NoPairInteractsWhenTheReachIsZero)
{
    SpatialConfig cfg;
    cfg.txPowerDbm = -100.0; // below every threshold even at 1 m
    const std::vector<Position> pos = {
        {0.0, 0.0}, {0.0, 0.0}, {0.5, 0.0}, {3.0, 4.0}, {100.0, 0.0},
    };
    SpatialModel model(cfg, pos);
    ASSERT_EQ(model.interferenceRangeMeters(), 0.0);
    AdjacencyCounts counts = expectAdjacencyIsClosedForm(model);
    EXPECT_EQ(counts.interfererPairs, 0u);
    EXPECT_EQ(counts.neighborPairs, 0u);
    EXPECT_EQ(model.numDomains(), model.numNodes());
}

// --------------------------------------------------------------------------
// The medium's verdicts against their interval definition
// --------------------------------------------------------------------------

namespace {

/** A reception as its receiver saw it. */
struct Arrival
{
    sim::Tick tick = 0;
    unsigned src = 0;
    unsigned count = 0;
    bool corrupted = false;

    auto operator<=>(const Arrival &) const = default;
};

/** A transmission as its sender made it; count is its srcTxSeq. */
struct Sent
{
    sim::Tick start = 0;
    sim::Tick end = 0;
    unsigned src = 0;
    unsigned count = 0;
};

/** A medium's statistics, summed over its domains. */
struct MediumCounts
{
    double sent = 0;
    double delivered = 0;
    double lost = 0;
    double corrupted = 0;
    double collisions = 0;

    bool operator==(const MediumCounts &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const MediumCounts &c)
{
    return os << "sent " << c.sent << " delivered " << c.delivered
              << " lost " << c.lost << " corrupted " << c.corrupted
              << " collisions " << c.collisions;
}

struct CountVisitor : sim::stats::Visitor
{
    MediumCounts counts;

    void group(std::string_view) override {}

    void
    scalar(const sim::stats::Scalar &stat, std::string_view name,
           std::string_view) override
    {
        if (name == "framesSent")
            counts.sent += stat.value();
        else if (name == "framesDelivered")
            counts.delivered += stat.value();
        else if (name == "framesLost")
            counts.lost += stat.value();
        else if (name == "framesCorrupted")
            counts.corrupted += stat.value();
        else if (name == "collisions")
            counts.collisions += stat.value();
    }
};

struct ScriptedNode : Transceiver
{
    std::function<void(const Frame &, bool)> onFrame;

    void
    frameArrived(const Frame &frame, bool corrupted) override
    {
        onFrame(frame, corrupted);
    }
};

/** What a scripted run put on the air, and what each node received. */
struct ScriptOutcome
{
    std::vector<Sent> sent;
    std::vector<std::vector<Arrival>> got; ///< per node, in arrival order
    unsigned answers = 0;  ///< sent from inside frameArrived
    unsigned detached = 0; ///< leaves the medium at detachTick
    sim::Tick detachTick = 0;
    MediumCounts counts;
};

/** One byte of airtime at 250 kbit/s: the grid of every scripted start. */
constexpr sim::Tick byteTicks = 32'000;

/**
 * Run @p nodes scripted transceivers, bound to indices 0..nodes-1, on a
 * one-shard Channel built from @p channel_args. Each node sends 16
 * frames of 5 to 40 payload bytes at ticks drawn on the one-byte
 * airtime grid, so flights overlap, touch end to start and share start
 * ticks. A payload carries its sender and the sender's transmit count.
 * Every fifth node answers every fourth intact first-hand frame from
 * inside frameArrived, at the delivery tick, and one node detaches
 * halfway, off the grid.
 */
template <typename... ChannelArgs>
ScriptOutcome
runScript(unsigned nodes, std::uint64_t seed, ChannelArgs &&...channel_args)
{
    constexpr unsigned framesPerNode = 16;
    constexpr sim::Tick span = 25'000 * byteTicks; // 0.8 s

    sim::Simulation simulation;
    FrameRelay relay(1);
    Channel channel(simulation, "ch", relay, 0,
                    std::forward<ChannelArgs>(channel_args)...);

    ScriptOutcome out;
    out.got.resize(nodes);
    out.detached = nodes / 2;
    out.detachTick = span / 2 + 1;

    sim::Random rng(seed);
    std::vector<unsigned> count(nodes, 0);
    std::vector<ScriptedNode> node(nodes);

    auto send = [&](unsigned src, bool answer) {
        Frame frame;
        frame.payload.resize(rng.uniformInt(5, 40));
        frame.payload[0] = static_cast<std::uint8_t>(src);
        frame.payload[1] = static_cast<std::uint8_t>(src >> 8);
        frame.payload[2] = static_cast<std::uint8_t>(count[src]);
        frame.payload[3] = static_cast<std::uint8_t>(count[src] >> 8);
        frame.payload[4] = answer;
        const sim::Tick start = simulation.curTick();
        const sim::Tick end = channel.transmit(&node[src], frame);
        out.sent.push_back({start, end, src, count[src]++});
    };

    for (unsigned i = 0; i < nodes; ++i) {
        node[i].onFrame = [&, i](const Frame &frame, bool corrupted) {
            const auto &p = frame.payload;
            const unsigned src = p[0] | p[1] << 8;
            const unsigned seq = p[2] | p[3] << 8;
            out.got[i].push_back({simulation.curTick(), src, seq, corrupted});
            if (i % 5 == 0 && !corrupted && !p[4] && seq % 4 == 0) {
                ++out.answers;
                send(i, true);
            }
        };
        channel.attach(&node[i]);
        channel.bind(&node[i], i);
    }

    std::vector<std::unique_ptr<test::FunctionEvent>> sends;
    for (unsigned i = 0; i < nodes; ++i) {
        for (unsigned k = 0; k < framesPerNode; ++k) {
            sends.push_back(std::make_unique<test::FunctionEvent>(
                [&send, i] { send(i, false); }, "send"));
            simulation.eventq().schedule(
                sends.back().get(),
                rng.uniformInt(1, span / byteTicks) * byteTicks);
        }
    }
    test::FunctionEvent leave(
        [&] { channel.detach(&node[out.detached]); }, "leave");
    simulation.eventq().schedule(&leave, out.detachTick);

    simulation.runUntil(span + sim::secondsToTicks(0.1));

    CountVisitor visitor;
    channel.visitStats(visitor);
    out.counts = visitor.counts;
    return out;
}

/**
 * Check every receiver's arrivals and the medium's counts against the
 * definition in net/channel.hh, applied to the flights the run actually
 * made. A flight f reaches r in receivers(f.src) while r is attached;
 * it is corrupted at r iff another flight strictly overlaps it whose
 * transmitter is r or interferes(that transmitter, r); otherwise
 * delivers(f.src, r, f.count) decides delivered vs lost. f is a
 * collision iff a flight its transmitter can hear was on the air when
 * it started, same-start ties broken by (src, count).
 */
template <typename Receivers, typename Interferes, typename Delivers>
void
expectVerdictsFollowTheDefinition(const ScriptOutcome &out,
                                  Receivers &&receivers,
                                  Interferes &&interferes,
                                  Delivers &&delivers)
{
    MediumCounts want;
    want.sent = static_cast<double>(out.sent.size());
    std::vector<std::vector<Arrival>> expected(out.got.size());
    // How often the hard cases came up, so the run is known to test them.
    unsigned half_duplex_only = 0, same_start = 0, touching = 0;

    for (const Sent &f : out.sent) {
        bool collided = false;
        for (const Sent &g : out.sent) {
            if (&g == &f)
                continue;
            same_start += g.start == f.start;
            touching += g.end == f.start;
            if (interferes(g.src, f.src) &&
                ((g.start < f.start && f.start < g.end) ||
                 (g.start == f.start &&
                  std::tie(g.src, g.count) < std::tie(f.src, f.count)))) {
                collided = true;
            }
        }
        want.collisions += collided;

        for (unsigned r : receivers(f.src)) {
            if (r == out.detached && f.end > out.detachTick)
                continue;
            bool by_self = false, by_other = false;
            for (const Sent &g : out.sent) {
                if (&g == &f || !(g.start < f.end && f.start < g.end))
                    continue;
                if (g.src == r)
                    by_self = true;
                else if (interferes(g.src, r))
                    by_other = true;
            }
            const bool corrupted = by_self || by_other;
            half_duplex_only += by_self && !by_other;
            if (!corrupted && !delivers(f.src, r, f.count)) {
                ++want.lost;
                continue;
            }
            ++(corrupted ? want.corrupted : want.delivered);
            expected[r].push_back({f.end, f.src, f.count, corrupted});
        }
    }

    for (std::size_t r = 0; r < out.got.size(); ++r) {
        std::vector<Arrival> got = out.got[r];
        std::sort(got.begin(), got.end());
        std::sort(expected[r].begin(), expected[r].end());
        EXPECT_EQ(got, expected[r]) << "receiver " << r;
    }
    EXPECT_EQ(out.counts, want);

    EXPECT_GT(out.answers, 0u);
    EXPECT_GT(half_duplex_only, 0u);
    EXPECT_GT(same_start, 0u);
    EXPECT_GT(touching, 0u);
    EXPECT_GT(want.delivered, 0.0);
    EXPECT_GT(want.corrupted, 0.0);
    EXPECT_GT(want.collisions, 0.0);
}

/** Check a spatial medium over @p positions against the definition. */
void
expectSpatialVerdictsFollowTheDefinition(std::vector<Position> positions,
                                         std::uint64_t seed)
{
    SpatialConfig cfg;
    cfg.pathLossExponent = 2.8;
    cfg.sensitivityDbm = -90.0; // about 61 m to decode, 100 m to interfere
    cfg.linkSeed = seed;
    const unsigned nodes = static_cast<unsigned>(positions.size());
    const SpatialModel model(cfg, std::move(positions));
    const ScriptOutcome out = runScript(nodes, seed, model);
    expectVerdictsFollowTheDefinition(
        out, [&](unsigned src) { return model.neighbors(src); },
        [&](unsigned a, unsigned b) { return model.interferes(a, b); },
        [&](unsigned src, unsigned dst, unsigned seq) {
            return model.linkDelivers(src, dst, seq);
        });
    EXPECT_GT(out.counts.lost, 0.0); // some links fade at the cell edge
}

} // namespace

TEST(ChannelVerdicts, UniformLayoutsFollowTheIntervalDefinition)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(seed);
        std::vector<Position> pos;
        for (unsigned i = 0; i < 60; ++i) {
            pos.push_back({counterDraw(seed, i, 0) * 300.0,
                           counterDraw(seed, i, 1) * 300.0});
        }
        expectSpatialVerdictsFollowTheDefinition(std::move(pos), seed);
    }
}

TEST(ChannelVerdicts, GridFollowsTheIntervalDefinition)
{
    std::vector<Position> pos;
    for (unsigned i = 0; i < 64; ++i)
        pos.push_back({40.0 * (i % 8), 40.0 * (i / 8)});
    expectSpatialVerdictsFollowTheDefinition(std::move(pos), 9);
}

TEST(ChannelVerdicts, TwoBroadcastDomainsFollowTheIntervalDefinition)
{
    constexpr unsigned nodes = 40;
    std::vector<unsigned> domain_of(nodes);
    for (unsigned i = 0; i < nodes; ++i)
        domain_of[i] = i % 2;
    const ScriptOutcome out = runScript(nodes, 4, domain_of, 5);
    // Every member of a domain hears and interferes with every other.
    expectVerdictsFollowTheDefinition(
        out,
        [&](unsigned src) {
            std::vector<unsigned> members;
            for (unsigned r = 0; r < nodes; ++r) {
                if (r != src && domain_of[r] == domain_of[src])
                    members.push_back(r);
            }
            return members;
        },
        [&](unsigned a, unsigned b) {
            return a != b && domain_of[a] == domain_of[b];
        },
        [](unsigned, unsigned, unsigned) { return true; });
    EXPECT_EQ(out.counts.lost, 0.0);
}
