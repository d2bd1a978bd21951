/**
 * @file
 * Tests of the 802.15.4 substrate: CRC-16 correctness, frame codec
 * round-trips (property-swept over payload sizes), corruption detection
 * (any flipped byte must fail the FCS), and the broadcast medium's
 * delivery, loss, and collision models — including that loss draws are
 * binomial and independent of attach order and transmit interleaving —
 * and the spatial model's adjacency rows against its closed-form
 * propagation law.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "net/channel.hh"
#include "sim/logging.hh"
#include "net/frame.hh"
#include "net/packet_sink.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

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
