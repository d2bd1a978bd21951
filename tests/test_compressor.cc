/**
 * @file
 * Tests of the delta-compression slave (the §7 future-work accelerator):
 * codec round trips (property-swept over signal shapes), compression
 * ratios, the memory-mapped append/batch behaviour, and a full
 * compressed-telemetry pipeline where the EP moves encoded blocks into
 * 802.15.4 frames without ever branching.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/apps.hh"
#include "core/compressor.hh"
#include "core/sensor_node.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

using namespace ulp;
using namespace ulp::core;

// --------------------------------------------------------------------------
// Codec
// --------------------------------------------------------------------------

namespace {

std::vector<std::uint8_t>
smoothSignal(std::size_t n, std::uint64_t seed)
{
    sim::Random rng(seed);
    std::vector<std::uint8_t> v(n);
    double level = 128.0;
    for (auto &b : v) {
        level += rng.normal(0.0, 2.0);
        level = std::clamp(level, 0.0, 255.0);
        b = static_cast<std::uint8_t>(std::lround(level));
    }
    return v;
}

std::vector<std::uint8_t>
randomSignal(std::size_t n, std::uint64_t seed)
{
    sim::Random rng(seed);
    std::vector<std::uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    return v;
}

} // namespace

TEST(CompressorCodec, EdgeCases)
{
    EXPECT_TRUE(Compressor::encode({}).empty());
    EXPECT_TRUE(Compressor::decode({}).empty());

    std::vector<std::uint8_t> one{42};
    EXPECT_EQ(Compressor::encode(one), one);
    EXPECT_EQ(Compressor::decode(one), one);

    // A constant block: first byte + zero deltas pack two per byte.
    std::vector<std::uint8_t> flat(21, 99);
    auto encoded = Compressor::encode(flat);
    EXPECT_EQ(encoded.size(), 1 + 10u);
    EXPECT_EQ(Compressor::decode(encoded), flat);
}

TEST(CompressorCodec, EscapesLargeJumps)
{
    std::vector<std::uint8_t> jumps{0, 255, 0, 255, 128};
    auto encoded = Compressor::encode(jumps);
    EXPECT_EQ(Compressor::decode(encoded), jumps);
    // All-escape data expands (3 nibbles per sample).
    EXPECT_GT(encoded.size(), jumps.size());
}

class CompressorRoundTrip : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(CompressorRoundTrip, SmoothAndRandomSignals)
{
    for (std::size_t n : {2u, 7u, 20u, 21u, 32u}) {
        auto smooth = smoothSignal(n, GetParam());
        EXPECT_EQ(Compressor::decode(Compressor::encode(smooth)), smooth);
        auto noisy = randomSignal(n, GetParam() + 1);
        EXPECT_EQ(Compressor::decode(Compressor::encode(noisy)), noisy);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressorRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u));

TEST(CompressorCodec, CompressesSlowlyVaryingData)
{
    auto smooth = smoothSignal(20, 5);
    auto encoded = Compressor::encode(smooth);
    // Mostly nibble deltas: close to half size.
    EXPECT_LT(encoded.size(), smooth.size() * 0.75);
}

// --------------------------------------------------------------------------
// Device behaviour
// --------------------------------------------------------------------------

namespace {

struct CompressorDevice : ::testing::Test
{
    sim::Simulation simulation;
    NodeConfig cfg;
    std::unique_ptr<SensorNode> node;

    void
    SetUp() override
    {
        cfg.sensorSignal = [](sim::Tick) { return 100; };
        node = std::make_unique<SensorNode>(simulation, "node", cfg);
    }

    std::uint8_t rd(map::Addr a) { return node->dataBus().read(a); }
    void wr(map::Addr a, std::uint8_t v) { node->dataBus().write(a, v); }
    void advance(double s) { simulation.runForSeconds(s); }
};

} // namespace

TEST_F(CompressorDevice, AppendCountsAndEncodesOnCommand)
{
    for (std::uint8_t v : {100, 101, 103, 102})
        wr(map::compBase + map::compAppend, v);
    EXPECT_EQ(rd(map::compBase + map::compInLen), 4);

    wr(map::compBase + map::compCtrl, 1);
    advance(0.01);
    EXPECT_EQ(node->compressor().blocksEncoded(), 1u);
    EXPECT_EQ(rd(map::compBase + map::compStatus) & 0x2, 0x2); // done

    std::uint8_t out_len = rd(map::compBase + map::compOutLen);
    std::vector<std::uint8_t> encoded;
    for (unsigned i = 0; i < out_len; ++i)
        encoded.push_back(
            rd(static_cast<map::Addr>(map::compBase + map::compOutBuf + i)));
    EXPECT_EQ(Compressor::decode(encoded),
              (std::vector<std::uint8_t>{100, 101, 103, 102}));
    EXPECT_EQ(rd(map::compBase + map::compInLen), 0); // consumed
}

TEST_F(CompressorDevice, BatchTriggersAutomaticEncode)
{
    wr(map::compBase + map::compBatch, 3);
    wr(map::compBase + map::compAppend, 10);
    wr(map::compBase + map::compAppend, 11);
    EXPECT_EQ(node->compressor().blocksEncoded(), 0u);
    wr(map::compBase + map::compAppend, 12);
    advance(0.01);
    EXPECT_EQ(node->compressor().blocksEncoded(), 1u);
}

TEST_F(CompressorDevice, OverflowIsCountedNotFatal)
{
    for (unsigned i = 0; i < 40; ++i)
        wr(map::compBase + map::compAppend, static_cast<std::uint8_t>(i));
    EXPECT_EQ(rd(map::compBase + map::compInLen), 32);
    EXPECT_GE(static_cast<std::uint64_t>(
                  static_cast<const sim::stats::Scalar *>(
                      node->compressor().findStat("overflows"))
                      ->value()),
              8u);
}

TEST_F(CompressorDevice, PowerGatingClearsState)
{
    wr(map::compBase + map::compAppend, 1);
    node->powerCtrl().switchOff(ComponentId::Compressor);
    node->powerCtrl().switchOn(ComponentId::Compressor);
    advance(0.001);
    EXPECT_EQ(rd(map::compBase + map::compInLen), 0);
}

// --------------------------------------------------------------------------
// End-to-end compressed telemetry
// --------------------------------------------------------------------------

TEST(CompressedTelemetry, EpPipelineDeliversDecodableBatches)
{
    sim::Simulation simulation;
    NodeConfig cfg;
    // A slow ramp: ideal for delta coding.
    cfg.sensorSignal = [](sim::Tick now) -> std::uint8_t {
        return static_cast<std::uint8_t>(
            100 + (sim::ticksToSeconds(now) * 10.0));
    };
    SensorNode node(simulation, "node", cfg);

    // Timer ISR appends samples to the compressor; a full batch encodes
    // and the EP forwards the encoded block through the message
    // processor — the encoded length moves through the EP's register
    // (READ; WRITE), no branching required.
    apps::NodeApp app;
    app.name = "compressed-telemetry";
    app.ep = epAssemble(R"(
timer_isr:
    SWITCHON SENSOR
    READ SENSOR_DATA
    SWITCHOFF SENSOR
    WRITE COMP_APPEND
    TERMINATE

compdone_isr:
    SWITCHON MSGPROC
    TRANSFER COMP_OUTBUF, MSG_PAYLOAD, 21
    READ COMP_OUTLEN
    WRITE MSG_PAYLOAD_LEN
    WRITEI MSG_CTRL, 1
    TERMINATE

txready_isr:
    SWITCHON RADIO
    READ MSG_OUT_LEN
    WRITE RADIO_TXLEN
    TRANSFER MSG_OUTBUF, RADIO_TXFIFO, 32
    SWITCHOFF MSGPROC
    WRITEI RADIO_CTRL, 1
    TERMINATE

txdone_isr:
    SWITCHOFF RADIO
    TERMINATE

.isr Timer0, timer_isr
.isr CompDone, compdone_isr
.isr MsgTxReady, txready_isr
.isr RadioTxDone, txdone_isr
)");
    std::string mc = sim::csprintf(".equ MCU_CODE, %u\n", map::mcuCodeBase);
    mc += R"(
.org MCU_CODE
init:
    LDI r0, 16
    STS COMP_BATCH, r0
    LDI r0, 0x03
    STS TIMER0_LOADHI, r0
    LDI r0, 0xE8
    STS TIMER0_LOADLO, r0     ; 1000 cycles = 100 Hz
    LDI r0, 3
    STS TIMER0_CTRL, r0
    SLEEP
)";
    app.mcu = mcu::assemble(mc, epDefaultSymbols());
    app.initEntry = app.mcu.symbol("init");
    apps::install(node, app);

    simulation.runForSeconds(5.0);

    // 500 samples at 16 per batch: ~31 packets.
    std::uint64_t frames = node.radio().framesSent();
    EXPECT_GE(frames, 29u);
    EXPECT_LE(frames, 32u);

    // The delivered payload decodes to 16 in-order samples of the ramp.
    const net::Frame &frame = node.radio().lastTxFrame();
    auto samples = Compressor::decode(frame.payload);
    ASSERT_EQ(samples.size(), 16u);
    for (std::size_t i = 1; i < samples.size(); ++i)
        EXPECT_GE(samples[i] + 1, samples[i - 1]); // nondecreasing ramp

    // And the encoded payload is smaller than the raw batch.
    EXPECT_LT(frame.payload.size(), 16u);
    EXPECT_EQ(node.compressor().blocksEncoded(), frames);
}
