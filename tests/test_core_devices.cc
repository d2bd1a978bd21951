/**
 * @file
 * Unit tests for the core architecture's building blocks: the data bus
 * and its arbitration, the interrupt bus, the power controller, and each
 * slave accelerator (timers, threshold filter, sensor/ADC, message
 * processor, radio), exercised directly through their bus interfaces.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/apps.hh"
#include "core/sensor_node.hh"
#include "net/frame.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

using namespace ulp;
using namespace ulp::core;

namespace {

/**
 * Most slave tests are cleanest against a full node: it wires the buses,
 * the power controller, and the probes exactly as hardware would.
 */
struct DeviceTest : ::testing::Test
{
    sim::Simulation simulation;
    NodeConfig cfg;
    std::unique_ptr<SensorNode> node;

    void
    SetUp() override
    {
        cfg.sensorSignal = [](sim::Tick) { return 42; };
        node = std::make_unique<SensorNode>(simulation, "node", cfg);
    }

    DataBus &bus() { return node->dataBus(); }
    void advance(double seconds) { simulation.runForSeconds(seconds); }

    std::uint8_t
    rd(map::Addr addr)
    {
        return bus().read(addr);
    }
    void
    wr(map::Addr addr, std::uint8_t v)
    {
        bus().write(addr, v);
    }
};

/** A bus slave with no device behind it: reads 0 and records them. */
struct FakeSlave : BusSlave
{
    map::Window range;
    map::Addr lastOffset = 0;
    unsigned reads = 0;

    explicit FakeSlave(map::Window r) : range(r) {}
    map::Window addrRange() const override { return range; }

    std::uint8_t
    busRead(map::Addr offset) override
    {
        lastOffset = offset;
        ++reads;
        return 0;
    }

    void busWrite(map::Addr, std::uint8_t) override {}
};

} // namespace

// --------------------------------------------------------------------------
// Data bus
// --------------------------------------------------------------------------

TEST_F(DeviceTest, BusRoutesToSlavesByAddress)
{
    wr(0x0400, 0xAB); // main memory
    EXPECT_EQ(rd(0x0400), 0xAB);
    wr(map::filterBase + map::filterThresh, 77);
    EXPECT_EQ(rd(map::filterBase + map::filterThresh), 77);
    EXPECT_EQ(node->filter().threshold(), 77);
}

TEST_F(DeviceTest, UnmappedAccessReturnsFloatingBus)
{
    auto unmapped = [&] {
        return static_cast<std::uint64_t>(
            static_cast<const sim::stats::Scalar *>(
                bus().findStat("unmapped"))
                ->value());
    };
    const std::uint64_t before = unmapped();
    const map::Addr addrs[] = {
        0x9000,
        // Inside a mapped page, past its window.
        map::timerBase + map::timerSize,
        map::filterBase + map::filterSize,
        map::sensorBase + map::sensorSize,
        // Pages between windows.
        0x1300,
        0x1600,
        0xFFFF,
    };
    for (map::Addr addr : addrs) {
        EXPECT_EQ(rd(addr), 0xFF) << std::hex << addr;
        wr(addr, 0x5A); // swallowed
        EXPECT_EQ(rd(addr), 0xFF) << std::hex << addr;
    }
    EXPECT_EQ(unmapped() - before, 3 * std::size(addrs));

    // The last bytes of the SRAM and timer windows are mapped.
    rd(map::sramBase + map::sramSize - 1);
    rd(map::timerBase + map::timerSize - 1);
    EXPECT_EQ(unmapped() - before, 3 * std::size(addrs));
}

TEST_F(DeviceTest, McuHoldsBusBlocksEp)
{
    EXPECT_TRUE(bus().availableForEp());
    bus().setMcuHoldsBus(true);
    EXPECT_FALSE(bus().availableForEp());
    bus().setMcuHoldsBus(false);
    EXPECT_TRUE(bus().availableForEp());
}

TEST(DataBusStandalone, OverlappingSlavesAreFatal)
{
    sim::Simulation simulation;
    DataBus bus(simulation, "bus");

    FakeSlave a({map::timerBase, map::timerSize});
    FakeSlave b({0x1020, 0x10});                     // overlaps a
    FakeSlave c({map::timerBase, map::timerSize});   // a's window again
    FakeSlave d({map::filterBase, map::filterSize}); // adjacent: fine
    bus.addSlave(&a);
    EXPECT_THROW(bus.addSlave(&b), sim::FatalError);
    EXPECT_THROW(bus.addSlave(&c), sim::FatalError);
    bus.addSlave(&d);
}

TEST(DataBusStandalone, EveryAddressDecodesAsALinearScanWould)
{
    sim::Simulation simulation;
    DataBus bus(simulation, "bus");

    std::vector<FakeSlave> slaves(map::windows.begin(), map::windows.end());
    for (FakeSlave &slave : slaves)
        bus.addSlave(&slave);

    // Oracle: scan the windows for the one holding the address.
    unsigned unmapped = 0;
    for (std::uint32_t addr = 0; addr <= 0xFFFF; ++addr) {
        FakeSlave *owner = nullptr;
        for (FakeSlave &slave : slaves) {
            if (addr >= slave.range.base &&
                addr < slave.range.base + slave.range.size)
                owner = &slave;
        }
        const std::uint8_t value = bus.read(static_cast<map::Addr>(addr));
        if (!owner) {
            ++unmapped;
            EXPECT_EQ(value, 0xFF) << std::hex << addr;
            continue;
        }
        EXPECT_EQ(value, 0) << std::hex << addr;
        EXPECT_EQ(static_cast<std::uint32_t>(owner->lastOffset),
                  addr - owner->range.base)
            << std::hex << addr;
    }
    unsigned mapped = 0;
    for (std::size_t w = 0; w < slaves.size(); ++w) {
        EXPECT_EQ(slaves[w].reads, map::windows[w].size) << w;
        mapped += slaves[w].reads;
    }
    EXPECT_EQ(mapped + unmapped, 0x10000u);
    EXPECT_EQ(static_cast<const sim::stats::Scalar *>(
                  bus.findStat("unmapped"))
                  ->value(),
              unmapped);
}

// --------------------------------------------------------------------------
// Interrupt bus
// --------------------------------------------------------------------------

TEST_F(DeviceTest, InterruptArbitrationPicksLowestCode)
{
    InterruptBus &irq = node->irqBus();
    // Stop the EP from consuming: detach its listener by grabbing the
    // interrupts before the EP's next clock edge.
    irq.post(Irq::RadioRxDone);
    irq.post(Irq::Timer0);
    irq.post(Irq::MsgTxReady);

    auto first = irq.take();
    ASSERT_TRUE(first);
    EXPECT_EQ(*first, Irq::Timer0);
    EXPECT_EQ(*irq.take(), Irq::MsgTxReady);
    EXPECT_EQ(*irq.take(), Irq::RadioRxDone);
    EXPECT_FALSE(irq.take().has_value());
}

TEST_F(DeviceTest, ReassertingAnAssertedCodeDropsTheEvent)
{
    InterruptBus &irq = node->irqBus();
    irq.post(Irq::Timer0);
    irq.post(Irq::Timer0); // dropped: still asserted
    EXPECT_EQ(irq.dropped(), 1u);
    irq.take();
    irq.post(Irq::Timer0); // fine again
    EXPECT_EQ(irq.dropped(), 1u);
}

TEST_F(DeviceTest, InterruptOverloadCountsEveryDrop)
{
    // A device raising faster than the EP services it loses every
    // re-raise, and each loss is counted; other codes are unaffected.
    InterruptBus &irq = node->irqBus();
    irq.post(Irq::RadioRxDone);
    for (unsigned i = 0; i < 5; ++i)
        irq.post(Irq::RadioRxDone);
    EXPECT_EQ(irq.dropped(), 5u);

    irq.post(Irq::Timer0); // independent line still clean
    EXPECT_EQ(irq.dropped(), 5u);

    EXPECT_EQ(*irq.take(), Irq::Timer0);
    EXPECT_EQ(*irq.take(), Irq::RadioRxDone);
    EXPECT_FALSE(irq.take().has_value()); // the re-raises really vanished

    irq.post(Irq::RadioRxDone); // serviced: the line accepts again
    EXPECT_EQ(irq.dropped(), 5u);
}

// --------------------------------------------------------------------------
// Power controller
// --------------------------------------------------------------------------

TEST_F(DeviceTest, SwitchOnAcksAfterWakeupLatency)
{
    PowerController &pc = node->powerCtrl();
    pc.switchOff(ComponentId::Sensor);
    EXPECT_FALSE(pc.isOn(ComponentId::Sensor));

    sim::Tick ready = pc.switchOn(ComponentId::Sensor);
    EXPECT_EQ(ready, simulation.curTick() + SlaveDevice::wakeupTicks);
    EXPECT_TRUE(pc.isOn(ComponentId::Sensor));

    // Already-on components ack immediately.
    EXPECT_EQ(pc.switchOn(ComponentId::Sensor), simulation.curTick());
}

TEST_F(DeviceTest, MemoryBanksAreGateableComponents)
{
    PowerController &pc = node->powerCtrl();
    node->memory().poke(0x0700, 0x12); // bank 7
    pc.switchOff(ComponentId::MemBank7);
    EXPECT_TRUE(node->memory().bankGated(7));
    pc.switchOn(ComponentId::MemBank7);
    EXPECT_FALSE(node->memory().bankGated(7));
}

TEST_F(DeviceTest, GatingDisabledMakesSwitchOffANoOp)
{
    node->powerCtrl().setGatingDisabled(true);
    node->powerCtrl().switchOff(ComponentId::Sensor);
    EXPECT_TRUE(node->powerCtrl().isOn(ComponentId::Sensor));
}

TEST(PowerControllerStandalone, DoubleRegistrationIsFatal)
{
    sim::Simulation simulation;
    PowerController pc(simulation, "pc");
    struct Dummy : PowerControllable
    {
        bool on = true;
        sim::Tick powerOn() override { on = true; return 0; }
        void powerOff() override { on = false; }
        bool powered() const override { return on; }
    } dummy;
    pc.registerComponent(ComponentId::Filter, &dummy);
    EXPECT_THROW(pc.registerComponent(ComponentId::Filter, &dummy),
                 sim::FatalError);
    EXPECT_THROW(pc.switchOn(ComponentId::Radio), sim::FatalError);
}

// --------------------------------------------------------------------------
// Timer unit
// --------------------------------------------------------------------------

TEST_F(DeviceTest, OneShotTimerFiresOnce)
{
    wr(map::timerBase + map::timerLoadHi, 0x00);
    wr(map::timerBase + map::timerLoadLo, 100);
    wr(map::timerBase + map::timerCtrl, TimerUnit::ctrlEnable);

    advance(0.0005); // 50 cycles: not yet
    EXPECT_EQ(node->probes().count(Probe::TimerAlarm), 0u);
    advance(0.0006); // past 100 cycles
    EXPECT_EQ(node->probes().count(Probe::TimerAlarm), 1u);
    EXPECT_FALSE(node->timers().timerRunning(0)); // auto-disabled
    advance(0.01);
    EXPECT_EQ(node->probes().count(Probe::TimerAlarm), 1u);
}

TEST_F(DeviceTest, ReloadTimerIsPeriodic)
{
    wr(map::timerBase + map::timerLoadLo, 100);
    wr(map::timerBase + map::timerCtrl,
       TimerUnit::ctrlEnable | TimerUnit::ctrlReload);
    advance(0.0105); // 1050 cycles: 10 firings
    EXPECT_EQ(node->probes().count(Probe::TimerAlarm), 10u);
}

TEST_F(DeviceTest, PauseRetainsCount)
{
    wr(map::timerBase + map::timerLoadLo, 200);
    wr(map::timerBase + map::timerCtrl, TimerUnit::ctrlEnable);
    advance(0.0005); // 50 cycles in
    wr(map::timerBase + map::timerCtrl, 0); // pause
    std::uint16_t count =
        static_cast<std::uint16_t>(
            (rd(map::timerBase + map::timerCountHi) << 8) |
            rd(map::timerBase + map::timerCountLo));
    EXPECT_NEAR(count, 150, 2);
    advance(0.1); // long pause: nothing fires
    EXPECT_EQ(node->probes().count(Probe::TimerAlarm), 0u);
}

TEST_F(DeviceTest, CountReadLatchesAcrossByteTransactions)
{
    // Regression: COUNT is read as two byte-wide bus transactions; if the
    // counter decrements through a 256 boundary between them, the combined
    // value tears (e.g. 0x0106 then 0x00F2 reads as 0x01F2 > load). The
    // high-byte read must latch the low byte.
    wr(map::timerBase + map::timerLoadHi, 0x01);
    wr(map::timerBase + map::timerLoadLo, 0x10); // load = 0x0110 (272)
    wr(map::timerBase + map::timerCtrl, TimerUnit::ctrlEnable);

    advance(0.0001); // 10 cycles in: count = 0x0106
    std::uint8_t hi = rd(map::timerBase + map::timerCountHi);
    EXPECT_EQ(hi, 0x01);

    advance(0.0002); // 20 more cycles: live count = 0x00F2
    std::uint8_t lo = rd(map::timerBase + map::timerCountLo);
    std::uint16_t combined = static_cast<std::uint16_t>((hi << 8) | lo);

    EXPECT_EQ(combined, 0x0106); // the value when the high byte was read
    EXPECT_LE(combined, 0x0110); // and never an impossible torn value
}

TEST_F(DeviceTest, ChainedTimerExtendsRange)
{
    // Timer 0: 100-cycle periodic tick; timer 1 counts 5 completions.
    wr(map::timerBase + map::timerLoadLo, 100);
    wr(map::timerBase + map::timerStride + map::timerLoadLo, 5);
    wr(map::timerBase + map::timerStride + map::timerCtrl,
       TimerUnit::ctrlEnable | TimerUnit::ctrlReload |
           TimerUnit::ctrlChain);
    wr(map::timerBase + map::timerCtrl,
       TimerUnit::ctrlEnable | TimerUnit::ctrlReload);

    // After 500 cycles + epsilon: timer1 fired once.
    advance(0.00501);
    std::uint64_t t0 = node->irqBus().posted();
    EXPECT_GT(t0, 0u);
    // Count Timer1 probes indirectly: the probe records all alarms; use
    // the interrupt bus stats via a fresh listener instead.
    advance(0.00500);
    // Two timer-1 periods = 10 timer-0 alarms + 2 timer-1 alarms.
    EXPECT_EQ(node->probes().count(Probe::TimerAlarm), 12u);
}

TEST_F(DeviceTest, TimerPowerFollowsRunningCount)
{
    EXPECT_EQ(node->timers().runningTimers(), 0u);
    advance(1.0);
    double idle = node->timers().averagePowerWatts();
    EXPECT_NEAR(idle, 24e-9, 5e-9); // block idle

    wr(map::timerBase + map::timerLoadLo, 100);
    wr(map::timerBase + map::timerCtrl,
       TimerUnit::ctrlEnable | TimerUnit::ctrlReload);
    advance(9.0);
    // One of four timers running: idle + (active-idle)/4 ~ 1.44 uW.
    EXPECT_NEAR(node->timers().averagePowerWatts(), 1.3e-6, 0.2e-6);
}

// --------------------------------------------------------------------------
// Threshold filter
// --------------------------------------------------------------------------

TEST_F(DeviceTest, FilterBoundaryIsInclusive)
{
    wr(map::filterBase + map::filterThresh, 100);
    wr(map::filterBase + map::filterCtrl, 0); // polled mode

    wr(map::filterBase + map::filterData, 100); // equal: passes
    advance(0.001);
    EXPECT_EQ(rd(map::filterBase + map::filterResult), 1);

    wr(map::filterBase + map::filterData, 99);
    advance(0.001);
    EXPECT_EQ(rd(map::filterBase + map::filterResult), 0);
    EXPECT_EQ(node->filter().decisions(), 2u);
    EXPECT_EQ(node->filter().passes(), 1u);
}

TEST_F(DeviceTest, FilterInterruptModePostsPassFail)
{
    wr(map::filterBase + map::filterThresh, 50);
    wr(map::filterBase + map::filterCtrl, ThresholdFilter::ctrlIrqMode);

    InterruptBus &irq = node->irqBus();
    sim::setQuiet(true); // the EP warns: no ISR bound in this bare node
    wr(map::filterBase + map::filterData, 60);
    advance(0.001);
    sim::setQuiet(false);
    // The EP warns (no ISR) and consumes; look at the posted counter.
    EXPECT_GE(irq.posted(), 1u);
    EXPECT_EQ(node->probes().count(Probe::FilterDecision), 1u);
}

TEST_F(DeviceTest, FilterDecisionTakesThreeCycles)
{
    // Probe ticks come from a ProbeLog, installed before the node is
    // built and removed after it is gone.
    ProbeLog log;
    node.reset();
    simulation.setTelemetry(&log);
    node = std::make_unique<SensorNode>(simulation, "node", cfg);

    wr(map::filterBase + map::filterCtrl, 0);
    wr(map::filterBase + map::filterThresh, 10);
    wr(map::filterBase + map::filterData, 20);
    sim::Tick start = simulation.curTick();
    advance(0.001);
    const std::vector<sim::Tick> &decisions =
        log.ticks(node->probes().name(), Probe::FilterDecision);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0] - start, node->clock().cyclesToTicks(3));
    node.reset();
    simulation.setTelemetry(nullptr);
}

// --------------------------------------------------------------------------
// Sensor / ADC
// --------------------------------------------------------------------------

TEST_F(DeviceTest, SampleOnReadConverts)
{
    EXPECT_EQ(rd(map::sensorBase + map::sensorData), 42);
    EXPECT_EQ(node->sensor().samples(), 1u);
}

TEST_F(DeviceTest, AsyncAcquisitionPostsAdcDone)
{
    wr(map::sensorBase + map::sensorCtrl, 1);
    EXPECT_EQ(rd(map::sensorBase + map::sensorStatus), 0);
    advance(0.001);
    EXPECT_EQ(rd(map::sensorBase + map::sensorStatus), 1);
    EXPECT_EQ(rd(map::sensorBase + map::sensorData), 42);
    EXPECT_EQ(rd(map::sensorBase + map::sensorStatus), 0); // cleared
}

TEST_F(DeviceTest, NoiseIsClampedToByteRange)
{
    sim::Simulation sim2;
    NodeConfig noisy;
    noisy.sensorSignal = [](sim::Tick) { return 250; };
    noisy.sensorNoiseStddev = 40.0;
    SensorNode node2(sim2, "noisy", noisy);
    for (int i = 0; i < 200; ++i) {
        std::uint8_t v =
            node2.sensor().busRead(map::sensorData);
        EXPECT_LE(v, 255);
    }
}

// --------------------------------------------------------------------------
// Message processor
// --------------------------------------------------------------------------

namespace {

/** Stage a payload and issue CMD_PREPARE through the bus. */
void
prepareFrame(DeviceTest &t, std::initializer_list<std::uint8_t> payload)
{
    std::uint8_t len = 0;
    for (std::uint8_t b : payload)
        t.wr(static_cast<map::Addr>(map::msgBase + map::msgPayload + len++),
             b);
    t.wr(map::msgBase + map::msgPayloadLen, len);
    t.wr(map::msgBase + map::msgCtrl, MessageProcessor::cmdPrepare);
    t.advance(0.01);
}

} // namespace

TEST_F(DeviceTest, PreparesWellFormedFrames)
{
    wr(map::msgBase + map::msgDestHi, 0x12);
    wr(map::msgBase + map::msgDestLo, 0x34);
    prepareFrame(*this, {9, 8, 7});

    EXPECT_EQ(node->msgProc().framesPrepared(), 1u);
    std::uint8_t out_len = rd(map::msgBase + map::msgOutLen);
    EXPECT_EQ(out_len, net::Frame::overheadBytes + 3);

    std::vector<std::uint8_t> wire;
    for (unsigned i = 0; i < out_len; ++i)
        wire.push_back(rd(static_cast<map::Addr>(
            map::msgBase + map::msgOutBuf + i)));
    auto frame = net::Frame::deserialize(wire);
    ASSERT_TRUE(frame);
    EXPECT_EQ(frame->dest, 0x1234);
    EXPECT_EQ(frame->src, cfg.address);
    EXPECT_EQ(frame->destPan, cfg.pan);
    EXPECT_EQ(frame->payload, (std::vector<std::uint8_t>{9, 8, 7}));
    EXPECT_EQ(frame->seq, 0);

    prepareFrame(*this, {1});
    // Sequence number advances per frame.
    std::uint8_t out_len2 = rd(map::msgBase + map::msgOutLen);
    std::vector<std::uint8_t> wire2;
    for (unsigned i = 0; i < out_len2; ++i)
        wire2.push_back(rd(static_cast<map::Addr>(
            map::msgBase + map::msgOutBuf + i)));
    EXPECT_EQ(net::Frame::deserialize(wire2)->seq, 1);
}

namespace {

void
feedRxFrame(DeviceTest &t, const net::Frame &frame)
{
    std::vector<std::uint8_t> wire = frame.serialize();
    for (std::size_t i = 0; i < wire.size(); ++i)
        t.wr(static_cast<map::Addr>(map::msgBase + map::msgInBuf + i),
             wire[i]);
    t.wr(map::msgBase + map::msgInLen,
         static_cast<std::uint8_t>(wire.size()));
    t.wr(map::msgBase + map::msgCtrl, MessageProcessor::cmdProcessRx);
    t.advance(0.01);
}

} // namespace

TEST_F(DeviceTest, ClassifiesForwardLocalDuplicateIrregular)
{
    net::Frame foreign;
    foreign.seq = 5;
    foreign.src = 0x0099;
    foreign.dest = 0x0777; // elsewhere
    foreign.destPan = cfg.pan;
    foreign.payload = {1};

    feedRxFrame(*this, foreign);
    EXPECT_EQ(node->msgProc().forwarded(), 1u);
    EXPECT_EQ(rd(map::msgBase + map::msgOutLen), foreign.sizeBytes());

    feedRxFrame(*this, foreign); // same (src, seq): duplicate
    EXPECT_EQ(node->msgProc().duplicatesDropped(), 1u);

    net::Frame local = foreign;
    local.seq = 6;
    local.dest = cfg.address;
    feedRxFrame(*this, local);
    EXPECT_EQ(node->msgProc().localDeliveries(), 1u);

    net::Frame cmd = foreign;
    cmd.seq = 7;
    cmd.type = net::Frame::Type::Command;
    feedRxFrame(*this, cmd);
    EXPECT_EQ(node->msgProc().irregulars(), 1u);
}

TEST_F(DeviceTest, MalformedRxIsDropped)
{
    for (unsigned i = 0; i < 12; ++i)
        wr(static_cast<map::Addr>(map::msgBase + map::msgInBuf + i), 0x5A);
    wr(map::msgBase + map::msgInLen, 12);
    wr(map::msgBase + map::msgCtrl, MessageProcessor::cmdProcessRx);
    advance(0.01);
    EXPECT_EQ(node->msgProc().forwarded(), 0u);
    EXPECT_EQ(node->msgProc().duplicatesDropped(), 0u);
}

TEST_F(DeviceTest, CamEvictsOldestEntries)
{
    // Fill the 16-entry CAM with 17 distinct frames: the first is
    // evicted, so replaying it is NOT a duplicate.
    for (unsigned i = 0; i < 17; ++i) {
        net::Frame f;
        f.seq = static_cast<std::uint8_t>(i);
        f.src = 0x0200;
        f.dest = 0x0777;
        f.destPan = cfg.pan;
        feedRxFrame(*this, f);
    }
    EXPECT_EQ(node->msgProc().duplicatesDropped(), 0u);

    net::Frame first;
    first.seq = 0;
    first.src = 0x0200;
    first.dest = 0x0777;
    first.destPan = cfg.pan;
    feedRxFrame(*this, first);
    EXPECT_EQ(node->msgProc().duplicatesDropped(), 0u); // evicted: fresh
}

TEST_F(DeviceTest, CamWrapsAroundPastSixteenEntries)
{
    // Drive the FIFO well past its 16-entry capacity and check the
    // window semantics at every point: the newest 16 (src, seq) pairs
    // are always duplicates, anything older has been evicted.
    for (unsigned i = 0; i < 40; ++i) {
        net::Frame f;
        f.seq = static_cast<std::uint8_t>(i);
        f.src = 0x0200;
        f.dest = 0x0777;
        f.destPan = cfg.pan;
        feedRxFrame(*this, f);
    }
    EXPECT_EQ(node->msgProc().camSize(), MessageProcessor::camEntries);
    EXPECT_EQ(node->msgProc().forwarded(), 40u);
    EXPECT_EQ(node->msgProc().duplicatesDropped(), 0u);

    // Frames 24..39 are the live window.
    net::Frame newest;
    newest.seq = 39;
    newest.src = 0x0200;
    newest.dest = 0x0777;
    newest.destPan = cfg.pan;
    feedRxFrame(*this, newest);
    EXPECT_EQ(node->msgProc().duplicatesDropped(), 1u);

    net::Frame oldest_live = newest;
    oldest_live.seq = 25; // near the old edge, but still in the window
    feedRxFrame(*this, oldest_live);
    EXPECT_EQ(node->msgProc().duplicatesDropped(), 2u);

    net::Frame evicted = newest;
    evicted.seq = 10;
    feedRxFrame(*this, evicted); // long gone: treated as fresh
    EXPECT_EQ(node->msgProc().duplicatesDropped(), 2u);
    EXPECT_EQ(node->msgProc().forwarded(), 41u);

    // The explicit clear command empties the CAM entirely.
    wr(map::msgBase + map::msgCtrl, MessageProcessor::cmdClearCam);
    advance(0.01);
    EXPECT_EQ(node->msgProc().camSize(), 0u);
    feedRxFrame(*this, newest); // was a duplicate a moment ago
    EXPECT_EQ(node->msgProc().duplicatesDropped(), 2u);
}

TEST_F(DeviceTest, MalformedRxDrivesTheMalformedStat)
{
    // A frame whose FCS does not match.
    for (unsigned i = 0; i < 12; ++i)
        wr(static_cast<map::Addr>(map::msgBase + map::msgInBuf + i), 0x5A);
    wr(map::msgBase + map::msgInLen, 12);
    wr(map::msgBase + map::msgCtrl, MessageProcessor::cmdProcessRx);
    advance(0.01);
    EXPECT_EQ(node->msgProc().malformed(), 1u);

    // A frame shorter than the 802.15.4 overhead cannot even be parsed.
    wr(map::msgBase + map::msgInLen, 5);
    wr(map::msgBase + map::msgCtrl, MessageProcessor::cmdProcessRx);
    advance(0.01);
    EXPECT_EQ(node->msgProc().malformed(), 2u);

    // Malformed input pollutes neither the CAM nor the classification
    // counters.
    EXPECT_EQ(node->msgProc().camSize(), 0u);
    EXPECT_EQ(node->msgProc().forwarded(), 0u);
    EXPECT_EQ(node->msgProc().duplicatesDropped(), 0u);
    EXPECT_EQ(node->msgProc().localDeliveries(), 0u);
}

TEST_F(DeviceTest, MsgProcPowerOffClearsBuffersButKeepsCamAndConfig)
{
    wr(map::msgBase + map::msgDestHi, 0x12);
    wr(map::msgBase + map::msgDestLo, 0x34);

    // Leave residue everywhere: a prepared frame in the OUT buffer, junk
    // in the IN buffer, and a non-zero staged payload length.
    prepareFrame(*this, {9, 8, 7});
    EXPECT_GT(rd(map::msgBase + map::msgOutLen), 0);

    net::Frame foreign;
    foreign.seq = 5;
    foreign.src = 0x0099;
    foreign.dest = 0x0777;
    foreign.destPan = cfg.pan;
    feedRxFrame(*this, foreign);
    EXPECT_EQ(node->msgProc().forwarded(), 1u);

    wr(map::msgBase + map::msgPayloadLen, 5);

    node->powerCtrl().switchOff(ComponentId::MsgProc);
    node->powerCtrl().switchOn(ComponentId::MsgProc);
    advance(0.001);

    // Message buffers are SRAM: gone with the power. Stale residue must
    // not leak into the next frame.
    EXPECT_EQ(rd(map::msgBase + map::msgOutLen), 0);
    EXPECT_EQ(rd(map::msgBase + map::msgInLen), 0);
    EXPECT_EQ(rd(map::msgBase + map::msgPayloadLen), 0);
    EXPECT_EQ(rd(map::msgBase + map::msgInBuf), 0);
    EXPECT_EQ(rd(map::msgBase + map::msgOutBuf), 0);

    // Retention latches survive: addressing config and the dedup CAM
    // (the paper's duplicate suppression must span sleep periods).
    EXPECT_EQ(rd(map::msgBase + map::msgDestHi), 0x12);
    EXPECT_EQ(rd(map::msgBase + map::msgDestLo), 0x34);
    EXPECT_EQ(node->msgProc().camSize(), 1u);
    feedRxFrame(*this, foreign);
    EXPECT_EQ(node->msgProc().duplicatesDropped(), 1u);
}

TEST_F(DeviceTest, BatchingAppendsAndSignals)
{
    wr(map::msgBase + map::msgBatch, 3);
    wr(map::msgBase + map::msgPayloadLen, 0);
    wr(map::msgBase + map::msgAppend, 11);
    wr(map::msgBase + map::msgAppend, 22);
    EXPECT_EQ(rd(map::msgBase + map::msgPayloadLen), 2);
    EXPECT_EQ(node->msgProc().framesPrepared(), 0u);

    wr(map::msgBase + map::msgAppend, 33); // batch full
    // No ISR is installed: issue the prepare manually as the EP would.
    wr(map::msgBase + map::msgCtrl, MessageProcessor::cmdPrepare);
    advance(0.01);
    EXPECT_EQ(node->msgProc().framesPrepared(), 1u);
    EXPECT_EQ(rd(map::msgBase + map::msgPayloadLen), 0); // consumed

    std::uint8_t out_len = rd(map::msgBase + map::msgOutLen);
    EXPECT_EQ(out_len, net::Frame::overheadBytes + 3);
}

TEST_F(DeviceTest, CommandWhileBusyIsIgnored)
{
    sim::setQuiet(true);
    wr(map::msgBase + map::msgPayloadLen, 1);
    wr(map::msgBase + map::msgCtrl, MessageProcessor::cmdPrepare);
    wr(map::msgBase + map::msgCtrl, MessageProcessor::cmdPrepare); // busy
    advance(0.01);
    EXPECT_EQ(node->msgProc().framesPrepared(), 1u);
    sim::setQuiet(false);
}

// --------------------------------------------------------------------------
// Radio
// --------------------------------------------------------------------------

TEST_F(DeviceTest, TransmitsFifoContents)
{
    net::Frame frame;
    frame.seq = 3;
    frame.src = cfg.address;
    frame.dest = 0;
    frame.destPan = cfg.pan;
    frame.payload = {0x7E};
    std::vector<std::uint8_t> wire = frame.serialize();

    for (std::size_t i = 0; i < wire.size(); ++i)
        wr(static_cast<map::Addr>(map::radioBase + map::radioTxFifo + i),
           wire[i]);
    wr(map::radioBase + map::radioTxLen,
       static_cast<std::uint8_t>(wire.size()));
    wr(map::radioBase + map::radioCtrl, RadioDevice::cmdTx);

    EXPECT_EQ(rd(map::radioBase + map::radioStatus) &
                  RadioDevice::statusTxBusy,
              RadioDevice::statusTxBusy);
    advance(0.01);
    EXPECT_EQ(node->radio().framesSent(), 1u);
    EXPECT_EQ(node->radio().lastTxFrame(), frame);
    EXPECT_EQ(node->probes().count(Probe::RadioTxDone), 1u);
}

TEST_F(DeviceTest, ReceiveRequiresRxEnabled)
{
    net::Frame frame;
    frame.seq = 1;
    frame.src = 7;
    frame.dest = cfg.address;
    frame.destPan = cfg.pan;

    // RX off: frames over the channel interface are missed; direct
    // injection still works for tests (it bypasses the RX switch).
    node->radio().frameArrived(frame, false);
    EXPECT_EQ(node->radio().framesMissed(), 1u);

    wr(map::radioBase + map::radioCtrl, RadioDevice::cmdRxOn);
    node->radio().frameArrived(frame, false);
    EXPECT_EQ(node->radio().framesReceived(), 1u);
    EXPECT_EQ(rd(map::radioBase + map::radioRxLen), frame.sizeBytes());
}

TEST_F(DeviceTest, HardwareCrcRejectsCorruptedFrames)
{
    wr(map::radioBase + map::radioCtrl, RadioDevice::cmdRxOn);
    net::Frame frame;
    frame.seq = 1;
    frame.src = 7;
    node->radio().frameArrived(frame, /*corrupted=*/true);
    EXPECT_EQ(node->radio().crcErrors(), 1u);
    EXPECT_EQ(node->radio().framesReceived(), 0u);
}

TEST_F(DeviceTest, RxOverrunDropsSecondFrame)
{
    wr(map::radioBase + map::radioCtrl, RadioDevice::cmdRxOn);
    net::Frame frame;
    frame.seq = 1;
    frame.src = 7;
    node->radio().injectFrame(frame);
    frame.seq = 2;
    node->radio().injectFrame(frame); // FIFO still full
    EXPECT_EQ(node->radio().framesReceived(), 1u);
    EXPECT_GE(static_cast<std::uint64_t>(
                  static_cast<const sim::stats::Scalar *>(
                      node->radio().findStat("rxOverruns"))
                      ->value()),
              1u);
}

TEST_F(DeviceTest, SupplyLossMidFrameReportsNoTxDone)
{
    net::Frame frame;
    frame.seq = 4;
    frame.src = cfg.address;
    frame.dest = 0;
    frame.destPan = cfg.pan;
    frame.payload = {0x7E};
    std::vector<std::uint8_t> wire = frame.serialize();
    const auto commandTx = [&] {
        for (std::size_t i = 0; i < wire.size(); ++i)
            wr(static_cast<map::Addr>(map::radioBase + map::radioTxFifo + i),
               wire[i]);
        wr(map::radioBase + map::radioTxLen,
           static_cast<std::uint8_t>(wire.size()));
        wr(map::radioBase + map::radioCtrl, RadioDevice::cmdTx);
    };

    // The supply fails while the frame is on the air: the radio loses
    // its transmission, so nothing is counted and no TxDone fires.
    commandTx();
    ASSERT_EQ(rd(map::radioBase + map::radioStatus) &
                  RadioDevice::statusTxBusy,
              RadioDevice::statusTxBusy);
    node->supplyDown();
    advance(0.01);
    EXPECT_EQ(node->radio().framesSent(), 0u);
    EXPECT_EQ(node->probes().count(Probe::RadioTxDone), 0u);

    // Back on supply the transmitter is free: the next frame goes out.
    node->supplyUp();
    EXPECT_EQ(rd(map::radioBase + map::radioStatus) &
                  RadioDevice::statusTxBusy,
              0);
    commandTx();
    advance(0.01);
    EXPECT_EQ(node->radio().framesSent(), 1u);
    EXPECT_EQ(node->radio().lastTxFrame(), frame);
    EXPECT_EQ(node->probes().count(Probe::RadioTxDone), 1u);
}

TEST_F(DeviceTest, MalformedTxStillTimesOut)
{
    sim::setQuiet(true);
    // Nonzero garbage: an all-zero FIFO would pass the CRC (crc(0s) = 0).
    for (unsigned i = 0; i < 12; ++i)
        wr(static_cast<map::Addr>(map::radioBase + map::radioTxFifo + i),
           0x5A);
    wr(map::radioBase + map::radioTxLen, 12);
    wr(map::radioBase + map::radioCtrl, RadioDevice::cmdTx);
    advance(0.01);
    // TxDone still arrives (hardware clocks bytes out), but nothing
    // valid was sent.
    EXPECT_EQ(node->probes().count(Probe::RadioTxDone), 1u);
    EXPECT_GE(static_cast<std::uint64_t>(
                  static_cast<const sim::stats::Scalar *>(
                      node->radio().findStat("txMalformed"))
                      ->value()),
              1u);
    sim::setQuiet(false);
}
