/**
 * @file
 * Reliability sweep: multi-hop delivery ratio and energy per delivered
 * packet as the channel's loss burstiness grows, with the MAC layer's
 * ACK + retransmit machinery off (the paper's fire-and-forget radio)
 * and on (3 retries, CSMA-CA backoff, auto-ACK).
 *
 * The channel runs a Gilbert-Elliott two-state process per transmitter,
 * driven by a fault-injection campaign: the stationary Bad-state
 * fraction is held at 20 % while the mean fade length sweeps from 1 to 8
 * of the transmitter's frames. Fire-and-forget loses the stationary
 * share whatever the fade length; retransmissions recover most of it,
 * less so as fades grow, because a retry is the same transmitter's next
 * frame and lands inside the same fade.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/apps.hh"
#include "core/sensor_node.hh"
#include "fault/fault_injector.hh"
#include "net/channel.hh"
#include "sim/simulation.hh"

namespace {

using namespace ulp;
using namespace ulp::core;

constexpr double runSeconds = 60.0;
constexpr std::uint16_t sinkAddr = 0x0000;

/** Counts unique data frames that reach the base station intact. */
struct Sink : net::Transceiver
{
    std::uint64_t delivered = 0;
    std::uint8_t lastSeq = 0xFF;
    std::uint16_t lastSrc = 0xFFFF;

    void
    frameArrived(const net::Frame &frame, bool corrupted) override
    {
        if (corrupted || frame.type != net::Frame::Type::Data ||
            frame.dest != sinkAddr) {
            return;
        }
        if (frame.src == lastSrc && frame.seq == lastSeq)
            return; // retransmission of an already-delivered frame
        lastSrc = frame.src;
        lastSeq = frame.seq;
        ++delivered;
    }
};

struct Result
{
    std::uint64_t prepared;
    std::uint64_t delivered;
    std::uint64_t retransmissions;
    std::uint64_t txFailures;
    double joulesPerDelivered;

    double
    ratio() const
    {
        return prepared ? static_cast<double>(delivered) / prepared : 0.0;
    }
};

Result
run(double mean_burst_frames, std::uint8_t mac_retries)
{
    // Stationary Bad fraction 0.2: pGB/(pGB + pBG) with pBG = 1/burst.
    double p_bg = 1.0 / mean_burst_frames;
    double p_gb = p_bg * 0.2 / 0.8;

    sim::Simulation simulation;
    net::Channel channel(simulation, "channel",
                         net::Channel::defaultBitRate, /*seed=*/42);

    NodeConfig sender_cfg;
    sender_cfg.address = 0x0010;
    sender_cfg.sensorSignal = [](sim::Tick) { return 42; };
    SensorNode sender(simulation, "sender", sender_cfg, &channel);

    NodeConfig fwd_cfg;
    fwd_cfg.address = 0x0011;
    fwd_cfg.sensorSignal = [](sim::Tick) { return 0; };
    SensorNode forwarder(simulation, "forwarder", fwd_cfg, &channel);

    Sink sink;
    channel.attach(&sink);

    apps::AppParams sender_params;
    sender_params.samplePeriodCycles = 10'000; // 10 Hz
    sender_params.dest = sinkAddr;
    sender_params.macRetries = mac_retries;
    apps::install(sender, apps::buildApp1(sender_params));

    apps::AppParams fwd_params;
    fwd_params.samplePeriodCycles = 0xFFFF;
    fwd_params.threshold = 255; // forwarding only, no own traffic
    fwd_params.dest = sinkAddr;
    fwd_params.macRetries = mac_retries;
    apps::install(forwarder, apps::buildApp3(fwd_params));

    fault::FaultInjector injector(simulation, "injector");
    injector.attachChannel(&channel);
    injector.runText(sim::csprintf("0.0 channel-ge %f %f 0.0 0.95\n",
                                   p_gb, p_bg));

    simulation.runForSeconds(runSeconds);
    channel.detach(&sink);

    Result r;
    r.prepared = sender.msgProc().framesPrepared();
    r.delivered = sink.delivered;
    r.retransmissions = sender.radio().retransmissions() +
                        forwarder.radio().retransmissions();
    r.txFailures =
        sender.radio().txFailures() + forwarder.radio().txFailures();
    double joules = (sender.totalAverageWatts() +
                     forwarder.totalAverageWatts()) *
                    runSeconds;
    r.joulesPerDelivered =
        r.delivered ? joules / static_cast<double>(r.delivered) : 0.0;
    return r;
}

} // namespace

int
main()
{
    bench::banner(
        "Reliability: delivery ratio & energy vs loss burstiness\n"
        "(two-hop, Gilbert-Elliott 20% bad state, 10 Hz samples, "
        "60 s per point)");

    std::printf("%-12s | %-25s | %-25s | %s\n", "mean fade",
                "fire-and-forget", "MAC: ACK + 3 retries", "MAC extras");
    std::printf("%-12s | %-12s %-12s | %-12s %-12s | %s\n", "(frames)",
                "delivery", "uJ/pkt", "delivery", "uJ/pkt",
                "retx / txfail");
    bench::rule();

    for (double burst : {1.0, 2.0, 4.0, 8.0}) {
        Result off = run(burst, 0);
        Result on = run(burst, 3);
        std::printf("%-12.0f | %9.1f %%  %8.3f    | %9.1f %%  %8.3f    "
                    "| %4llu / %llu\n",
                    burst, 100.0 * off.ratio(),
                    off.joulesPerDelivered * 1e6, 100.0 * on.ratio(),
                    on.joulesPerDelivered * 1e6,
                    static_cast<unsigned long long>(on.retransmissions),
                    static_cast<unsigned long long>(on.txFailures));
    }

    bench::rule();
    std::printf(
        "Delivery = unique sender frames reaching the base station.\n"
        "Energy counts both relay nodes (paper scope: EP + timer +\n"
        "msgproc + filter + uC), divided by delivered packets.\n");
    return 0;
}
