/**
 * @file
 * Quickstart: build one sensor node, load the paper's simplest monitoring
 * application (periodically sample and transmit, §6.1.2 version 1), run
 * it for ten simulated seconds, and look at what happened — packets,
 * event processor activity, and the power breakdown.
 *
 *   $ ./examples/quickstart
 */

#include <cmath>
#include <cstdio>
#include <iostream>
#include <numbers>

#include "core/apps.hh"
#include "core/sensor_node.hh"
#include "sim/simulation.hh"

using namespace ulp;
using namespace ulp::core;

int
main()
{
    // A Simulation owns the event queue; every SimObject joins it.
    sim::Simulation simulation;

    // Describe the node. Defaults reproduce the paper's operating point:
    // 100 kHz clock, 1.2 V Table 5 power models, 2 KiB banked SRAM.
    NodeConfig cfg;
    cfg.address = 0x0001;
    // The physical phenomenon: a slow sine rides on a constant level.
    cfg.sensorSignal = [](sim::Tick now) -> std::uint8_t {
        double t = sim::ticksToSeconds(now);
        return static_cast<std::uint8_t>(
            128 + 60 * std::sin(2 * std::numbers::pi * t / 5.0));
    };
    cfg.sensorNoiseStddev = 2.0;

    SensorNode node(simulation, "node", cfg);

    // Application version 1: every 10 ms (100 Hz), the timer wakes the
    // event processor, which samples the ADC, has the message processor
    // build an 802.15.4 frame, and fires the radio — all without the
    // microcontroller, which sleeps after initialization.
    apps::AppParams params;
    params.samplePeriodCycles = 1000; // 100 Hz at 100 kHz
    params.dest = 0x0000;             // base station
    apps::install(node, apps::buildApp1(params));

    simulation.runForSeconds(10.0);

    std::printf("After 10 simulated seconds:\n");
    std::printf("  frames sent:          %llu\n",
                static_cast<unsigned long long>(node.radio().framesSent()));
    std::printf("  last payload:         %u\n",
                node.radio().lastTxFrame().payload.empty()
                    ? 0
                    : node.radio().lastTxFrame().payload[0]);
    std::printf("  EP ISRs executed:     %llu\n",
                static_cast<unsigned long long>(node.ep().isrsExecuted()));
    std::printf("  EP utilization:       %.4f\n", node.ep().utilization());
    std::printf("  uC wakeups (init):    %llu\n",
                static_cast<unsigned long long>(node.micro().wakeups()));

    std::printf("\nPower breakdown (average over the run):\n");
    for (const ComponentPower &row : node.powerReport()) {
        std::printf("  %-18s %10.3f uW   (utilization %.4f)\n",
                    row.component.c_str(), row.averageWatts * 1e6,
                    row.utilization);
    }
    std::printf("  %-18s %10.3f uW\n", "TOTAL",
                node.totalAverageWatts() * 1e6);

    std::printf("\nFull statistics tree:\n");
    node.dumpStats(std::cout);
    return 0;
}
