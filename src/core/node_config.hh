/**
 * @file
 * Configuration for a SensorNode: only what differs from node to node or
 * from one study to the next. Defaults reproduce the paper's operating
 * point (100 kHz system clock, radio power excluded). The calibrated
 * cycle costs and the Table 5 power models belong to the hardware, so
 * each device holds its own as a constant of its class.
 */

#ifndef ULP_CORE_NODE_CONFIG_HH
#define ULP_CORE_NODE_CONFIG_HH

#include <cstdint>
#include <functional>

#include "core/power_library.hh"
#include "sim/types.hh"

namespace ulp::core {

struct NodeConfig
{
    /** 16-bit 802.15.4 short address of this node. */
    std::uint16_t address = 0x0001;

    /** 802.15.4 PAN id. */
    std::uint16_t pan = 0x0022;

    /** System clock (paper: 100 kHz, chosen for the 250 kbit/s radio). */
    double clockHz = 100'000.0;

    /** Deterministic seed for sensor noise. */
    std::uint64_t seed = 1;

    /** Radio power, excluded by default as in the paper (§6.2.1); the
     *  Figure 6b study sets a CC2420-class model. */
    power::PowerModel radioPower = table5::excluded;

    /** Physical signal sampled by the ADC (value 0..255 over time). */
    std::function<std::uint8_t(sim::Tick)> sensorSignal;
    double sensorNoiseStddev = 0.0;

    /** Disable Vdd gating: SWITCHOFF leaves components idling (ablation
     *  bench; quantifies what fine-grain power management buys). */
    bool gatingDisabled = false;

    /**
     * Optional harvesting battery (capacityJoules > 0 enables it). The
     * node owns a power::HarvestingSupply fed by a constant harvest
     * source and loaded with the node's aggregate draw; an emptied store
     * kills the node (full supply loss), and — when reviveLevel > 0 —
     * the node reboots once harvest refills the store to that fraction
     * of capacity.
     */
    struct Battery
    {
        double capacityJoules = 0.0;
        /** Starting charge; negative means "full". */
        double initialJoules = -1.0;
        /** Constant harvest input (the paper's budget is 100 uW). */
        double harvestWatts = 0.0;
        /** Supply poll interval in seconds. */
        double pollSeconds = 0.01;
        /** Revive when the store refills to this fraction (0: stay dead). */
        double reviveLevel = 0.0;
    };
    Battery battery{};
};

} // namespace ulp::core

#endif // ULP_CORE_NODE_CONFIG_HH
