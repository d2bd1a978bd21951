/**
 * @file
 * Sleep-policy vocabulary shared by the scenario layer, the network
 * builder, and the sleep controller. Header-only and dependency-free so
 * scenario::NodeSpec can embed it without pulling the controller (and
 * its core::Network dependency) into the scenario layer.
 *
 * Two sleep depths, mirroring the paper's power-oriented design space:
 *
 *  - Light: retention sleep. Timers freeze (configuration retained),
 *    the sensing chain (sensor, filter, compressor) is power-gated,
 *    but the radio stays in RX and the masters keep their state, so an
 *    incoming frame wakes the node and is handled immediately.
 *  - Deep: everything a supply loss takes down — banks gated, radio
 *    off the medium, CAM and SRAM state lost — but deliberate: the
 *    timer-driven wake path re-installs the application image and
 *    latches mcu::ResetReason::DeepSleepTimer so boot firmware can
 *    tell a scheduled wake from a power-on or watchdog reset.
 *
 * The schedule is the classic periodic sense-and-send duty cycle: awake
 * for the first onSeconds of every periodSeconds, asleep for the rest.
 */

#ifndef ULP_SLEEP_POLICY_HH
#define ULP_SLEEP_POLICY_HH

#include <cstdint>

namespace ulp::sleep {

enum class Policy : std::uint8_t
{
    None = 0, ///< always awake (the legacy behaviour)
    Light,    ///< retention sleep, wake on timer or incoming frame
    Deep,     ///< state-losing sleep, timer-only wake via cold boot
};

/** Periodic sense-and-send duty cycle: awake [k*period, k*period+on). */
struct Schedule
{
    double periodSeconds = 1.0;
    double onSeconds = 0.1;

    bool operator==(const Schedule &) const = default;
};

/** A node's resolved sleep configuration (spec-level). */
struct NodeSleep
{
    Policy policy = Policy::None;
    Schedule schedule;

    bool operator==(const NodeSleep &) const = default;
};

enum class MacMode : std::uint8_t
{
    Csma = 0, ///< CSMA-CA / fire-and-forget (the legacy MAC)
    Beacon,   ///< beacon-enabled duty-cycled superframes
};

/** Network-wide MAC selection, programmed into every radio by the
 *  network builder (scenario [mac] section). */
struct MacConfig
{
    MacMode mode = MacMode::Csma;
    unsigned beaconOrder = 6;  ///< BI = aBaseSuperframeDuration x 2^BO
    unsigned sfOrder = 3;      ///< CAP = aBaseSuperframeDuration x 2^SO
    unsigned guardSymbols = 0; ///< pre-beacon wake guard; 0 = radio default
    double driftPpm = 0.0;     ///< device crystal tolerance budget

    bool operator==(const MacConfig &) const = default;
};

} // namespace ulp::sleep

#endif // ULP_SLEEP_POLICY_HH
