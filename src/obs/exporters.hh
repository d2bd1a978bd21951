/**
 * @file
 * Exporters from the canonical merged trace to standard viewer formats:
 *
 *  - VCD waveforms: one scope per hierarchy level of the component name,
 *    power state / EP FSM / bus ownership / IRQ activity as wires and
 *    cumulative energy as real-valued signals; loads in GTKWave.
 *  - Chrome trace_event JSON: power/EP/bus stints as complete ("X")
 *    duration events, IRQ and probe milestones as instants, and energy
 *    samples as per-component power counters; loads in about://tracing
 *    and Perfetto.
 *  - A power-vs-time CSV derived from the Energy channel (the paper's
 *    Figure 6 power axis as a timeline instead of an average).
 *  - A human-readable summary.
 *
 * Both viewer formats can be proved well-formed without external
 * tooling: VCD by the parser below, Chrome JSON by the simulator's one
 * JSON parser (sim/json.hh); tests and `ulptrace --check` run them.
 */

#ifndef ULP_OBS_EXPORTERS_HH
#define ULP_OBS_EXPORTERS_HH

#include <functional>
#include <string>

#include "obs/trace_reader.hh"

namespace ulp::obs {

/**
 * Optional id→name decoders for enum-valued payloads the obs layer does
 * not know about (IRQ codes, probe ids live in core). Null members fall
 * back to numeric names.
 */
struct ExportNames
{
    std::function<std::string(std::uint8_t)> irq;
    std::function<std::string(std::uint8_t)> probe;
};

/** Value-change-dump waveform of the whole merged trace. */
std::string exportVcd(const MergedLog &log);

/** Parse @p vcd; false + @p error on any structural violation. */
bool validateVcd(const std::string &vcd, std::string *error);

/** Chrome trace_event JSON ("traceEvents" object form). */
std::string exportChrome(const MergedLog &log,
                         const ExportNames &names = {});

/** Power-vs-time CSV from the Energy channel samples. */
std::string exportPowerCsv(const MergedLog &log);

/** Human-readable per-channel / per-component digest. */
std::string summarize(const MergedLog &log);

} // namespace ulp::obs

#endif // ULP_OBS_EXPORTERS_HH
