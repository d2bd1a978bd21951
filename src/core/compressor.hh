/**
 * @file
 * A sample-compression slave — one of the "additional slave devices to
 * expand the space of well-optimized applications" the paper's
 * conclusion plans (§7). Monitoring data is slowly varying, so a tiny
 * delta encoder shrinks multi-sample payloads (and with them radio
 * airtime, the dominant platform energy the paper's estimates exclude).
 *
 * Usage mirrors the message processor's batching: the EP appends samples;
 * when the configured batch is reached the block is encoded and a
 * CompDone interrupt fires. The EP then moves the encoded bytes into the
 * message processor with TRANSFER and forwards the encoded length through
 * its register (READ COMP_OUTLEN; WRITE MSG_PAYLOAD_LEN) — no branching
 * needed, in keeping with the EP's ISA.
 *
 * Encoding: byte 0 is the first sample; each later sample becomes a
 * 4-bit two's-complement delta in [-7, +7] packed two per byte, with the
 * reserved nibble 0x8 escaping to a raw byte. decode() inverts it
 * exactly (tests verify the round trip).
 */

#ifndef ULP_CORE_COMPRESSOR_HH
#define ULP_CORE_COMPRESSOR_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/slave_device.hh"

namespace ulp::core {

class Compressor : public SlaveDevice
{
  public:
    static constexpr std::size_t bufferBytes = 32;

    struct Timing
    {
        sim::Cycles encodeFixed = 4;
        sim::Cycles encodePerSample = 2;
    };

    /** The encoder's cycle costs. */
    static const Timing timing;

    Compressor(sim::Simulation &simulation, const std::string &name,
               sim::SimObject *parent, fabric::EventSource &event_port,
               ProbeRecorder &probes, const sim::ClockDomain &clock);

    void visitStats(sim::stats::Visitor &v) const override;

    std::uint8_t busRead(map::Addr offset) override;
    void busWrite(map::Addr offset, std::uint8_t value) override;

    /** The pure encoding function (also used by tests and tools). */
    static std::vector<std::uint8_t>
    encode(std::span<const std::uint8_t> samples);

    /** Exact inverse of encode(). */
    static std::vector<std::uint8_t>
    decode(std::span<const std::uint8_t> bytes);

    std::uint64_t blocksEncoded() const
    {
        return static_cast<std::uint64_t>(statBlocks.value());
    }
    std::uint64_t bytesIn() const
    {
        return static_cast<std::uint64_t>(statBytesIn.value());
    }
    std::uint64_t bytesOut() const
    {
        return static_cast<std::uint64_t>(statBytesOut.value());
    }

  protected:
    void onPowerOff() override;

  private:
    void startEncode();
    void finishEncode();

    std::uint8_t stagedLen = 0;
    std::uint8_t encodedLen = 0;
    std::uint8_t batchSize = 0;
    bool busy = false;
    bool done = false;
    std::array<std::uint8_t, bufferBytes> input{};
    std::array<std::uint8_t, bufferBytes> output{};
    sim::MemberEvent<&Compressor::finishEncode> doneEvent{this, "encodeDone"};

    sim::stats::Scalar statBlocks;
    sim::stats::Scalar statBytesIn;
    sim::stats::Scalar statBytesOut;
    sim::stats::Scalar statOverflows;
};

// Defined outside the class: Timing's default member initializers
// cannot be used before the enclosing class is complete.
inline constexpr Compressor::Timing Compressor::timing{};

} // namespace ulp::core

#endif // ULP_CORE_COMPRESSOR_HH
