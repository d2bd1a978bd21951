#include "core/compressor.hh"

#include <algorithm>

#include "core/power_library.hh"
#include "sim/logging.hh"

namespace ulp::core {

Compressor::Compressor(sim::Simulation &simulation, const std::string &name,
                       sim::SimObject *parent, fabric::EventSource &event_port,
                       ProbeRecorder &probes, const sim::ClockDomain &clock)
    : SlaveDevice(simulation, name, parent, {map::compBase, map::compSize},
                  event_port, probes, clock, table5::compressor, true)
{
}

std::vector<std::uint8_t>
Compressor::encode(std::span<const std::uint8_t> samples)
{
    std::vector<std::uint8_t> out;
    if (samples.empty())
        return out;

    out.push_back(samples[0]);
    std::uint8_t prev = samples[0];

    // Nibble stream with 0x8 as the escape marker.
    std::vector<std::uint8_t> nibbles;
    for (std::size_t i = 1; i < samples.size(); ++i) {
        int delta = static_cast<int>(samples[i]) - prev;
        if (delta >= -7 && delta <= 7) {
            nibbles.push_back(static_cast<std::uint8_t>(delta & 0xF));
        } else {
            nibbles.push_back(0x8);
            nibbles.push_back(static_cast<std::uint8_t>(samples[i] >> 4));
            nibbles.push_back(static_cast<std::uint8_t>(samples[i] & 0xF));
        }
        prev = samples[i];
    }
    if (nibbles.size() % 2)
        nibbles.push_back(0x8); // pad with an escape that never completes

    for (std::size_t i = 0; i < nibbles.size(); i += 2) {
        out.push_back(static_cast<std::uint8_t>((nibbles[i] << 4) |
                                                nibbles[i + 1]));
    }
    return out;
}

void
Compressor::visitStats(sim::stats::Visitor &v) const
{
    v.group(name());
    v.scalar(statBlocks, "blocksEncoded", "sample blocks encoded");
    v.scalar(statBytesIn, "bytesIn", "raw sample bytes staged");
    v.scalar(statBytesOut, "bytesOut", "encoded bytes produced");
    v.scalar(statOverflows, "overflows",
             "appends dropped because the input window was full");
}

std::vector<std::uint8_t>
Compressor::decode(std::span<const std::uint8_t> bytes)
{
    std::vector<std::uint8_t> samples;
    if (bytes.empty())
        return samples;

    samples.push_back(bytes[0]);
    std::uint8_t prev = bytes[0];

    std::vector<std::uint8_t> nibbles;
    for (std::size_t i = 1; i < bytes.size(); ++i) {
        nibbles.push_back(static_cast<std::uint8_t>(bytes[i] >> 4));
        nibbles.push_back(static_cast<std::uint8_t>(bytes[i] & 0xF));
    }

    for (std::size_t i = 0; i < nibbles.size();) {
        std::uint8_t n = nibbles[i];
        if (n == 0x8) {
            if (i + 2 >= nibbles.size())
                break; // trailing pad
            std::uint8_t value = static_cast<std::uint8_t>(
                (nibbles[i + 1] << 4) | nibbles[i + 2]);
            samples.push_back(value);
            prev = value;
            i += 3;
        } else {
            // Sign-extend the 4-bit delta (0x8 is the escape, handled
            // above, so the negative range here is 0x9..0xF).
            int delta = n >= 0x9 ? static_cast<int>(n) - 16 : n;
            prev = static_cast<std::uint8_t>(prev + delta);
            samples.push_back(prev);
            i += 1;
        }
    }
    return samples;
}

std::uint8_t
Compressor::busRead(map::Addr offset)
{
    switch (offset) {
      case map::compCtrl: return 0;
      case map::compStatus:
        return static_cast<std::uint8_t>((busy ? 1 : 0) | (done ? 2 : 0));
      case map::compInLen: return stagedLen;
      case map::compOutLen: return encodedLen;
      case map::compBatch: return batchSize;
      default:
        if (offset >= map::compInBuf && offset < map::compInBuf + bufferBytes)
            return input[offset - map::compInBuf];
        if (offset >= map::compOutBuf && offset < map::compOutBuf + bufferBytes)
            return output[offset - map::compOutBuf];
        return 0xFF;
    }
}

void
Compressor::busWrite(map::Addr offset, std::uint8_t value)
{
    switch (offset) {
      case map::compCtrl:
        if (value == 1)
            startEncode();
        return;
      case map::compInLen:
        stagedLen = std::min<std::uint8_t>(value, bufferBytes);
        return;
      case map::compBatch:
        batchSize = std::min<std::uint8_t>(value, bufferBytes);
        return;
      case map::compAppend:
        if (busy || stagedLen >= bufferBytes) {
            ++statOverflows;
            return;
        }
        input[stagedLen++] = value;
        ++statBytesIn;
        beActiveFor(1);
        if (batchSize != 0 && stagedLen >= batchSize)
            startEncode();
        return;
      default:
        if (offset >= map::compInBuf && offset < map::compInBuf + bufferBytes) {
            input[offset - map::compInBuf] = value;
            return;
        }
        return;
    }
}

void
Compressor::startEncode()
{
    if (busy || stagedLen == 0)
        return;
    busy = true;
    done = false;
    sim::Cycles cost = timing.encodeFixed +
                       timing.encodePerSample * stagedLen;
    beActiveFor(cost);
    eventq().reschedule(&doneEvent, curTick() + cyclesToTicks(cost));
}

void
Compressor::finishEncode()
{
    std::vector<std::uint8_t> encoded =
        encode(std::span<const std::uint8_t>(input.data(), stagedLen));
    encodedLen = static_cast<std::uint8_t>(
        std::min(encoded.size(), bufferBytes));
    std::copy(encoded.begin(), encoded.begin() + encodedLen,
              output.begin());

    ++statBlocks;
    statBytesOut += encodedLen;
    busy = false;
    done = true;
    stagedLen = 0;
    postIrq(Irq::CompDone);
}

void
Compressor::onPowerOff()
{
    if (doneEvent.scheduled())
        eventq().deschedule(&doneEvent);
    busy = false;
    done = false;
    stagedLen = 0;
    encodedLen = 0;
    input.fill(0);
    output.fill(0);
}

} // namespace ulp::core
