/**
 * @file
 * IEEE 802.15.4 data-frame codec (paper §4.3.5: "Our message processor
 * model handles standard 802.15.4 packets"). We implement the 2003 MAC
 * data frame with 16-bit short addressing:
 *
 *   FCF(2) | seq(1) | dest PAN(2) | dest addr(2) | src addr(2) |
 *   payload(0..N) | FCS(2, CRC-16/CCITT over everything before it)
 *
 * The node's message processor uses 32-byte message buffers, so payloads
 * on this platform are limited to 32 - 11 = 21 bytes.
 */

#ifndef ULP_NET_FRAME_HH
#define ULP_NET_FRAME_HH

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace ulp::net {

/** CRC-16/CCITT (poly 0x1021, init 0x0000, MSB first), the 802.15.4
 *  FCS. One lookup in a 256-entry table per byte, the table built at
 *  compile time from the bitwise definition. */
std::uint16_t crc16(std::span<const std::uint8_t> bytes);

class Frame
{
  public:
    enum class Type : std::uint8_t {
        Beacon = 0,
        Data = 1,
        Ack = 2,
        Command = 3,
    };

    static constexpr std::size_t headerBytes = 9;
    static constexpr std::size_t fcsBytes = 2;
    static constexpr std::size_t overheadBytes = headerBytes + fcsBytes;
    /** aMaxPHYPacketSize for 802.15.4. */
    static constexpr std::size_t maxFrameBytes = 127;
    static constexpr std::size_t maxPayloadBytes =
        maxFrameBytes - overheadBytes;

    Type type = Type::Data;
    std::uint8_t seq = 0;
    std::uint16_t destPan = 0;
    std::uint16_t dest = 0;
    std::uint16_t src = 0;
    std::vector<std::uint8_t> payload;

    /** Broadcast short address. */
    static constexpr std::uint16_t broadcastAddr = 0xFFFF;

    std::size_t sizeBytes() const { return overheadBytes + payload.size(); }

    /** Wire format including the FCS. fatal() on oversized payloads. */
    std::vector<std::uint8_t> serialize() const;

    /**
     * Parse wire bytes; empty when the frame is malformed or the FCS does
     * not match (a corrupted frame).
     */
    static std::optional<Frame> deserialize(
        std::span<const std::uint8_t> bytes);

    bool operator==(const Frame &other) const = default;
};

} // namespace ulp::net

#endif // ULP_NET_FRAME_HH
