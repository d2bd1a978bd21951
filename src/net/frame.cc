#include "net/frame.hh"

#include <array>

#include "sim/logging.hh"

namespace ulp::net {

namespace {

/** crcTable[b]: the bitwise CRC-16/CCITT shift of b << 8, eight steps of
 *  poly 0x1021, MSB first. */
constexpr std::array<std::uint16_t, 256> crcTable = [] {
    std::array<std::uint16_t, 256> table{};
    for (unsigned byte = 0; byte < 256; ++byte) {
        auto crc = static_cast<std::uint16_t>(byte << 8);
        for (int bit = 0; bit < 8; ++bit) {
            if (crc & 0x8000)
                crc = static_cast<std::uint16_t>((crc << 1) ^ 0x1021);
            else
                crc = static_cast<std::uint16_t>(crc << 1);
        }
        table[byte] = crc;
    }
    return table;
}();

} // namespace

std::uint16_t
crc16(std::span<const std::uint8_t> bytes)
{
    std::uint16_t crc = 0x0000;
    for (std::uint8_t byte : bytes)
        crc = static_cast<std::uint16_t>((crc << 8) ^
                                         crcTable[(crc >> 8) ^ byte]);
    return crc;
}

std::vector<std::uint8_t>
Frame::serialize() const
{
    if (payload.size() > maxPayloadBytes) {
        sim::fatal("802.15.4 payload of %zu bytes exceeds maximum %zu",
                   payload.size(), maxPayloadBytes);
    }

    std::vector<std::uint8_t> out;
    out.reserve(sizeBytes());

    // Frame control field: frame type in bits 0-2, 16-bit addressing for
    // both source and destination (mode 2) in bits 10-11 and 14-15.
    std::uint16_t fcf = static_cast<std::uint16_t>(type) |
                        (2u << 10) | (2u << 14);
    out.push_back(static_cast<std::uint8_t>(fcf & 0xFF));
    out.push_back(static_cast<std::uint8_t>(fcf >> 8));
    out.push_back(seq);
    out.push_back(static_cast<std::uint8_t>(destPan & 0xFF));
    out.push_back(static_cast<std::uint8_t>(destPan >> 8));
    out.push_back(static_cast<std::uint8_t>(dest & 0xFF));
    out.push_back(static_cast<std::uint8_t>(dest >> 8));
    out.push_back(static_cast<std::uint8_t>(src & 0xFF));
    out.push_back(static_cast<std::uint8_t>(src >> 8));
    out.insert(out.end(), payload.begin(), payload.end());

    std::uint16_t fcs = crc16(out);
    out.push_back(static_cast<std::uint8_t>(fcs & 0xFF));
    out.push_back(static_cast<std::uint8_t>(fcs >> 8));
    return out;
}

std::optional<Frame>
Frame::deserialize(std::span<const std::uint8_t> bytes)
{
    if (bytes.size() < overheadBytes || bytes.size() > maxFrameBytes)
        return std::nullopt;

    std::span<const std::uint8_t> body =
        bytes.subspan(0, bytes.size() - fcsBytes);
    std::uint16_t want =
        static_cast<std::uint16_t>(bytes[bytes.size() - 2]) |
        (static_cast<std::uint16_t>(bytes[bytes.size() - 1]) << 8);
    if (crc16(body) != want)
        return std::nullopt;

    std::uint16_t fcf = static_cast<std::uint16_t>(bytes[0]) |
                        (static_cast<std::uint16_t>(bytes[1]) << 8);

    Frame frame;
    frame.type = static_cast<Type>(fcf & 0x7);
    frame.seq = bytes[2];
    frame.destPan = static_cast<std::uint16_t>(bytes[3]) |
                    (static_cast<std::uint16_t>(bytes[4]) << 8);
    frame.dest = static_cast<std::uint16_t>(bytes[5]) |
                 (static_cast<std::uint16_t>(bytes[6]) << 8);
    frame.src = static_cast<std::uint16_t>(bytes[7]) |
                (static_cast<std::uint16_t>(bytes[8]) << 8);
    frame.payload.assign(body.begin() + headerBytes, body.end());
    return frame;
}

} // namespace ulp::net
