/**
 * @file
 * The node's 64 KiB memory-mapped address space (paper §4.2.5, §4.3.1).
 * All slaves live behind the 16-bit-address / 8-bit-data system bus; both
 * control and data are communicated by reading and writing these
 * addresses, which is what makes the architecture modular.
 */

#ifndef ULP_CORE_MEMORY_MAP_HH
#define ULP_CORE_MEMORY_MAP_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace ulp::core::map {

using Addr = std::uint16_t;

// --- Main SRAM (2 KiB, 8 x 256 B gateable banks) -------------------------
constexpr Addr sramBase = 0x0000;
constexpr Addr sramSize = 0x0800;

/** EP interrupt -> ISR lookup table: 64 entries x 2 B (big-endian). */
constexpr Addr isrTableBase = 0x0000;
constexpr Addr isrTableSize = 0x0080;

/** uC wakeup vector table: 8 entries x 2 B (big-endian). */
constexpr Addr mcuVectorBase = 0x0080;
constexpr Addr mcuVectorSize = 0x0010;

/** Convention: EP ISR code. */
constexpr Addr epIsrBase = 0x0090;

/** Convention: uC code. */
constexpr Addr mcuCodeBase = 0x0200;

/** Convention: uC stack top (grows down inside bank 3). */
constexpr Addr mcuStackTop = 0x03FF;

// --- Timer subsystem (4 x 16-bit chainable countdown timers + watchdog) ----
constexpr Addr timerBase = 0x1000;
constexpr Addr timerSize = 0x0028;
constexpr Addr timerStride = 0x08;
// Per-timer registers (offset within a timer's window):
constexpr Addr timerCtrl = 0x0;   ///< bit0 enable, bit1 reload, bit2 chain
constexpr Addr timerLoadHi = 0x1;
constexpr Addr timerLoadLo = 0x2;
constexpr Addr timerCountHi = 0x3;
constexpr Addr timerCountLo = 0x4;
// Watchdog registers (offsets from timerBase, after the 4 timer windows).
// The countdown is in units of 256 system cycles; a bark force-resets the
// microcontroller and posts Irq::Watchdog.
constexpr Addr wdtCtrl = 0x20;    ///< bit0 enable
constexpr Addr wdtLoadHi = 0x21;  ///< countdown, units of 256 cycles
constexpr Addr wdtLoadLo = 0x22;
constexpr Addr wdtKick = 0x23;    ///< any write restarts the countdown

// --- Threshold filter ------------------------------------------------------
constexpr Addr filterBase = 0x1100;
constexpr Addr filterSize = 0x0008;
constexpr Addr filterThresh = 0x0;  ///< programmable threshold
constexpr Addr filterData = 0x1;    ///< writing starts a comparison
constexpr Addr filterResult = 0x2;  ///< 1 = last datum passed
constexpr Addr filterCtrl = 0x3;    ///< bit0: fire pass/fail interrupts

// --- Message processor -----------------------------------------------------
constexpr Addr msgBase = 0x1200;
constexpr Addr msgSize = 0x0080;
constexpr Addr msgCtrl = 0x00;      ///< command register (MsgCommand)
constexpr Addr msgStatus = 0x01;    ///< MsgStatus
constexpr Addr msgSeq = 0x02;       ///< next sequence number
constexpr Addr msgSrcHi = 0x03;     ///< node short address
constexpr Addr msgSrcLo = 0x04;
constexpr Addr msgDestHi = 0x05;    ///< data-message destination
constexpr Addr msgDestLo = 0x06;
constexpr Addr msgPanHi = 0x07;
constexpr Addr msgPanLo = 0x08;
constexpr Addr msgPayloadLen = 0x09; ///< staged payload length
constexpr Addr msgOutLen = 0x0A;    ///< prepared frame length (read)
constexpr Addr msgInLen = 0x0B;     ///< received frame length (write by EP)
constexpr Addr msgAppend = 0x0C;    ///< write: append a byte to the payload
constexpr Addr msgBatch = 0x0D;     ///< samples per packet (0 = no batching)
constexpr Addr msgPayload = 0x10;   ///< staged payload area (21 B)
constexpr Addr msgOutBuf = 0x28;    ///< prepared frame buffer (32 B)
constexpr Addr msgInBuf = 0x48;     ///< incoming frame buffer (32 B)
// Route-CAM staging registers: CmdRouteAdd latches (origin -> next hop)
// into the routing CAM; origin 0xFFFF is the wildcard (default route).
constexpr Addr msgRouteOrigHi = 0x68;
constexpr Addr msgRouteOrigLo = 0x69;
constexpr Addr msgRouteNextHi = 0x6A;
constexpr Addr msgRouteNextLo = 0x6B;

// --- Radio (CC2420-class) ---------------------------------------------------
constexpr Addr radioBase = 0x1400;
constexpr Addr radioSize = 0x0080;
constexpr Addr radioCtrl = 0x00;    ///< command register (RadioCommand)
constexpr Addr radioStatus = 0x01;  ///< RadioStatus bits
constexpr Addr radioTxLen = 0x02;   ///< frame length to transmit
constexpr Addr radioRxLen = 0x03;   ///< received frame length (read)
constexpr Addr radioMacCtrl = 0x04; ///< bits 0-2 max retries, bit 3 auto-ACK
// Beacon-enabled (duty-cycled) MAC configuration. Platform firmware does
// not normally touch these; the network builder programs them from the
// scenario's [mac] section, like the message processor's identity.
constexpr Addr radioMacMode = 0x05; ///< 0 CSMA, 1 beacon device, 2 coord
constexpr Addr radioBeaconOrder = 0x06; ///< BO: beacon interval 2^BO
constexpr Addr radioSfOrder = 0x07; ///< SO: active superframe 2^SO
constexpr Addr radioAddrHi = 0x08;  ///< MAC short address, high byte
constexpr Addr radioAddrLo = 0x09;  ///< MAC short address, low byte
constexpr Addr radioGuard = 0x0A;   ///< pre-beacon wake guard, symbols
constexpr Addr radioTxFifo = 0x20;  ///< TX FIFO window (32 B)
constexpr Addr radioRxFifo = 0x40;  ///< RX FIFO window (32 B)

// --- Sensor / ADC block -----------------------------------------------------
constexpr Addr sensorBase = 0x1500;
constexpr Addr sensorSize = 0x0008;
constexpr Addr sensorCtrl = 0x0;    ///< write 1: start acquisition (async)
constexpr Addr sensorData = 0x1;    ///< sample-and-hold value (read samples)
constexpr Addr sensorStatus = 0x2;  ///< bit0: acquisition done

// --- Sample compressor (paper §7 future-work accelerator) -------------------
constexpr Addr compBase = 0x1700;
constexpr Addr compSize = 0x0080;
constexpr Addr compCtrl = 0x00;     ///< write 1: encode the staged block
constexpr Addr compStatus = 0x01;   ///< bit0 busy, bit1 done
constexpr Addr compInLen = 0x02;    ///< staged sample count
constexpr Addr compOutLen = 0x03;   ///< encoded length (read after done)
constexpr Addr compBatch = 0x04;    ///< auto-encode threshold (0 = manual)
constexpr Addr compAppend = 0x05;   ///< write: stage one sample
constexpr Addr compInBuf = 0x10;    ///< staged samples (32 B)
constexpr Addr compOutBuf = 0x30;   ///< encoded output (32 B)

// --- Bus decode -------------------------------------------------------------

/** One slave's window on the data bus: [base, base + size). */
struct Window
{
    Addr base = 0;
    std::uint32_t size = 0;

    bool operator==(const Window &) const = default;
};

/**
 * The windows the data bus decodes, one slave each, in address order.
 * Every other address is unmapped (0x1300 and 0x1600 among them): reads
 * float to 0xFF and writes are dropped.
 */
constexpr std::array<Window, 7> windows{{
    {sramBase, sramSize},
    {timerBase, timerSize},
    {filterBase, filterSize},
    {msgBase, msgSize},
    {radioBase, radioSize},
    {sensorBase, sensorSize},
    {compBase, compSize},
}};

/** pageWindow entry of a page no window touches. */
constexpr std::uint8_t noWindow = 0xFF;

/**
 * Page (address >> 8) -> index into windows, or noWindow. Built at
 * compile time; a page two windows touch is not a constant expression,
 * so such a map does not compile.
 */
constexpr std::array<std::uint8_t, 256> pageWindow = [] {
    std::array<std::uint8_t, 256> table{};
    table.fill(noWindow);
    for (std::size_t w = 0; w < windows.size(); ++w) {
        const Window &win = windows[w];
        const std::uint32_t last = (win.base + win.size - 1) >> 8;
        for (std::uint32_t page = win.base >> 8; page <= last; ++page) {
            if (table[page] != noWindow)
                throw "two bus windows share a page";
            table[page] = static_cast<std::uint8_t>(w);
        }
    }
    return table;
}();

} // namespace ulp::core::map

#endif // ULP_CORE_MEMORY_MAP_HH
