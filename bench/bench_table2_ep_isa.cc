/**
 * @file
 * Reproduces Table 2: the event processor instruction set — mnemonics,
 * word counts, and semantics — plus measured per-instruction execution
 * costs (fetch + execute at the calibrated microarchitectural timings),
 * which the paper leaves implicit.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/ep_isa.hh"
#include "core/event_processor.hh"

int
main()
{
    using namespace ulp;
    using core::EpOpcode;

    struct Row
    {
        EpOpcode op;
        const char *sizeText;
        const char *description;
    };
    const Row rows[] = {
        {EpOpcode::SWITCHON, "One word",
         "Turn on a component and wait for its ready acknowledgment"},
        {EpOpcode::SWITCHOFF, "One word", "Turn off a component"},
        {EpOpcode::READ, "Three words",
         "Read a location in the address space into the register"},
        {EpOpcode::WRITE, "Three words",
         "Write a location in the address space from the register"},
        {EpOpcode::WRITEI, "Three words",
         "Write an immediate value to a location in the address space"},
        {EpOpcode::TRANSFER, "Five words",
         "Transfer a block of data within the address space"},
        {EpOpcode::TERMINATE, "One word",
         "Terminate the ISR without waking the microcontroller"},
        {EpOpcode::WAKEUP, "Two words",
         "Terminate the ISR and wake the microcontroller at an ISR address"},
    };

    const core::EventProcessor::Timing &t = core::EventProcessor::timing;

    bench::banner("Table 2: Event processor instruction set");
    std::printf("%-10s %-12s %-8s %s\n", "Instr", "Size", "Cycles",
                "Description");
    bench::rule();
    for (const Row &row : rows) {
        unsigned words = core::epInstrWords(row.op);
        unsigned fetch = static_cast<unsigned>(t.fetchPerWord) * words;
        unsigned exec = 0;
        char cycles[32];
        switch (row.op) {
          case EpOpcode::SWITCHON: exec = t.switchOn; break;
          case EpOpcode::SWITCHOFF: exec = t.switchOff; break;
          case EpOpcode::READ: exec = t.read; break;
          case EpOpcode::WRITE: exec = t.write; break;
          case EpOpcode::WRITEI: exec = t.writei; break;
          case EpOpcode::TERMINATE: exec = t.terminate; break;
          case EpOpcode::WAKEUP: exec = t.wakeup; break;
          case EpOpcode::TRANSFER: exec = 0; break;
        }
        if (row.op == EpOpcode::TRANSFER) {
            std::snprintf(cycles, sizeof(cycles), "%u+2/B", fetch);
        } else if (row.op == EpOpcode::SWITCHON) {
            std::snprintf(cycles, sizeof(cycles), "%u+ack", fetch + exec);
        } else {
            std::snprintf(cycles, sizeof(cycles), "%u", fetch + exec);
        }
        std::printf("%-10s %-12s %-8s %s\n", core::epMnemonic(row.op),
                    row.sizeText, cycles, row.description);
    }
    bench::rule();
    std::printf("Encoding: 3-bit opcode + 5-bit operand in word 0; "
                "addresses big-endian.\n");
    std::printf("ISR lookup costs %u cycles; one temporary data register.\n",
                static_cast<unsigned>(t.lookup));
    return 0;
}
