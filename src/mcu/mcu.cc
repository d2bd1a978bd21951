#include "mcu/mcu.hh"

#include "sim/logging.hh"

namespace ulp::mcu {

Mcu::Mcu(sim::Simulation &simulation, const std::string &name, McuBus &bus,
         const Config &config, sim::SimObject *parent)
    : sim::SimObject(simulation, name, parent),
      bus(bus), config(config), clockDomain(config.clockHz)
{
}

void
Mcu::visitStats(sim::stats::Visitor &v) const
{
    v.group(name());
    v.scalar(statInstructions, "instructions", "instructions retired");
    v.scalar(statIrqsTaken, "irqsTaken", "interrupts taken");
    v.scalar(statSleeps, "sleeps", "SLEEP instructions executed");
    v.scalar(statBadOpcodes, "badOpcodes", "undefined opcodes fetched");
}

void
Mcu::reset(std::uint16_t pc)
{
    regs.fill(0);
    _pc = pc;
    _sp = 0;
    fZ = fN = fC = false;
    gie = false;
    _sleeping = false;
    _halted = false;
    pendingIrqs.clear();
}

void
Mcu::start()
{
    if (_halted)
        return;
    _sleeping = false;
    if (!tickEvent.scheduled())
        eventq().schedule(&tickEvent, clockDomain.nextEdge(curTick()));
}

void
Mcu::stopClock()
{
    if (tickEvent.scheduled())
        eventq().deschedule(&tickEvent);
}

void
Mcu::wakeAt(std::uint16_t handler)
{
    if (_halted)
        return;
    _pc = handler;
    _sleeping = false;
    start();
}

void
Mcu::raiseIrq(std::uint8_t vector)
{
    if (vector >= 32)
        sim::panic("irq vector %u out of range", vector);
    pendingIrqs.insert(vector);
    if (_sleeping && gie) {
        _sleeping = false;
        start();
    }
}

std::uint16_t
Mcu::pairValue(unsigned pair) const
{
    return static_cast<std::uint16_t>(regs.at(2 * pair) << 8) |
           regs.at(2 * pair + 1);
}

void
Mcu::setPair(unsigned pair, std::uint16_t v)
{
    regs.at(2 * pair) = static_cast<std::uint8_t>(v >> 8);
    regs.at(2 * pair + 1) = static_cast<std::uint8_t>(v & 0xFF);
}

void
Mcu::push(std::uint8_t v)
{
    bus.write(_sp, v);
    --_sp;
}

std::uint8_t
Mcu::pop()
{
    ++_sp;
    return bus.read(_sp);
}

void
Mcu::setZN(std::uint8_t v)
{
    fZ = v == 0;
    fN = (v & 0x80) != 0;
}

void
Mcu::enterIrq(std::uint8_t vector)
{
    push(static_cast<std::uint8_t>(_pc >> 8));
    push(static_cast<std::uint8_t>(_pc & 0xFF));
    std::uint8_t flags = static_cast<std::uint8_t>(
        (fZ ? 1 : 0) | (fN ? 2 : 0) | (fC ? 4 : 0));
    push(flags);
    gie = false;
    std::uint16_t entry = config.vectorBase +
                          static_cast<std::uint16_t>(2 * vector);
    _pc = static_cast<std::uint16_t>(bus.read(entry) << 8) |
          bus.read(entry + 1);
    ++statIrqsTaken;
}

void
Mcu::tick()
{
    if (_halted)
        return;

    if (gie && !pendingIrqs.empty()) {
        std::uint8_t vector = *pendingIrqs.begin();
        pendingIrqs.erase(pendingIrqs.begin());
        enterIrq(vector);
        _cycles += irqEntryCycles;
        scheduleNext(irqEntryCycles);
        return;
    }

    if (_sleeping)
        return;

    unsigned consumed = step();

    if (_halted) {
        if (haltCb)
            haltCb();
        return;
    }
    if (_sleeping) {
        // AVR semantics: a pending enabled interrupt wakes immediately.
        if (gie && !pendingIrqs.empty()) {
            _sleeping = false;
            scheduleNext(consumed);
        } else if (sleepCb) {
            sleepCb();
        }
        return;
    }
    scheduleNext(consumed);
}

void
Mcu::scheduleNext(unsigned cycles_consumed)
{
    sim::Tick next = curTick() + clockDomain.cyclesToTicks(cycles_consumed);
    eventq().schedule(&tickEvent, next);
}

unsigned
Mcu::step()
{
    std::uint8_t op_byte = bus.read(_pc);
    const InstrInfo *info = instrInfo(static_cast<Opcode>(op_byte));
    if (!info) {
        ++statBadOpcodes;
        sim::panic("%s: undefined opcode %#04x at pc %#06x", name().c_str(),
                   op_byte, _pc);
    }

    std::uint8_t operand[4] = {op_byte, 0, 0, 0};
    for (unsigned i = 1; i < info->lengthBytes; ++i)
        operand[i] = bus.read(_pc + i);

    std::uint16_t next_pc =
        static_cast<std::uint16_t>(_pc + info->lengthBytes);
    unsigned cycles_used =
        info->baseCycles + config.fetchCostPerByte * info->lengthBytes;

    auto rd = [&] { return (operand[1] >> 4) & 0xF; };
    auto rs = [&] { return operand[1] & 0xF; };
    auto imm = [&] { return operand[2]; };
    auto addr16 = [&] {
        return static_cast<std::uint16_t>(
            (static_cast<std::uint16_t>(operand[2]) << 8) | operand[3]);
    };
    auto jump_target = [&] {
        return static_cast<std::uint16_t>(
            (static_cast<std::uint16_t>(operand[1]) << 8) | operand[2]);
    };
    auto take_branch = [&](bool cond) {
        if (cond) {
            next_pc = jump_target();
            cycles_used += info->takenExtraCycles;
        }
    };
    auto add_op = [&](std::uint8_t a, std::uint8_t b, bool carry_in) {
        unsigned sum = a + b + (carry_in ? 1 : 0);
        fC = sum > 0xFF;
        std::uint8_t result = static_cast<std::uint8_t>(sum);
        setZN(result);
        return result;
    };
    auto sub_op = [&](std::uint8_t a, std::uint8_t b, bool borrow_in) {
        int diff = static_cast<int>(a) - b - (borrow_in ? 1 : 0);
        fC = diff < 0;
        std::uint8_t result = static_cast<std::uint8_t>(diff & 0xFF);
        setZN(result);
        return result;
    };

    switch (static_cast<Opcode>(op_byte)) {
      case Opcode::NOP:
        break;
      case Opcode::HALT:
        _halted = true;
        break;
      case Opcode::SLEEP:
        _sleeping = true;
        ++statSleeps;
        break;
      case Opcode::SEI:
        gie = true;
        break;
      case Opcode::CLI:
        gie = false;
        break;
      case Opcode::RET: {
        std::uint8_t lo = pop();
        std::uint8_t hi = pop();
        next_pc = static_cast<std::uint16_t>((hi << 8) | lo);
        break;
      }
      case Opcode::RETI: {
        std::uint8_t flags = pop();
        fZ = flags & 1;
        fN = flags & 2;
        fC = flags & 4;
        std::uint8_t lo = pop();
        std::uint8_t hi = pop();
        next_pc = static_cast<std::uint16_t>((hi << 8) | lo);
        gie = true;
        break;
      }
      case Opcode::MARK:
        if (markCb)
            markCb(operand[1], _cycles);
        break;

      case Opcode::LDI:
        regs[rd()] = imm();
        break;
      case Opcode::MOV:
        regs[rd()] = regs[rs()];
        break;
      case Opcode::LDS:
        regs[rd()] = bus.read(addr16());
        break;
      case Opcode::STS:
        bus.write(addr16(), regs[rd()]);
        break;
      case Opcode::LDX:
        regs[rd()] = bus.read(pairValue(rs() & 0x7));
        break;
      case Opcode::STX:
        bus.write(pairValue(rd() & 0x7), regs[rs()]);
        break;
      case Opcode::LDP:
        setPair(rd() & 0x7, addr16());
        break;
      case Opcode::PUSH:
        push(regs[rd()]);
        break;
      case Opcode::POP:
        regs[rd()] = pop();
        break;

      case Opcode::ADD:
        regs[rd()] = add_op(regs[rd()], regs[rs()], false);
        break;
      case Opcode::ADC:
        regs[rd()] = add_op(regs[rd()], regs[rs()], fC);
        break;
      case Opcode::SUB:
        regs[rd()] = sub_op(regs[rd()], regs[rs()], false);
        break;
      case Opcode::SBC:
        regs[rd()] = sub_op(regs[rd()], regs[rs()], fC);
        break;
      case Opcode::AND:
        regs[rd()] &= regs[rs()];
        setZN(regs[rd()]);
        break;
      case Opcode::OR:
        regs[rd()] |= regs[rs()];
        setZN(regs[rd()]);
        break;
      case Opcode::XOR:
        regs[rd()] ^= regs[rs()];
        setZN(regs[rd()]);
        break;
      case Opcode::CP:
        sub_op(regs[rd()], regs[rs()], false);
        break;
      case Opcode::ADDI:
        regs[rd()] = add_op(regs[rd()], imm(), false);
        break;
      case Opcode::SUBI:
        regs[rd()] = sub_op(regs[rd()], imm(), false);
        break;
      case Opcode::ANDI:
        regs[rd()] &= imm();
        setZN(regs[rd()]);
        break;
      case Opcode::ORI:
        regs[rd()] |= imm();
        setZN(regs[rd()]);
        break;
      case Opcode::XORI:
        regs[rd()] ^= imm();
        setZN(regs[rd()]);
        break;
      case Opcode::CPI:
        sub_op(regs[rd()], imm(), false);
        break;
      case Opcode::INC:
        ++regs[rd()];
        setZN(regs[rd()]);
        break;
      case Opcode::DEC:
        --regs[rd()];
        setZN(regs[rd()]);
        break;
      case Opcode::LSL:
        fC = (regs[rd()] & 0x80) != 0;
        regs[rd()] = static_cast<std::uint8_t>(regs[rd()] << 1);
        setZN(regs[rd()]);
        break;
      case Opcode::LSR:
        fC = (regs[rd()] & 0x01) != 0;
        regs[rd()] >>= 1;
        setZN(regs[rd()]);
        break;
      case Opcode::INCP: {
        unsigned pair = rd() & 0x7;
        std::uint16_t v = static_cast<std::uint16_t>(pairValue(pair) + 1);
        setPair(pair, v);
        fZ = v == 0;
        break;
      }
      case Opcode::DECP: {
        unsigned pair = rd() & 0x7;
        std::uint16_t v = static_cast<std::uint16_t>(pairValue(pair) - 1);
        setPair(pair, v);
        fZ = v == 0;
        break;
      }

      case Opcode::JMP:
        next_pc = jump_target();
        break;
      case Opcode::JZ:
        take_branch(fZ);
        break;
      case Opcode::JNZ:
        take_branch(!fZ);
        break;
      case Opcode::JC:
        take_branch(fC);
        break;
      case Opcode::JNC:
        take_branch(!fC);
        break;
      case Opcode::JN:
        take_branch(fN);
        break;
      case Opcode::CALL: {
        std::uint16_t target = jump_target();
        push(static_cast<std::uint8_t>(next_pc >> 8));
        push(static_cast<std::uint8_t>(next_pc & 0xFF));
        next_pc = target;
        break;
      }
      case Opcode::ICALL: {
        std::uint16_t target = pairValue(rd() & 0x7);
        push(static_cast<std::uint8_t>(next_pc >> 8));
        push(static_cast<std::uint8_t>(next_pc & 0xFF));
        next_pc = target;
        break;
      }
      case Opcode::IJMP:
        next_pc = pairValue(rd() & 0x7);
        break;
    }

    _pc = next_pc;
    ++statInstructions;
    _cycles += cycles_used;
    return cycles_used;
}

} // namespace ulp::mcu
