/**
 * @file
 * Test-only reference interpreter for ELAG machine programs.
 *
 * A decode-as-you-go switch over raw isa::Instruction records: the
 * emulator before predecoding. It shares no predecode machinery with
 * sim::Emulator (no DecodedStream, no specialized handlers, no past-
 * the-end sentinel), so agreement between the two pins the
 * predecoder against an independent oracle. tests/test_dispatch.cc
 * compares stats documents, guest traps and architectural state;
 * bench_micro's *Legacy benchmarks time it as the same-runner
 * baseline of the CI step-change gate.
 *
 * Header-only: elag_verify is linked by the pipeline and must not
 * depend on elag_sim, and only tests and benchmarks include this.
 */

#ifndef ELAG_VERIFY_REFERENCE_INTERP_HH
#define ELAG_VERIFY_REFERENCE_INTERP_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "ckpt/serial.hh"
#include "isa/program.hh"
#include "isa/registers.hh"
#include "mem/memory.hh"
#include "pipeline/pipeline.hh"
#include "sim/decoded.hh"
#include "sim/emulator.hh"
#include "sim/simulator.hh"
#include "support/logging.hh"

namespace elag {
namespace verify {

/** The reference interpreter; owns its program, registers and memory. */
class ReferenceInterpreter
{
  public:
    explicit ReferenceInterpreter(const isa::MachineProgram &program)
        : prog(program), mem_(isa::MemorySize), pc_(program.entry)
    {
        // The global segment and heap bump pointer, as the emulator
        // loads them.
        mem_.writeBlock(isa::GlobalBase, prog.globalInit);
        if (prog.globalSize >= 4) {
            mem_.writeWord(isa::GlobalBase + prog.globalSize - 4,
                           prog.heapBase());
        }
    }

    /**
     * Run until HALT or @p max_instructions, streaming every
     * committed instruction to @p observer; the records carry the
     * flag word and integer sources (pipeline::makeRetired). Guest
     * faults raise the same sim::GuestTrapError kinds and messages
     * as the emulator, with the faulting PC kept for serialize().
     */
    template <typename F>
    sim::EmulationResult run(uint64_t max_instructions, F &&observer);

    sim::EmulationResult
    run(uint64_t max_instructions = 500'000'000)
    {
        return run(max_instructions,
                   [](const pipeline::RetiredInst &) {});
    }

    /** PC, both register files and memory, in Emulator::serialize's
     *  layout, so the two compare byte for byte. */
    void
    serialize(ckpt::Writer &w) const
    {
        w.u32(pc_);
        for (int32_t reg : regs)
            w.i32(reg);
        for (float freg : fregs)
            w.f32(freg);
        mem_.serialize(w);
    }

  private:
    const isa::MachineProgram prog;
    mem::MainMemory mem_;
    int32_t regs[isa::NumIntRegs] = {};
    float fregs[isa::NumFpRegs] = {};
    uint32_t pc_ = 0;
};

template <typename F>
sim::EmulationResult
ReferenceInterpreter::run(uint64_t max_instructions, F &&observer)
{
    using isa::Instruction;
    using isa::Opcode;
    using sim::EmulationResult;
    using sim::GuestTrapError;
    using sim::GuestTrapKind;

    EmulationResult result;
    const uint32_t size = static_cast<uint32_t>(prog.code.size());
    const uint64_t mem_size = mem_.size();
    uint32_t pc = pc_;

    if (pc > size) {
        throw GuestTrapError(
            GuestTrapKind::PcOutOfRange, pc,
            formatString("emulator: PC 0x%x out of range", pc));
    }
    if (max_instructions == 0)
        return result;

    auto read_reg = [&](int r) -> int32_t {
        return r == 0 ? 0 : regs[r];
    };
    auto write_reg = [&](int r, int32_t v) {
        if (r != 0)
            regs[r] = v;
    };
    auto check_ea = [&](uint32_t ea, uint32_t bytes) {
        if (static_cast<uint64_t>(ea) + bytes > mem_size) {
            throw GuestTrapError(
                GuestTrapKind::BadAddress, pc,
                formatString("emulator: memory access out of range "
                             "at pc %u: addr=0x%x",
                             pc, ea));
        }
    };

    try {
        while (result.instructions < max_instructions) {
            if (pc >= size) {
                throw GuestTrapError(
                    GuestTrapKind::PcOutOfRange, pc,
                    formatString("emulator: PC 0x%x out of range",
                                 pc));
            }
            const Instruction &inst = prog.code[pc];

            pipeline::RetiredInst ri = pipeline::makeRetired(pc, inst);

            uint32_t next_pc = pc + 1;
            uint32_t a = static_cast<uint32_t>(read_reg(inst.rs1));
            uint32_t b = static_cast<uint32_t>(read_reg(inst.rs2));
            int32_t sa = static_cast<int32_t>(a);
            int32_t sb = static_cast<int32_t>(b);
            int32_t imm = inst.imm;

            switch (inst.op) {
              case Opcode::ADD:
                write_reg(inst.rd, static_cast<int32_t>(a + b));
                break;
              case Opcode::SUB:
                write_reg(inst.rd, static_cast<int32_t>(a - b));
                break;
              case Opcode::MUL:
                write_reg(inst.rd, static_cast<int32_t>(a * b));
                break;
              case Opcode::DIV:
                if (sb == 0) {
                    throw GuestTrapError(
                        GuestTrapKind::DivideByZero, pc,
                        formatString(
                            "emulator: divide by zero at pc %u", pc));
                }
                write_reg(inst.rd, (sa == INT32_MIN && sb == -1)
                                       ? INT32_MIN
                                       : sa / sb);
                break;
              case Opcode::REM:
                if (sb == 0) {
                    throw GuestTrapError(
                        GuestTrapKind::RemainderByZero, pc,
                        formatString(
                            "emulator: remainder by zero at pc %u",
                            pc));
                }
                write_reg(inst.rd,
                          (sa == INT32_MIN && sb == -1) ? 0 : sa % sb);
                break;
              case Opcode::AND: write_reg(inst.rd, sa & sb); break;
              case Opcode::OR: write_reg(inst.rd, sa | sb); break;
              case Opcode::XOR: write_reg(inst.rd, sa ^ sb); break;
              case Opcode::SLL:
                write_reg(inst.rd,
                          static_cast<int32_t>(a << (b & 31)));
                break;
              case Opcode::SRL:
                write_reg(inst.rd,
                          static_cast<int32_t>(a >> (b & 31)));
                break;
              case Opcode::SRA:
                write_reg(inst.rd, sa >> (b & 31));
                break;
              case Opcode::SLT: write_reg(inst.rd, sa < sb); break;
              case Opcode::SLTU: write_reg(inst.rd, a < b); break;
              case Opcode::SEQ: write_reg(inst.rd, sa == sb); break;
              case Opcode::ADDI:
                write_reg(inst.rd, static_cast<int32_t>(
                                       a + static_cast<uint32_t>(imm)));
                break;
              case Opcode::ANDI: write_reg(inst.rd, sa & imm); break;
              case Opcode::ORI: write_reg(inst.rd, sa | imm); break;
              case Opcode::XORI: write_reg(inst.rd, sa ^ imm); break;
              case Opcode::SLLI:
                write_reg(inst.rd,
                          static_cast<int32_t>(a << (imm & 31)));
                break;
              case Opcode::SRLI:
                write_reg(inst.rd,
                          static_cast<int32_t>(a >> (imm & 31)));
                break;
              case Opcode::SRAI:
                write_reg(inst.rd, sa >> (imm & 31));
                break;
              case Opcode::SLTI: write_reg(inst.rd, sa < imm); break;
              case Opcode::LUI: write_reg(inst.rd, imm << 16); break;
              case Opcode::LOAD: {
                uint32_t ea = inst.mode == isa::AddrMode::BaseOffset
                                  ? a + static_cast<uint32_t>(imm)
                                  : a + b;
                ri.effAddr = ea;
                uint32_t bytes =
                    inst.width == isa::MemWidth::Byte ? 1u : 4u;
                check_ea(ea, bytes);
                int32_t value =
                    inst.width == isa::MemWidth::Byte
                        ? static_cast<int32_t>(mem_.readByte(ea))
                        : static_cast<int32_t>(mem_.readWord(ea));
                write_reg(inst.rd, value);
                break;
              }
              case Opcode::STORE: {
                uint32_t ea = inst.mode == isa::AddrMode::BaseOffset
                                  ? a + static_cast<uint32_t>(imm)
                                  : a + b;
                ri.effAddr = ea;
                uint32_t bytes =
                    inst.width == isa::MemWidth::Byte ? 1u : 4u;
                check_ea(ea, bytes);
                if (inst.width == isa::MemWidth::Byte)
                    mem_.writeByte(ea, static_cast<uint8_t>(b));
                else
                    mem_.writeWord(ea, b);
                break;
              }
              case Opcode::BEQ: ri.taken = sa == sb; break;
              case Opcode::BNE: ri.taken = sa != sb; break;
              case Opcode::BLT: ri.taken = sa < sb; break;
              case Opcode::BGE: ri.taken = sa >= sb; break;
              case Opcode::BLTU: ri.taken = a < b; break;
              case Opcode::BGEU: ri.taken = a >= b; break;
              case Opcode::JMP:
                ri.taken = true;
                next_pc = static_cast<uint32_t>(imm);
                break;
              case Opcode::JAL:
                ri.taken = true;
                write_reg(inst.rd, static_cast<int32_t>(pc + 1));
                next_pc = static_cast<uint32_t>(imm);
                break;
              case Opcode::JR:
                ri.taken = true;
                next_pc = a;
                break;
              case Opcode::FADD:
                fregs[inst.rd] = fregs[inst.rs1] + fregs[inst.rs2];
                break;
              case Opcode::FSUB:
                fregs[inst.rd] = fregs[inst.rs1] - fregs[inst.rs2];
                break;
              case Opcode::FMUL:
                fregs[inst.rd] = fregs[inst.rs1] * fregs[inst.rs2];
                break;
              case Opcode::FDIV:
                fregs[inst.rd] = fregs[inst.rs1] / fregs[inst.rs2];
                break;
              case Opcode::FLOAD: {
                uint32_t ea = inst.mode == isa::AddrMode::BaseOffset
                                  ? a + static_cast<uint32_t>(imm)
                                  : a + b;
                ri.effAddr = ea;
                check_ea(ea, 4);
                uint32_t bits = mem_.readWord(ea);
                float f;
                std::memcpy(&f, &bits, 4);
                fregs[inst.rd] = f;
                break;
              }
              case Opcode::FSTORE: {
                uint32_t ea = a + static_cast<uint32_t>(imm);
                ri.effAddr = ea;
                check_ea(ea, 4);
                uint32_t bits;
                std::memcpy(&bits, &fregs[inst.rs2], 4);
                mem_.writeWord(ea, bits);
                break;
              }
              case Opcode::CVTIF:
                fregs[inst.rd] = static_cast<float>(sa);
                break;
              case Opcode::CVTFI:
                write_reg(inst.rd,
                          static_cast<int32_t>(fregs[inst.rs1]));
                break;
              case Opcode::PRINT:
                result.output.push_back(sa);
                break;
              case Opcode::HALT:
                ++result.instructions;
                ri.nextPc = pc;
                observer(ri);
                result.halted = true;
                result.exitValue = read_reg(isa::reg::Arg0);
                pc_ = pc;
                return result;
              case Opcode::NOP:
                break;
              default:
                throw GuestTrapError(
                    GuestTrapKind::BadOpcode, pc,
                    formatString("emulator: bad opcode at pc %u",
                                 pc));
            }

            // Conditional branches pick their target here; explicit
            // transfers validate it like the emulator does (== size
            // flows to the next iteration's range trap).
            if (inst.isCondBranch() && ri.taken)
                next_pc = static_cast<uint32_t>(imm);
            if (next_pc > size) {
                throw GuestTrapError(
                    GuestTrapKind::PcOutOfRange, pc,
                    formatString("emulator: control transfer to PC "
                                 "0x%x out of range at pc %u",
                                 next_pc, pc));
            }

            ri.nextPc = next_pc;
            ++result.instructions;
            observer(ri);
            pc = next_pc;
        }
        pc_ = pc;
        result.halted = false;
        return result;
    } catch (...) {
        pc_ = pc;
        throw;
    }
}

/**
 * sim::runTimed's plain path with the reference interpreter in place
 * of the emulator: a Pipeline with @p observers attached, every
 * committed instruction retired, finish().
 */
inline sim::TimedResult
runTimedReference(const sim::CompiledProgram &prog,
                  const pipeline::MachineConfig &machine,
                  const std::vector<pipeline::Observer *> &observers = {})
{
    sim::TimedResult result;
    pipeline::Pipeline pipe(machine);
    for (pipeline::Observer *observer : observers)
        pipe.attach(observer);
    ReferenceInterpreter interp(prog.code.program);
    result.emulation = interp.run(
        500'000'000,
        [&](const pipeline::RetiredInst &ri) { pipe.retire(ri); });
    result.pipe = pipe.finish();
    return result;
}

} // namespace verify
} // namespace elag

#endif // ELAG_VERIFY_REFERENCE_INTERP_HH
