/**
 * @file
 * Functional emulator for ELAG machine programs.
 *
 * Executes architecturally and streams each committed instruction
 * (with its real effective address and branch outcome) to an
 * observer — the "emulation-driven" methodology of Section 5.1: the
 * same committed stream drives the timing model and the address
 * profiler.
 *
 * The emulator runs over a predecoded DecodedStream (sim/decoded.hh)
 * rather than raw isa::Instruction records: handler specialization,
 * operand pre-resolution, and the retire flag word all happen once
 * per static instruction instead of once per committed instruction.
 * There is one dispatch loop, a switch over the handler indices. The
 * test-only verify::ReferenceInterpreter (verify/reference_interp.hh)
 * decodes as it goes instead; tests/test_dispatch.cc compares the
 * two.
 *
 * run() is a template over the observer callable so the per-retire
 * callback (typically "feed the pipeline timing model") inlines into
 * the dispatch loop; this loop executes once per simulated
 * instruction and an opaque std::function indirection here costs
 * measurable whole-simulation throughput.
 */

#ifndef ELAG_SIM_EMULATOR_HH
#define ELAG_SIM_EMULATOR_HH

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "isa/program.hh"
#include "isa/registers.hh"
#include "mem/memory.hh"
#include "pipeline/pipeline.hh"
#include "sim/decoded.hh"
#include "support/logging.hh"

namespace elag {
namespace sim {

/** Result of a functional run. */
struct EmulationResult
{
    /** Instructions committed. */
    uint64_t instructions = 0;
    /** Values emitted by the program's print() builtin. */
    std::vector<int32_t> output;
    /** True if the program reached HALT (vs. the instruction cap). */
    bool halted = false;
    /** Exit value (main's return value, register r4 at HALT). */
    int32_t exitValue = 0;
};

/**
 * Checkpoint codec for a (possibly partial) emulation result — used
 * to carry the retired-instruction count and accumulated print()
 * output across a checkpoint/restore boundary.
 */
void serialize(ckpt::Writer &w, const EmulationResult &result);
void restore(ckpt::Reader &r, EmulationResult &result);

/** The emulator. */
class Emulator
{
  public:
    /**
     * Type-erased committed-instruction sink; prefer passing a
     * lambda directly to run() so the call inlines.
     */
    using Observer = std::function<void(const pipeline::RetiredInst &)>;

    explicit Emulator(const isa::MachineProgram &program);

    /**
     * Run until HALT or @p max_instructions, streaming every
     * committed instruction to @p observer in program order.
     *
     * Guest faults (divide by zero, wild PC, out-of-range effective
     * address, undecodable opcode) raise GuestTrapError; the
     * architected PC visible to serialize() is the faulting
     * instruction's PC.
     */
    template <typename F>
    EmulationResult run(uint64_t max_instructions, F &&observer);

    /** Run until HALT or @p max_instructions, with no observer. */
    EmulationResult run(uint64_t max_instructions = 500'000'000);

    /** The memory image (for tests). */
    const mem::MainMemory &memory() const { return mem_; }
    mem::MainMemory &memory() { return mem_; }

    /**
     * Checkpoint the architectural state: PC, integer and FP
     * register files, and the full memory image. The program itself
     * is not captured; restore() requires an Emulator constructed
     * over the identical MachineProgram (checked by program hash at
     * the checkpoint layer). The predecoded stream is derived state
     * and never serialized.
     */
    void serialize(ckpt::Writer &w) const;
    void restore(ckpt::Reader &r);

  private:
    std::shared_ptr<const DecodedStream> stream_;
    mem::MainMemory mem_;
    int32_t regs[isa::NumIntRegs] = {};
    float fregs[isa::NumFpRegs] = {};
    uint32_t pc_ = 0;
};

// The dispatch loop's helpers name run()'s locals; they are undefined
// again after it.

/** Refill the dispatch cursor and the retire record for `pc`. */
#define ELAG_LOADRI()                                                 \
    do {                                                              \
        d = stream + pc;                                              \
        ri.pc = pc;                                                   \
        ri.inst = d->inst;                                            \
        ri.flags = d->flags;                                          \
        ri.src1 = d->src1;                                            \
        ri.src2 = d->src2;                                            \
        ri.effAddr = 0;                                               \
        ri.taken = false;                                             \
    } while (0)

/** Commit the current instruction and dispatch its successor. */
#define ELAG_NEXT(np)                                                 \
    do {                                                              \
        const uint32_t elag_np = (np);                                \
        ri.nextPc = elag_np;                                          \
        ++result.instructions;                                        \
        observer(ri);                                                 \
        pc = elag_np;                                                 \
        if (result.instructions >= max_instructions) [[unlikely]]     \
            goto capped;                                              \
        ELAG_LOADRI();                                                \
        goto dispatch_top;                                            \
    } while (0)

/** Validate an explicit control-transfer target (== limit lands on
 *  the sentinel, which raises the trap with the right PC itself). */
#define ELAG_CHECK_TARGET(t)                                          \
    do {                                                              \
        if ((t) > limit) [[unlikely]]                                 \
            trap_target(pc, (t));                                     \
    } while (0)

/** Validate an effective address against the memory image. */
#define ELAG_CHECK_EA(ea, bytes)                                      \
    do {                                                              \
        if (static_cast<uint64_t>(ea) + (bytes) > mem_size)           \
            [[unlikely]]                                              \
            trap_addr(pc, (ea));                                      \
    } while (0)

/*
 * Loop invariants:
 *  - `pc` is a local copy of the architected PC; every exit path
 *    (HALT, instruction cap, any throw) writes it back to pc_, so
 *    chunked runs (sim/ckpt_run.cc) resume exactly where they left
 *    off.
 *  - regs[0] is kept zero by every write path (construction,
 *    restore, wr), so operand reads need no r0 test.
 *  - The stream carries one TRAP_PCRANGE sentinel past the end, so
 *    falling off the program needs no per-instruction bounds check;
 *    explicit control transfers validate their target instead.
 */
template <typename F>
EmulationResult
Emulator::run(uint64_t max_instructions, F &&observer)
{
    EmulationResult result;
    const DecodedInst *const stream = stream_->insts();
    const uint32_t limit = stream_->programSize();
    const uint64_t mem_size = mem_.size();
    uint32_t pc = pc_;

    if (pc > limit) {
        throw GuestTrapError(
            GuestTrapKind::PcOutOfRange, pc,
            formatString("emulator: PC 0x%x out of range", pc));
    }
    if (max_instructions == 0)
        return result;

    auto wr = [&](uint8_t r, int32_t v) {
        if (r != 0)
            regs[r] = v;
    };
    auto trap_addr = [&](uint32_t at_pc, uint32_t ea) {
        throw GuestTrapError(
            GuestTrapKind::BadAddress, at_pc,
            formatString("emulator: memory access out of range at pc %u: "
                         "addr=0x%x",
                         at_pc, ea));
    };
    auto trap_target = [&](uint32_t at_pc, uint32_t target) {
        throw GuestTrapError(
            GuestTrapKind::PcOutOfRange, at_pc,
            formatString("emulator: control transfer to PC 0x%x out of "
                         "range at pc %u",
                         target, at_pc));
    };

    pipeline::RetiredInst ri;
    const DecodedInst *d;

    try {
        ELAG_LOADRI();

      dispatch_top:
        switch (d->handler) {
          case Handler::ADD: {
            wr(d->inst.rd,
               static_cast<int32_t>(
                   static_cast<uint32_t>(regs[d->inst.rs1]) +
                   static_cast<uint32_t>(regs[d->inst.rs2])));
            ELAG_NEXT(pc + 1);
          }
          case Handler::SUB: {
            wr(d->inst.rd,
               static_cast<int32_t>(
                   static_cast<uint32_t>(regs[d->inst.rs1]) -
                   static_cast<uint32_t>(regs[d->inst.rs2])));
            ELAG_NEXT(pc + 1);
          }
          case Handler::MUL: {
            wr(d->inst.rd,
               static_cast<int32_t>(
                   static_cast<uint32_t>(regs[d->inst.rs1]) *
                   static_cast<uint32_t>(regs[d->inst.rs2])));
            ELAG_NEXT(pc + 1);
          }
          case Handler::DIV: {
            const int32_t a = regs[d->inst.rs1];
            const int32_t b = regs[d->inst.rs2];
            if (b == 0) [[unlikely]] {
                throw GuestTrapError(
                    GuestTrapKind::DivideByZero, pc,
                    formatString("emulator: divide by zero at pc %u",
                                 pc));
            }
            wr(d->inst.rd,
               (a == INT32_MIN && b == -1) ? INT32_MIN : a / b);
            ELAG_NEXT(pc + 1);
          }
          case Handler::REM: {
            const int32_t a = regs[d->inst.rs1];
            const int32_t b = regs[d->inst.rs2];
            if (b == 0) [[unlikely]] {
                throw GuestTrapError(
                    GuestTrapKind::RemainderByZero, pc,
                    formatString("emulator: remainder by zero at pc %u",
                                 pc));
            }
            wr(d->inst.rd, (a == INT32_MIN && b == -1) ? 0 : a % b);
            ELAG_NEXT(pc + 1);
          }
          case Handler::AND: {
            wr(d->inst.rd, regs[d->inst.rs1] & regs[d->inst.rs2]);
            ELAG_NEXT(pc + 1);
          }
          case Handler::OR: {
            wr(d->inst.rd, regs[d->inst.rs1] | regs[d->inst.rs2]);
            ELAG_NEXT(pc + 1);
          }
          case Handler::XOR: {
            wr(d->inst.rd, regs[d->inst.rs1] ^ regs[d->inst.rs2]);
            ELAG_NEXT(pc + 1);
          }
          case Handler::SLL: {
            wr(d->inst.rd,
               static_cast<int32_t>(
                   static_cast<uint32_t>(regs[d->inst.rs1])
                   << (static_cast<uint32_t>(regs[d->inst.rs2]) & 31)));
            ELAG_NEXT(pc + 1);
          }
          case Handler::SRL: {
            wr(d->inst.rd,
               static_cast<int32_t>(
                   static_cast<uint32_t>(regs[d->inst.rs1]) >>
                   (static_cast<uint32_t>(regs[d->inst.rs2]) & 31)));
            ELAG_NEXT(pc + 1);
          }
          case Handler::SRA: {
            wr(d->inst.rd,
               regs[d->inst.rs1] >>
                   (static_cast<uint32_t>(regs[d->inst.rs2]) & 31));
            ELAG_NEXT(pc + 1);
          }
          case Handler::SLT: {
            wr(d->inst.rd, regs[d->inst.rs1] < regs[d->inst.rs2]);
            ELAG_NEXT(pc + 1);
          }
          case Handler::SLTU: {
            wr(d->inst.rd, static_cast<uint32_t>(regs[d->inst.rs1]) <
                               static_cast<uint32_t>(regs[d->inst.rs2]));
            ELAG_NEXT(pc + 1);
          }
          case Handler::SEQ: {
            wr(d->inst.rd, regs[d->inst.rs1] == regs[d->inst.rs2]);
            ELAG_NEXT(pc + 1);
          }
          case Handler::ADDI: {
            wr(d->inst.rd,
               static_cast<int32_t>(
                   static_cast<uint32_t>(regs[d->inst.rs1]) +
                   static_cast<uint32_t>(d->inst.imm)));
            ELAG_NEXT(pc + 1);
          }
          case Handler::ANDI: {
            wr(d->inst.rd, regs[d->inst.rs1] & d->inst.imm);
            ELAG_NEXT(pc + 1);
          }
          case Handler::ORI: {
            wr(d->inst.rd, regs[d->inst.rs1] | d->inst.imm);
            ELAG_NEXT(pc + 1);
          }
          case Handler::XORI: {
            wr(d->inst.rd, regs[d->inst.rs1] ^ d->inst.imm);
            ELAG_NEXT(pc + 1);
          }
          case Handler::SLLI: {
            wr(d->inst.rd,
               static_cast<int32_t>(
                   static_cast<uint32_t>(regs[d->inst.rs1])
                   << (d->inst.imm & 31)));
            ELAG_NEXT(pc + 1);
          }
          case Handler::SRLI: {
            wr(d->inst.rd,
               static_cast<int32_t>(
                   static_cast<uint32_t>(regs[d->inst.rs1]) >>
                   (d->inst.imm & 31)));
            ELAG_NEXT(pc + 1);
          }
          case Handler::SRAI: {
            wr(d->inst.rd, regs[d->inst.rs1] >> (d->inst.imm & 31));
            ELAG_NEXT(pc + 1);
          }
          case Handler::SLTI: {
            wr(d->inst.rd, regs[d->inst.rs1] < d->inst.imm);
            ELAG_NEXT(pc + 1);
          }
          case Handler::LUI: {
            wr(d->inst.rd, d->inst.imm << 16);
            ELAG_NEXT(pc + 1);
          }

          case Handler::LOAD_BO_W: {
            const uint32_t ea =
                static_cast<uint32_t>(regs[d->inst.rs1]) +
                static_cast<uint32_t>(d->inst.imm);
            ELAG_CHECK_EA(ea, 4);
            ri.effAddr = ea;
            wr(d->inst.rd, static_cast<int32_t>(mem_.readWord(ea)));
            ELAG_NEXT(pc + 1);
          }
          case Handler::LOAD_BO_B: {
            const uint32_t ea =
                static_cast<uint32_t>(regs[d->inst.rs1]) +
                static_cast<uint32_t>(d->inst.imm);
            ELAG_CHECK_EA(ea, 1);
            ri.effAddr = ea;
            wr(d->inst.rd, static_cast<int32_t>(mem_.readByte(ea)));
            ELAG_NEXT(pc + 1);
          }
          case Handler::LOAD_BI_W: {
            const uint32_t ea =
                static_cast<uint32_t>(regs[d->inst.rs1]) +
                static_cast<uint32_t>(regs[d->inst.rs2]);
            ELAG_CHECK_EA(ea, 4);
            ri.effAddr = ea;
            wr(d->inst.rd, static_cast<int32_t>(mem_.readWord(ea)));
            ELAG_NEXT(pc + 1);
          }
          case Handler::LOAD_BI_B: {
            const uint32_t ea =
                static_cast<uint32_t>(regs[d->inst.rs1]) +
                static_cast<uint32_t>(regs[d->inst.rs2]);
            ELAG_CHECK_EA(ea, 1);
            ri.effAddr = ea;
            wr(d->inst.rd, static_cast<int32_t>(mem_.readByte(ea)));
            ELAG_NEXT(pc + 1);
          }

          case Handler::STORE_BO_W: {
            const uint32_t ea =
                static_cast<uint32_t>(regs[d->inst.rs1]) +
                static_cast<uint32_t>(d->inst.imm);
            ELAG_CHECK_EA(ea, 4);
            ri.effAddr = ea;
            mem_.writeWord(ea, static_cast<uint32_t>(regs[d->inst.rs2]));
            ELAG_NEXT(pc + 1);
          }
          case Handler::STORE_BO_B: {
            const uint32_t ea =
                static_cast<uint32_t>(regs[d->inst.rs1]) +
                static_cast<uint32_t>(d->inst.imm);
            ELAG_CHECK_EA(ea, 1);
            ri.effAddr = ea;
            mem_.writeByte(ea, static_cast<uint8_t>(regs[d->inst.rs2]));
            ELAG_NEXT(pc + 1);
          }
          case Handler::STORE_BI_W: {
            const uint32_t ea =
                static_cast<uint32_t>(regs[d->inst.rs1]) +
                static_cast<uint32_t>(regs[d->inst.rs2]);
            ELAG_CHECK_EA(ea, 4);
            ri.effAddr = ea;
            mem_.writeWord(ea, static_cast<uint32_t>(regs[d->inst.rs2]));
            ELAG_NEXT(pc + 1);
          }
          case Handler::STORE_BI_B: {
            const uint32_t ea =
                static_cast<uint32_t>(regs[d->inst.rs1]) +
                static_cast<uint32_t>(regs[d->inst.rs2]);
            ELAG_CHECK_EA(ea, 1);
            ri.effAddr = ea;
            mem_.writeByte(ea, static_cast<uint8_t>(regs[d->inst.rs2]));
            ELAG_NEXT(pc + 1);
          }

          case Handler::BEQ: {
            if (regs[d->inst.rs1] == regs[d->inst.rs2]) {
                ri.taken = true;
                ELAG_CHECK_TARGET(d->target);
                ELAG_NEXT(d->target);
            }
            ELAG_NEXT(pc + 1);
          }
          case Handler::BNE: {
            if (regs[d->inst.rs1] != regs[d->inst.rs2]) {
                ri.taken = true;
                ELAG_CHECK_TARGET(d->target);
                ELAG_NEXT(d->target);
            }
            ELAG_NEXT(pc + 1);
          }
          case Handler::BLT: {
            if (regs[d->inst.rs1] < regs[d->inst.rs2]) {
                ri.taken = true;
                ELAG_CHECK_TARGET(d->target);
                ELAG_NEXT(d->target);
            }
            ELAG_NEXT(pc + 1);
          }
          case Handler::BGE: {
            if (regs[d->inst.rs1] >= regs[d->inst.rs2]) {
                ri.taken = true;
                ELAG_CHECK_TARGET(d->target);
                ELAG_NEXT(d->target);
            }
            ELAG_NEXT(pc + 1);
          }
          case Handler::BLTU: {
            if (static_cast<uint32_t>(regs[d->inst.rs1]) <
                static_cast<uint32_t>(regs[d->inst.rs2])) {
                ri.taken = true;
                ELAG_CHECK_TARGET(d->target);
                ELAG_NEXT(d->target);
            }
            ELAG_NEXT(pc + 1);
          }
          case Handler::BGEU: {
            if (static_cast<uint32_t>(regs[d->inst.rs1]) >=
                static_cast<uint32_t>(regs[d->inst.rs2])) {
                ri.taken = true;
                ELAG_CHECK_TARGET(d->target);
                ELAG_NEXT(d->target);
            }
            ELAG_NEXT(pc + 1);
          }

          case Handler::JMP: {
            ri.taken = true;
            ELAG_CHECK_TARGET(d->target);
            ELAG_NEXT(d->target);
          }
          case Handler::JAL: {
            ri.taken = true;
            wr(d->inst.rd, static_cast<int32_t>(pc + 1));
            ELAG_CHECK_TARGET(d->target);
            ELAG_NEXT(d->target);
          }
          case Handler::JR: {
            ri.taken = true;
            const uint32_t t = static_cast<uint32_t>(regs[d->inst.rs1]);
            ELAG_CHECK_TARGET(t);
            ELAG_NEXT(t);
          }

          case Handler::FADD: {
            fregs[d->inst.rd] = fregs[d->inst.rs1] + fregs[d->inst.rs2];
            ELAG_NEXT(pc + 1);
          }
          case Handler::FSUB: {
            fregs[d->inst.rd] = fregs[d->inst.rs1] - fregs[d->inst.rs2];
            ELAG_NEXT(pc + 1);
          }
          case Handler::FMUL: {
            fregs[d->inst.rd] = fregs[d->inst.rs1] * fregs[d->inst.rs2];
            ELAG_NEXT(pc + 1);
          }
          case Handler::FDIV: {
            fregs[d->inst.rd] = fregs[d->inst.rs1] / fregs[d->inst.rs2];
            ELAG_NEXT(pc + 1);
          }

          case Handler::FLOAD_BO: {
            const uint32_t ea =
                static_cast<uint32_t>(regs[d->inst.rs1]) +
                static_cast<uint32_t>(d->inst.imm);
            ELAG_CHECK_EA(ea, 4);
            ri.effAddr = ea;
            const uint32_t bits = mem_.readWord(ea);
            float f;
            std::memcpy(&f, &bits, 4);
            fregs[d->inst.rd] = f;
            ELAG_NEXT(pc + 1);
          }
          case Handler::FLOAD_BI: {
            const uint32_t ea =
                static_cast<uint32_t>(regs[d->inst.rs1]) +
                static_cast<uint32_t>(regs[d->inst.rs2]);
            ELAG_CHECK_EA(ea, 4);
            ri.effAddr = ea;
            const uint32_t bits = mem_.readWord(ea);
            float f;
            std::memcpy(&f, &bits, 4);
            fregs[d->inst.rd] = f;
            ELAG_NEXT(pc + 1);
          }
          case Handler::FSTORE: {
            const uint32_t ea =
                static_cast<uint32_t>(regs[d->inst.rs1]) +
                static_cast<uint32_t>(d->inst.imm);
            ELAG_CHECK_EA(ea, 4);
            ri.effAddr = ea;
            uint32_t bits;
            std::memcpy(&bits, &fregs[d->inst.rs2], 4);
            mem_.writeWord(ea, bits);
            ELAG_NEXT(pc + 1);
          }

          case Handler::CVTIF: {
            fregs[d->inst.rd] =
                static_cast<float>(regs[d->inst.rs1]);
            ELAG_NEXT(pc + 1);
          }
          case Handler::CVTFI: {
            wr(d->inst.rd, static_cast<int32_t>(fregs[d->inst.rs1]));
            ELAG_NEXT(pc + 1);
          }

          case Handler::PRINT: {
            result.output.push_back(regs[d->inst.rs1]);
            ELAG_NEXT(pc + 1);
          }
          case Handler::HALT: {
            ++result.instructions;
            ri.nextPc = pc;
            observer(ri);
            result.halted = true;
            result.exitValue = regs[isa::reg::Arg0];
            pc_ = pc;
            return result;
          }
          case Handler::NOP: {
            ELAG_NEXT(pc + 1);
          }

          case Handler::TRAP_BADOP: {
            throw GuestTrapError(
                GuestTrapKind::BadOpcode, pc,
                formatString("emulator: bad opcode at pc %u", pc));
          }
          case Handler::TRAP_PCRANGE: {
            throw GuestTrapError(
                GuestTrapKind::PcOutOfRange, pc,
                formatString("emulator: PC 0x%x out of range", pc));
          }

          default:
            panic("emulator: invalid handler index %d",
                  static_cast<int>(d->handler));
        }
        panic("emulator: dispatch loop fell through");

      capped:
        pc_ = pc;
        result.halted = false;
        return result;
    } catch (...) {
        // Guest traps and watchdog timeouts (thrown by the observer)
        // unwind through here: persist the architected PC so a
        // checkpoint taken after the catch holds the faulting PC.
        pc_ = pc;
        throw;
    }
}

#undef ELAG_LOADRI
#undef ELAG_NEXT
#undef ELAG_CHECK_TARGET
#undef ELAG_CHECK_EA

inline EmulationResult
Emulator::run(uint64_t max_instructions)
{
    return run(max_instructions,
               [](const pipeline::RetiredInst &) {});
}

} // namespace sim
} // namespace elag

#endif // ELAG_SIM_EMULATOR_HH
