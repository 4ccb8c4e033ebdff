/**
 * @file
 * Functional-emulator tests: instruction semantics on hand-
 * assembled programs (32-bit wrap, shifts, byte accesses, control
 * flow, the heap pointer convention) and trace-observer contents.
 */

#include <gtest/gtest.h>

#include "isa/builder.hh"
#include "isa/registers.hh"
#include "sim/emulator.hh"
#include "support/logging.hh"
#include "verify/reference_interp.hh"

using namespace elag;
using namespace elag::isa;
namespace build = elag::isa::build;

namespace {

/** Assemble a raw program (no globals) ending in halt. */
isa::MachineProgram
assemble(std::vector<Instruction> code)
{
    isa::MachineProgram prog;
    prog.code = std::move(code);
    prog.globalSize = 8;
    prog.globalInit.assign(8, 0);
    prog.verify();
    return prog;
}

} // namespace

TEST(Emulator, ArithmeticWrapsAt32Bits)
{
    auto prog = assemble({
        build::li(10, 0x7fffffff),
        build::addi(11, 10, 1), // overflow wraps
        build::print(11),
        build::li(12, -2),
        build::rrr(Opcode::MUL, 13, 10, 12),
        build::print(13),
        build::li(14, 1),
        build::rrr(Opcode::ADD, 15, 10, 14), // INT32_MAX + 1
        build::print(15),
        build::li(16, INT32_MIN),
        build::rrr(Opcode::SUB, 17, 16, 14), // INT32_MIN - 1
        build::print(17),
        build::halt(),
    });
    const std::vector<int32_t> want = {
        INT32_MIN,
        2, // 0x7fffffff * -2 mod 2^32
        INT32_MIN,
        INT32_MAX,
    };
    sim::Emulator emu(prog);
    EXPECT_EQ(emu.run().output, want);
    verify::ReferenceInterpreter ref(prog);
    EXPECT_EQ(ref.run().output, want);
}

TEST(Emulator, ShiftSemantics)
{
    auto prog = assemble({
        build::li(10, -8),
        build::rri(Opcode::SRAI, 11, 10, 1),  // arithmetic: -4
        build::rri(Opcode::SRLI, 12, 10, 28), // logical: 15
        build::li(13, 1),
        build::rri(Opcode::SLLI, 14, 13, 31), // 1<<31 = INT_MIN
        build::print(11),
        build::print(12),
        build::print(14),
        build::halt(),
    });
    sim::Emulator emu(prog);
    auto r = emu.run();
    EXPECT_EQ(r.output[0], -4);
    EXPECT_EQ(r.output[1], 15);
    EXPECT_EQ(r.output[2], INT32_MIN);
}

TEST(Emulator, SetAndCompareOps)
{
    auto prog = assemble({
        build::li(10, -1),
        build::li(11, 1),
        build::rrr(Opcode::SLT, 12, 10, 11),  // signed: -1 < 1
        build::rrr(Opcode::SLTU, 13, 10, 11), // unsigned: max > 1
        build::rrr(Opcode::SEQ, 14, 10, 10),
        build::print(12),
        build::print(13),
        build::print(14),
        build::halt(),
    });
    sim::Emulator emu(prog);
    auto r = emu.run();
    EXPECT_EQ(r.output[0], 1);
    EXPECT_EQ(r.output[1], 0);
    EXPECT_EQ(r.output[2], 1);
}

TEST(Emulator, DivRemTowardZeroAndEdgeCases)
{
    auto prog = assemble({
        build::li(10, -7),
        build::li(11, 2),
        build::rrr(Opcode::DIV, 12, 10, 11),
        build::rrr(Opcode::REM, 13, 10, 11),
        build::li(14, INT32_MIN),
        build::li(15, -1),
        build::rrr(Opcode::DIV, 16, 14, 15), // INT_MIN / -1
        build::print(12),
        build::print(13),
        build::print(16),
        build::halt(),
    });
    sim::Emulator emu(prog);
    auto r = emu.run();
    EXPECT_EQ(r.output[0], -3);
    EXPECT_EQ(r.output[1], -1);
    EXPECT_EQ(r.output[2], INT32_MIN);
}

TEST(Emulator, DivideByZeroFaults)
{
    auto prog = assemble({
        build::li(10, 1),
        build::rrr(Opcode::DIV, 11, 10, 0),
        build::halt(),
    });
    sim::Emulator emu(prog);
    try {
        emu.run();
        FAIL() << "expected a guest trap";
    } catch (const sim::GuestTrapError &e) {
        EXPECT_EQ(e.kind(), sim::GuestTrapKind::DivideByZero);
        EXPECT_EQ(e.trapPc(), 1u);
    }
}

TEST(Emulator, ByteLoadsAreUnsigned)
{
    auto prog = assemble({
        build::li(10, isa::GlobalBase),
        build::li(11, 0xff),
        build::store(11, 10, 0, MemWidth::Byte),
        build::load(LoadSpec::Normal, 12, 10, 0, MemWidth::Byte),
        build::print(12),
        build::halt(),
    });
    sim::Emulator emu(prog);
    auto r = emu.run();
    EXPECT_EQ(r.output[0], 255);
}

TEST(Emulator, BaseIndexAddressing)
{
    auto prog = assemble({
        build::li(10, isa::GlobalBase),
        build::li(11, 42),
        build::store(11, 10, 4),
        build::li(12, 4),
        build::loadx(LoadSpec::Normal, 13, 10, 12),
        build::print(13),
        build::halt(),
    });
    sim::Emulator emu(prog);
    auto r = emu.run();
    EXPECT_EQ(r.output[0], 42);
}

TEST(Emulator, CallAndReturnThroughRa)
{
    // 0: jal ra, 3 ; 1: print r4 ; 2: halt ; 3: li r4, 9 ; 4: jr ra
    auto prog = assemble({
        build::jal(reg::Ra, 3),
        build::print(reg::Arg0),
        build::halt(),
        build::li(reg::Arg0, 9),
        build::jr(reg::Ra),
    });
    sim::Emulator emu(prog);
    auto r = emu.run();
    ASSERT_EQ(r.output.size(), 1u);
    EXPECT_EQ(r.output[0], 9);
    EXPECT_TRUE(r.halted);
}

TEST(Emulator, ConditionalBranchOutcomes)
{
    // Count down from 3 with a bne loop; print each value.
    auto prog = assemble({
        build::li(10, 3),                            // 0
        build::print(10),                            // 1
        build::addi(10, 10, -1),                     // 2
        build::branch(Opcode::BNE, 10, 0, 1),        // 3
        build::halt(),                               // 4
    });
    sim::Emulator emu(prog);
    auto r = emu.run();
    ASSERT_EQ(r.output.size(), 3u);
    EXPECT_EQ(r.output[0], 3);
    EXPECT_EQ(r.output[2], 1);
}

TEST(Emulator, InstructionCapStopsRunawayLoop)
{
    auto prog = assemble({
        build::jmp(0),
    });
    sim::Emulator emu(prog);
    auto r = emu.run(1000);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.instructions, 1000u);
}

TEST(Emulator, RegisterZeroIsImmutable)
{
    auto prog = assemble({
        build::li(0, 77), // write to r0 is discarded
        build::print(0),
        build::halt(),
    });
    sim::Emulator emu(prog);
    auto r = emu.run();
    EXPECT_EQ(r.output[0], 0);
}

TEST(Emulator, ObserverSeesEffectiveAddressesAndBranches)
{
    auto prog = assemble({
        build::li(10, isa::GlobalBase),              // 0
        build::store(10, 10, 0),                     // 1
        build::load(LoadSpec::Predict, 11, 10, 0),   // 2
        build::branch(Opcode::BEQ, 11, 10, 5),       // 3 (taken)
        build::print(10),                            // 4 skipped
        build::halt(),                               // 5
    });
    std::vector<pipeline::RetiredInst> trace;
    sim::Emulator emu(prog);
    emu.run(1000, [&](const pipeline::RetiredInst &ri) {
        trace.push_back(ri);
    });
    ASSERT_EQ(trace.size(), 5u); // print skipped
    EXPECT_EQ(trace[1].effAddr, isa::GlobalBase);
    EXPECT_EQ(trace[2].effAddr, isa::GlobalBase);
    EXPECT_EQ(trace[2].inst.spec, LoadSpec::Predict);
    EXPECT_TRUE(trace[3].taken);
    EXPECT_EQ(trace[3].nextPc, 5u);
}

TEST(Emulator, FloatingPointOps)
{
    Instruction cvt1 = build::rri(Opcode::CVTIF, 1, 10, 0);
    Instruction cvt2 = build::rri(Opcode::CVTIF, 2, 11, 0);
    Instruction fadd = build::rrr(Opcode::FADD, 3, 1, 2);
    Instruction fmul = build::rrr(Opcode::FMUL, 4, 3, 2);
    Instruction back = build::rri(Opcode::CVTFI, 12, 4, 0);
    auto prog = assemble({
        build::li(10, 3),
        build::li(11, 4),
        cvt1, cvt2, fadd, fmul, back,
        build::print(12),
        build::halt(),
    });
    sim::Emulator emu(prog);
    auto r = emu.run();
    EXPECT_EQ(r.output[0], 28); // (3+4)*4
}

TEST(Emulator, HeapPointerInitializedToHeapBase)
{
    // The last global word is the heap bump pointer; the emulator
    // patches it to heapBase() at reset.
    isa::MachineProgram prog;
    prog.globalSize = 16;
    prog.globalInit.assign(16, 0);
    prog.code = {
        build::li(10, isa::GlobalBase + 12),
        build::load(LoadSpec::Normal, 11, 10, 0),
        build::print(11),
        build::halt(),
    };
    prog.verify();
    sim::Emulator emu(prog);
    auto r = emu.run();
    EXPECT_EQ(static_cast<uint32_t>(r.output[0]), prog.heapBase());
}
