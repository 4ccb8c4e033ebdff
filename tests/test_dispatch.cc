/**
 * @file
 * Predecode + dispatch tests.
 *
 * The contract under test: the emulator's predecoded dispatch loop
 * and the decode-as-you-go reference interpreter
 * (verify/reference_interp.hh), which shares none of the predecode
 * machinery, are observably identical — same stats documents byte for
 * byte, same guest traps, same architectural state at any
 * instruction cap — pinning the predecoder against an independent
 * oracle. Plus unit coverage of the predecoder itself (flag words,
 * handler specialization, branch target pre-splitting, the
 * past-the-end sentinel, the process-wide stream cache).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "ckpt/serial.hh"
#include "isa/builder.hh"
#include "pipeline/telemetry.hh"
#include "sim/decoded.hh"
#include "sim/emulator.hh"
#include "sim/simulator.hh"
#include "support/logging.hh"
#include "verify/invariant_checker.hh"
#include "verify/program_gen.hh"
#include "verify/reference_interp.hh"

using namespace elag;
using namespace elag::isa;
namespace build = elag::isa::build;

namespace {

/** Assemble a raw program (no globals). */
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

/**
 * The full machine-readable stats document of one verified timed run
 * — the byte-identity anchor — from the emulator or, with
 * @p reference, from the reference interpreter.
 */
std::string
statsDoc(const sim::CompiledProgram &prog, bool reference)
{
    pipeline::LoadTelemetry telemetry;
    verify::InvariantChecker checker;
    std::vector<pipeline::Observer *> observers{&telemetry, &checker};
    const auto baseline = pipeline::MachineConfig::baseline();
    const auto proposed = pipeline::MachineConfig::proposed();
    sim::TimedResult base, timed;
    if (reference) {
        base = verify::runTimedReference(prog, baseline);
        timed = verify::runTimedReference(prog, proposed, observers);
    } else {
        base = sim::runTimed(prog, baseline);
        timed = sim::runTimed(prog, proposed, 500'000'000, observers);
    }
    checker.finish(timed.pipe);
    return sim::statsReportJson("<dispatch-diff>", "proposed", "",
                                prog, base, timed, telemetry);
}

/** The guest trap @p Engine raises running @p prog, with the
 *  architected PC its checkpoint holds afterwards. */
template <typename Engine>
std::pair<sim::GuestTrapError, uint32_t>
trapOf(const isa::MachineProgram &prog)
{
    Engine engine(prog);
    try {
        engine.run();
    } catch (const sim::GuestTrapError &e) {
        ckpt::Writer w;
        engine.serialize(w);
        ckpt::Reader r(w.data().data(), w.size());
        return {e, r.u32()};
    }
    ADD_FAILURE() << "expected a guest trap";
    return {sim::GuestTrapError(sim::GuestTrapKind::BadOpcode, 0,
                                "unreached"),
            0};
}

/**
 * The emulator's trap on @p prog, after checking that the reference
 * interpreter raises the same one: kind, PC, message, and the PC
 * left in the architectural state.
 */
sim::GuestTrapError
agreedTrap(const isa::MachineProgram &prog)
{
    auto [emu, emu_pc] = trapOf<sim::Emulator>(prog);
    auto [ref, ref_pc] = trapOf<verify::ReferenceInterpreter>(prog);
    EXPECT_EQ(emu.kind(), ref.kind());
    EXPECT_EQ(emu.trapPc(), ref.trapPc());
    EXPECT_STREQ(emu.what(), ref.what());
    // The checkpointed PC is the faulting instruction's.
    EXPECT_EQ(emu_pc, emu.trapPc());
    EXPECT_EQ(ref_pc, ref.trapPc());
    return emu;
}

} // namespace

// ---------------------------------------------------------------
// Predecode units.
// ---------------------------------------------------------------

TEST(Predecode, FlagWordAndSourcesMatchTheDecoder)
{
    std::vector<Instruction> cases = {
        build::rrr(Opcode::ADD, 5, 6, 7),
        build::rri(Opcode::ADDI, 5, 0, 42),
        build::load(LoadSpec::Normal, 5, 6, 16),
        build::loadx(LoadSpec::EarlyCalc, 5, 6, 7),
        build::store(7, 6, 16),
        build::branch(Opcode::BNE, 5, 6, 3),
        build::jal(1, 9),
        build::halt(),
    };
    for (const Instruction &inst : cases) {
        sim::DecodedInst d = sim::decodeInst(inst);
        EXPECT_EQ(d.flags, isa::decodeFlags(inst))
            << opcodeName(inst.op);
        EXPECT_TRUE(d.flags & isa::flag::Valid);
        int s1, s2;
        inst.intSources(s1, s2);
        EXPECT_EQ(d.src1, s1) << opcodeName(inst.op);
        EXPECT_EQ(d.src2, s2) << opcodeName(inst.op);
        EXPECT_EQ(isa::flagFuClass(d.flags), inst.fuClass());
        EXPECT_EQ(isa::flagLoadSpec(d.flags), inst.spec);
    }
}

TEST(Predecode, HandlersSpecializeByModeAndWidth)
{
    Instruction ld = build::load(LoadSpec::Normal, 5, 6, 16);
    EXPECT_EQ(sim::decodeInst(ld).handler, sim::Handler::LOAD_BO_W);
    ld.width = MemWidth::Byte;
    EXPECT_EQ(sim::decodeInst(ld).handler, sim::Handler::LOAD_BO_B);
    ld.mode = AddrMode::BaseIndex;
    EXPECT_EQ(sim::decodeInst(ld).handler, sim::Handler::LOAD_BI_B);

    Instruction st = build::store(7, 6, 16);
    EXPECT_EQ(sim::decodeInst(st).handler, sim::Handler::STORE_BO_W);
    st.mode = AddrMode::BaseIndex;
    EXPECT_EQ(sim::decodeInst(st).handler, sim::Handler::STORE_BI_W);

    Instruction fld;
    fld.op = Opcode::FLOAD;
    fld.rd = 3;
    fld.rs1 = 6;
    EXPECT_EQ(sim::decodeInst(fld).handler, sim::Handler::FLOAD_BO);
    fld.mode = AddrMode::BaseIndex;
    EXPECT_EQ(sim::decodeInst(fld).handler, sim::Handler::FLOAD_BI);
}

TEST(Predecode, BranchTargetsArePreSplit)
{
    Instruction beq = build::branch(Opcode::BEQ, 5, 6, 17);
    EXPECT_EQ(sim::decodeInst(beq).target, 17u);
    Instruction jmp = build::jmp(9);
    EXPECT_EQ(sim::decodeInst(jmp).target, 9u);
    // JR's target is a register value — nothing to pre-split.
    Instruction jr;
    jr.op = Opcode::JR;
    jr.rs1 = 1;
    EXPECT_EQ(sim::decodeInst(jr).target, 0u);
}

TEST(Predecode, StreamCarriesOneTrapSentinel)
{
    auto prog = assemble({build::nop(), build::halt()});
    sim::DecodedStream stream(prog);
    ASSERT_EQ(stream.size(), prog.code.size() + 1);
    EXPECT_EQ(stream.programSize(), prog.code.size());
    EXPECT_EQ(stream.at(stream.size() - 1).handler,
              sim::Handler::TRAP_PCRANGE);
}

TEST(Predecode, DegenerateEmptyProgramIsOneSentinel)
{
    isa::MachineProgram prog;
    prog.globalSize = 8;
    prog.globalInit.assign(8, 0);
    sim::DecodedStream stream(prog);
    ASSERT_EQ(stream.size(), 1u);
    EXPECT_EQ(stream.programSize(), 0u);
    EXPECT_EQ(stream.at(0).handler, sim::Handler::TRAP_PCRANGE);
}

TEST(Predecode, StreamCacheSharesByContentHash)
{
    sim::DecodedStream::clearCache();
    auto prog = assemble({build::nop(), build::halt()});
    auto a = sim::DecodedStream::get(prog);
    auto b = sim::DecodedStream::get(prog);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(sim::DecodedStream::cacheSize(), 1u);

    // Same code via an independently built (equal) program hits too.
    auto clone = assemble({build::nop(), build::halt()});
    EXPECT_EQ(sim::DecodedStream::get(clone).get(), a.get());
    EXPECT_EQ(sim::DecodedStream::cacheSize(), 1u);

    auto other = assemble({build::halt()});
    EXPECT_NE(sim::DecodedStream::get(other).get(), a.get());
    EXPECT_EQ(sim::DecodedStream::cacheSize(), 2u);
    sim::DecodedStream::clearCache();
    EXPECT_EQ(sim::DecodedStream::cacheSize(), 0u);
}

// ---------------------------------------------------------------
// Typed guest traps: the emulator and the reference interpreter
// agree on kind, PC and message.
// ---------------------------------------------------------------

TEST(GuestTraps, DivideAndRemainderByZero)
{
    auto div = agreedTrap(assemble({
        build::li(10, 7),
        build::rrr(Opcode::DIV, 11, 10, 0),
        build::halt(),
    }));
    EXPECT_EQ(div.kind(), sim::GuestTrapKind::DivideByZero);
    EXPECT_EQ(div.trapPc(), 1u);

    auto rem = agreedTrap(assemble({
        build::rrr(Opcode::REM, 11, 10, 0),
        build::halt(),
    }));
    EXPECT_EQ(rem.kind(), sim::GuestTrapKind::RemainderByZero);
    EXPECT_EQ(rem.trapPc(), 0u);
}

TEST(GuestTraps, FallingOffTheEndIsPcOutOfRange)
{
    auto trap = agreedTrap(assemble({build::nop(), build::nop()}));
    EXPECT_EQ(trap.kind(), sim::GuestTrapKind::PcOutOfRange);
    EXPECT_EQ(trap.trapPc(), 2u);
}

TEST(GuestTraps, WildIndirectJumpIsPcOutOfRange)
{
    auto trap = agreedTrap(assemble({
        build::li(10, 0x100000),
        build::jr(10),
        build::halt(),
    }));
    EXPECT_EQ(trap.kind(), sim::GuestTrapKind::PcOutOfRange);
    EXPECT_EQ(trap.trapPc(), 1u);
}

TEST(GuestTraps, OutOfRangeEffectiveAddressIsBadAddress)
{
    auto load = agreedTrap(assemble({
        build::li(10, -4),
        build::load(LoadSpec::Normal, 11, 10, 0),
        build::halt(),
    }));
    EXPECT_EQ(load.kind(), sim::GuestTrapKind::BadAddress);
    EXPECT_EQ(load.trapPc(), 1u);

    auto store = agreedTrap(assemble({
        build::li(10, -4),
        build::store(10, 10, 0),
        build::halt(),
    }));
    EXPECT_EQ(store.kind(), sim::GuestTrapKind::BadAddress);
}

TEST(GuestTraps, BadOpcodeTrapsLazily)
{
    // The junk opcode sits past HALT: predecode must stay lazy and
    // the program must run.
    Instruction junk;
    junk.op = static_cast<Opcode>(200);
    {
        // Built from temporaries: the emulator keeps only the shared
        // predecoded stream, the reference interpreter its own copy.
        sim::Emulator emu(assemble({build::halt(), junk}));
        EXPECT_TRUE(emu.run().halted);
        verify::ReferenceInterpreter ref(assemble({build::halt(), junk}));
        EXPECT_TRUE(ref.run().halted);
    }
    // Reached, it traps with the typed kind.
    auto trap = agreedTrap(assemble({junk, build::halt()}));
    EXPECT_EQ(trap.kind(), sim::GuestTrapKind::BadOpcode);
    EXPECT_EQ(trap.trapPc(), 0u);
}

// ---------------------------------------------------------------
// Differential: emulator vs. reference interpreter.
// ---------------------------------------------------------------

TEST(DispatchDifferential, GeneratedProgramsMatchByteForByte)
{
    setQuiet(true);

    constexpr int kPrograms = 6;
    verify::ProgramGen gen(20260809);
    for (int i = 0; i < kPrograms; ++i) {
        std::string source = gen.generate();
        sim::CompiledProgram prog = sim::compile(source);
        std::string emulated = statsDoc(prog, false);
        ASSERT_NE(emulated.find("\"cycles\""), std::string::npos);
        ASSERT_EQ(emulated, statsDoc(prog, true))
            << "emulator and reference interpreter diverged on "
            << "generated program " << i << " (seed 20260809)";
    }
}

TEST(DispatchDifferential, FunctionalResultsMatchIncludingCap)
{
    setQuiet(true);

    verify::ProgramGen gen(77);
    sim::CompiledProgram prog = sim::compile(gen.generate());

    // Odd caps land mid-program: the capped PC, retire count,
    // accumulated output and architectural state must agree.
    for (uint64_t cap : {1ull, 37ull, 10'001ull, 500'000'000ull}) {
        sim::Emulator emu(prog.code.program);
        verify::ReferenceInterpreter ref(prog.code.program);
        sim::EmulationResult got = emu.run(cap);
        sim::EmulationResult want = ref.run(cap);
        EXPECT_EQ(want.instructions, got.instructions) << "cap " << cap;
        EXPECT_EQ(want.halted, got.halted) << "cap " << cap;
        EXPECT_EQ(want.exitValue, got.exitValue) << "cap " << cap;
        EXPECT_EQ(want.output, got.output) << "cap " << cap;
        ckpt::Writer wemu, wref;
        emu.serialize(wemu);
        ref.serialize(wref);
        ASSERT_EQ(wref.size(), wemu.size()) << "cap " << cap;
        EXPECT_EQ(std::memcmp(wref.data().data(), wemu.data().data(),
                              wref.size()),
                  0)
            << "architectural state diverged at cap " << cap;
    }
}
