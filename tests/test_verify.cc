/**
 * @file
 * Robustness-harness tests: fault-plan registry and injector
 * determinism, seeded program generation, the Section-3.2 invariant
 * checker (both that it stays quiet on a correct model and that it
 * catches deliberately-broken forwarding), graceful degradation of
 * architectural results under fault plans, and the run watchdog.
 */

#include <gtest/gtest.h>

#include "isa/builder.hh"
#include "pipeline/pipeline.hh"
#include "sim/simulator.hh"
#include "support/logging.hh"
#include "verify/fault_injector.hh"
#include "verify/invariant_checker.hh"
#include "verify/program_gen.hh"

using namespace elag;
using namespace elag::verify;

// ---------------------------------------------------------------
// Fault-plan registry.
// ---------------------------------------------------------------

TEST(FaultPlans, RegistryLookupAndUnknownName)
{
    FaultPlan chaos = planByName("chaos");
    EXPECT_EQ(chaos.name, "chaos");
    EXPECT_GT(chaos.latencyJitterRate, 0.0);
    EXPECT_THROW(planByName("no-such-plan"), FatalError);
}

TEST(FaultPlans, GracefulSetExcludesNoneAndBugPlans)
{
    std::vector<std::string> graceful = gracefulPlanNames();
    EXPECT_FALSE(graceful.empty());
    for (const std::string &name : graceful) {
        EXPECT_NE(name, "none");
        FaultPlan plan = planByName(name);
        EXPECT_FALSE(plan.bypassAddressCheck) << name;
        EXPECT_FALSE(plan.bypassInterlockCheck) << name;
    }
    // Every graceful plan is registered; the full list is larger
    // (it adds "none" and the deliberate-bug plans).
    std::vector<std::string> all = allPlanNames();
    EXPECT_GT(all.size(), graceful.size());
}

// ---------------------------------------------------------------
// FaultInjector determinism.
// ---------------------------------------------------------------

TEST(FaultInjector, SameSeedReplaysIdenticalFaultSequence)
{
    FaultPlan plan = planByName("chaos");
    FaultInjector a(plan, 42), b(plan, 42);
    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(a.fireTagAlias(), b.fireTagAlias());
        EXPECT_EQ(a.fireRaddrInvalidate(), b.fireRaddrInvalidate());
        EXPECT_EQ(a.firePortSteal(), b.firePortSteal());
        EXPECT_EQ(a.latencyJitter(), b.latencyJitter());
        EXPECT_EQ(a.corruptAddress(0x1000), b.corruptAddress(0x1000));
    }
    EXPECT_EQ(a.counts().total(), b.counts().total());
    EXPECT_GT(a.counts().total(), 0u);
}

TEST(FaultInjector, DifferentSeedsDiverge)
{
    FaultPlan plan = planByName("chaos");
    FaultInjector a(plan, 1), b(plan, 2);
    bool diverged = false;
    for (int i = 0; i < 500 && !diverged; ++i)
        diverged = a.fireTagAlias() != b.fireTagAlias();
    EXPECT_TRUE(diverged);
}

TEST(FaultInjector, NonePlanNeverFires)
{
    FaultInjector quiet(planByName("none"), 7);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(quiet.fireTagAlias());
        EXPECT_FALSE(quiet.fireEntryCorrupt());
        EXPECT_FALSE(quiet.fireRaddrInvalidate());
        EXPECT_FALSE(quiet.fireForceInterlock());
        EXPECT_FALSE(quiet.firePortSteal());
        EXPECT_FALSE(quiet.fireVerifyFail());
        EXPECT_EQ(quiet.latencyJitter(), 0u);
    }
    EXPECT_EQ(quiet.counts().total(), 0u);
}

TEST(FaultInjector, CorruptAddressFlipsBits)
{
    FaultInjector inj(planByName("corrupt"), 9);
    for (int i = 0; i < 32; ++i) {
        uint32_t addr = 0x1000 + static_cast<uint32_t>(i) * 4;
        EXPECT_NE(inj.corruptAddress(addr), addr);
    }
}

// ---------------------------------------------------------------
// ProgramGen.
// ---------------------------------------------------------------

TEST(ProgramGen, SameSeedSameStream)
{
    ProgramGen a(123), b(123), c(124);
    std::string first = a.generate();
    EXPECT_EQ(first, b.generate());
    EXPECT_NE(first, c.generate());
    // Each call continues the stream with a distinct program.
    EXPECT_NE(first, a.generate());
}

TEST(ProgramGen, ProgramsCompileHaltAndAreDeterministic)
{
    ProgramGen gen(5);
    for (int i = 0; i < 3; ++i) {
        std::string src = gen.generate();
        auto prog = sim::compile(src);
        auto r1 = sim::runTimed(
            prog, pipeline::MachineConfig::proposed(), 20'000'000);
        auto r2 = sim::runTimed(
            prog, pipeline::MachineConfig::proposed(), 20'000'000);
        EXPECT_TRUE(r1.emulation.halted) << src;
        EXPECT_EQ(r1.emulation.output, r2.emulation.output);
        EXPECT_EQ(r1.pipe.cycles, r2.pipe.cycles);
        EXPECT_GT(r1.pipe.loads, 0u) << src;
    }
}

// ---------------------------------------------------------------
// InvariantChecker: quiet on a correct model.
// ---------------------------------------------------------------

namespace {

/** Retire a strided ld_p loop (load/use/branch) at fixed PCs. */
void
retireStridedLoop(pipeline::Pipeline &pipe, isa::LoadSpec spec,
                  int iters)
{
    using namespace elag::isa;
    for (int i = 0; i < iters; ++i) {
        pipeline::RetiredInst ld =
            pipeline::makeRetired(100, build::load(spec, 10, 1, 0));
        ld.effAddr = 0x1000 + static_cast<uint32_t>(i) * 4;
        ld.nextPc = 101;
        pipe.retire(ld);
        pipeline::RetiredInst br =
            pipeline::makeRetired(101, build::branch(Opcode::BLT, 5, 6, 100));
        br.taken = i + 1 < iters;
        br.nextPc = br.taken ? 100 : 102;
        pipe.retire(br);
    }
}

} // namespace

TEST(InvariantChecker, QuietOnCleanSpeculationAndNotVacuous)
{
    pipeline::Pipeline pipe(pipeline::MachineConfig::proposed());
    InvariantChecker checker;
    pipe.attach(&checker);
    retireStridedLoop(pipe, isa::LoadSpec::Predict, 50);
    const pipeline::PipelineStats &s = pipe.finish();
    EXPECT_GT(s.predict.forwarded, 0u);
    checker.finish(s); // must not throw
    // Dispatch + conditions + verdict + forward events all counted.
    EXPECT_GT(checker.eventsChecked(), s.loads);
}

TEST(InvariantChecker, FinishCrossChecksAggregateStats)
{
    pipeline::Pipeline pipe(pipeline::MachineConfig::proposed());
    InvariantChecker checker;
    pipe.attach(&checker);
    retireStridedLoop(pipe, isa::LoadSpec::Predict, 30);
    pipeline::PipelineStats doctored = pipe.finish();
    ++doctored.predict.forwarded; // tamper with the aggregate
    EXPECT_THROW(checker.finish(doctored), PanicError);
}

// ---------------------------------------------------------------
// InvariantChecker: catches deliberately-broken forwarding.
// ---------------------------------------------------------------

TEST(InvariantChecker, CatchesBypassedAddressCheck)
{
    // Force every verification to fail AND bypass the failed check:
    // the first would-be forward violates the addr-match condition.
    FaultPlan plan = planByName("bug-addr-bypass");
    plan.verifyFailRate = 1.0;
    FaultInjector injector(plan, 3);
    pipeline::MachineConfig cfg = pipeline::MachineConfig::proposed();
    cfg.faultInjector = &injector;
    pipeline::Pipeline pipe(cfg);
    InvariantChecker checker;
    pipe.attach(&checker);
    EXPECT_THROW(retireStridedLoop(pipe, isa::LoadSpec::Predict, 50),
                 PanicError);
}

TEST(InvariantChecker, CatchesBypassedInterlockCheck)
{
    // The base register is written immediately before each ld_e, so
    // every speculation is reg-interlocked; the bug plan forwards
    // anyway and the checker must object.
    using namespace elag::isa;
    FaultInjector injector(planByName("bug-interlock-bypass"), 3);
    pipeline::MachineConfig cfg = pipeline::MachineConfig::proposed();
    cfg.faultInjector = &injector;
    pipeline::Pipeline pipe(cfg);
    InvariantChecker checker;
    pipe.attach(&checker);
    auto feed = [&pipe](uint32_t pc, Instruction inst, uint32_t ea,
                        uint32_t next) {
        pipeline::RetiredInst ri = pipeline::makeRetired(pc, inst);
        ri.effAddr = ea;
        ri.nextPc = next;
        pipe.retire(ri);
    };
    EXPECT_THROW(
        {
            // Bind + warm the block, then hammer the hazard.
            feed(1, build::load(LoadSpec::EarlyCalc, 10, 1, 0), 0x100,
                 2);
            for (uint32_t i = 0; i < 24; ++i)
                feed(2 + i, build::add(20, 20, 2), 0, 3 + i);
            for (uint32_t i = 0; i < 10; ++i) {
                feed(50, build::addi(1, 1, 4), 0, 51);
                feed(51, build::load(LoadSpec::EarlyCalc, 10, 1, 0),
                     0x100 + i * 4, 50);
            }
        },
        PanicError);
}

// ---------------------------------------------------------------
// Graceful degradation: faults move timing, never architecture.
// ---------------------------------------------------------------

TEST(Verify, GracefulPlansPreserveArchitecturalResults)
{
    ProgramGen gen(11);
    for (int p = 0; p < 2; ++p) {
        auto prog = sim::compile(gen.generate());
        pipeline::MachineConfig clean_cfg =
            pipeline::MachineConfig::proposed();
        auto reference = sim::runTimed(prog, clean_cfg, 20'000'000);
        ASSERT_TRUE(reference.emulation.halted);

        for (const std::string &name : gracefulPlanNames()) {
            FaultInjector injector(planByName(name),
                                   1000 + static_cast<uint64_t>(p));
            pipeline::MachineConfig cfg =
                pipeline::MachineConfig::proposed();
            cfg.faultInjector = &injector;
            InvariantChecker checker;
            auto faulted =
                sim::runTimed(prog, cfg, 20'000'000, {&checker});
            checker.finish(faulted.pipe); // zero violations
            EXPECT_EQ(faulted.emulation.output,
                      reference.emulation.output)
                << name;
            EXPECT_EQ(faulted.emulation.exitValue,
                      reference.emulation.exitValue)
                << name;
            EXPECT_EQ(faulted.emulation.instructions,
                      reference.emulation.instructions)
                << name;
            EXPECT_TRUE(faulted.emulation.halted) << name;
        }
    }
}

// ---------------------------------------------------------------
// Watchdog.
// ---------------------------------------------------------------

namespace {

const char *kSmallLoop =
    "int A[64];\n"
    "int main() {\n"
    "    int sum = 0;\n"
    "    for (int i = 0; i < 64; i++) A[i] = i;\n"
    "    for (int i = 0; i < 64; i++) sum += A[i];\n"
    "    print(sum);\n"
    "    return 0;\n"
    "}\n";

} // namespace

TEST(Watchdog, RetireLimitThrowsWithKindAndLimit)
{
    auto prog = sim::compile(kSmallLoop);
    sim::Watchdog wd;
    wd.maxRetires = 50;
    try {
        sim::runTimed(prog, pipeline::MachineConfig::proposed(),
                      1'000'000, {}, wd);
        FAIL() << "watchdog did not trip";
    } catch (const sim::SimTimeoutError &e) {
        EXPECT_EQ(e.kind(), sim::SimTimeoutError::Kind::Retires);
        EXPECT_EQ(e.limit(), 50u);
    }
}

TEST(Watchdog, CycleLimitCatchesInfiniteProgram)
{
    auto prog = sim::compile("int main() {\n"
                             "    int x = 0;\n"
                             "    while (1) { x = x + 1; }\n"
                             "    return x;\n"
                             "}\n");
    sim::Watchdog wd;
    wd.maxCycles = 50'000;
    try {
        sim::runTimed(prog, pipeline::MachineConfig::baseline(),
                      1'000'000'000, {}, wd);
        FAIL() << "watchdog did not trip";
    } catch (const sim::SimTimeoutError &e) {
        EXPECT_EQ(e.kind(), sim::SimTimeoutError::Kind::Cycles);
        EXPECT_EQ(e.limit(), 50'000u);
    }
}

TEST(Watchdog, ZeroLimitsAreUnlimited)
{
    auto prog = sim::compile(kSmallLoop);
    auto timed = sim::runTimed(
        prog, pipeline::MachineConfig::proposed(), 1'000'000, {},
        sim::Watchdog{});
    EXPECT_TRUE(timed.emulation.halted);
}
