/**
 * @file
 * Cross-module invariants used by the benchmark harness: stable
 * classification across recompiles, spec->dynamic accounting
 * consistency between the profiler and the timing model, and
 * machine-config preset sanity.
 */

#include <gtest/gtest.h>

#include "pipeline/config.hh"
#include "sim/simulator.hh"
#include "support/logging.hh"
#include "workloads/workloads.hh"

using namespace elag;
using pipeline::MachineConfig;
using pipeline::SelectionPolicy;

TEST(Harness, PresetsMatchPaperSection51)
{
    MachineConfig base = MachineConfig::baseline();
    EXPECT_EQ(base.issueWidth, 6);
    EXPECT_EQ(pipeline::kIntAlus, 4);
    EXPECT_EQ(base.memPorts, 2);
    EXPECT_EQ(pipeline::kFpAlus, 2);
    EXPECT_EQ(pipeline::kBranchUnits, 1);
    EXPECT_EQ(pipeline::kICache.sizeBytes, 64u * 1024);
    EXPECT_EQ(base.dcache.sizeBytes, 64u * 1024);
    EXPECT_EQ(base.dcache.blockSize, 64u);
    EXPECT_EQ(base.dcache.missPenalty, 12u);
    EXPECT_FALSE(base.dcache.writeAllocate);
    EXPECT_EQ(pipeline::kBtbEntries, 1024u);
    EXPECT_FALSE(base.addressTableEnabled);
    EXPECT_FALSE(base.earlyCalcEnabled);

    MachineConfig prop = MachineConfig::proposed();
    EXPECT_TRUE(prop.addressTableEnabled);
    EXPECT_EQ(prop.addressTableEntries, 256u);
    EXPECT_TRUE(prop.earlyCalcEnabled);
    EXPECT_EQ(prop.registerCacheSize, 1u);
    EXPECT_EQ(prop.selection, SelectionPolicy::CompilerSpec);
}

TEST(Harness, CompilationIsDeterministic)
{
    setQuiet(true);
    const auto *w = workloads::findWorkload("026.compress");
    ASSERT_NE(w, nullptr);
    auto a = sim::compile(w->source);
    auto b = sim::compile(w->source);
    ASSERT_EQ(a.code.program.code.size(), b.code.program.code.size());
    EXPECT_EQ(a.code.program.code, b.code.program.code);
    EXPECT_EQ(a.classStats.numNormal, b.classStats.numNormal);
    EXPECT_EQ(a.classStats.numPredict, b.classStats.numPredict);
    EXPECT_EQ(a.classStats.numEarlyCalc, b.classStats.numEarlyCalc);
}

TEST(Harness, DynamicLoadAccountingConsistent)
{
    // The timing model's per-path executed counts must sum to the
    // total loads it sees; the profiler must account for every load
    // that carries a loadId (spill/prologue reloads carry none and
    // are a small remainder).
    setQuiet(true);
    const auto *w = workloads::findWorkload("adpcm_dec");
    ASSERT_NE(w, nullptr);
    auto prog = sim::compile(w->source);
    auto timed = sim::runTimed(prog, MachineConfig::proposed());
    const auto &p = timed.pipe;
    EXPECT_EQ(p.normal.executed + p.predict.executed +
                  p.earlyCalc.executed,
              p.loads);

    auto profile = sim::runProfile(prog);
    EXPECT_LE(profile.totalLoads(), p.loads);
    EXPECT_GT(profile.totalLoads(), p.loads / 2);
}

TEST(Harness, ForwardedNeverExceedsSpeculated)
{
    setQuiet(true);
    for (const char *name : {"023.eqntott", "147.vortex", "gs"}) {
        const auto *w = workloads::findWorkload(name);
        ASSERT_NE(w, nullptr);
        auto prog = sim::compile(w->source);
        for (auto sel : {SelectionPolicy::CompilerSpec,
                         SelectionPolicy::EvSelect}) {
            MachineConfig cfg = MachineConfig::proposed();
            cfg.selection = sel;
            auto r = sim::runTimed(prog, cfg);
            for (const auto *c :
                 {&r.pipe.predict, &r.pipe.earlyCalc}) {
                EXPECT_LE(c->forwarded, c->speculated) << name;
                EXPECT_LE(c->speculated, c->executed) << name;
            }
        }
    }
}

TEST(Harness, BiggerTablesNeverHurtCompilerScheme)
{
    // Monotonicity property: with compiler-directed allocation, a
    // larger table can only reduce conflicts.
    setQuiet(true);
    const auto *w = workloads::findWorkload("008.espresso");
    auto prog = sim::compile(w->source);
    uint64_t prev = UINT64_MAX;
    for (uint32_t entries : {16u, 64u, 256u, 1024u}) {
        MachineConfig cfg;
        cfg.addressTableEnabled = true;
        cfg.addressTableEntries = entries;
        cfg.selection = SelectionPolicy::CompilerSpec;
        auto r = sim::runTimed(prog, cfg);
        EXPECT_LE(r.pipe.cycles, prev + prev / 100)
            << entries << " entries";
        prev = r.pipe.cycles;
    }
}

TEST(Harness, InstructionCountIndependentOfMachine)
{
    setQuiet(true);
    const auto *w = workloads::findWorkload("epic_dec");
    auto prog = sim::compile(w->source);
    auto a = sim::runTimed(prog, MachineConfig::baseline());
    auto b = sim::runTimed(prog, MachineConfig::proposed());
    EXPECT_EQ(a.pipe.instructions, b.pipe.instructions);
    EXPECT_EQ(a.pipe.loads, b.pipe.loads);
    EXPECT_EQ(a.pipe.stores, b.pipe.stores);
    EXPECT_EQ(a.pipe.branches, b.pipe.branches);
}
