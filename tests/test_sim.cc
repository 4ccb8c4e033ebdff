/**
 * @file
 * Simulator-façade tests: compile options, determinism of emulation
 * across machine models (timing never changes architecture), the
 * profile/reclassify/regenerate loop, and speedup accounting.
 */

#include <gtest/gtest.h>

#include "isa/builder.hh"
#include "sim/run_cache.hh"
#include "sim/simulator.hh"
#include "support/logging.hh"
#include "workloads/workloads.hh"

using namespace elag;
using pipeline::MachineConfig;
using pipeline::SelectionPolicy;

namespace {

const char *MixedSrc = R"(
    int table[512];
    int main() {
        for (int i = 0; i < 512; i++)
            table[i] = i ^ 5;
        int *head = (int*)0;
        for (int i = 0; i < 64; i++) {
            int *n = (int*)alloc(8);
            n[0] = table[i * 8];
            n[1] = (int)head;
            head = n;
        }
        int sum = 0;
        for (int r = 0; r < 10; r++) {
            for (int i = 0; i < 512; i++)
                sum += table[i];
            int *p = head;
            while (p) {
                sum += p[0];
                p = (int*)p[1];
            }
        }
        print(sum);
        return 0;
    }
)";

} // namespace

TEST(Sim, TimingModelNeverChangesArchitecturalResults)
{
    setQuiet(true);
    auto prog = sim::compile(MixedSrc);
    std::vector<MachineConfig> machines;
    machines.push_back(MachineConfig::baseline());
    machines.push_back(MachineConfig::proposed());
    MachineConfig ev = MachineConfig::proposed();
    ev.selection = SelectionPolicy::EvSelect;
    machines.push_back(ev);
    MachineConfig tiny;
    tiny.addressTableEnabled = true;
    tiny.addressTableEntries = 16;
    tiny.earlyCalcEnabled = true;
    tiny.memPorts = 1;
    tiny.issueWidth = 2;
    machines.push_back(tiny);

    std::vector<int32_t> reference;
    for (const auto &m : machines) {
        auto r = sim::runTimed(prog, m);
        ASSERT_TRUE(r.emulation.halted);
        if (reference.empty())
            reference = r.emulation.output;
        EXPECT_EQ(r.emulation.output, reference);
    }
}

TEST(Sim, TimedRunsAreDeterministic)
{
    setQuiet(true);
    auto prog = sim::compile(MixedSrc);
    auto a = sim::runTimed(prog, MachineConfig::proposed());
    auto b = sim::runTimed(prog, MachineConfig::proposed());
    EXPECT_EQ(a.pipe.cycles, b.pipe.cycles);
    EXPECT_EQ(a.pipe.predict.forwarded, b.pipe.predict.forwarded);
    EXPECT_EQ(a.pipe.earlyCalc.forwarded,
              b.pipe.earlyCalc.forwarded);
}

TEST(Sim, SpeedupIsBaselineOverMachine)
{
    setQuiet(true);
    auto prog = sim::compile(MixedSrc);
    auto base = sim::runTimed(prog, MachineConfig::baseline());
    auto fast = sim::runTimed(prog, MachineConfig::proposed());
    double s = sim::speedup(base, fast);
    EXPECT_NEAR(s,
                static_cast<double>(base.pipe.cycles) /
                    static_cast<double>(fast.pipe.cycles),
                1e-12);
    EXPECT_GE(s, 1.0);
}

TEST(Sim, ProfileTotalsMatchClassTotals)
{
    setQuiet(true);
    auto prog = sim::compile(MixedSrc);
    auto profile = sim::runProfile(prog);
    uint64_t per_load = 0;
    for (const auto &kv : profile.profile)
        per_load += kv.second.executions;
    EXPECT_EQ(per_load, profile.totalLoads());
    EXPECT_GT(profile.predict.executions, 0u);
    EXPECT_GT(profile.earlyCalc.executions, 0u);
}

TEST(Sim, RegenerateAfterReclassificationKeepsSemantics)
{
    setQuiet(true);
    auto prog = sim::compile(MixedSrc);
    sim::Emulator emu_before(prog.code.program);
    auto before = emu_before.run();

    auto profile = sim::runProfile(prog);
    classify::applyAddressProfile(*prog.module, profile.profile,
                                  0.60);
    prog.regenerate();

    sim::Emulator emu_after(prog.code.program);
    auto after = emu_after.run();
    EXPECT_EQ(before.output, after.output);
    EXPECT_EQ(before.exitValue, after.exitValue);
}

TEST(Sim, SpecOfMatchesMachineCode)
{
    setQuiet(true);
    auto prog = sim::compile(MixedSrc);
    // Every machine load that carries a loadId must agree with the
    // specOf map derived from the IR.
    for (size_t pc = 0; pc < prog.code.program.code.size(); ++pc) {
        const auto &inst = prog.code.program.code[pc];
        int load_id = prog.code.loadIdOf.at(static_cast<uint32_t>(pc));
        if (load_id < 0)
            continue;
        ASSERT_TRUE(inst.isLoad());
        ASSERT_TRUE(prog.specOf.has(load_id));
        EXPECT_EQ(inst.spec, prog.specOf.get(load_id));
    }
}

TEST(Sim, CompileRejectsBadSource)
{
    setQuiet(true);
    EXPECT_THROW(sim::compile("int main() { return undefined; }"),
                 FatalError);
    EXPECT_THROW(sim::compile("not a program"), FatalError);
}

TEST(Sim, WorkloadRegistryLookup)
{
    EXPECT_NE(workloads::findWorkload("023.eqntott"), nullptr);
    EXPECT_NE(workloads::findWorkload("gsm_enc"), nullptr);
    EXPECT_EQ(workloads::findWorkload("no-such-benchmark"), nullptr);
    EXPECT_EQ(workloads::specWorkloads().size(), 12u);
    EXPECT_EQ(workloads::mediaWorkloads().size(), 14u);
    for (const auto &w : workloads::specWorkloads()) {
        EXPECT_FALSE(w.source.empty());
        EXPECT_FALSE(w.description.empty());
        EXPECT_EQ(w.suite, workloads::Suite::SpecInt);
    }
}

TEST(Sim, DualPathNeverSlowsTheMachineMuch)
{
    // Speculation costs only bandwidth; with two ports the proposed
    // machine should never lose more than a sliver to the baseline.
    setQuiet(true);
    for (const char *name : {"026.compress", "gs", "134.perl"}) {
        const auto *w = workloads::findWorkload(name);
        ASSERT_NE(w, nullptr);
        auto prog = sim::compile(w->source);
        auto base = sim::runTimed(prog, MachineConfig::baseline());
        auto fast = sim::runTimed(prog, MachineConfig::proposed());
        EXPECT_GE(sim::speedup(base, fast), 0.995) << name;
    }
}

TEST(Sim, ContentHashesHaveKnownAnswers)
{
    // hashProgram and hashConfig key the run cache, the predecode
    // cache and checkpoint identities: stable across releases.
    namespace build = isa::build;
    isa::MachineProgram prog;
    prog.code = {
        build::li(10, 7),
        build::load(isa::LoadSpec::Predict, 11, 10, -8),
        build::halt(),
    };
    prog.globalSize = 8;
    prog.globalInit = {1, 2, 3, 4, 0, 0, 0, 0xff};
    EXPECT_EQ(sim::hashProgram(prog), 0xde098ba0bed159a9ull);
    EXPECT_EQ(sim::hashConfig(MachineConfig::proposed()),
              0x942dfb2b69f6e601ull);
}
