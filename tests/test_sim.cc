/**
 * @file
 * Simulator-façade tests: compile options, determinism of emulation
 * across machine models (timing never changes architecture), load
 * routing that must leave baseline timing unchanged, the
 * profile/reclassify/regenerate loop, speedup accounting, and the
 * one timed-run loop behind plain, served and checkpointed runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "isa/builder.hh"
#include "obs/span.hh"
#include "sim/ckpt_run.hh"
#include "sim/decoded.hh"
#include "sim/run_cache.hh"
#include "sim/simulator.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "verify/invariant_checker.hh"
#include "verify/program_gen.hh"
#include "workloads/synthetic/generator.hh"
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

/**
 * Small programs for the load-routing properties: six generated soak
 * programs and one sampled scenario per synthetic kernel family.
 */
std::vector<std::string>
routingCorpus()
{
    namespace synthetic = workloads::synthetic;
    std::vector<std::string> sources;
    verify::ProgramGen gen(4242);
    for (int i = 0; i < 6; ++i)
        sources.push_back(gen.generate());
    for (const synthetic::FamilyInfo &info : synthetic::kernelFamilies()) {
        sources.push_back(
            synthetic::generateScenario(synthetic::sampleSpec(info.family, 3))
                .source);
    }
    return sources;
}

} // namespace

TEST(Sim, UnclassifiedProgramTimesLikeBaseline)
{
    // With every load left ld_n, the proposed machine has no load to
    // route to either early path, so it must time exactly like the
    // baseline machine.
    setQuiet(true);
    sim::CompileOptions options;
    options.runClassifier = false;
    std::vector<std::string> corpus = routingCorpus();
    for (size_t i = 0; i < corpus.size(); ++i) {
        SCOPED_TRACE("corpus program " + std::to_string(i));
        auto prog = sim::compile(corpus[i], options);
        auto base = sim::runTimed(prog, MachineConfig::baseline());
        auto prop = sim::runTimed(prog, MachineConfig::proposed());
        EXPECT_EQ(prop.pipe.cycles, base.pipe.cycles);
        EXPECT_EQ(prop.pipe.dcacheMisses, base.pipe.dcacheMisses);
    }
}

TEST(Sim, EveryPolicyWithBothPathsOffTimesLikeBaseline)
{
    // With the table and R_addr both disabled, no selection policy
    // has an early path to route a load to.
    setQuiet(true);
    std::vector<std::string> corpus = routingCorpus();
    for (size_t i = 0; i < corpus.size(); ++i) {
        SCOPED_TRACE("corpus program " + std::to_string(i));
        auto prog = sim::compile(corpus[i]);
        uint64_t base =
            sim::runTimed(prog, MachineConfig::baseline()).pipe.cycles;
        for (SelectionPolicy policy :
             {SelectionPolicy::CompilerSpec, SelectionPolicy::AllPredict,
              SelectionPolicy::AllEarlyCalc, SelectionPolicy::EvSelect}) {
            MachineConfig machine = MachineConfig::proposed();
            machine.addressTableEnabled = false;
            machine.earlyCalcEnabled = false;
            machine.selection = policy;
            EXPECT_EQ(sim::runTimed(prog, machine).pipe.cycles, base)
                << "policy " << static_cast<int>(policy);
        }
    }
}

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

TEST(Sim, StatsDocumentsHaveKnownAnswers)
{
    // Cycle counts have no oracle but the model, and the latencies,
    // unit counts, I$ and BTB of the Section-5.1 machine are fixed,
    // so pin what they produce. Between them the three workloads
    // execute MUL, DIV and REM, taken branches and I$ misses; the
    // last two rows reach the memPorts and tablePredictsWhileLearning
    // paths. Each hash is workloads::synthetic::sourceHash of the
    // stats document against the baseline machine.
    MachineConfig proposed = MachineConfig::proposed();
    MachineConfig onePort = proposed;
    onePort.memPorts = 1;
    MachineConfig learning = proposed;
    learning.tablePredictsWhileLearning = true;
    struct Known
    {
        const char *workload;
        const MachineConfig &machine;
        uint64_t baselineCycles;
        uint64_t cycles;
        const char *docHash;
    };
    const Known known[] = {
        {"gs", proposed, 180468, 162418, "e5fd2ef8c896940a"},
        {"130.li", proposed, 508198, 475669, "1a5f4727b373a6c0"},
        {"134.perl", proposed, 1326038, 1292535, "a118e4787b219e32"},
        {"130.li", onePort, 508198, 538918, "88e3adc0742fb35b"},
        {"130.li", learning, 508198, 475669, "8cffc90fbf022428"},
    };
    setQuiet(true);
    const uint64_t cap = 500'000'000;
    auto &cache = sim::RunCache::instance();
    for (const Known &k : known) {
        SCOPED_TRACE(k.workload);
        const auto *w = workloads::findWorkload(k.workload);
        ASSERT_NE(w, nullptr);
        sim::CompiledProgram prog = sim::compile(w->source);
        sim::TimedResult base =
            cache.run(prog, MachineConfig::baseline(), cap);
        sim::RunCache::Report report = cache.runReport(prog, k.machine, cap);
        EXPECT_EQ(base.pipe.cycles, k.baselineCycles);
        EXPECT_EQ(report.timed.pipe.cycles, k.cycles);
        EXPECT_EQ(workloads::synthetic::sourceHash(sim::statsReportJson(
                      k.workload, "proposed", "", prog, base, report.timed,
                      report.telemetry)),
                  k.docHash);
    }
}

TEST(Sim, ServedAndCheckpointedStatsRunsAgree)
{
    // elagd's simulate renders two RunCache runs; elagc --json-stats
    // renders runTimedCheckpointed. Both must give one document, at
    // any chunk size and with the invariant checker riding along.
    namespace synthetic = workloads::synthetic;
    std::vector<std::pair<std::string, std::string>> programs;
    for (const char *name : {"gs", "130.li", "022.li"}) {
        const auto *w = workloads::findWorkload(name);
        ASSERT_NE(w, nullptr);
        programs.emplace_back(name, w->source);
    }
    programs.emplace_back(
        "chase",
        synthetic::generateScenario(
            synthetic::sampleSpec(synthetic::KernelFamily::PointerChase, 3))
            .source);

    const uint64_t cap = 500'000'000;
    MachineConfig machine = sim::machineConfig("proposed", "");
    MachineConfig baseline = MachineConfig::baseline();
    for (const auto &[label, source] : programs) {
        sim::CompiledProgram prog = sim::compile(source);
        auto &cache = sim::RunCache::instance();
        sim::TimedResult base = cache.run(prog, baseline, cap);
        sim::RunCache::Report report = cache.runReport(prog, machine, cap);
        std::string served = sim::statsReportJson(
            label, "proposed", "", prog, base, report.timed,
            report.telemetry);

        for (uint64_t every : {uint64_t{0}, uint64_t{4'099}}) {
            for (bool withChecker : {false, true}) {
                pipeline::LoadTelemetry telemetry;
                verify::InvariantChecker checker;
                sim::CkptPolicy policy;
                policy.everyRetires = every;
                sim::CkptStatsOutcome out = sim::runTimedCheckpointed(
                    prog, machine, baseline, cap, &telemetry,
                    withChecker ? &checker : nullptr, nullptr, {},
                    policy);
                EXPECT_EQ(sim::statsReportJson(label, "proposed", "", prog,
                                               out.base, out.timed,
                                               telemetry),
                          served)
                    << label << " every=" << every
                    << " checker=" << withChecker;
            }
        }
    }
}

namespace {

/** The `retired` argument of each recorded sim.slice span, in order. */
std::vector<uint64_t>
sliceRetires(const std::string &trace)
{
    std::string events;
    std::vector<std::string> items;
    EXPECT_TRUE(jsonExtractRaw(trace, "traceEvents", events));
    EXPECT_TRUE(jsonElements(events, items));
    std::vector<uint64_t> retired;
    for (const std::string &ev : items) {
        std::string name, value;
        if (jsonExtractString(ev, "name", name) && name == "sim.slice" &&
            jsonExtractString(ev, "retired", value))
            retired.push_back(std::stoull(value));
    }
    return retired;
}

/** Expect @p retired to rise strictly and end at @p total. */
void
expectSlicesCover(const std::vector<uint64_t> &retired, uint64_t total)
{
    ASSERT_GE(retired.size(), 3u);
    EXPECT_TRUE(std::adjacent_find(retired.begin(), retired.end(),
                                   std::greater_equal<uint64_t>()) ==
                retired.end());
    EXPECT_EQ(retired.back(), total);
}

} // namespace

TEST(Sim, SliceSpansCoverCheckpointedRuns)
{
    // An armed span tracer cuts every timed run into sim.slice spans,
    // checkpointed or not, so a trace shows where host time went.
    auto prog = sim::compile(R"(
        int main() {
            int sum = 0;
            for (int i = 0; i < 600000; i++)
                sum += i & 7;
            print(sum);
            return 0;
        }
    )");
    obs::SpanTracer &tracer = obs::SpanTracer::process();
    tracer.reset();
    tracer.enable("/dev/null");
    sim::TimedResult plain =
        sim::runTimed(prog, MachineConfig::proposed());
    std::vector<uint64_t> plainSlices = sliceRetires(tracer.json());
    tracer.reset();

    ASSERT_GT(plain.emulation.instructions, uint64_t{1} << 21);
    expectSlicesCover(plainSlices, plain.emulation.instructions);

    // Chunks of 1.5M retires: slices restart at each step and carry
    // the run's cumulative count, baseline run first, then the timed.
    pipeline::LoadTelemetry telemetry;
    sim::CkptPolicy policy;
    policy.everyRetires = 1'500'000;
    tracer.enable("/dev/null");
    sim::CkptStatsOutcome out = sim::runTimedCheckpointed(
        prog, MachineConfig::proposed(), MachineConfig::baseline(),
        500'000'000, &telemetry, nullptr, nullptr, {}, policy);
    std::vector<uint64_t> slices = sliceRetires(tracer.json());
    tracer.reset();

    auto split = std::is_sorted_until(slices.begin(), slices.end());
    expectSlicesCover({slices.begin(), split},
                      out.base.emulation.instructions);
    expectSlicesCover({split, slices.end()},
                      out.timed.emulation.instructions);
}
