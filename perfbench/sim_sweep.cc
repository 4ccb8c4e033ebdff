/**
 * @file
 * sim_sweep: the 26 imitation programs plus one sampled scenario per
 * kernel family, compiled during set-up. Each program gets one
 * sim::runProfile and one sim::runTimed on each of the baseline and
 * proposed machines, one call at a time on one thread. The timed
 * region runs no compiler: it is the emulator, the address profiler
 * and the timing model.
 */

#include <cmath>
#include <stdexcept>

#include "pipeline/stats.hh"
#include "sim/decoded.hh"
#include "support/json.hh"
#include "support/parallel.hh"
#include "workloads.hh"
#include "workloads/synthetic/generator.hh"
#include "workloads/workloads.hh"

namespace perfbench {

using namespace elag;
namespace syn = elag::workloads::synthetic;

namespace {

struct Program
{
    std::string name;
    std::string source;
    /** An imitation program, with recorded expected output. */
    bool imitation = false;
    sim::CompiledProgram prog;
};

/** One program's profile run and both timed runs. */
struct Sweep
{
    size_t program = 0;
    sim::ProfileResult profile;
    sim::TimedResult base;
    sim::TimedResult proposed;
    double profileS = 0, baseS = 0, proposedS = 0;
};

volatile uint64_t g_sink;

uint64_t
scenarioSeed(uint64_t seed, syn::KernelFamily family)
{
    return 1 + seed * 8 + static_cast<uint64_t>(family);
}

/**
 * Set-up: generate the scenarios and compile everything. With a
 * tracer, compiles go through tracedCompile and generation is timed.
 */
std::vector<Program>
setUp(uint64_t seed, Tracer *tracer)
{
    std::vector<Program> programs;
    for (const workloads::Workload *w : workloads::allWorkloads())
        programs.push_back({w->name, w->source, true, {}});
    for (const syn::FamilyInfo &info : syn::kernelFamilies()) {
        syn::ScenarioSpec spec =
            syn::sampleSpec(info.family, scenarioSeed(seed, info.family));
        syn::GeneratedScenario gen;
        if (tracer) {
            Tracer::Scope s(*tracer, "workloads.generate");
            gen = syn::generateScenario(spec);
        } else {
            gen = syn::generateScenario(spec);
        }
        programs.push_back({gen.name, gen.source, false, {}});
    }
    for (Program &p : programs) {
        p.prog = tracer ? tracedCompile(p.source, *tracer)
                        : sim::compile(p.source);
    }
    return programs;
}

Sweep
sweepOne(const Program &p, size_t index, Tracer &tracer)
{
    Sweep s;
    s.program = index;
    Tracer::Scope whole(tracer, "sweep.program");
    auto t0 = Clock::now();
    {
        Tracer::Scope span(tracer, "sim.runProfile");
        s.profile = sim::runProfile(p.prog, kMaxInst);
    }
    auto t1 = Clock::now();
    {
        Tracer::Scope span(tracer, "sim.runTimed.baseline");
        s.base = sim::runTimed(p.prog, pipeline::MachineConfig::baseline(),
                               kMaxInst);
    }
    auto t2 = Clock::now();
    {
        Tracer::Scope span(tracer, "sim.runTimed.proposed");
        s.proposed = sim::runTimed(
            p.prog, pipeline::MachineConfig::proposed(), kMaxInst);
    }
    auto t3 = Clock::now();
    s.profileS = secondsBetween(t0, t1);
    s.baseS = secondsBetween(t1, t2);
    s.proposedS = secondsBetween(t2, t3);
    return s;
}

/**
 * The emulator / hand-off / timing-model split, measured from
 * outside on one program: Emulator construction (predecode, with the
 * stream cache cleared beforehand), Emulator::run alone, and run with
 * a minimal consuming observer. runTimed is the sweep's own span.
 */
void
probeEmulator(const Program &p, Tracer &tracer)
{
    std::unique_ptr<sim::Emulator> emu;
    {
        Tracer::Scope s(tracer, "sim.predecode");
        emu = std::make_unique<sim::Emulator>(p.prog.code.program);
    }
    {
        Tracer::Scope s(tracer, "sim.emulate");
        emu->run(kMaxInst);
    }
    sim::Emulator observed(p.prog.code.program);
    uint64_t sink = 0;
    {
        Tracer::Scope s(tracer, "sim.emulate_observed");
        observed.run(kMaxInst, [&sink](const pipeline::RetiredInst &ri) {
            sink += ri.pc ^ ri.effAddr;
        });
    }
    g_sink = sink;
}

/** Nominal length of one round over every program, seconds. */
constexpr double kNominalRoundS = 9;

/** Whole rounds over every program. */
std::vector<Sweep>
timedRegion(const std::vector<Program> &programs,
            const std::vector<size_t> &order, int rounds, Tracer &tracer,
            Result &result, bool probe)
{
    std::vector<Sweep> sweeps;
    for (int round = 0; round < rounds; ++round) {
        for (size_t index : order) {
            ++result.attempted;
            try {
                if (probe)
                    probeEmulator(programs[index], tracer);
                sweeps.push_back(sweepOne(programs[index], index, tracer));
            } catch (const std::exception &e) {
                ++result.failed;
                std::fprintf(stderr, "perfbench: %s failed: %s\n",
                             programs[index].name.c_str(), e.what());
            }
        }
    }
    return sweeps;
}

void
checkSweeps(const Options &opt, const std::vector<Program> &programs,
            const std::vector<Sweep> &sweeps, Result &result)
{
    auto expected = loadExpectedOutputs(opt);
    parallel::ThreadPool pool(kOracleThreads);
    std::vector<std::vector<int32_t>> reference =
        parallel::parallelMap(pool, programs, [](const Program &p) {
            return referenceOutput(p.source);
        });
    for (size_t i = 0; i < programs.size(); ++i) {
        const Program &p = programs[i];
        if (p.imitation) {
            auto it = expected.find(p.name);
            if (it == expected.end())
                result.mismatch(p.name + ": no recorded expected output");
            else
                checkOutput(result, p.name + " reference build",
                            reference[i], it->second);
        }
    }
    for (const Sweep &s : sweeps) {
        const Program &p = programs[s.program];
        const sim::EmulationResult &fn = s.profile.emulation;
        const sim::EmulationResult *timed[] = {&s.base.emulation,
                                               &s.proposed.emulation};
        if (!fn.halted || !timed[0]->halted || !timed[1]->halted)
            result.mismatch(p.name + ": a run did not halt");
        checkOutput(result, p.name + " functional run", fn.output,
                    reference[s.program]);
        for (int m = 0; m < 2; ++m) {
            const char *machine = m == 0 ? "baseline" : "proposed";
            const sim::TimedResult &t = m == 0 ? s.base : s.proposed;
            checkOutput(result, p.name + " " + machine + " timed run",
                        timed[m]->output, fn.output);
            if (timed[m]->instructions != fn.instructions ||
                t.pipe.instructions != fn.instructions) {
                result.mismatch(p.name + " " + machine +
                                " timed run retired a different count");
            }
        }
    }
}

std::string
statsDoc(const Program &p, const Sweep &s)
{
    JsonWriter w(0);
    w.beginObject();
    w.field("program", p.name);
    w.key("baseline");
    pipeline::writeJson(w, s.base.pipe);
    w.key("proposed");
    pipeline::writeJson(w, s.proposed.pipe);
    w.key("profile").beginObject();
    const sim::ClassDynamics *dyn[] = {&s.profile.normal,
                                       &s.profile.predict,
                                       &s.profile.earlyCalc};
    const char *names[] = {"ld_n", "ld_p", "ld_e"};
    for (int i = 0; i < 3; ++i) {
        w.key(names[i]).beginObject();
        w.field("executions", dyn[i]->executions);
        w.field("predicted", dyn[i]->predicted);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

struct Rates
{
    double simMinst = 0, profileMinst = 0, opsPerS = 0, opMsGeomean = 0;
    double sweepS = 0;
};

Rates
rates(const std::vector<Sweep> &sweeps, size_t programs)
{
    Rates r;
    double timedInst = 0, timedS = 0, profInst = 0, profS = 0;
    std::vector<std::vector<double>> opMs(programs);
    for (const Sweep &s : sweeps) {
        double inst = static_cast<double>(s.profile.emulation.instructions);
        timedInst += 2 * inst;
        timedS += s.baseS + s.proposedS;
        profInst += inst;
        profS += s.profileS;
        double op = s.profileS + s.baseS + s.proposedS;
        opMs[s.program].push_back(op * 1e3);
        r.sweepS += op;
    }
    r.simMinst = timedS > 0 ? timedInst / timedS / 1e6 : 0;
    r.profileMinst = profS > 0 ? profInst / profS / 1e6 : 0;
    OpStats ops = opStats(opMs);
    r.opsPerS = ops.perS;
    r.opMsGeomean = ops.msGeomean;
    return r;
}

} // anonymous namespace

Result
runSimSweep(const Options &opt)
{
    Result result;
    Tracer setupTracer(opt.trace);
    std::vector<double> setupS;
    std::vector<Program> programs;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        bool last = rep == kSetupReps - 1;
        auto t0 = Clock::now();
        programs = setUp(opt.seed, opt.trace && last ? &setupTracer
                                                     : nullptr);
        setupS.push_back(secondsBetween(t0, Clock::now()));
    }

    std::vector<size_t> order(programs.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    SplitMix rng{opt.seed};
    shuffle(order, rng);

    // A traced run sweeps once, with spans and the emulator probes;
    // the predecode cache is cleared so predecode is measured cold.
    Tracer tracer(opt.trace);
    if (opt.trace)
        sim::DecodedStream::clearCache();
    int rounds = opt.trace ? 1 : roundsFor(opt.seconds, kNominalRoundS);
    std::vector<Sweep> sweeps =
        timedRegion(programs, order, rounds, tracer, result, opt.trace);
    double peakRss = selfPeakRssMb();
    checkSweeps(opt, programs, sweeps, result);

    // First-round results, in program order: the speedup and digest
    // cover every program once.
    std::vector<const Sweep *> first(programs.size(), nullptr);
    for (const Sweep &s : sweeps) {
        if (!first[s.program])
            first[s.program] = &s;
    }
    Digest digest;
    double logSum = 0;
    size_t counted = 0;
    for (size_t i = 0; i < programs.size(); ++i) {
        if (!first[i])
            continue;
        digest.add(statsDoc(programs[i], *first[i]));
        logSum += std::log(sim::speedup(first[i]->base, first[i]->proposed));
        ++counted;
    }
    result.digest = digest.hex();
    double geomean = counted ? std::exp(logSum / counted) : 0;

    Rates r = rates(sweeps, programs.size());
    double failRatio = result.attempted
                           ? double(result.failed) / result.attempted
                           : 0;
    result.note("setup_s", median(setupS), "s");
    result.note("fail_ratio", failRatio, "ratio");
    result.note("peak_rss_mb", peakRss, "MB");
    result.note("sim_minst_per_s", r.simMinst, "Minst/s");
    result.note("profile_minst_per_s", r.profileMinst, "Minst/s");
    result.note("sim_speedup_geomean", geomean, "ratio");
    result.note("programs", programs.size(), "count");
    result.note("sweeps", sweeps.size(), "count");

    if (!opt.trace) {
        result.add("setup_s", median(setupS), "s");
        result.add("peak_rss_mb", peakRss, "MB");
        result.add("ops_per_s", r.opsPerS, "1/s");
        result.add("op_ms_geomean", r.opMsGeomean, "ms");
        return result;
    }

    std::map<std::string, double> m;
    SpanSummary setup;
    setup.add(setupTracer);
    m["lang.parse_ms"] = setup.self("lang.parse");
    m["lang.sema_ms"] = setup.self("lang.sema");
    m["irgen.ms"] = setup.self("irgen");
    m["opt.ms"] = setup.self("opt");
    m["classify.ms"] = setup.self("classify");
    m["codegen.ms"] = setup.self("codegen");
    m["workloads.generate_ms"] = setup.self("workloads.generate");
    StaticCounts counts;
    for (const Program &p : programs)
        counts.add(p.prog);
    counts.report(m);

    SpanSummary spans;
    spans.add(tracer);
    double inst = 0;
    for (const Sweep &s : sweeps)
        inst += static_cast<double>(s.profile.emulation.instructions);
    double emu = spans.total("sim.emulate");
    double observed = spans.total("sim.emulate_observed");
    double nsPerInst = inst > 0 ? 1e6 / inst : 0;
    m["sim.predecode_ms"] = spans.total("sim.predecode");
    m["sim.emu_ns_per_inst"] = emu * nsPerInst;
    m["sim.handoff_ns_per_inst"] = (observed - emu) * nsPerInst;
    m["predict.profile_ns_per_inst"] =
        (spans.total("sim.runProfile") - emu) * nsPerInst;
    m["pipeline.ns_per_inst.baseline"] =
        (spans.total("sim.runTimed.baseline") - observed) * nsPerInst;
    m["pipeline.ns_per_inst.proposed"] =
        (spans.total("sim.runTimed.proposed") - observed) * nsPerInst;
    m["sim_minst_per_s"] = r.simMinst;
    m["profile_minst_per_s"] = r.profileMinst;
    m["sim_speedup_geomean"] = geomean;

    pipeline::PipelineStats total;
    for (const Sweep *s : first) {
        if (!s)
            continue;
        const pipeline::PipelineStats &p = s->proposed.pipe;
        total.cycles += p.cycles;
        total.instructions += p.instructions;
        total.loads += p.loads;
        total.stores += p.stores;
        total.mispredicts += p.mispredicts;
        total.icacheMisses += p.icacheMisses;
        total.dcacheMisses += p.dcacheMisses;
        total.extraAccesses += p.extraAccesses;
        total.predict.speculated += p.predict.speculated;
        total.predict.forwarded += p.predict.forwarded;
        total.predict.wrongAddress += p.predict.wrongAddress;
        total.predict.noPrediction += p.predict.noPrediction;
        total.earlyCalc.speculated += p.earlyCalc.speculated;
        total.earlyCalc.forwarded += p.earlyCalc.forwarded;
        total.earlyCalc.notBound += p.earlyCalc.notBound;
    }
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    m["predict.ld_p.speculated"] = total.predict.speculated;
    m["predict.ld_p.forwarded"] = total.predict.forwarded;
    m["predict.ld_p.wrong_address"] = total.predict.wrongAddress;
    m["predict.ld_p.no_prediction"] = total.predict.noPrediction;
    m["predict.ld_e.speculated"] = total.earlyCalc.speculated;
    m["predict.ld_e.forwarded"] = total.earlyCalc.forwarded;
    m["predict.ld_e.not_bound"] = total.earlyCalc.notBound;
    m["predict.forward_ratio.ld_p"] =
        ratio(total.predict.forwarded, total.predict.speculated);
    m["predict.forward_ratio.ld_e"] =
        ratio(total.earlyCalc.forwarded, total.earlyCalc.speculated);
    m["pipeline.cycles"] = total.cycles;
    m["pipeline.instructions"] = total.instructions;
    m["pipeline.ipc"] = total.ipc();
    m["pipeline.mispredicts"] = total.mispredicts;
    m["mem.icache_misses"] = total.icacheMisses;
    m["mem.icache_miss_ratio"] =
        ratio(total.icacheMisses, total.instructions);
    m["mem.dcache_misses"] = total.dcacheMisses;
    m["mem.dcache_accesses"] = total.loads + total.stores;
    m["mem.dcache_miss_ratio"] =
        ratio(total.dcacheMisses, total.loads + total.stores);
    m["mem.extra_accesses"] = total.extraAccesses;
    m["fail_ratio"] = failRatio;

    m["trace.spans"] = double(spans.spans + setup.spans);
    m["trace.overhead_ratio"] =
        tracerOverhead(spans.spans + setup.spans,
                       r.sweepS + median(setupS));
    addLayerMetrics(result, m);
    writeSpans(opt.traceOut, {&setupTracer, &tracer});
    return result;
}

} // namespace perfbench
