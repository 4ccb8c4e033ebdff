/**
 * @file
 * compile_corpus: the 26 imitation sources plus seeded scenarios
 * from all four kernel families, each compiled by sim::compile with
 * default options, one at a time. No emulator or timing model runs in
 * the timed region.
 *
 * The corpus design is fixed and the seed draws the programs: per
 * family, slot k has the hot-load count at the log-midpoint of the
 * k-th of kPerFamily equal strata of [16, 2048] and the other knobs
 * of sampleSpec(family, k + 1); the run seed sets each scenario's
 * generation seed and the compile order. Drawing the knobs per run
 * instead would swing a round by seconds: compile time is superlinear
 * in chase-family size, and one chase program of 1024 loads compiles
 * in 40 ms or 800 ms depending on its alias density alone.
 */

#include <cmath>

#include "sim/decoded.hh"
#include "support/parallel.hh"
#include "workloads.hh"
#include "workloads/synthetic/generator.hh"
#include "workloads/workloads.hh"

namespace perfbench {

using namespace elag;
namespace syn = elag::workloads::synthetic;

namespace {

/** Scenarios per kernel family. */
constexpr uint32_t kPerFamily = 16;
constexpr double kMinHotLoads = 16, kMaxHotLoads = 2048;

struct Item
{
    std::string name;
    std::string source;
    bool imitation = false;
};

std::vector<Item>
generateCorpus(uint64_t seed, Tracer &tracer)
{
    std::vector<Item> items;
    for (const workloads::Workload *w : workloads::allWorkloads())
        items.push_back({w->name, w->source, true});
    SplitMix rng{seed ^ 0x636f6d70696c65ULL};
    for (const syn::FamilyInfo &info : syn::kernelFamilies()) {
        for (uint32_t k = 0; k < kPerFamily; ++k) {
            syn::ScenarioSpec spec = syn::sampleSpec(info.family, k + 1);
            double u = (k + 0.5) / kPerFamily;
            spec.hotLoads = static_cast<uint32_t>(std::lround(
                kMinHotLoads * std::pow(kMaxHotLoads / kMinHotLoads, u)));
            spec.seed = 1 + rng.below(1u << 30);
            Tracer::Scope s(tracer, "workloads.generate");
            syn::GeneratedScenario gen = syn::generateScenario(spec);
            items.push_back({gen.name, gen.source, false});
        }
    }
    return items;
}

/** What the timed region keeps of a compile: machine code only. */
struct Built
{
    bool ok = false;
    codegen::CodegenResult code;
    uint64_t hash = 0;
};

struct Region
{
    /** Every compile time, ms. */
    std::vector<double> compileMs;
    /** Compile times of each item, one per round, ms. */
    std::vector<std::vector<double>> itemMs;
    double compileS = 0;
    size_t rounds = 0;
    /** Static totals over the corpus (traced runs only). */
    StaticCounts counts;
};

/** Nominal length of one round over the corpus, seconds. */
constexpr double kNominalRoundS = 9;

/**
 * Whole rounds over the corpus, through tracedCompile in a traced
 * run. The first round keeps each program's machine code for the
 * output checks; later rounds must produce the same code.
 */
Region
timedRegion(const std::vector<Item> &items,
            const std::vector<size_t> &order, int rounds, Tracer *tracer,
            std::vector<Built> &built, Result &result)
{
    Region region;
    region.itemMs.resize(items.size());
    for (region.rounds = 0; region.rounds < size_t(rounds); ++region.rounds) {
        for (size_t index : order) {
            ++result.attempted;
            try {
                auto t0 = Clock::now();
                sim::CompiledProgram prog =
                    tracer ? tracedCompile(items[index].source, *tracer)
                           : sim::compile(items[index].source);
                auto t1 = Clock::now();
                region.compileMs.push_back(msBetween(t0, t1));
                region.itemMs[index].push_back(msBetween(t0, t1));
                region.compileS += secondsBetween(t0, t1);
                if (tracer && region.rounds == 0)
                    region.counts.add(prog);
                uint64_t hash = sim::hashProgram(prog.code.program);
                Built &b = built[index];
                if (!b.ok) {
                    b.ok = true;
                    b.code = std::move(prog.code);
                    b.hash = hash;
                } else if (hash != b.hash) {
                    result.mismatch(items[index].name +
                                    ": compiled to different code");
                }
            } catch (const std::exception &e) {
                ++result.failed;
                std::fprintf(stderr, "perfbench: %s failed: %s\n",
                             items[index].name.c_str(), e.what());
            }
        }
    }
    return region;
}

void
checkOutputs(const Options &opt, const std::vector<Item> &items,
             const std::vector<Built> &built, Result &result,
             Digest &digest)
{
    auto expected = loadExpectedOutputs(opt);
    std::vector<size_t> indices(items.size());
    for (size_t i = 0; i < indices.size(); ++i)
        indices[i] = i;
    parallel::ThreadPool pool(kOracleThreads);
    std::vector<std::vector<int32_t>> reference =
        parallel::parallelMap(pool, indices, [&](size_t i) {
            return referenceOutput(items[i].source);
        });
    std::vector<sim::EmulationResult> runs =
        parallel::parallelMap(pool, indices, [&](size_t i) {
            return built[i].ok
                       ? sim::Emulator(built[i].code.program).run(kMaxInst)
                       : sim::EmulationResult{};
        });
    for (size_t i = 0; i < items.size(); ++i) {
        const Item &item = items[i];
        if (item.imitation) {
            auto it = expected.find(item.name);
            if (it == expected.end())
                result.mismatch(item.name + ": no recorded expected output");
            else
                checkOutput(result, item.name + " reference build",
                            reference[i], it->second);
        }
        if (!built[i].ok)
            continue;
        const sim::EmulationResult &run = runs[i];
        if (!run.halted)
            result.mismatch(item.name + ": default build did not halt");
        checkOutput(result, item.name + " default build", run.output,
                    reference[i]);
        char hash[17];
        std::snprintf(hash, sizeof(hash), "%016llx",
                      static_cast<unsigned long long>(built[i].hash));
        digest.add(item.name + " " + hash + " " +
                   std::to_string(run.instructions) + " " +
                   formatValues(run.output));
    }
}

} // anonymous namespace

Result
runCompileCorpus(const Options &opt)
{
    Result result;
    std::vector<double> setupS;
    std::vector<Item> items;
    Tracer setupTracer(opt.trace);
    for (int rep = 0; rep < kSetupReps; ++rep) {
        Tracer off(false);
        bool last = rep == kSetupReps - 1;
        auto t0 = Clock::now();
        items = generateCorpus(opt.seed, last ? setupTracer : off);
        setupS.push_back(secondsBetween(t0, Clock::now()));
    }

    std::vector<size_t> order(items.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    SplitMix rng{opt.seed};
    shuffle(order, rng);

    Tracer tracer(opt.trace);
    std::vector<Built> built(items.size());
    int rounds = roundsFor(opt.seconds, kNominalRoundS);
    Region region = timedRegion(items, order, rounds,
                                opt.trace ? &tracer : nullptr, built, result);
    double peakRss = selfPeakRssMb();
    Digest digest;
    checkOutputs(opt, items, built, result, digest);
    result.digest = digest.hex();

    OpStats ops = opStats(region.itemMs);
    double p50 = ops.msP50;
    double perS = ops.perS;
    double failRatio = result.attempted
                           ? double(result.failed) / result.attempted
                           : 0;
    result.note("setup_s", median(setupS), "s");
    result.note("fail_ratio", failRatio, "ratio");
    result.note("peak_rss_mb", peakRss, "MB");
    result.note("compile_ms_p50", p50, "ms");
    result.note("compile_programs_per_s", perS, "1/s");
    result.note("programs", items.size(), "count");
    result.note("rounds", region.rounds, "count");

    if (!opt.trace) {
        result.add("setup_s", median(setupS), "s");
        result.add("peak_rss_mb", peakRss, "MB");
        result.add("ops_per_s", perS, "1/s");
        result.add("op_ms_geomean", ops.msGeomean, "ms");
        return result;
    }

    SpanSummary spans;
    spans.add(tracer);
    SpanSummary setup;
    setup.add(setupTracer);
    std::map<std::string, double> m;
    // Phase self times per round over the corpus.
    double perRound = 1.0 / double(region.rounds);
    m["lang.parse_ms"] = spans.self("lang.parse") * perRound;
    m["lang.sema_ms"] = spans.self("lang.sema") * perRound;
    m["irgen.ms"] = spans.self("irgen") * perRound;
    m["opt.ms"] = spans.self("opt") * perRound;
    m["classify.ms"] = spans.self("classify") * perRound;
    m["codegen.ms"] = spans.self("codegen") * perRound;
    region.counts.report(m);
    m["compile_ms_p50"] = p50;
    m["compile_programs_per_s"] = perS;
    m["compile.ms_p90"] = quantile(region.compileMs, 0.9);
    m["compile.ms_p90_samples"] = region.compileMs.size();
    m["workloads.generate_ms"] = setup.self("workloads.generate");
    m["fail_ratio"] = failRatio;
    m["trace.spans"] = double(spans.spans + setup.spans);
    m["trace.overhead_ratio"] = tracerOverhead(
        spans.spans + setup.spans, region.compileS + median(setupS));
    addLayerMetrics(result, m);
    writeSpans(opt.traceOut, {&setupTracer, &tracer});
    return result;
}

} // namespace perfbench
