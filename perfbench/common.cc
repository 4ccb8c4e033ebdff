#include "common.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "irgen/irgen.hh"
#include "lang/parser.hh"
#include "lang/sema.hh"
#include "obs/build_info.hh"
#include "sim/decoded.hh"
#include "support/json.hh"
#include "workloads/synthetic/generator.hh"

namespace perfbench {

using namespace elag;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

int
roundsFor(double seconds, double nominal_round_s)
{
    return std::max(1, static_cast<int>(std::lround(seconds /
                                                    nominal_round_s)));
}

void
Result::mismatch(const std::string &what)
{
    correct = false;
    if (errors.size() < 20)
        errors.push_back(what);
}

namespace {

/** The per-layer metrics, in BENCHMARK.json order, with units. */
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"lang.parse_ms", "ms"},
    {"lang.sema_ms", "ms"},
    {"irgen.ms", "ms"},
    {"opt.ms", "ms"},
    {"classify.ms", "ms"},
    {"codegen.ms", "ms"},
    {"opt.ir_insts", "count"},
    {"codegen.machine_insts", "count"},
    {"classify.ld_n", "count"},
    {"classify.ld_p", "count"},
    {"classify.ld_e", "count"},
    {"compile_ms_p50", "ms"},
    {"compile_programs_per_s", "1/s"},
    {"compile.ms_p90", "ms"},
    {"compile.ms_p90_samples", "count"},
    {"workloads.generate_ms", "ms"},
    {"sim.predecode_ms", "ms"},
    {"sim.emu_ns_per_inst", "ns"},
    {"sim.handoff_ns_per_inst", "ns"},
    {"predict.profile_ns_per_inst", "ns"},
    {"pipeline.ns_per_inst.baseline", "ns"},
    {"pipeline.ns_per_inst.proposed", "ns"},
    {"sim_minst_per_s", "Minst/s"},
    {"profile_minst_per_s", "Minst/s"},
    {"sim_speedup_geomean", "ratio"},
    {"predict.ld_p.speculated", "count"},
    {"predict.ld_p.forwarded", "count"},
    {"predict.ld_p.wrong_address", "count"},
    {"predict.ld_p.no_prediction", "count"},
    {"predict.ld_e.speculated", "count"},
    {"predict.ld_e.forwarded", "count"},
    {"predict.ld_e.not_bound", "count"},
    {"predict.forward_ratio.ld_p", "ratio"},
    {"predict.forward_ratio.ld_e", "ratio"},
    {"pipeline.cycles", "count"},
    {"pipeline.instructions", "count"},
    {"pipeline.ipc", "ratio"},
    {"pipeline.mispredicts", "count"},
    {"mem.icache_misses", "count"},
    {"mem.icache_miss_ratio", "ratio"},
    {"mem.dcache_misses", "count"},
    {"mem.dcache_accesses", "count"},
    {"mem.dcache_miss_ratio", "ratio"},
    {"mem.extra_accesses", "count"},
    {"req_per_s", "1/s"},
    {"hit_ms_p50", "ms"},
    {"miss_ms_p50", "ms"},
    {"serve.rtt_ms.warm", "ms"},
    {"serve.rtt_ms.cold", "ms"},
    {"serve.execute_ms.warm", "ms"},
    {"serve.execute_ms.cold", "ms"},
    {"serve.transport_ms", "ms"},
    {"serve.rejected", "count"},
    {"serve.hit_ms_p99", "ms"},
    {"serve.hit_ms_p99_samples", "count"},
    {"serve.miss_ms_p90", "ms"},
    {"serve.miss_ms_p90_samples", "count"},
    {"cache.lookup_us", "us"},
    {"cache.append_us", "us"},
    {"cache.open_ms", "ms"},
    {"cache.persist_hit_ratio", "ratio"},
    {"cache.persist_lookups", "count"},
    {"sim.run_cache_hit_ratio", "ratio"},
    {"sim.run_cache_lookups", "count"},
    {"sim.render_ms", "ms"},
    {"fail_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.spans", "count"},
};

std::string
numberText(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // anonymous namespace

void
addLayerMetrics(Result &result,
                const std::map<std::string, double> &measured)
{
    for (const auto &[name, unit] : kLayerMetrics) {
        auto it = measured.find(name);
        result.add(name, it == measured.end() ? 0.0 : it->second, unit);
    }
    for (const auto &kv : measured) {
        bool known = false;
        for (const auto &entry : kLayerMetrics)
            known = known || kv.first == entry.first;
        if (!known)
            throw std::logic_error("unlisted layer metric " + kv.first);
    }
}

void
printResult(const Options &opt, const Result &result)
{
    long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    std::printf("perfbench workload=%s seed=%" PRIu64
                " seconds=%g trace=%d build_type=%s lto=%s"
                " dispatch=%s nproc=%ld compiler=\"%s\"\n",
                opt.workload.c_str(), opt.seed, opt.seconds,
                opt.trace ? 1 : 0, PERFBENCH_BUILD_TYPE, PERFBENCH_LTO,
                sim::threadedDispatchActive() ? "threaded" : "switch",
                nproc, obs::buildInfo().compiler.c_str());
    for (const Metric &m : result.report)
        std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-28s %14s\n", "digest", result.digest.c_str());
    for (const std::string &e : result.errors)
        std::printf("  WRONG OUTPUT: %s\n", e.c_str());

    JsonWriter w(0);
    w.beginObject();
    w.field("correct", result.correct);
    w.field("attempted", result.attempted);
    w.field("failed", result.failed);
    w.key("metrics").beginObject();
    for (const Metric &m : result.metrics) {
        w.key(m.name).beginObject();
        w.key("value").rawValue(numberText(m.value));
        w.field("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
}

double
selfPeakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t
SplitMix::next()
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    auto rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    rank = std::clamp<size_t>(rank, 1, samples.size());
    return samples[rank - 1];
}

std::string
Digest::hex() const
{
    return workloads::synthetic::sourceHash(text_);
}

OpStats
opStats(const std::vector<std::vector<double>> &ms)
{
    std::vector<double> typical;
    for (const std::vector<double> &samples : ms) {
        if (!samples.empty())
            typical.push_back(median(samples));
    }
    double totalMs = 0;
    for (double t : typical)
        totalMs += t;
    OpStats stats;
    stats.perS = totalMs > 0 ? typical.size() / (totalMs / 1e3) : 0;
    stats.msP50 = median(typical);
    stats.msGeomean = geomean(typical);
    return stats;
}

double
geomean(const std::vector<double> &samples)
{
    double logSum = 0;
    for (double v : samples)
        logSum += std::log(v);
    return samples.empty() ? 0 : std::exp(logSum / samples.size());
}

Tracer::Scope::Scope(Tracer &tracer, const char *name)
    : tracer_(tracer), index_(-1)
{
    if (!tracer_.enabled_)
        return;
    index_ = static_cast<int>(tracer_.spans_.size());
    int parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
    tracer_.spans_.push_back(
        {name, Clock::now().time_since_epoch().count(), 0, parent});
    tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    tracer_.spans_[static_cast<size_t>(index_)].endNs =
        Clock::now().time_since_epoch().count();
    tracer_.open_.pop_back();
}

double
tracerOverhead(uint64_t spans, double traced_s)
{
    constexpr int kCalibrationSpans = 200000;
    Tracer scratch;
    auto t0 = Clock::now();
    for (int i = 0; i < kCalibrationSpans; ++i)
        Tracer::Scope s(scratch, "calibration");
    double perSpanS = secondsBetween(t0, Clock::now()) / kCalibrationSpans;
    double cost = perSpanS * static_cast<double>(spans);
    return traced_s > cost ? cost / (traced_s - cost) : 0;
}

void
SpanSummary::add(const Tracer &tracer)
{
    const auto &spans = tracer.spans();
    std::vector<int64_t> childNs(spans.size(), 0);
    for (const Tracer::Span &s : spans) {
        if (s.parent >= 0)
            childNs[static_cast<size_t>(s.parent)] += s.endNs - s.startNs;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span &s = spans[i];
        double dur = static_cast<double>(s.endNs - s.startNs) / 1e6;
        selfMs[s.name] += dur - static_cast<double>(childNs[i]) / 1e6;
        durationsMs[s.name].push_back(dur);
    }
    this->spans += spans.size();
}

double
SpanSummary::self(const std::string &name) const
{
    auto it = selfMs.find(name);
    return it == selfMs.end() ? 0.0 : it->second;
}

double
SpanSummary::total(const std::string &name) const
{
    double sum = 0;
    for (double d : durations(name))
        sum += d;
    return sum;
}

const std::vector<double> &
SpanSummary::durations(const std::string &name) const
{
    static const std::vector<double> none;
    auto it = durationsMs.find(name);
    return it == durationsMs.end() ? none : it->second;
}

void
writeSpans(const std::string &path,
           const std::vector<const Tracer *> &tracers)
{
    if (path.empty())
        return;
    int64_t origin = INT64_MAX;
    for (const Tracer *t : tracers) {
        for (const Tracer::Span &s : t->spans())
            origin = std::min(origin, s.startNs);
    }
    JsonWriter w(0);
    w.beginObject();
    w.key("traceEvents").beginArray();
    for (size_t tid = 0; tid < tracers.size(); ++tid) {
        const auto &spans = tracers[tid]->spans();
        for (size_t i = 0; i < spans.size(); ++i) {
            const Tracer::Span &s = spans[i];
            w.beginObject();
            w.field("name", s.name);
            w.field("ph", "X");
            w.field("pid", 1);
            w.field("tid", static_cast<uint64_t>(tid));
            w.field("ts", static_cast<double>(s.startNs - origin) / 1e3);
            w.field("dur", static_cast<double>(s.endNs - s.startNs) / 1e3);
            w.key("args").beginObject();
            w.field("id", static_cast<uint64_t>(i));
            w.field("parent", static_cast<int64_t>(s.parent));
            w.endObject();
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();
    std::ofstream out(path);
    out << w.str() << "\n";
}

sim::CompiledProgram
tracedCompile(const std::string &source, Tracer &tracer)
{
    // The phase sequence of sim::compile with default options, each
    // public entry point under its own span.
    Tracer::Scope whole(tracer, "compile");
    lang::TypeTable types;
    std::unique_ptr<lang::Program> ast;
    {
        Tracer::Scope s(tracer, "lang.parse");
        ast = lang::parseSource(source, types);
    }
    lang::Sema sema(*ast, types);
    {
        Tracer::Scope s(tracer, "lang.sema");
        sema.analyze();
    }
    sim::CompiledProgram prog;
    {
        Tracer::Scope s(tracer, "irgen");
        prog.module = irgen::lowerToIr(*ast, types, sema.globalSize());
    }
    {
        Tracer::Scope s(tracer, "opt");
        opt::runStandardPipeline(*prog.module, opt::OptConfig());
    }
    {
        Tracer::Scope s(tracer, "classify");
        prog.classStats = classify::classifyLoads(*prog.module);
    }
    {
        // regenerate() is codegen::generateCode plus the spec map.
        Tracer::Scope s(tracer, "codegen");
        prog.regenerate();
    }
    return prog;
}

void
StaticCounts::add(const sim::CompiledProgram &prog)
{
    // Classification and codegen leave the optimized IR as it is.
    for (const auto &fn : prog.module->functions) {
        for (const auto &bb : fn->blocks())
            irInsts += static_cast<double>(bb->insts.size());
    }
    machineInsts += static_cast<double>(prog.code.program.code.size());
    ldN += prog.classStats.numNormal;
    ldP += prog.classStats.numPredict;
    ldE += prog.classStats.numEarlyCalc;
}

void
StaticCounts::report(std::map<std::string, double> &metrics) const
{
    metrics["opt.ir_insts"] = irInsts;
    metrics["codegen.machine_insts"] = machineInsts;
    metrics["classify.ld_n"] = ldN;
    metrics["classify.ld_p"] = ldP;
    metrics["classify.ld_e"] = ldE;
}

std::vector<int32_t>
referenceOutput(const std::string &source)
{
    sim::CompileOptions reference;
    reference.opt = opt::OptConfig::noneEnabled();
    reference.runClassifier = false;
    sim::CompiledProgram prog = sim::compile(source, reference);
    sim::Emulator emu(prog.code.program);
    sim::EmulationResult run = emu.run(kMaxInst);
    if (!run.halted)
        throw std::runtime_error("reference build did not halt");
    return run.output;
}

std::map<std::string, std::vector<int32_t>>
loadExpectedOutputs(const Options &opt)
{
    std::string path = opt.dataDir + "/expected_outputs.txt";
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::map<std::string, std::vector<int32_t>> expected;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name;
        fields >> name;
        std::vector<int32_t> &values = expected[name];
        int64_t v;
        while (fields >> v)
            values.push_back(static_cast<int32_t>(v));
    }
    if (opt.corrupt == "expected" && !expected.empty()) {
        std::vector<int32_t> &values = expected.begin()->second;
        if (values.empty())
            values.push_back(0);
        else
            values[0] += 1;
    }
    return expected;
}

std::string
formatValues(const std::vector<int32_t> &values)
{
    std::string out;
    for (int32_t v : values) {
        if (!out.empty())
            out += ' ';
        out += std::to_string(v);
    }
    return out;
}

void
checkOutput(Result &result, const std::string &what,
            const std::vector<int32_t> &got,
            const std::vector<int32_t> &want)
{
    if (got != want) {
        result.mismatch(what + ": printed [" + formatValues(got) +
                        "], expected [" + formatValues(want) + "]");
    }
}

} // namespace perfbench
