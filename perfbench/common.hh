/**
 * @file
 * Shared pieces of the benchmark program: options, the result record
 * and its JSON line, an in-memory span tracer that times calls into
 * the toolchain's public functions from outside, sample statistics,
 * and the output oracles.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b);
double msBetween(Clock::time_point a, Clock::time_point b);

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    /** The built elagd binary (serve_mix). */
    std::string elagd;
    /** The benchmark's own directory (expected outputs live here). */
    std::string dataDir;
    /** Scratch directory for sockets and cache directories. */
    std::string workDir;
    /** Where a traced run writes its spans (Chrome trace JSON). */
    std::string traceOut;
    /**
     * Checker self-test: "expected" alters one expected print()
     * value, "served" flips one byte of one served document. Either
     * must make the run report incorrect outputs.
     */
    std::string corrupt;
};

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 5;

/**
 * Rounds a timed region makes over all of its inputs for a budget of
 * @p seconds, at least one: the budget over the round's nominal
 * length on the reference host, rounded. The count depends on the
 * budget alone, so every run of a workload does the same work; a
 * count chosen from measured round times would flip between one and
 * two rounds with host speed, and a second, warmer round is faster.
 */
int roundsFor(double seconds, double nominal_round_s);

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Everything one run reports. */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** The JSON metrics: end-to-end untraced, per-layer traced. */
    std::vector<Metric> metrics;
    /** Workload headline numbers, printed as text above the JSON. */
    std::vector<Metric> report;
    /** Digest of every simulated statistics document of the run. */
    std::string digest;
    std::vector<std::string> errors;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void note(const std::string &name, double value,
              const std::string &unit)
    {
        report.push_back({name, value, unit});
    }
    /** Record a wrong output: the whole run is incorrect. */
    void mismatch(const std::string &what);
};

/**
 * Add every per-layer metric of the benchmark to @p result: the
 * measured value where @p measured has one, 0 where this workload
 * does not exercise the layer.
 */
void addLayerMetrics(Result &result,
                     const std::map<std::string, double> &measured);

/** Print the text report and the final JSON line. */
void printResult(const Options &opt, const Result &result);

/** Peak resident set of this process, MB. */
double selfPeakRssMb();

/** Deterministic 64-bit generator (SplitMix64) for input draws. */
struct SplitMix
{
    uint64_t state;
    uint64_t next();
    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }
    double unit() { return (next() >> 11) * 0x1.0p-53; }
};

template <typename T>
void
shuffle(std::vector<T> &v, SplitMix &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/**
 * Throughput and latency of a workload's operations from every timing
 * of each input (@p ms[i], in ms, one per round). Each input counts
 * once, at its median over the rounds, so one slow round of an input
 * weighs less than in a plain total.
 */
struct OpStats
{
    /** Inputs per second of their summed median times. */
    double perS = 0;
    double msP50 = 0;
    double msGeomean = 0;
};
OpStats opStats(const std::vector<std::vector<double>> &ms);

/**
 * Geometric mean of @p samples (all > 0). The benchmark's latency
 * metric: over inputs of very different sizes it weighs each input
 * alike, so unlike a median it does not jump when a seeded input
 * moves past the middle rank.
 */
double geomean(const std::vector<double> &samples);

/** Nearest-rank quantile of @p samples (copied, not reordered). */
double quantile(std::vector<double> samples, double q);
inline double
median(const std::vector<double> &samples)
{
    return quantile(samples, 0.5);
}

/**
 * Digest of documents added in a fixed order (the toolchain's FNV-1a
 * source hash over their concatenation): the same run inputs give the
 * same digest, so a change that moves any simulated statistic shows
 * even when no metric moves.
 */
class Digest
{
  public:
    void
    add(const std::string &doc)
    {
        text_ += doc;
        text_ += '\n';
    }
    std::string hex() const;

  private:
    std::string text_;
};

/**
 * In-memory span recorder. Each span keeps its name, start, end and
 * the span that was open when it began; nothing is written until the
 * run ends. One Tracer per thread. A disabled tracer records nothing.
 */
class Tracer
{
  public:
    struct Span
    {
        /** A string literal. */
        const char *name;
        int64_t startNs;
        int64_t endNs;
        int parent;
    };

    explicit Tracer(bool enabled = true) : enabled_(enabled) {}

    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int index_;
    };

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/**
 * The tracer's own cost as a share of the untraced time: @p spans
 * times the measured cost of one span, over @p traced_s seconds of
 * traced work minus that cost. Whole-run comparisons of traced and
 * untraced runs would measure host noise instead: at the span
 * densities here the cost is far below run-to-run variation.
 */
double tracerOverhead(uint64_t spans, double traced_s);

/** Per-name totals over one or more tracers. */
struct SpanSummary
{
    /** Sum of self time (duration minus child spans), ms. */
    std::map<std::string, double> selfMs;
    /** Every duration, ms, in recording order. */
    std::map<std::string, std::vector<double>> durationsMs;
    uint64_t spans = 0;

    void add(const Tracer &tracer);
    double self(const std::string &name) const;
    double total(const std::string &name) const;
    const std::vector<double> &durations(const std::string &name) const;
};

/** Write every span as Chrome trace-event JSON (one tid per tracer). */
void writeSpans(const std::string &path,
                const std::vector<const Tracer *> &tracers);

/** sim::compile with a span around each phase's public entry point. */
elag::sim::CompiledProgram tracedCompile(const std::string &source,
                                         Tracer &tracer);

/** Static sizes of compiled programs, summed. */
struct StaticCounts
{
    /** IR instructions after the optimizer. */
    double irInsts = 0;
    double machineInsts = 0;
    double ldN = 0, ldP = 0, ldE = 0;

    void add(const elag::sim::CompiledProgram &prog);
    /** opt.ir_insts, codegen.machine_insts, classify.ld_{n,p,e}. */
    void report(std::map<std::string, double> &metrics) const;
};

/**
 * Worker threads of the pool the output checks run on (after the
 * timed region; timed regions stay on one thread).
 */
constexpr unsigned kOracleThreads = 4;

/**
 * print() values of @p source under the reference build (no
 * optimization, no load classification), run functionally. It shares
 * only the front end with the measured path.
 */
std::vector<int32_t> referenceOutput(const std::string &source);

/** Expected print() values of the imitation programs, by name. */
std::map<std::string, std::vector<int32_t>>
loadExpectedOutputs(const Options &opt);

std::string formatValues(const std::vector<int32_t> &values);

/** Record a mismatch on @p result unless @p got equals @p want. */
void checkOutput(Result &result, const std::string &what,
                 const std::vector<int32_t> &got,
                 const std::vector<int32_t> &want);

/** Instruction budget of every simulation the benchmark runs. */
constexpr uint64_t kMaxInst = 500'000'000;

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
