#include "workloads/synthetic/generator.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "obs/metrics.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "workloads/synthetic/distributions.hh"

namespace elag {
namespace workloads {
namespace synthetic {

namespace {

/**
 * Total strided trips each site makes per outer iteration, and the
 * grain at which the kernel set interleaves. Every kernel runs
 * kGrainTrips of its stride sequence per call and main rotates
 * through all kernels each grain, so the program's whole static
 * load population stays concurrently live — the table-pressure
 * regime bench_crossover sweeps. The grain is small relative to
 * the stride FSM's ~2-trip training time: a site whose table entry
 * was evicted since its last visit loses a real fraction of its
 * window retraining, which is exactly the conflict cost
 * compiler-directed allocation avoids.
 */
constexpr int kInnerTrips = 256;
constexpr int kGrainTrips = 4;

/** Static load sites per kernel function (last one takes the rest). */
constexpr uint32_t kSitesPerFn = 8;

/** Data arrays strided sites rotate over. */
const char *const kArrays[] = {"A", "B", "C", "D"};

std::string
num(int64_t v)
{
    return std::to_string(v);
}

/**
 * Emitter for one scenario: owns the spec-seeded stream and the
 * running static-load-site count, which must land exactly on
 * spec.hotLoads.
 */
struct Emitter
{
    const ScenarioSpec &spec;
    Pcg32 rng;
    uint32_t mask;
    uint32_t sites = 0;

    explicit Emitter(const ScenarioSpec &s)
        : spec(s),
          // A distinct stream per family keeps equal-seed programs of
          // different families decorrelated.
          rng(s.seed, 0x5851f42d4c957f2dULL ^ uint64_t(s.family)),
          mask(s.workingSet - 1)
    {
    }

    /** A stride from the spec's alphabet. */
    uint32_t
    stride()
    {
        return spec.strides[rng.nextBounded(
            static_cast<uint32_t>(spec.strides.size()))];
    }

    /** `(i * S + O) & mask` — a stride-predictable address. */
    std::string
    stridedAddr()
    {
        return "(i * " + num(stride()) + " + " +
               num(rng.nextBounded(spec.workingSet)) + ") & " +
               num(mask);
    }

    /** `sum += ARR[strided];` — one ld_p-friendly site. */
    std::string
    stridedSite()
    {
        ++sites;
        return std::string("sum += ") + kArrays[rng.nextBounded(4)] +
               "[" + stridedAddr() + "];";
    }

    /**
     * `sum += ARR[(x * K + C) & mask];` — a pollution site whose
     * address is data-dependent on the shared x load, so it defeats
     * stride training (and classifies ld_n) while still occupying a
     * hot static PC.
     */
    std::string
    aliasSite()
    {
        ++sites;
        uint32_t k = 3 + 2 * rng.nextBounded(30); // odd in [3, 61]
        return std::string("sum += ") + kArrays[rng.nextBounded(4)] +
               "[(x * " + num(k) + " + " +
               num(rng.nextBounded(spec.workingSet)) + ") & " +
               num(mask) + "];";
    }

    /** `sum += ARR[IDX[strided] & mask];` — two sites: the strided
     * index fetch plus the data-dependent gather it feeds. */
    std::string
    gatherSite()
    {
        sites += 2;
        return std::string("sum += ") + kArrays[rng.nextBounded(4)] +
               "[IDX[" + stridedAddr() + "] & " + num(mask) + "];";
    }

    /** `p = (int*)p[0];` — one serially dependent chase link, the
     * pointer idiom the classifier recognizes as ld_e. */
    std::string
    chaseSite()
    {
        ++sites;
        return "p = (int*)p[0];";
    }

    /** The shared data-dependent value alias/branch sites hang off. */
    std::string
    xSite()
    {
        ++sites;
        return "int x = IDX[" + stridedAddr() + "];";
    }

    /**
     * One kernel function with exactly @p budget static load sites.
     * The body is a kGrainTrips-trip loop whose induction variable
     * starts at the `base` parameter: sites stay inside a loop in
     * their own function (so the classifier's cyclic heuristic sees
     * the x data dependence and marks alias sites ld_n), while
     * main advances base and rotates through every kernel each
     * grain, keeping the whole hot-site population of the program
     * concurrently live — the table-pressure axis bench_crossover
     * sweeps. Shape: an optional shared x load, an optional chase
     * chain, then strided/alias/gather sites — alias and
     * branch-guarded sites draw on x, so x is emitted first
     * whenever the spec can use it.
     */
    std::string
    function(uint32_t index, uint32_t budget)
    {
        elag_assert(budget >= 1);
        bool chase = spec.family == KernelFamily::PointerChase;
        bool want_x = (spec.aliasDensity > 0.0 ||
                       spec.branchRatio > 0.0) &&
                      budget >= 2;

        std::string body;
        uint32_t left = budget;
        bool have_x = false;
        if (want_x) {
            // Fold x into sum so the site survives dead-code
            // elimination even when no alias/branch site draws on it.
            body += "    " + xSite() + "\n"
                    "    sum += x & 15;\n";
            have_x = true;
            --left;
        }
        if (chase && left >= 2) {
            // A strided head load into the node ring, then a serial
            // chain of dependent links off it.
            ++sites;
            body += "    int *p = NODES[" + stridedAddr() + "];\n";
            --left;
            uint32_t links = std::min(left, spec.chaseDepth);
            for (uint32_t c = 0; c < links; ++c)
                body += "    " + chaseSite() + "\n";
            left -= links;
            body += "    sum += (int)p;\n";
        }
        while (left > 0) {
            bool guarded = have_x && rng.nextBool(spec.branchRatio);
            std::string stmt;
            if (have_x && rng.nextBool(spec.aliasDensity)) {
                stmt = aliasSite();
                --left;
            } else if (spec.family == KernelFamily::IndirectGather &&
                       left >= 2 && rng.nextBool(0.6)) {
                stmt = gatherSite();
                left -= 2;
            } else {
                stmt = stridedSite();
                --left;
            }
            if (guarded) {
                // Data-dependent direction: x comes from memory.
                body += "    if ((x & 7) < " +
                        num(1 + rng.nextBounded(7)) + ") {\n"
                        "        " + stmt + "\n"
                        "    } else {\n"
                        "        sum += i;\n"
                        "    }\n";
            } else {
                body += "    " + stmt + "\n";
            }
        }

        return "int kern" + num(index) + "(int base) {\n"
               "    int sum = 0;\n"
               "    for (int i = base; i < base + " +
               num(kGrainTrips) + "; i++) {\n" + body +
               "    }\n"
               "    return sum;\n"
               "}\n";
    }

    std::string
    program()
    {
        uint32_t ws = spec.workingSet;
        uint32_t fns = (spec.hotLoads + kSitesPerFn - 1) / kSitesPerFn;
        bool chase = spec.family == KernelFamily::PointerChase;

        // The chase successor order is a permutation of [0, ws): an
        // odd multiplier is a bijection mod a power of two, so rings
        // close and chases never leave range.
        uint32_t odd_mul = 2 * rng.nextBounded(ws / 2) + 1;
        uint32_t phase = rng.nextBounded(ws);
        int32_t seed0 =
            static_cast<int32_t>(rng.next() & 0x7fffffff) | 1;

        std::string src;
        src += "int A[" + num(ws) + "];\n"
               "int B[" + num(ws) + "];\n"
               "int C[" + num(ws) + "];\n"
               "int D[" + num(ws) + "];\n"
               "int IDX[" + num(ws) + "];\n";
        if (chase)
            src += "int *NODES[" + num(ws) + "];\n";

        std::string fn_bodies;
        for (uint32_t f = 0; f < fns; ++f) {
            uint32_t done = f * kSitesPerFn;
            uint32_t budget =
                std::min(kSitesPerFn, spec.hotLoads - done);
            fn_bodies += function(f, budget);
        }
        src += fn_bodies;

        src += "int main() {\n"
               "    int seed = " + num(seed0) + ";\n"
               "    for (int i = 0; i < " + num(ws) + "; i++) {\n"
               "        seed = seed * 1103515245 + 12345;\n"
               "        A[i] = seed & 65535;\n"
               "        B[i] = (seed >> 3) & 65535;\n"
               "        C[i] = (seed >> 5) & 65535;\n"
               "        D[i] = (seed >> 7) & 65535;\n"
               "        IDX[i] = (seed >> 9) & " + num(mask) + ";\n";
        if (chase) {
            // Two passes: every node exists before any link targets
            // it, then word 0 of each node points at its successor.
            src += "        NODES[i] = (int*)alloc(8);\n"
                   "    }\n"
                   "    for (int i = 0; i < " + num(ws) +
                   "; i++) {\n"
                   "        NODES[i][0] = (int)NODES[(i * " +
                   num(odd_mul) + " + " + num(phase) + ") & " +
                   num(mask) + "];\n";
        }
        src += "    }\n"
               "    int sum = 0;\n"
               "    for (int r = 0; r < " + num(spec.iterations) +
               "; r++) {\n"
               "        for (int t = 0; t < " + num(kInnerTrips) +
               "; t = t + " + num(kGrainTrips) + ") {\n";
        for (uint32_t f = 0; f < fns; ++f)
            src += "            sum += kern" + num(f) + "(t);\n";
        src += "        }\n"
               "    }\n"
               "    print(sum);\n"
               "    return 0;\n"
               "}\n";

        elag_assert(sites == spec.hotLoads);
        return src;
    }
};

} // namespace

std::string
sourceHash(const std::string &source)
{
    Fnv1a h(Fnv1a::kContentBasis);
    h.mixBytes(source.data(), source.size());
    char buf[17];
    snprintf(buf, sizeof(buf), "%016llx",
             static_cast<unsigned long long>(h.value()));
    return buf;
}

GeneratedScenario
generateScenario(const ScenarioSpec &spec)
{
    std::string invalid = validateSpec(spec);
    if (!invalid.empty())
        fatal("invalid scenario spec: %s", invalid.c_str());

    auto start = std::chrono::steady_clock::now();
    Emitter emitter(spec);

    GeneratedScenario out;
    out.spec = spec;
    out.name = spec.name();
    out.source = emitter.program();
    out.contentHash = sourceHash(out.source);

    auto micros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    obs::Labels labels{{"family", name(spec.family)}};
    obs::Registry &registry = obs::Registry::process();
    registry
        .counter("elag_workgen_scenarios_generated_total",
                 "Synthetic scenarios expanded to source, by kernel "
                 "family.",
                 labels)
        .inc();
    // 64 buckets x 128 us => 0..8 ms + overflow.
    registry
        .histogram("elag_workgen_generate_latency_us",
                   "Scenario generation latency in microseconds, by "
                   "kernel family.",
                   64, 128, labels)
        .observe(static_cast<uint64_t>(micros));
    return out;
}

} // namespace synthetic
} // namespace workloads
} // namespace elag
