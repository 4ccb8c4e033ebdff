/**
 * @file
 * Synthetic workload generator tests: strict spec parsing and JSON
 * round-trips, seeded determinism of the emitted programs,
 * cross-family differential runs under the invariant checker, and a
 * guest-trap-freedom sweep across the sampled scenario space.
 */

#include <gtest/gtest.h>

#include "pipeline/config.hh"
#include "sim/simulator.hh"
#include "support/logging.hh"
#include "verify/invariant_checker.hh"
#include "workloads/synthetic/generator.hh"
#include "workloads/synthetic/scenario.hh"
#include "workloads/workloads.hh"

using namespace elag;
using namespace elag::workloads::synthetic;

namespace {

sim::CompiledProgram
compileQuiet(const std::string &src)
{
    setQuiet(true);
    return sim::compile(src);
}

/** All four families, for sweep-style tests. */
const KernelFamily AllFamilies[] = {
    KernelFamily::StridedWalk,
    KernelFamily::PointerChase,
    KernelFamily::IndirectGather,
    KernelFamily::BranchInterleaved,
};

} // namespace

// ---------------------------------------------------------------
// Spec JSON round-trip.
// ---------------------------------------------------------------

TEST(ScenarioSpec, JsonRoundTripsEveryField)
{
    ScenarioSpec spec;
    spec.family = KernelFamily::IndirectGather;
    spec.seed = 123456789;
    spec.workingSet = 8192;
    spec.hotLoads = 96;
    spec.strides = {1, 4, 64};
    spec.aliasDensity = 0.25;
    spec.chaseDepth = 6;
    spec.branchRatio = 0.5;
    spec.iterations = 3;

    ScenarioSpec parsed;
    std::string error;
    ASSERT_TRUE(parseScenarioSpec(spec.toJson(), parsed, error))
        << error;
    EXPECT_EQ(parsed.family, spec.family);
    EXPECT_EQ(parsed.seed, spec.seed);
    EXPECT_EQ(parsed.workingSet, spec.workingSet);
    EXPECT_EQ(parsed.hotLoads, spec.hotLoads);
    EXPECT_EQ(parsed.strides, spec.strides);
    EXPECT_DOUBLE_EQ(parsed.aliasDensity, spec.aliasDensity);
    EXPECT_EQ(parsed.chaseDepth, spec.chaseDepth);
    EXPECT_DOUBLE_EQ(parsed.branchRatio, spec.branchRatio);
    EXPECT_EQ(parsed.iterations, spec.iterations);
    // Canonical form is a fixed point: serializing the parsed spec
    // reproduces the document byte for byte.
    EXPECT_EQ(parsed.toJson(), spec.toJson());
}

TEST(ScenarioSpec, OptionalMembersDefault)
{
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(parseScenarioSpec(
        R"({"family": "chase", "seed": 9})", spec, error))
        << error;
    EXPECT_EQ(spec.family, KernelFamily::PointerChase);
    EXPECT_EQ(spec.seed, 9u);
    ScenarioSpec defaults;
    EXPECT_EQ(spec.workingSet, defaults.workingSet);
    EXPECT_EQ(spec.hotLoads, defaults.hotLoads);
    EXPECT_EQ(spec.strides, defaults.strides);
    EXPECT_EQ(spec.iterations, defaults.iterations);
}

TEST(ScenarioSpec, StrictParserRejectsBadDocuments)
{
    // Each vector is one way a spec document can be wrong; every one
    // must fail with a non-empty reason, never be silently coerced.
    const char *rejects[] = {
        "",                                          // empty
        "not json",                                  // not an object
        R"({"seed": 1})",                            // missing family
        R"({"family": "strided"})",                  // missing seed
        R"({"family": "simd", "seed": 1})",          // unknown family
        R"({"family": "strided", "seed": 0})",       // zero seed
        R"({"family": "strided", "seed": 1, "bogus": 2})", // unknown
        R"({"family": "strided", "seed": 1, "seed": 2})",  // duplicate
        R"({"family": "strided", "seed": 1} trailing)",    // trailing
        R"({"family": "strided", "seed": 1, "working_set": 1000})",
        R"({"family": "strided", "seed": 1, "working_set": 64})",
        R"({"family": "strided", "seed": 1, "hot_loads": 0})",
        R"({"family": "strided", "seed": 1, "hot_loads": 4096})",
        R"({"family": "strided", "seed": 1, "strides": []})",
        R"({"family": "strided", "seed": 1, "strides": [0]})",
        R"({"family": "strided", "seed": 1, "strides": [512]})",
        R"({"family": "strided", "seed": 1, "alias_density": 1.5})",
        R"({"family": "strided", "seed": 1, "alias_density": -0.1})",
        R"({"family": "strided", "seed": 1, "branch_ratio": 2})",
        R"({"family": "strided", "seed": 1, "chase_depth": 0})",
        R"({"family": "strided", "seed": 1, "chase_depth": 65})",
        R"({"family": "strided", "seed": 1, "iterations": 0})",
        R"({"family": "strided", "seed": 1, "iterations": 1e3})",
        R"({"family": "strided", "seed": "7"})",     // wrong type
        R"({"family": 3, "seed": 1})",               // wrong type
        R"({"family": "strided", "seed": 1, "alias_density": +0.5})",
        R"({"family": "strided", "seed": 007})",     // not JSON
    };
    for (const char *doc : rejects) {
        ScenarioSpec spec;
        std::string error;
        EXPECT_FALSE(parseScenarioSpec(doc, spec, error))
            << "accepted: " << doc;
        EXPECT_FALSE(error.empty()) << doc;
    }
}

TEST(ScenarioSpec, AcceptsEveryJsonEscape)
{
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(parseScenarioSpec(
        R"({"family": "\u0073trided", "s\u0065ed": 5})", spec, error))
        << error;
    EXPECT_EQ(spec.family, KernelFamily::StridedWalk);
    EXPECT_EQ(spec.seed, 5u);
}

TEST(ScenarioSpec, FamilyNamesRoundTrip)
{
    for (KernelFamily family : AllFamilies) {
        KernelFamily parsed;
        ASSERT_TRUE(familyByName(name(family), parsed));
        EXPECT_EQ(parsed, family);
    }
    KernelFamily out;
    EXPECT_FALSE(familyByName("", out));
    EXPECT_FALSE(familyByName("Strided", out)); // case-sensitive
}

TEST(ScenarioSpec, SampledSpecsAreValidAndDeterministic)
{
    for (KernelFamily family : AllFamilies) {
        for (uint64_t seed = 1; seed <= 8; ++seed) {
            ScenarioSpec a = sampleSpec(family, seed);
            ScenarioSpec b = sampleSpec(family, seed);
            EXPECT_EQ(validateSpec(a), "") << a.toJson();
            EXPECT_EQ(a.toJson(), b.toJson());
            EXPECT_EQ(a.seed, seed);
            EXPECT_EQ(a.family, family);
        }
    }
}

TEST(ScenarioSpec, MatrixExpansionCoversCrossProduct)
{
    MatrixOptions options;
    options.seeds = {1, 2, 3};
    options.hotLoads = {32, 64};
    options.workingSet = 2048;
    auto specs = expandMatrix(options);
    // families(all 4) x seeds(3) x hotLoads(2)
    ASSERT_EQ(specs.size(), 4u * 3u * 2u);
    for (const auto &spec : specs) {
        EXPECT_EQ(validateSpec(spec), "");
        EXPECT_EQ(spec.workingSet, 2048u);
        EXPECT_TRUE(spec.hotLoads == 32 || spec.hotLoads == 64);
    }
    // Deterministic: a second expansion is identical.
    auto again = expandMatrix(options);
    ASSERT_EQ(again.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(again[i].toJson(), specs[i].toJson());
}

// ---------------------------------------------------------------
// Generator determinism.
// ---------------------------------------------------------------

TEST(Generator, SameSpecSameBytes)
{
    for (KernelFamily family : AllFamilies) {
        ScenarioSpec spec = sampleSpec(family, 42);
        GeneratedScenario a = generateScenario(spec);
        GeneratedScenario b = generateScenario(spec);
        EXPECT_EQ(a.source, b.source) << name(family);
        EXPECT_EQ(a.contentHash, b.contentHash);
        EXPECT_EQ(a.name, spec.name());
        EXPECT_EQ(a.contentHash, sourceHash(a.source));
    }
}

TEST(Generator, SourceHashHasKnownAnswers)
{
    // The served content_hash: stable across releases.
    EXPECT_EQ(sourceHash(""), "14650fb0739d0383");
    EXPECT_EQ(sourceHash("int main() { return 0; }\n"),
              "66ae82db7ca09a3f");
}

TEST(Generator, DifferentSeedsDifferentBytes)
{
    ScenarioSpec a = sampleSpec(KernelFamily::StridedWalk, 1);
    ScenarioSpec b = sampleSpec(KernelFamily::StridedWalk, 2);
    EXPECT_NE(generateScenario(a).source, generateScenario(b).source);
}

TEST(Generator, HotLoadCountIsExact)
{
    // The emitted site count is structural, not statistical: the
    // compiled program carries at least hot_loads static loads (the
    // init/driver code adds a few more).
    ScenarioSpec spec = sampleSpec(KernelFamily::StridedWalk, 5);
    spec.hotLoads = 200;
    auto prog = compileQuiet(generateScenario(spec).source);
    EXPECT_GE(prog.classStats.total(), 200u);
}

// ---------------------------------------------------------------
// Cross-family differential run under the invariant checker.
// ---------------------------------------------------------------

TEST(Generator, FamiliesRunCleanUnderInvariantChecker)
{
    for (KernelFamily family : AllFamilies) {
        ScenarioSpec spec = sampleSpec(family, 7);
        // Keep the differential runs quick.
        spec.workingSet = 1024;
        spec.hotLoads = std::min(spec.hotLoads, 48u);
        spec.iterations = 2;
        ASSERT_EQ(validateSpec(spec), "");
        auto prog = compileQuiet(generateScenario(spec).source);

        verify::InvariantChecker base_check, fast_check;
        auto base =
            sim::runTimed(prog, pipeline::MachineConfig::baseline(),
                          200'000'000, {&base_check});
        auto fast =
            sim::runTimed(prog, pipeline::MachineConfig::proposed(),
                          200'000'000, {&fast_check});
        base_check.finish(base.pipe);
        fast_check.finish(fast.pipe);

        EXPECT_TRUE(base.emulation.halted) << name(family);
        EXPECT_TRUE(fast.emulation.halted) << name(family);
        EXPECT_GT(fast_check.eventsChecked(), 0u) << name(family);
        // Same program, same architectural work on both machines.
        EXPECT_EQ(base.pipe.instructions, fast.pipe.instructions)
            << name(family);
        EXPECT_EQ(base.emulation.output, fast.emulation.output)
            << name(family);
    }
}

// ---------------------------------------------------------------
// Guest-trap freedom across the sampled scenario space.
// ---------------------------------------------------------------

TEST(Generator, SixtyFourSampledSpecsEmulateTrapFree)
{
    // 16 seeds x 4 families. Every sampled scenario must compile and
    // run to a clean halt: no divide-by-zero, no out-of-range access,
    // no runaway loop hitting the instruction cap. Emulation-only
    // (no timing model) keeps the sweep fast.
    for (KernelFamily family : AllFamilies) {
        for (uint64_t seed = 100; seed < 116; ++seed) {
            ScenarioSpec spec = sampleSpec(family, seed);
            // Bound runtime, not behaviour: small iteration counts
            // still execute every emitted load site.
            spec.iterations = std::min(spec.iterations, 2u);
            ASSERT_EQ(validateSpec(spec), "") << spec.toJson();
            GeneratedScenario gen = generateScenario(spec);
            auto prog = compileQuiet(gen.source);
            sim::Emulator emu(prog.code.program);
            sim::EmulationResult result;
            ASSERT_NO_THROW(result = emu.run()) << gen.name;
            EXPECT_TRUE(result.halted) << gen.name;
            ASSERT_FALSE(result.output.empty()) << gen.name;
        }
    }
}

// ---------------------------------------------------------------
// Workload registry helpers (elagc --list-workloads backing).
// ---------------------------------------------------------------

TEST(WorkloadRegistry, AllWorkloadsEnumeratesBothSuites)
{
    auto all = workloads::allWorkloads();
    EXPECT_EQ(all.size(), workloads::specWorkloads().size() +
                              workloads::mediaWorkloads().size());
    for (const auto *w : all) {
        ASSERT_NE(w, nullptr);
        EXPECT_EQ(workloads::findWorkload(w->name), w);
    }
}

TEST(WorkloadRegistry, SuggestWorkloadFindsNearMisses)
{
    auto all = workloads::allWorkloads();
    ASSERT_FALSE(all.empty());
    const std::string &real = all.front()->name;
    // One-character typo resolves to the real name.
    std::string typo = real;
    typo.back() = typo.back() == 'x' ? 'y' : 'x';
    EXPECT_EQ(workloads::suggestWorkload(typo), real);
    // Garbage far from every name yields no suggestion.
    EXPECT_EQ(workloads::suggestWorkload("zzzzzzzzzzzz"), "");
}
