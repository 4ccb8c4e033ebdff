/**
 * @file
 * Scenario specifications for the synthetic workload generator.
 *
 * A ScenarioSpec pins every knob of one generated workload: kernel
 * family, seed, working-set size, stride mix, alias density,
 * pointer-chase depth, branch-interleave ratio, and — the axis the
 * paper's Figure-5a crossover lives on — the hot-static-load count.
 * Specs round-trip through a strictly validated JSON form (unknown
 * members, wrong types, and out-of-range values are all rejected
 * with a one-line reason), so the same document drives the
 * elag_workgen CLI, the elagd `generate` verb, and the campaign
 * runner's scenario axis interchangeably.
 *
 * Specs are sampled from seeded distributions (sampleSpec) or
 * written by hand; either way the spec alone determines the emitted
 * program byte for byte.
 */

#ifndef ELAG_WORKLOADS_SYNTHETIC_SCENARIO_HH
#define ELAG_WORKLOADS_SYNTHETIC_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

namespace elag {
namespace workloads {
namespace synthetic {

/** The parameterized kernel families the generator can emit. */
enum class KernelFamily : uint8_t
{
    /** Strided array walks: the bread-and-butter ld_p population. */
    StridedWalk,
    /** Pointer chasing through a scrambled permutation. */
    PointerChase,
    /** Indirect/gather: addresses loaded from an index array. */
    IndirectGather,
    /** Loads interleaved with data-dependent branches. */
    BranchInterleaved,
};

/** Canonical (JSON) name of a family. */
const char *name(KernelFamily family);

/** @return true and set @p out when @p text names a family. */
bool familyByName(const std::string &text, KernelFamily &out);

/** One family's registry entry for `elagc --list-workloads`. */
struct FamilyInfo
{
    KernelFamily family;
    const char *name;
    /** One-line description of the behaviour the family generates. */
    const char *description;
};

/** All kernel families, in enum order. */
const std::vector<FamilyInfo> &kernelFamilies();

/** Full parameterization of one synthetic scenario. */
struct ScenarioSpec
{
    KernelFamily family = KernelFamily::StridedWalk;
    /** Seeds every generation-time draw; part of the identity. */
    uint64_t seed = 1;
    /** Words per data array (power of two, [256, 262144]). */
    uint32_t workingSet = 4096;
    /** Target count of distinct hot static load sites ([1, 2048]). */
    uint32_t hotLoads = 32;
    /** Stride alphabet for strided sites (1-8 entries in [1, 256]). */
    std::vector<uint32_t> strides{1};
    /**
     * Fraction of sites emitted as data-dependent "pollution" loads
     * whose addresses defeat stride training ([0, 1]).
     */
    double aliasDensity = 0.0;
    /** Chained dependent loads per chase step ([1, 64]). */
    uint32_t chaseDepth = 4;
    /** Fraction of sites guarded by data-dependent branches ([0,1]). */
    double branchRatio = 0.0;
    /** Outer repetitions of the whole kernel set ([1, 65536]). */
    uint32_t iterations = 8;

    /**
     * Canonical JSON form: every field, fixed order and formatting,
     * so equal specs serialize identically and the document is a
     * stable cache/routing key.
     */
    std::string toJson() const;

    /** Short self-describing name, e.g. "strided-s7-h320-w4096". */
    std::string name() const;
};

/**
 * Validate every field of @p spec against the documented bounds.
 * @return "" when valid, else a one-line reason.
 */
std::string validateSpec(const ScenarioSpec &spec);

/**
 * Strictly parse @p doc as a ScenarioSpec. The document must be one
 * valid JSON object (read with support/json's reader, so every JSON
 * escape is accepted and `+0.5` or `007` is not). `family` and `seed`
 * are required; all other members are optional and default as in the
 * struct. Unknown members, duplicated members, type mismatches, and
 * out-of-range values fail with @p error set to a one-line reason.
 */
bool parseScenarioSpec(const std::string &doc, ScenarioSpec &spec,
                       std::string &error);

/**
 * Sample a spec for @p family from the seeded knob distributions
 * (log2-uniform working sets, weighted stride alphabets, family-
 * dependent hot-load ranges). Deterministic per (family, seed); the
 * sampled spec embeds @p seed so generation stays reproducible.
 */
ScenarioSpec sampleSpec(KernelFamily family, uint64_t seed);

/** Axes of a scenario-matrix expansion (`elag_workgen --matrix`). */
struct MatrixOptions
{
    /** Families to cover; empty = all. */
    std::vector<KernelFamily> families;
    /** Seeds per family (at least one required). */
    std::vector<uint64_t> seeds;
    /** Hot-load overrides; empty keeps each sampled value. */
    std::vector<uint32_t> hotLoads;
    /** Working-set override; 0 keeps each sampled value. */
    uint32_t workingSet = 0;
};

/**
 * Expand the cross product families x seeds x hotLoads into
 * concrete sampled specs, in deterministic order.
 */
std::vector<ScenarioSpec> expandMatrix(const MatrixOptions &options);

} // namespace synthetic
} // namespace workloads
} // namespace elag

#endif // ELAG_WORKLOADS_SYNTHETIC_SCENARIO_HH
