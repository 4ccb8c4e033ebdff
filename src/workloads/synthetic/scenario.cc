#include "workloads/synthetic/scenario.hh"

#include <cstdio>
#include <set>

#include "support/json.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "workloads/synthetic/distributions.hh"

namespace elag {
namespace workloads {
namespace synthetic {

namespace {

const FamilyInfo familyTable[] = {
    {KernelFamily::StridedWalk, "strided",
     "strided array walks over seeded stride alphabets (ld_p-heavy)"},
    {KernelFamily::PointerChase, "chase",
     "pointer chasing through a scrambled permutation (serial loads)"},
    {KernelFamily::IndirectGather, "gather",
     "indirect gathers whose addresses come from an index array"},
    {KernelFamily::BranchInterleaved, "branchy",
     "loads interleaved with data-dependent branches"},
};

} // namespace

const char *
name(KernelFamily family)
{
    for (const FamilyInfo &info : familyTable) {
        if (info.family == family)
            return info.name;
    }
    fatal("unknown kernel family %d", int(family));
}

bool
familyByName(const std::string &text, KernelFamily &out)
{
    for (const FamilyInfo &info : familyTable) {
        if (text == info.name) {
            out = info.family;
            return true;
        }
    }
    return false;
}

const std::vector<FamilyInfo> &
kernelFamilies()
{
    static const std::vector<FamilyInfo> table(
        familyTable, familyTable + sizeof(familyTable) /
                                       sizeof(familyTable[0]));
    return table;
}

std::string
ScenarioSpec::toJson() const
{
    JsonWriter w(0);
    w.beginObject();
    w.field("family", synthetic::name(family));
    w.field("seed", seed);
    w.field("working_set", workingSet);
    w.field("hot_loads", hotLoads);
    w.key("strides").beginArray();
    for (uint32_t s : strides)
        w.value(s);
    w.endArray();
    w.field("alias_density", aliasDensity);
    w.field("chase_depth", chaseDepth);
    w.field("branch_ratio", branchRatio);
    w.field("iterations", iterations);
    w.endObject();
    return w.str();
}

std::string
ScenarioSpec::name() const
{
    char buf[96];
    snprintf(buf, sizeof(buf), "%s-s%llu-h%u-w%u",
             synthetic::name(family),
             static_cast<unsigned long long>(seed), hotLoads, workingSet);
    return buf;
}

std::string
validateSpec(const ScenarioSpec &spec)
{
    if (spec.seed == 0)
        return "seed must be nonzero";
    if (spec.workingSet < 256 || spec.workingSet > (1u << 18))
        return "working_set out of range [256, 262144]";
    if ((spec.workingSet & (spec.workingSet - 1)) != 0)
        return "working_set must be a power of two";
    if (spec.hotLoads < 1 || spec.hotLoads > 2048)
        return "hot_loads out of range [1, 2048]";
    if (spec.strides.empty() || spec.strides.size() > 8)
        return "strides must list 1-8 entries";
    for (uint32_t s : spec.strides) {
        if (s < 1 || s > 256)
            return "stride out of range [1, 256]";
    }
    if (!(spec.aliasDensity >= 0.0 && spec.aliasDensity <= 1.0))
        return "alias_density out of range [0, 1]";
    if (spec.chaseDepth < 1 || spec.chaseDepth > 64)
        return "chase_depth out of range [1, 64]";
    if (!(spec.branchRatio >= 0.0 && spec.branchRatio <= 1.0))
        return "branch_ratio out of range [0, 1]";
    if (spec.iterations < 1 || spec.iterations > 65536)
        return "iterations out of range [1, 65536]";
    return "";
}

namespace {

/** Decode an unsigned 32-bit member value. @return "" or a reason. */
std::string
readUint32(const std::string &key, const std::string &value,
           uint32_t &out)
{
    uint64_t wide = 0;
    if (!jsonUint(value, wide))
        return key + " must be an unsigned integer";
    if (wide > UINT32_MAX)
        return key + " out of range";
    out = static_cast<uint32_t>(wide);
    return "";
}

/** Decode one spec member into @p spec. @return "" or a reason. */
std::string
readSpecMember(const JsonMember &m, ScenarioSpec &spec)
{
    if (m.key == "family") {
        std::string text;
        if (!jsonString(m.value, text))
            return "family must be a string";
        if (!familyByName(text, spec.family))
            return "unknown family '" + text + "'";
        return "";
    }
    if (m.key == "seed") {
        return jsonUint(m.value, spec.seed)
                   ? ""
                   : "seed must be an unsigned integer";
    }
    if (m.key == "working_set")
        return readUint32(m.key, m.value, spec.workingSet);
    if (m.key == "hot_loads")
        return readUint32(m.key, m.value, spec.hotLoads);
    if (m.key == "strides") {
        std::vector<std::string> items;
        if (!jsonElements(m.value, items))
            return "strides must be an array";
        spec.strides.assign(items.size(), 0);
        for (size_t i = 0; i < items.size(); ++i) {
            std::string why = readUint32(m.key, items[i], spec.strides[i]);
            if (!why.empty())
                return why;
        }
        return "";
    }
    if (m.key == "alias_density" || m.key == "branch_ratio") {
        double &out = m.key == "alias_density" ? spec.aliasDensity
                                               : spec.branchRatio;
        return jsonNumber(m.value, out)
                   ? ""
                   : m.key + " must be a finite number";
    }
    if (m.key == "chase_depth")
        return readUint32(m.key, m.value, spec.chaseDepth);
    if (m.key == "iterations")
        return readUint32(m.key, m.value, spec.iterations);
    return "unknown member '" + m.key + "'";
}

} // namespace

bool
parseScenarioSpec(const std::string &doc, ScenarioSpec &spec,
                  std::string &error)
{
    std::vector<JsonMember> members;
    if (!jsonMembers(doc, members)) {
        error = jsonValid(doc) ? "scenario spec must be a JSON object"
                               : "scenario spec is not valid JSON";
        return false;
    }
    ScenarioSpec parsed;
    std::set<std::string> seen;
    for (const JsonMember &m : members) {
        error = seen.insert(m.key).second
                    ? readSpecMember(m, parsed)
                    : "duplicate member '" + m.key + "'";
        if (!error.empty())
            return false;
    }
    if (!seen.count("family"))
        error = "missing required member 'family'";
    else if (!seen.count("seed"))
        error = "missing required member 'seed'";
    else
        error = validateSpec(parsed);
    if (!error.empty())
        return false;
    spec = parsed;
    return true;
}

ScenarioSpec
sampleSpec(KernelFamily family, uint64_t seed)
{
    elag_assert(seed != 0);
    // A family-selected stream keeps the knob draws for different
    // families at the same seed decorrelated.
    Pcg32 rng(seed, 0x9e3779b97f4a7c15ULL + uint64_t(family));

    ScenarioSpec spec;
    spec.family = family;
    spec.seed = seed;
    spec.workingSet = logUniformPow2(rng, 10, 14);
    spec.strides = sampleStrideMix(rng);

    static const std::vector<double> alias_weights = {3, 2, 2, 1};
    static const double alias_levels[] = {0.0, 0.1, 0.25, 0.5};
    spec.aliasDensity = alias_levels[weightedChoice(rng, alias_weights)];

    switch (family) {
    case KernelFamily::StridedWalk:
        spec.hotLoads = uniformInRange(rng, 16, 128);
        spec.chaseDepth = uniformInRange(rng, 1, 4);
        spec.branchRatio = rng.nextBool(0.25) ? 0.1 : 0.0;
        break;
    case KernelFamily::PointerChase:
        spec.hotLoads = uniformInRange(rng, 8, 48);
        spec.chaseDepth = uniformInRange(rng, 2, 12);
        spec.branchRatio = rng.nextBool(0.25) ? 0.1 : 0.0;
        break;
    case KernelFamily::IndirectGather:
        spec.hotLoads = uniformInRange(rng, 16, 96);
        spec.chaseDepth = uniformInRange(rng, 1, 4);
        spec.branchRatio = rng.nextBool(0.25) ? 0.1 : 0.0;
        break;
    case KernelFamily::BranchInterleaved: {
        spec.hotLoads = uniformInRange(rng, 16, 96);
        spec.chaseDepth = uniformInRange(rng, 1, 4);
        static const double branch_levels[] = {0.25, 0.5, 0.75};
        spec.branchRatio = branch_levels[rng.nextBounded(3)];
        break;
    }
    }
    spec.iterations = uniformInRange(rng, 2, 8);

    elag_assert(validateSpec(spec).empty());
    return spec;
}

std::vector<ScenarioSpec>
expandMatrix(const MatrixOptions &options)
{
    elag_assert(!options.seeds.empty());

    std::vector<KernelFamily> families = options.families;
    if (families.empty()) {
        for (const FamilyInfo &info : kernelFamilies())
            families.push_back(info.family);
    }

    std::vector<ScenarioSpec> specs;
    for (KernelFamily family : families) {
        for (uint64_t seed : options.seeds) {
            ScenarioSpec base = sampleSpec(family, seed);
            if (options.workingSet != 0)
                base.workingSet = options.workingSet;
            if (options.hotLoads.empty()) {
                specs.push_back(base);
                continue;
            }
            for (uint32_t hot : options.hotLoads) {
                ScenarioSpec spec = base;
                spec.hotLoads = hot;
                specs.push_back(spec);
            }
        }
    }
    for (const ScenarioSpec &spec : specs)
        elag_assert(validateSpec(spec).empty());
    return specs;
}

} // namespace synthetic
} // namespace workloads
} // namespace elag
