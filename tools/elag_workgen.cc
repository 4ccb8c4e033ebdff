/**
 * @file
 * elag_workgen — synthetic scenario generator CLI.
 *
 * Expands scenario specifications into `elag::lang` programs, either
 * one at a time or as a whole sweep matrix. Generation is
 * deterministic: the same spec always produces byte-identical source
 * (and therefore the same content hash), so workgen output can be
 * compared byte-for-byte against the elagd `generate` verb.
 *
 *   elag_workgen --family=strided --seed=7        sample + print source
 *   elag_workgen --spec=FILE                      expand a spec file
 *   elag_workgen --spec=- < spec.json             ... or stdin
 *   elag_workgen --emit-spec --family=... --seed=N  canonical spec JSON
 *   elag_workgen --out=FILE                       write source to FILE
 *   elag_workgen --hot-loads=N --working-set=N --iterations=N
 *                                                 override sampled knobs
 *   elag_workgen --list-families                  family registry
 *
 * Matrix expansion (sweep authoring):
 *   elag_workgen --matrix --seeds=1,2,3 --out-dir=DIR
 *                [--families=strided,chase] [--hot-loads=64,512]
 *                [--working-set=N]
 *   writes <name>.spec.json + <name>.c per scenario plus a
 *   matrix.json index, the shape elag_campaign --scenarios consumes.
 *
 * Exit codes: 0 success, 1 error (invalid spec, I/O), 2 usage.
 */

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "support/json.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "workloads/synthetic/generator.hh"
#include "workloads/synthetic/scenario.hh"

using namespace elag;
using namespace elag::workloads;

namespace {

struct Options
{
    std::string specPath;  ///< spec JSON file, '-' for stdin
    std::string family;    ///< sample this family instead of a file
    uint64_t seed = 0;     ///< sampling seed (required with --family)
    std::string out;       ///< source output path, '-'/empty = stdout
    bool emitSpec = false; ///< print canonical spec JSON, not source
    bool listFamilies = false;
    // Sampled-knob overrides (0 = keep sampled value).
    uint32_t hotLoadsOverride = 0;
    uint32_t workingSetOverride = 0;
    uint32_t iterationsOverride = 0;
    // Matrix mode.
    bool matrix = false;
    std::string outDir;
    std::vector<std::string> families;
    std::vector<uint64_t> seeds;
    std::vector<uint32_t> hotLoads;
};

void
usage()
{
    std::fprintf(
        stderr,
        "usage: elag_workgen --spec=FILE|- | --family=F --seed=N\n"
        "                    [--out=FILE|-] [--emit-spec]\n"
        "                    [--hot-loads=N] [--working-set=N]\n"
        "                    [--iterations=N] [--list-families]\n"
        "       elag_workgen --matrix --seeds=N[,N...] --out-dir=DIR\n"
        "                    [--families=F[,F...]]"
        " [--hot-loads=N[,N...]]\n"
        "                    [--working-set=N]\n");
}

template <typename T>
bool
numericList(const std::string &arg, const char *prefix,
            std::vector<T> &out)
{
    for (const std::string &piece :
         splitString(arg.substr(std::strlen(prefix)), ',')) {
        T value;
        bool ok;
        if constexpr (sizeof(T) == sizeof(uint32_t))
            ok = parseUint32(piece, value);
        else
            ok = parseUint64(piece, value);
        if (!ok) {
            std::fprintf(stderr,
                         "elag_workgen: invalid numeric list in "
                         "'%s'\n",
                         arg.c_str());
            return false;
        }
        out.push_back(value);
    }
    return true;
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *prefix) {
            return arg.substr(std::strlen(prefix));
        };
        if (startsWith(arg, "--spec=")) {
            opts.specPath = value("--spec=");
        } else if (startsWith(arg, "--family=")) {
            opts.family = value("--family=");
        } else if (startsWith(arg, "--seed=")) {
            if (!parseNumericFlag("elag_workgen", arg, "--seed=", opts.seed))
                return false;
        } else if (startsWith(arg, "--out=")) {
            opts.out = value("--out=");
        } else if (arg == "--emit-spec") {
            opts.emitSpec = true;
        } else if (arg == "--list-families") {
            opts.listFamilies = true;
        } else if (startsWith(arg, "--hot-loads=")) {
            if (opts.matrix) {
                if (!numericList(arg, "--hot-loads=", opts.hotLoads))
                    return false;
            } else if (!parseNumericFlag("elag_workgen", arg, "--hot-loads=",
                                         opts.hotLoadsOverride)) {
                return false;
            }
        } else if (startsWith(arg, "--working-set=")) {
            if (!parseNumericFlag("elag_workgen", arg, "--working-set=",
                                  opts.workingSetOverride))
                return false;
        } else if (startsWith(arg, "--iterations=")) {
            if (!parseNumericFlag("elag_workgen", arg, "--iterations=",
                                  opts.iterationsOverride))
                return false;
        } else if (arg == "--matrix") {
            opts.matrix = true;
        } else if (startsWith(arg, "--out-dir=")) {
            opts.outDir = value("--out-dir=");
        } else if (startsWith(arg, "--families=")) {
            opts.families = splitString(value("--families="), ',');
        } else if (startsWith(arg, "--seeds=")) {
            if (!numericList(arg, "--seeds=", opts.seeds))
                return false;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            return false;
        }
    }
    if (opts.listFamilies)
        return true;
    if (opts.matrix) {
        if (opts.seeds.empty() || opts.outDir.empty()) {
            std::fprintf(stderr,
                         "elag_workgen: --matrix needs --seeds= and "
                         "--out-dir=\n");
            return false;
        }
        return true;
    }
    if (!opts.specPath.empty() && !opts.family.empty()) {
        std::fprintf(stderr,
                     "elag_workgen: --spec= and --family= are "
                     "mutually exclusive\n");
        return false;
    }
    if (opts.specPath.empty()) {
        if (opts.family.empty() || opts.seed == 0) {
            std::fprintf(stderr,
                         "elag_workgen: need --spec=FILE or "
                         "--family=F --seed=N\n");
            return false;
        }
    }
    return true;
}

std::string
readAll(std::istream &in)
{
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeFileOrDie(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write '%s'", path.c_str());
    out << content;
    if (!out.flush())
        fatal("short write to '%s'", path.c_str());
}

/** Resolve one spec from --spec / --family and apply overrides. */
synthetic::ScenarioSpec
resolveSpec(const Options &opts)
{
    synthetic::ScenarioSpec spec;
    if (!opts.specPath.empty()) {
        std::string doc;
        if (opts.specPath == "-") {
            doc = readAll(std::cin);
        } else {
            std::ifstream in(opts.specPath);
            if (!in)
                fatal("cannot open '%s'", opts.specPath.c_str());
            doc = readAll(in);
        }
        std::string error;
        if (!synthetic::parseScenarioSpec(doc, spec, error))
            fatal("bad scenario spec '%s': %s", opts.specPath.c_str(),
                  error.c_str());
    } else {
        synthetic::KernelFamily family;
        if (!synthetic::familyByName(opts.family, family))
            fatal("unknown kernel family '%s'", opts.family.c_str());
        spec = synthetic::sampleSpec(family, opts.seed);
    }
    if (opts.hotLoadsOverride)
        spec.hotLoads = opts.hotLoadsOverride;
    if (opts.workingSetOverride)
        spec.workingSet = opts.workingSetOverride;
    if (opts.iterationsOverride)
        spec.iterations = opts.iterationsOverride;
    std::string invalid = synthetic::validateSpec(spec);
    if (!invalid.empty())
        fatal("invalid scenario spec: %s", invalid.c_str());
    return spec;
}

int
runMatrix(const Options &opts)
{
    synthetic::MatrixOptions mopts;
    for (const std::string &name : opts.families) {
        synthetic::KernelFamily family;
        if (!synthetic::familyByName(name, family))
            fatal("unknown kernel family '%s'", name.c_str());
        mopts.families.push_back(family);
    }
    mopts.seeds = opts.seeds;
    mopts.hotLoads = opts.hotLoads;
    mopts.workingSet = opts.workingSetOverride;

    if (mkdir(opts.outDir.c_str(), 0755) != 0 && errno != EEXIST)
        fatal("cannot create '%s'", opts.outDir.c_str());

    JsonWriter index;
    index.beginObject();
    index.key("scenarios").beginArray();
    size_t count = 0;
    for (const synthetic::ScenarioSpec &spec :
         synthetic::expandMatrix(mopts)) {
        synthetic::GeneratedScenario gen =
            synthetic::generateScenario(spec);
        std::string spec_file = gen.name + ".spec.json";
        std::string source_file = gen.name + ".c";
        writeFileOrDie(opts.outDir + "/" + spec_file,
                       spec.toJson() + "\n");
        writeFileOrDie(opts.outDir + "/" + source_file, gen.source);
        index.beginObject();
        index.field("name", gen.name);
        index.field("family", synthetic::name(spec.family));
        index.field("seed", spec.seed);
        index.field("hot_loads", spec.hotLoads);
        index.field("working_set", spec.workingSet);
        index.field("spec_file", spec_file);
        index.field("source_file", source_file);
        index.field("content_hash", gen.contentHash);
        index.endObject();
        ++count;
    }
    index.endArray();
    index.endObject();
    writeFileOrDie(opts.outDir + "/matrix.json", index.str() + "\n");
    std::fprintf(stderr,
                 "elag_workgen: wrote %zu scenario(s) under %s\n",
                 count, opts.outDir.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        usage();
        return 2;
    }

    try {
        if (opts.listFamilies) {
            for (const synthetic::FamilyInfo &info :
                 synthetic::kernelFamilies()) {
                std::printf("%-10s %s\n", info.name,
                            info.description);
            }
            return 0;
        }
        if (opts.matrix)
            return runMatrix(opts);

        synthetic::ScenarioSpec spec = resolveSpec(opts);
        if (opts.emitSpec) {
            std::printf("%s\n", spec.toJson().c_str());
            return 0;
        }
        synthetic::GeneratedScenario gen =
            synthetic::generateScenario(spec);
        std::fprintf(stderr, "elag_workgen: %s hash %s (%u hot "
                             "loads, %u-word working set)\n",
                     gen.name.c_str(), gen.contentHash.c_str(),
                     spec.hotLoads, spec.workingSet);
        if (opts.out.empty() || opts.out == "-") {
            std::fwrite(gen.source.data(), 1, gen.source.size(),
                        stdout);
        } else {
            writeFileOrDie(opts.out, gen.source);
        }
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "elag_workgen: %s\n", e.what());
        return 1;
    }
}
