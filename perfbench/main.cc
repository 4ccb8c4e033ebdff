/**
 * @file
 * The benchmark program: one workload per run, selected by --workload.
 *
 *   perfbench --workload=sim_sweep --seed=1 --seconds=10 --trace=0
 *             --elagd=PATH --data-dir=perfbench --work-dir=DIR
 *
 * perfbench/run.py builds the toolchain and passes every path. Exit
 * codes: 0 outputs correct, 1 some output wrong (the JSON line still
 * prints, with "correct": false), 2 usage or set-up failure.
 *
 *   perfbench --record-expected > perfbench/expected_outputs.txt
 *
 * regenerates the imitation programs' expected print() values from
 * the reference build, after confirming the default build prints the
 * same.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hh"
#include "workloads.hh"
#include "workloads/workloads.hh"

using namespace perfbench;

namespace {

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            size_t n = std::strlen(flag);
            return arg.compare(0, n, flag) == 0 ? arg.c_str() + n
                                                : nullptr;
        };
        const char *v = nullptr;
        if ((v = value("--workload=")))
            opt.workload = v;
        else if ((v = value("--seed=")))
            opt.seed = std::strtoull(v, nullptr, 10);
        else if ((v = value("--seconds=")))
            opt.seconds = std::strtod(v, nullptr);
        else if ((v = value("--trace=")))
            opt.trace = std::strcmp(v, "1") == 0;
        else if ((v = value("--elagd=")))
            opt.elagd = v;
        else if ((v = value("--data-dir=")))
            opt.dataDir = v;
        else if ((v = value("--work-dir=")))
            opt.workDir = v;
        else if ((v = value("--trace-out=")))
            opt.traceOut = v;
        else if ((v = value("--corrupt=")))
            opt.corrupt = v;
        else {
            std::fprintf(stderr, "perfbench: unknown argument '%s'\n",
                         arg.c_str());
            return false;
        }
    }
    if (opt.seconds <= 0 || opt.dataDir.empty() || opt.workDir.empty()) {
        std::fprintf(stderr, "perfbench: --seconds, --data-dir and "
                             "--work-dir are required\n");
        return false;
    }
    if (!opt.corrupt.empty() && opt.corrupt != "expected" &&
        opt.corrupt != "served") {
        std::fprintf(stderr, "perfbench: --corrupt=expected|served\n");
        return false;
    }
    return true;
}

int
recordExpected()
{
    std::printf("# Expected print() values of each imitation program:\n"
                "# the reference build (no optimization, no load\n"
                "# classification), run functionally. Regenerate with\n"
                "# perfbench --record-expected.\n");
    for (const elag::workloads::Workload *w :
         elag::workloads::allWorkloads()) {
        std::vector<int32_t> reference = referenceOutput(w->source);
        elag::sim::CompiledProgram prog = elag::sim::compile(w->source);
        elag::sim::Emulator emu(prog.code.program);
        elag::sim::EmulationResult run = emu.run(kMaxInst);
        if (!run.halted || run.output != reference) {
            std::fprintf(stderr,
                         "perfbench: %s: default build prints [%s], "
                         "reference build [%s]\n",
                         w->name.c_str(), formatValues(run.output).c_str(),
                         formatValues(reference).c_str());
            return 1;
        }
        std::printf("%s %s\n", w->name.c_str(),
                    formatValues(reference).c_str());
    }
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // The dispatch engine under test is the build's default.
    unsetenv("ELAG_DISPATCH");
    if (argc == 2 && std::strcmp(argv[1], "--record-expected") == 0)
        return recordExpected();

    Options opt;
    if (!parseArgs(argc, argv, opt))
        return 2;

    Result result;
    try {
        if (opt.workload == "sim_sweep") {
            result = runSimSweep(opt);
        } else if (opt.workload == "compile_corpus") {
            result = runCompileCorpus(opt);
        } else if (opt.workload == "serve_mix") {
            result = runServeMix(opt);
        } else {
            std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                         opt.workload.c_str());
            return 2;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    printResult(opt, result);
    return result.correct ? 0 : 1;
}
