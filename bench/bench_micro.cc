/**
 * @file
 * Google-benchmark microbenchmarks for the simulator's hot
 * structures: the address-prediction table, the register cache, the
 * cache timing model, and the end-to-end simulation rate. These
 * guard the simulator's own performance (host-side), not the
 * simulated machine's.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "pipeline/pipeline.hh"
#include "predict/address_table.hh"
#include "predict/register_cache.hh"
#include "sim/emulator.hh"
#include "sim/simulator.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "verify/reference_interp.hh"
#include "workloads/workloads.hh"

using namespace elag;

namespace {

void
BM_AddressTableUpdate(benchmark::State &state)
{
    predict::AddressTable table(
        static_cast<uint32_t>(state.range(0)));
    Pcg32 rng(42);
    uint32_t pc = 0;
    uint32_t addr = 0x1000;
    for (auto _ : state) {
        pc = (pc + 7) & 0xffff;
        addr += 4;
        benchmark::DoNotOptimize(table.update(pc, addr));
    }
}
BENCHMARK(BM_AddressTableUpdate)->Arg(64)->Arg(256)->Arg(1024);

void
BM_AddressTableProbe(benchmark::State &state)
{
    predict::AddressTable table(256);
    for (uint32_t pc = 0; pc < 512; ++pc) {
        table.update(pc, 0x1000 + pc * 4);
        table.update(pc, 0x1000 + pc * 4);
    }
    uint32_t pc = 0;
    for (auto _ : state) {
        pc = (pc + 3) & 511;
        benchmark::DoNotOptimize(table.probe(pc));
    }
}
BENCHMARK(BM_AddressTableProbe);

void
BM_RegisterCacheLookup(benchmark::State &state)
{
    predict::RegisterCache cache(
        static_cast<uint32_t>(state.range(0)));
    for (int r = 0; r < state.range(0); ++r)
        cache.bind(r + 10);
    int reg = 10;
    for (auto _ : state) {
        reg = 10 + ((reg + 1) % 20);
        benchmark::DoNotOptimize(cache.isBound(reg));
    }
}
BENCHMARK(BM_RegisterCacheLookup)->Arg(1)->Arg(4)->Arg(16);

void
BM_CacheAccess(benchmark::State &state)
{
    mem::Cache cache(mem::CacheConfig{});
    Pcg32 rng(7);
    uint64_t cycle = 0;
    for (auto _ : state) {
        uint32_t addr = rng.next() & 0xfffff;
        benchmark::DoNotOptimize(cache.access(addr, ++cycle));
    }
}
BENCHMARK(BM_CacheAccess);

/** End-to-end rate of 026.compress timed runs on the proposed
 *  machine, each run made by @p timed_run. */
template <typename TimedRun>
void
endToEndBody(benchmark::State &state, TimedRun timed_run)
{
    setQuiet(true);
    const auto *w = workloads::findWorkload("026.compress");
    auto prog = sim::compile(w->source);
    uint64_t instructions = 0;
    for (auto _ : state) {
        auto result = timed_run(prog, pipeline::MachineConfig::proposed());
        instructions += result.pipe.instructions;
        benchmark::DoNotOptimize(result.pipe.cycles);
    }
    state.counters["sim_inst_per_s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}

void
BM_EndToEndSimulation(benchmark::State &state)
{
    endToEndBody(state, [](const sim::CompiledProgram &prog,
                           const pipeline::MachineConfig &machine) {
        return sim::runTimed(prog, machine);
    });
}
BENCHMARK(BM_EndToEndSimulation)->Unit(benchmark::kMillisecond);

/** The same runs on the decode-as-you-go reference interpreter — the
 *  same-runner baseline of the CI step-change gate. */
void
BM_EndToEndSimulationLegacy(benchmark::State &state)
{
    endToEndBody(state, [](const sim::CompiledProgram &prog,
                           const pipeline::MachineConfig &machine) {
        return verify::runTimedReference(prog, machine);
    });
}
BENCHMARK(BM_EndToEndSimulationLegacy)->Unit(benchmark::kMillisecond);

/** Pure functional emulation (no timing model) — isolates the
 *  dispatch loop from the retire-side pipeline cost. */
template <typename Engine>
void
functionalBody(benchmark::State &state)
{
    setQuiet(true);
    const auto *w = workloads::findWorkload("026.compress");
    auto prog = sim::compile(w->source);
    uint64_t instructions = 0;
    for (auto _ : state) {
        Engine engine(prog.code.program);
        auto result = engine.run();
        instructions += result.instructions;
        benchmark::DoNotOptimize(result.exitValue);
    }
    state.counters["emu_inst_per_s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}

void
BM_FunctionalEmulation(benchmark::State &state)
{
    functionalBody<sim::Emulator>(state);
}
BENCHMARK(BM_FunctionalEmulation)->Unit(benchmark::kMillisecond);

void
BM_FunctionalEmulationLegacy(benchmark::State &state)
{
    functionalBody<verify::ReferenceInterpreter>(state);
}
BENCHMARK(BM_FunctionalEmulationLegacy)->Unit(benchmark::kMillisecond);

void
BM_CompilePipeline(benchmark::State &state)
{
    setQuiet(true);
    const auto *w = workloads::findWorkload("147.vortex");
    for (auto _ : state) {
        auto prog = sim::compile(w->source);
        benchmark::DoNotOptimize(prog.code.program.code.size());
    }
}
BENCHMARK(BM_CompilePipeline)->Unit(benchmark::kMillisecond);

} // namespace

/**
 * Like BENCHMARK_MAIN(), but accepts the same --json and --out=FILE
 * flags as the table/figure benches (so batch supervisors like
 * tools/elag_campaign can treat every bench uniformly) by rewriting
 * them to google-benchmark's native --benchmark_format=json and
 * --benchmark_out=FILE (whose out format already defaults to json).
 */
int
main(int argc, char **argv)
{
    std::vector<char *> args;
    args.reserve(static_cast<size_t>(argc));
    static char json_fmt[] = "--benchmark_format=json";
    static std::string out_flag;
    for (int i = 0; i < argc; ++i) {
        char *arg = argv[i];
        if (std::strcmp(arg, "--json") == 0) {
            arg = json_fmt;
        } else if (std::strncmp(arg, "--out=", 6) == 0) {
            out_flag = std::string("--benchmark_out=") + (arg + 6);
            arg = &out_flag[0];
        } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
            // Accepted for interface uniformity with the table and
            // figure benches; microbenchmarks are single-threaded by
            // construction, so the flag is dropped.
            continue;
        }
        args.push_back(arg);
    }
    int count = static_cast<int>(args.size());
    benchmark::Initialize(&count, args.data());
    if (benchmark::ReportUnrecognizedArguments(count, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
