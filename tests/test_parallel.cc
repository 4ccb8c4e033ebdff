/**
 * @file
 * Tests for the worker thread pool, ordered parallelMap, and the
 * simulation result cache.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/run_cache.hh"
#include "support/logging.hh"
#include "support/parallel.hh"

using namespace elag;

namespace {

std::vector<int>
iota(int n)
{
    std::vector<int> v;
    for (int i = 0; i < n; ++i)
        v.push_back(i);
    return v;
}

/**
 * RunCache counts since @p start. The counters are process-wide and
 * clear() leaves them alone, so tests compare before and after.
 */
sim::RunCache::Stats
since(const sim::RunCache::Stats &start)
{
    sim::RunCache::Stats now = sim::RunCache::instance().stats();
    return {now.hits - start.hits, now.misses - start.misses,
            now.bypasses - start.bypasses,
            now.evictions - start.evictions};
}

} // namespace

TEST(Parallel, ResultsKeepInputOrder)
{
    parallel::ThreadPool pool(4);
    auto items = iota(64);
    // Earlier indices sleep longer, so completion order is roughly
    // the reverse of input order; results must still be in input
    // order.
    auto out = parallel::parallelMap(pool, items, [](int i) {
        std::this_thread::sleep_for(
            std::chrono::microseconds((64 - i) * 20));
        return i * 3;
    });
    ASSERT_EQ(out.size(), items.size());
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(out[i], i * 3);
}

TEST(Parallel, LowestIndexExceptionPropagates)
{
    // Several jobs fail; the one that propagates must be the lowest
    // failing index so error reporting is the same at any job count.
    for (unsigned workers : {1u, 4u}) {
        parallel::ThreadPool pool(workers);
        auto items = iota(32);
        try {
            parallel::parallelMap(pool, items, [](int i) {
                if (i == 7 || i == 19 || i == 23)
                    throw std::runtime_error("job " +
                                             std::to_string(i));
                return i;
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "job 7");
        }
    }
}

TEST(Parallel, AllJobsStillRunAfterAFailure)
{
    parallel::ThreadPool pool(4);
    auto items = iota(48);
    std::atomic<int> ran{0};
    try {
        parallel::parallelMap(pool, items, [&](int i) {
            ++ran;
            if (i == 0)
                throw std::runtime_error("first");
            return i;
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &) {
    }
    // An early failure must not skip later indices: results would
    // otherwise depend on dispatch timing.
    EXPECT_EQ(ran.load(), 48);
}

TEST(Parallel, SingleJobRunsOnCallerThread)
{
    parallel::setJobs(1);
    auto items = iota(16);
    auto caller = std::this_thread::get_id();
    auto out = parallel::parallelMap(items, [&](int i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        return i + 1;
    });
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(out[i], i + 1);
    parallel::setJobs(parallel::defaultJobs());
}

TEST(Parallel, SingleWorkerPoolRunsInline)
{
    parallel::ThreadPool pool(1);
    auto caller = std::this_thread::get_id();
    auto out = parallel::parallelMap(pool, iota(8), [&](int i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        return i;
    });
    EXPECT_EQ(out.size(), 8u);
}

TEST(Parallel, NestedMapDoesNotDeadlock)
{
    // A parallelMap issued from inside a worker must run inline on
    // that worker: with every pool thread blocked waiting for
    // sub-jobs no one else can run, a fixed pool would deadlock.
    parallel::ThreadPool pool(2);
    auto out = parallel::parallelMap(pool, iota(8), [&](int i) {
        auto inner =
            parallel::parallelMap(pool, iota(4), [&](int j) {
                EXPECT_TRUE(parallel::inWorker());
                return j * 10;
            });
        int sum = 0;
        for (int v : inner)
            sum += v;
        return i + sum;
    });
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(out[i], i + 60);
}

TEST(Parallel, SetJobsRejectsZero)
{
    EXPECT_THROW(parallel::setJobs(0), PanicError);
}

TEST(Parallel, EmptyInput)
{
    parallel::ThreadPool pool(2);
    auto out = parallel::parallelMap(pool, std::vector<int>{},
                                     [](int i) { return i; });
    EXPECT_TRUE(out.empty());
}

TEST(RunCache, HitsAndMissesAndDeterminism)
{
    setQuiet(true);
    auto &cache = sim::RunCache::instance();
    cache.clear();
    auto start = cache.stats();

    auto prog = sim::compile(R"(
        int arr[64];
        int main() {
            int t = 0;
            for (int i = 0; i < 64; i++) { arr[i] = i; t += arr[i]; }
            print(t);
            return 0;
        }
    )");
    auto cfg = pipeline::MachineConfig::proposed();

    auto r1 = cache.run(prog, cfg, 1'000'000);
    EXPECT_EQ(since(start).misses, 1u);
    EXPECT_EQ(since(start).hits, 0u);

    auto r2 = cache.run(prog, cfg, 1'000'000);
    EXPECT_EQ(since(start).misses, 1u);
    EXPECT_EQ(since(start).hits, 1u);
    EXPECT_EQ(r1.pipe.cycles, r2.pipe.cycles);
    EXPECT_EQ(r1.emulation.output, r2.emulation.output);

    // A different machine configuration is a different key.
    auto r3 = cache.run(prog, pipeline::MachineConfig::baseline(),
                        1'000'000);
    EXPECT_EQ(since(start).misses, 2u);
    EXPECT_NE(r3.pipe.cycles, 0u);

    // A different instruction cap is a different key.
    cache.run(prog, cfg, 2'000'000);
    EXPECT_EQ(since(start).misses, 3u);

    // The cached result equals an uncached simulation.
    auto direct = sim::runTimed(prog, cfg, 1'000'000);
    EXPECT_EQ(direct.pipe.cycles, r1.pipe.cycles);
    EXPECT_EQ(direct.pipe.instructions, r1.pipe.instructions);

    // clear() drops entries; the counts live in the registry and stay.
    auto end = cache.stats();
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().misses, end.misses);
    EXPECT_EQ(cache.stats().hits, end.hits);
}

TEST(RunCache, ConcurrentMissesSimulateOnce)
{
    setQuiet(true);
    auto &cache = sim::RunCache::instance();
    cache.clear();
    auto start = cache.stats();
    auto prog = sim::compile(R"(
        int main() {
            int t = 0;
            for (int i = 0; i < 20000; i++) t += i;
            print(t);
            return 0;
        }
    )");
    auto cfg = pipeline::MachineConfig::proposed();

    parallel::ThreadPool pool(4);
    auto cycles =
        parallel::parallelMap(pool, iota(8), [&](int) {
            return cache.run(prog, cfg, 10'000'000).pipe.cycles;
        });
    for (size_t i = 1; i < cycles.size(); ++i)
        EXPECT_EQ(cycles[i], cycles[0]);
    EXPECT_EQ(since(start).misses, 1u);
    EXPECT_EQ(since(start).hits, 7u);
    cache.clear();
}

TEST(RunCache, BoundedWithLruEviction)
{
    setQuiet(true);
    auto &cache = sim::RunCache::instance();
    cache.clear();
    auto start = cache.stats();
    size_t saved_capacity = cache.capacity();
    cache.setCapacity(2);

    auto prog = sim::compile("int main() { print(7); return 0; }");
    auto cfg = pipeline::MachineConfig::proposed();

    // Three distinct keys via distinct instruction caps.
    cache.run(prog, cfg, 1'000'000); // A
    cache.run(prog, cfg, 2'000'000); // B
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(since(start).evictions, 0u);

    // Touch A so B is the LRU victim.
    cache.run(prog, cfg, 1'000'000);
    cache.run(prog, cfg, 3'000'000); // C evicts B
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(since(start).evictions, 1u);

    // A stayed resident (hit); B was evicted (miss again).
    auto before = cache.stats();
    cache.run(prog, cfg, 1'000'000);
    EXPECT_EQ(cache.stats().hits, before.hits + 1);
    cache.run(prog, cfg, 2'000'000);
    EXPECT_EQ(cache.stats().misses, before.misses + 1);

    cache.setCapacity(saved_capacity);
    cache.clear();
}

TEST(RunCache, ShrinkingCapacityEvictsDown)
{
    setQuiet(true);
    auto &cache = sim::RunCache::instance();
    cache.clear();
    auto start = cache.stats();
    size_t saved_capacity = cache.capacity();

    auto prog = sim::compile("int main() { print(9); return 0; }");
    auto cfg = pipeline::MachineConfig::baseline();
    for (uint64_t cap = 1; cap <= 4; ++cap)
        cache.run(prog, cfg, cap * 1'000'000);
    EXPECT_EQ(cache.size(), 4u);

    cache.setCapacity(1);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(since(start).evictions, 3u);

    // The survivor is the most recently used key.
    auto before = cache.stats();
    cache.run(prog, cfg, 4'000'000);
    EXPECT_EQ(cache.stats().hits, before.hits + 1);

    cache.setCapacity(saved_capacity);
    cache.clear();
}

TEST(RunCache, ReportEntriesCacheTelemetryToo)
{
    setQuiet(true);
    auto &cache = sim::RunCache::instance();
    cache.clear();
    auto start = cache.stats();

    auto prog = sim::compile(R"(
        int arr[32];
        int main() {
            int t = 0;
            for (int i = 0; i < 32; i++) { arr[i] = i; t += arr[i]; }
            print(t);
            return 0;
        }
    )");
    auto cfg = pipeline::MachineConfig::proposed();

    auto r1 = cache.runReport(prog, cfg, 1'000'000);
    // Telemetry-observed entries use a distinct key from plain runs,
    // so the bench hot path never pays for observers.
    EXPECT_EQ(since(start).misses, 1u);
    auto r2 = cache.runReport(prog, cfg, 1'000'000);
    EXPECT_EQ(since(start).hits, 1u);
    EXPECT_EQ(r1.timed.pipe.cycles, r2.timed.pipe.cycles);
    EXPECT_EQ(r1.telemetry.loads().size(),
              r2.telemetry.loads().size());
    EXPECT_FALSE(r1.telemetry.loads().empty());

    cache.run(prog, cfg, 1'000'000);
    EXPECT_EQ(since(start).misses, 2u);
    cache.clear();
}

TEST(RunCache, ProgramContentChangesKey)
{
    setQuiet(true);
    auto &cache = sim::RunCache::instance();
    cache.clear();
    auto start = cache.stats();
    auto prog1 = sim::compile("int main() { print(1); return 0; }");
    auto prog2 = sim::compile("int main() { print(2); return 0; }");
    auto cfg = pipeline::MachineConfig::baseline();
    auto r1 = cache.run(prog1, cfg, 1'000'000);
    auto r2 = cache.run(prog2, cfg, 1'000'000);
    EXPECT_EQ(since(start).misses, 2u);
    ASSERT_EQ(r1.emulation.output.size(), 1u);
    ASSERT_EQ(r2.emulation.output.size(), 1u);
    EXPECT_EQ(r1.emulation.output[0], 1);
    EXPECT_EQ(r2.emulation.output[0], 2);
    cache.clear();
}
