/**
 * @file
 * In-process memoization of timed simulation runs.
 *
 * Several benches re-simulate the same (program, machine
 * configuration) pair — every speedup column re-runs the baseline
 * machine, and sweeps share endpoints — and the serving daemon
 * (tools/elagd) re-simulates whatever workloads its clients repeat.
 * A run is a pure function of the compiled machine code, the machine
 * configuration, and the instruction cap, so results are cached
 * under a content hash of exactly those inputs. Entries hold
 * shared_futures so that when two worker threads miss on the same
 * key concurrently, one simulates and the other blocks for the
 * result instead of duplicating work.
 *
 * The cache is bounded: entries are kept on an LRU list and evicted
 * past a configurable capacity, so a long-running daemon serving an
 * open-ended request stream cannot grow it without limit. Eviction
 * only considers completed entries — an in-flight simulation is
 * never dropped from under its waiters, so the map may transiently
 * exceed the capacity by the number of concurrent misses.
 *
 * Runs with a fault injector attached are never cached: faults draw
 * from the injector's own PRNG stream, so such runs are not pure in
 * the inputs the key covers.
 */

#ifndef ELAG_SIM_RUN_CACHE_HH
#define ELAG_SIM_RUN_CACHE_HH

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <mutex>
#include <unordered_map>

#include "pipeline/telemetry.hh"
#include "sim/simulator.hh"

namespace elag {
namespace sim {

/** Content hash of a machine configuration. */
uint64_t hashConfig(const pipeline::MachineConfig &config);

/** Process-wide timed-run memoization. Thread-safe. */
class RunCache
{
  public:
    static constexpr size_t kDefaultCapacity = 1024;

    static RunCache &instance();

    /**
     * A cached run: the timed result plus the per-PC load telemetry
     * collected during it. Entries created through run() carry empty
     * telemetry (the observer costs time on the bench hot path, so
     * plain runs skip it and key separately).
     */
    struct Report
    {
        TimedResult timed;
        pipeline::LoadTelemetry telemetry;
    };

    /**
     * Like sim::runTimed(prog, machine, max_instructions), but
     * served from the cache when an identical run has already been
     * simulated. Uncacheable runs (fault injector attached) are
     * forwarded to runTimed directly.
     *
     * A watchdog with maxWallMs set also bounds the time spent
     * waiting on another thread's in-flight simulation of the same
     * key, throwing SimTimeoutError on expiry; failed runs are never
     * cached.
     */
    TimedResult run(const CompiledProgram &prog,
                    const pipeline::MachineConfig &machine,
                    uint64_t max_instructions,
                    const Watchdog &watchdog = {});

    /**
     * Like run(), but the simulation executes with a LoadTelemetry
     * observer attached and the telemetry is cached alongside the
     * timed result. Keyed separately from plain run() entries so the
     * bench path never pays for observation it does not use.
     */
    Report runReport(const CompiledProgram &prog,
                     const pipeline::MachineConfig &machine,
                     uint64_t max_instructions,
                     const Watchdog &watchdog = {});

    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t bypasses = 0;
        uint64_t evictions = 0;
    };

    /**
     * The process-wide `elag_runcache_*` counters, which are where
     * these counts live; clear() does not reset them.
     */
    Stats stats() const;

    /** Completed + in-flight entries currently held. */
    size_t size() const;

    size_t capacity() const;

    /**
     * Set the entry cap (>= 1); evicts least-recently-used completed
     * entries immediately if the cache is over the new capacity.
     */
    void setCapacity(size_t cap);

    /** Drop all entries; the counts stay (tests). */
    void clear();

  private:
    RunCache() = default;

    struct Entry
    {
        std::shared_future<Report> future;
        std::list<uint64_t>::iterator lruPos;
        /** Insertion generation, so a failed owner never erases a
         *  newer entry that reused its key after eviction. */
        uint64_t gen = 0;
    };

    /**
     * Cache-or-simulate for one key. @p simulate runs the simulation
     * when this thread owns the miss.
     */
    Report lookup(uint64_t key,
                  const std::function<Report()> &simulate,
                  const Watchdog &watchdog);

    /** Evict completed LRU entries beyond capacity. Lock held. */
    void evictLocked();

    mutable std::mutex mu;
    std::unordered_map<uint64_t, Entry> entries;
    /** Keys, most recently used first. */
    std::list<uint64_t> lru;
    size_t capacity_ = kDefaultCapacity;
    uint64_t genCounter = 0;
};

} // namespace sim
} // namespace elag

#endif // ELAG_SIM_RUN_CACHE_HH
