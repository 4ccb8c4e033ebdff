#include "sim/run_cache.hh"

#include <chrono>

#include "obs/metrics.hh"
#include "sim/decoded.hh"
#include "support/hash.hh"
#include "support/logging.hh"

namespace elag {
namespace sim {

namespace {

/** The cache's counts; RunCache::stats() reads them from here. */
struct CacheCounters
{
    obs::Counter &hits;
    obs::Counter &misses;
    obs::Counter &bypasses;
    obs::Counter &evictions;

    static CacheCounters &
    instance()
    {
        static CacheCounters counters = [] {
            obs::Registry &r = obs::Registry::process();
            return CacheCounters{
                r.counter("elag_runcache_hits_total",
                          "Run-cache lookups served from a completed "
                          "or in-flight entry."),
                r.counter("elag_runcache_misses_total",
                          "Run-cache lookups that had to simulate."),
                r.counter("elag_runcache_bypasses_total",
                          "Uncacheable runs (fault injector attached) "
                          "forwarded around the cache."),
                r.counter("elag_runcache_evictions_total",
                          "Completed entries dropped past capacity."),
            };
        }();
        return counters;
    }
};

void
mixCacheConfig(Fnv1a &h, const mem::CacheConfig &cfg)
{
    h.mix(cfg.sizeBytes);
    h.mix(cfg.blockSize);
    h.mix(cfg.assoc);
    h.mix(cfg.missPenalty);
    h.mix(cfg.writeAllocate ? 1 : 0);
}

} // anonymous namespace

uint64_t
hashProgram(const isa::MachineProgram &program)
{
    Fnv1a h(Fnv1a::kContentBasis);
    h.mix(program.code.size());
    for (const isa::Instruction &inst : program.code) {
        h.mix(static_cast<uint64_t>(inst.op));
        h.mix(inst.rd);
        h.mix(inst.rs1);
        h.mix(inst.rs2);
        h.mix(static_cast<uint64_t>(static_cast<uint32_t>(inst.imm)));
        h.mix(static_cast<uint64_t>(inst.spec));
        h.mix(static_cast<uint64_t>(inst.mode));
        h.mix(static_cast<uint64_t>(inst.width));
    }
    h.mix(program.entry);
    h.mix(program.globalSize);
    h.mix(program.globalInit.size());
    h.mixBytes(program.globalInit.data(), program.globalInit.size());
    return h.value();
}

uint64_t
hashConfig(const pipeline::MachineConfig &config)
{
    Fnv1a h(Fnv1a::kContentBasis);
    // Keys name on-disk records and checkpoints, so each fixed part
    // of the machine keeps the place its field had in the hash; the
    // normal-load latency is fixed at 2 cycles.
    h.mix(config.issueWidth);
    h.mix(pipeline::kIntAlus);
    h.mix(config.memPorts);
    h.mix(pipeline::kFpAlus);
    h.mix(pipeline::kBranchUnits);
    h.mix(pipeline::kAluLatency);
    h.mix(pipeline::kMulLatency);
    h.mix(pipeline::kDivLatency);
    h.mix(pipeline::kFpLatency);
    h.mix(2);
    mixCacheConfig(h, pipeline::kICache);
    mixCacheConfig(h, config.dcache);
    h.mix(pipeline::kBtbEntries);
    h.mix(config.addressTableEnabled ? 1 : 0);
    h.mix(config.addressTableEntries);
    h.mix(config.tablePredictsWhileLearning ? 1 : 0);
    h.mix(config.earlyCalcEnabled ? 1 : 0);
    h.mix(config.registerCacheSize);
    h.mix(static_cast<uint64_t>(config.selection));
    return h.value();
}

RunCache &
RunCache::instance()
{
    static RunCache cache;
    return cache;
}

/** Cache key for one run request. */
static uint64_t
runKey(const CompiledProgram &prog,
       const pipeline::MachineConfig &machine,
       uint64_t max_instructions, bool with_telemetry)
{
    Fnv1a h(Fnv1a::kContentBasis);
    h.mix(hashProgram(prog.code.program));
    h.mix(hashConfig(machine));
    h.mix(max_instructions);
    h.mix(with_telemetry ? 1 : 0);
    return h.value();
}

TimedResult
RunCache::run(const CompiledProgram &prog,
              const pipeline::MachineConfig &machine,
              uint64_t max_instructions, const Watchdog &watchdog)
{
    if (machine.faultInjector) {
        CacheCounters::instance().bypasses.inc();
        return runTimed(prog, machine, max_instructions, {}, watchdog);
    }
    return lookup(
               runKey(prog, machine, max_instructions, false),
               [&] {
                   Report report;
                   report.timed = runTimed(prog, machine,
                                           max_instructions, {},
                                           watchdog);
                   return report;
               },
               watchdog)
        .timed;
}

RunCache::Report
RunCache::runReport(const CompiledProgram &prog,
                    const pipeline::MachineConfig &machine,
                    uint64_t max_instructions, const Watchdog &watchdog)
{
    if (machine.faultInjector) {
        CacheCounters::instance().bypasses.inc();
        Report report;
        report.timed = runTimed(prog, machine, max_instructions,
                                {&report.telemetry}, watchdog);
        return report;
    }
    return lookup(
        runKey(prog, machine, max_instructions, true),
        [&] {
            Report report;
            report.timed = runTimed(prog, machine, max_instructions,
                                    {&report.telemetry}, watchdog);
            return report;
        },
        watchdog);
}

RunCache::Report
RunCache::lookup(uint64_t key,
                 const std::function<Report()> &simulate,
                 const Watchdog &watchdog)
{
    std::shared_future<Report> future;
    std::promise<Report> promise;
    bool owner = false;
    uint64_t gen = 0;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = entries.find(key);
        if (it != entries.end()) {
            CacheCounters::instance().hits.inc();
            future = it->second.future;
            // Refresh recency.
            lru.splice(lru.begin(), lru, it->second.lruPos);
        } else {
            CacheCounters::instance().misses.inc();
            owner = true;
            gen = ++genCounter;
            future = promise.get_future().share();
            lru.push_front(key);
            entries.emplace(key, Entry{future, lru.begin(), gen});
            evictLocked();
        }
    }

    if (owner) {
        try {
            promise.set_value(simulate());
        } catch (...) {
            // Do not cache failures (e.g. watchdog timeouts): drop
            // the entry so a retry re-simulates, and wake waiters
            // with the same exception. The generation check keeps us
            // from erasing a newer entry that reused the key after
            // this one was evicted mid-run.
            {
                std::lock_guard<std::mutex> lock(mu);
                auto it = entries.find(key);
                if (it != entries.end() && it->second.gen == gen) {
                    lru.erase(it->second.lruPos);
                    entries.erase(it);
                }
            }
            promise.set_exception(std::current_exception());
        }
        return future.get();
    }

    // A waiter with a wall-clock deadline must not block forever on
    // another thread's simulation (it enforces its own watchdog, not
    // ours).
    if (watchdog.maxWallMs) {
        if (future.wait_for(std::chrono::milliseconds(
                watchdog.maxWallMs)) == std::future_status::timeout) {
            throw SimTimeoutError(
                SimTimeoutError::Kind::WallClock, watchdog.maxWallMs,
                formatString("watchdog: waited more than %llu ms for "
                             "a shared in-flight simulation",
                             static_cast<unsigned long long>(
                                 watchdog.maxWallMs)));
        }
    }
    return future.get();
}

void
RunCache::evictLocked()
{
    if (entries.size() <= capacity_)
        return;
    // Walk from the cold end, skipping in-flight entries: dropping
    // those would duplicate running work and orphan their waiters'
    // dedup guarantee. The map can therefore transiently exceed the
    // capacity by at most the number of concurrent misses.
    auto pos = lru.end();
    while (entries.size() > capacity_ && pos != lru.begin()) {
        --pos;
        auto it = entries.find(*pos);
        if (it->second.future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
            continue;
        }
        entries.erase(it);
        pos = lru.erase(pos);
        CacheCounters::instance().evictions.inc();
    }
}

RunCache::Stats
RunCache::stats() const
{
    const CacheCounters &c = CacheCounters::instance();
    return {c.hits.value(), c.misses.value(), c.bypasses.value(),
            c.evictions.value()};
}

size_t
RunCache::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return entries.size();
}

size_t
RunCache::capacity() const
{
    std::lock_guard<std::mutex> lock(mu);
    return capacity_;
}

void
RunCache::setCapacity(size_t cap)
{
    elag_assert(cap >= 1);
    std::lock_guard<std::mutex> lock(mu);
    capacity_ = cap;
    evictLocked();
}

void
RunCache::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    entries.clear();
    lru.clear();
}

} // namespace sim
} // namespace elag
