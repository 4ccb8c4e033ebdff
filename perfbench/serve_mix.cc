/**
 * @file
 * serve_mix: the built elagd as a child process (--jobs=2, a fresh
 * --cache-dir per daemon), driven by a closed loop of two connections
 * from this process; each client waits for a reply before sending
 * again. Requests are `simulate` calls over a seeded set of small
 * scenarios crossed with four selection policies. Four in five repeat
 * a request answered during set-up (warm: transport plus a durable
 * tier read); the rest are first-seen (cold: compile, baseline run or
 * RunCache reuse, configured run, render, append).
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "cache/persistent_store.hh"
#include "serve/client.hh"
#include "serve/router.hh"
#include "serve/routing.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "workloads.hh"
#include "workloads/synthetic/generator.hh"

extern char **environ;

namespace perfbench {

using namespace elag;
namespace syn = elag::workloads::synthetic;

namespace {

const char *const kSelections[] = {"compiler", "all-predict",
                                   "all-early", "ev"};
constexpr size_t kNumSelections = 4;
constexpr uint32_t kClients = 2;
/** Scenarios whose four selections make up the warm set. */
constexpr size_t kWarmScenarios = 8;
/** Scenarios available for first-seen requests. */
constexpr size_t kColdScenarios = 2000;
constexpr double kWarmShare = 0.8;
/** Requests the traced run replays in-process through the Router. */
constexpr size_t kReplayRequests = 400;

/** One distinct request: a scenario under one selection. */
struct Item
{
    size_t scenario;
    serve::Request request;
};

struct Pool
{
    std::vector<syn::GeneratedScenario> scenarios;
    /** Warm items first (kWarmScenarios x 4), then the cold pool. */
    std::vector<Item> items;
    size_t warmCount = 0;
};

/** Small scenarios: every family, short runs, small working sets. */
Pool
makePool(uint64_t seed, Tracer &tracer)
{
    Pool pool;
    SplitMix rng{seed ^ 0x73657276654d6978ULL};
    const auto &families = syn::kernelFamilies();
    for (size_t i = 0; i < kWarmScenarios + kColdScenarios; ++i) {
        syn::ScenarioSpec spec = syn::sampleSpec(
            families[i % families.size()].family, 1 + rng.below(1u << 30));
        spec.hotLoads = std::min<uint32_t>(spec.hotLoads, 24);
        spec.workingSet = 1024;
        spec.iterations = 1;
        Tracer::Scope s(tracer, "workloads.generate");
        pool.scenarios.push_back(syn::generateScenario(spec));
    }
    for (size_t s = 0; s < pool.scenarios.size(); ++s) {
        for (const char *selection : kSelections) {
            Item item;
            item.scenario = s;
            item.request.verb = "simulate";
            item.request.file = pool.scenarios[s].name + ".c";
            item.request.machine = "proposed";
            item.request.selection = selection;
            item.request.source = pool.scenarios[s].source;
            pool.items.push_back(std::move(item));
        }
    }
    pool.warmCount = kWarmScenarios * kNumSelections;
    return pool;
}

/** elagd as a child process; stopped (and reaped) on destruction. */
class Daemon
{
  public:
    Daemon(const Options &opt, int index)
    {
        socket_ = opt.workDir + "/d" + std::to_string(index) + ".sock";
        std::string cacheDir =
            opt.workDir + "/cache" + std::to_string(index);
        std::string log = opt.workDir + "/elagd" + std::to_string(index) +
                          ".log";
        std::vector<std::string> args = {
            opt.elagd, "--socket=" + socket_, "--jobs=2",
            "--cache-dir=" + cacheDir, "--quiet"};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                         log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC,
                                         0644);
        posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                         STDERR_FILENO);
        int rc = posix_spawn(&pid_, opt.elagd.c_str(), &actions, nullptr,
                             argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0)
            throw std::runtime_error("cannot start " + opt.elagd);
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &socket() const { return socket_; }

    /** Poll `health` until the daemon answers. */
    void
    waitHealthy()
    {
        auto deadline = Clock::now() + std::chrono::seconds(20);
        serve::Request health;
        health.verb = "health";
        while (true) {
            try {
                serve::Client client = serve::Client::connectTo(socket_);
                if (client.call(health).ok)
                    return;
            } catch (const FatalError &) {
            }
            if (Clock::now() > deadline)
                throw std::runtime_error("elagd did not come up");
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }

    /** SIGTERM (graceful drain), reap; @return peak RSS in MB. */
    double
    stop()
    {
        if (pid_ <= 0)
            return peakMb_;
        kill(pid_, SIGTERM);
        struct rusage ru = {};
        int status = 0;
        auto deadline = Clock::now() + std::chrono::seconds(20);
        while (wait4(pid_, &status, WNOHANG, &ru) == 0) {
            if (Clock::now() > deadline) {
                kill(pid_, SIGKILL);
                wait4(pid_, &status, 0, &ru);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        pid_ = -1;
        peakMb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
        return peakMb_;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
    double peakMb_ = 0;
};

/** One answered (or failed) request of the closed loop. */
struct Record
{
    size_t item;
    bool warm;
    bool ok;
    double rttMs;
    std::string doc;
};

struct LoopResult
{
    std::vector<Record> records;
    double wallS = 0;
    uint64_t attempted = 0, failed = 0;
};

/**
 * The closed loop: kClients threads, each with its own connection,
 * each sending its next request only after the previous reply.
 * Cold requests take the next unused pool item; the set-up fill
 * sends every warm item once.
 */
LoopResult
closedLoop(const Pool &pool, const std::string &socket, uint64_t seed,
           double budget_s, bool fill, std::vector<Tracer> &tracers)
{
    std::atomic<size_t> nextCold{pool.warmCount};
    std::atomic<size_t> nextFill{0};
    std::atomic<bool> exhausted{false};
    std::vector<LoopResult> perClient(kClients);
    auto start = Clock::now();
    auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(budget_s));
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            LoopResult &out = perClient[c];
            Tracer &tracer = tracers[c];
            SplitMix rng{seed * 31 + c};
            serve::ReconnectingClient client(socket, 0);
            uint64_t id = 0;
            while (true) {
                size_t item;
                bool warm = true;
                if (fill) {
                    item = nextFill.fetch_add(1);
                    if (item >= pool.warmCount)
                        break;
                } else {
                    if (Clock::now() >= deadline)
                        break;
                    warm = rng.unit() < kWarmShare;
                    item = warm ? rng.below(pool.warmCount)
                                : nextCold.fetch_add(1);
                    if (item >= pool.items.size()) {
                        exhausted = true;
                        break;
                    }
                }
                serve::Request request = pool.items[item].request;
                request.id = ++id;
                Record rec{item, warm, false, 0, {}};
                ++out.attempted;
                auto t0 = Clock::now();
                try {
                    Tracer::Scope s(tracer, warm ? "serve.request.warm"
                                                 : "serve.request.cold");
                    serve::Response response = client.call(request);
                    rec.ok = response.ok;
                    rec.doc = std::move(response.result);
                } catch (const FatalError &) {
                }
                rec.rttMs = msBetween(t0, Clock::now());
                if (!rec.ok)
                    ++out.failed;
                out.records.push_back(std::move(rec));
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    if (exhausted)
        throw std::runtime_error("serve_mix: cold request pool exhausted");
    LoopResult all;
    all.wallS = secondsBetween(start, Clock::now());
    for (LoopResult &r : perClient) {
        all.attempted += r.attempted;
        all.failed += r.failed;
        for (Record &rec : r.records)
            all.records.push_back(std::move(rec));
    }
    return all;
}

/** Counters from the daemon's `stats` verb. */
struct DaemonStats
{
    uint64_t rejected = 0;
    uint64_t runCacheHits = 0, runCacheLookups = 0;
    uint64_t persistHits = 0, persistLookups = 0;
};

DaemonStats
queryStats(const std::string &socket)
{
    serve::Request request;
    request.verb = "stats";
    serve::Response response =
        serve::Client::connectTo(socket).call(request);
    std::string queue, runCache, persist;
    if (!response.ok || !jsonExtractRaw(response.result, "queue", queue) ||
        !jsonExtractRaw(response.result, "run_cache", runCache) ||
        !jsonExtractRaw(response.result, "persist", persist))
        throw std::runtime_error("malformed stats response");
    DaemonStats s;
    uint64_t a = 0, b = 0;
    jsonExtractUint(queue, "rejected_overload", a);
    jsonExtractUint(queue, "rejected_draining", b);
    s.rejected = a + b;
    jsonExtractUint(runCache, "hits", s.runCacheHits);
    jsonExtractUint(runCache, "misses", a);
    s.runCacheLookups = s.runCacheHits + a;
    jsonExtractUint(persist, "hits", s.persistHits);
    jsonExtractUint(persist, "misses", a);
    s.persistLookups = s.persistHits + a;
    return s;
}

/** One daemon's life: start, set-up fill, timed loop, stats, stop. */
struct DaemonRun
{
    double setupS = 0;
    LoopResult fill;
    LoopResult loop;
    DaemonStats stats;
    double peakRssMb = 0;
};

DaemonRun
runDaemon(const Options &opt, const Pool &pool, int index, bool timed,
           std::vector<Tracer> &tracers)
{
    DaemonRun out;
    auto t0 = Clock::now();
    Daemon daemon(opt, index);
    daemon.waitHealthy();
    std::vector<Tracer> off(kClients, Tracer(false));
    out.fill = closedLoop(pool, daemon.socket(), opt.seed, 0, true, off);
    out.setupS = secondsBetween(t0, Clock::now());
    if (timed) {
        out.loop = closedLoop(pool, daemon.socket(), opt.seed,
                                  opt.seconds, false, tracers);
        out.stats = queryStats(daemon.socket());
    }
    out.peakRssMb = daemon.stop();
    return out;
}

/** In-process expected documents of one scenario's selections. */
struct Expected
{
    /** Document per selection (empty when not needed). */
    std::string docs[kNumSelections];
    /** statsReportJson time per rendered selection, ms; -1 if none. */
    double renderMs[kNumSelections] = {-1, -1, -1, -1};
};

/**
 * Build the expected `simulate` document of every needed item the way
 * elagc --json-stats does, one scenario per task.
 */
std::vector<Expected>
buildOracle(const Pool &pool, const std::vector<bool> &needed)
{
    std::vector<size_t> scenarios(pool.scenarios.size());
    for (size_t s = 0; s < scenarios.size(); ++s)
        scenarios[s] = s;
    parallel::ThreadPool threads(kOracleThreads);
    return parallel::parallelMap(threads, scenarios, [&](size_t s) {
        Expected out;
        size_t first = s * kNumSelections;
        if (std::none_of(needed.begin() + first,
                         needed.begin() + first + kNumSelections,
                         [](bool b) { return b; }))
            return out;
        sim::CompiledProgram prog = sim::compile(pool.scenarios[s].source);
        sim::TimedResult base = sim::runTimed(
            prog, pipeline::MachineConfig::baseline(), kMaxInst);
        for (size_t k = 0; k < kNumSelections; ++k) {
            if (!needed[first + k])
                continue;
            const serve::Request &req = pool.items[first + k].request;
            pipeline::LoadTelemetry telemetry;
            sim::TimedResult timed =
                sim::runTimed(prog, serve::Router::machineFor(req),
                              req.maxInst, {&telemetry});
            auto t0 = Clock::now();
            out.docs[k] =
                sim::statsReportJson(req.file, req.machine, req.selection,
                                     prog, base, timed, telemetry);
            out.renderMs[k] = msBetween(t0, Clock::now());
        }
        return out;
    });
}

/**
 * Compare every served document with the in-process one.
 * @return statsReportJson time of each cold item rendered, ms.
 */
std::vector<double>
checkDocs(const Options &opt, const Pool &pool,
          std::vector<const LoopResult *> loops, Result &result)
{
    std::vector<bool> needed(pool.items.size(), false);
    for (size_t i = 0; i < pool.warmCount; ++i)
        needed[i] = true;
    for (const LoopResult *loop : loops) {
        for (const Record &rec : loop->records)
            needed[rec.item] = true;
    }
    std::vector<Expected> oracle = buildOracle(pool, needed);
    auto expected = [&](size_t item) -> const std::string & {
        return oracle[item / kNumSelections].docs[item % kNumSelections];
    };
    bool corrupt = opt.corrupt == "served";
    for (const LoopResult *loop : loops) {
        for (const Record &rec : loop->records) {
            if (!rec.ok)
                continue;
            bool same = rec.doc == expected(rec.item);
            if (corrupt && !rec.doc.empty()) {
                std::string flipped = rec.doc;
                flipped[flipped.size() / 2] ^= 0x01;
                same = flipped == expected(rec.item);
                corrupt = false;
            }
            if (!same) {
                const serve::Request &req = pool.items[rec.item].request;
                result.mismatch(req.file + " " + req.selection +
                                ": served document differs from the "
                                "in-process statsReportJson document");
            }
        }
    }
    Digest digest;
    for (size_t i = 0; i < pool.warmCount; ++i)
        digest.add(expected(i));
    result.digest = digest.hex();
    std::vector<double> renderMs;
    for (size_t s = kWarmScenarios; s < oracle.size(); ++s) {
        for (double ms : oracle[s].renderMs) {
            if (ms >= 0)
                renderMs.push_back(ms);
        }
    }
    return renderMs;
}

/** Round-trip times of the answered requests, ms. */
struct Latency
{
    std::vector<double> all, warm, cold;
};

Latency
latencies(const LoopResult &loop)
{
    Latency l;
    for (const Record &rec : loop.records) {
        if (!rec.ok)
            continue;
        l.all.push_back(rec.rttMs);
        (rec.warm ? l.warm : l.cold).push_back(rec.rttMs);
    }
    return l;
}

/**
 * The traced run's in-process layers: the same request stream through
 * serve::Router::execute over a fresh PersistentStore, and the store's
 * own open, lookup and append timed on a second fresh directory.
 */
void
replayInProcess(const Options &opt, const Pool &pool,
                const LoopResult &loop, std::map<std::string, double> &m)
{
    std::vector<double> openMs;
    for (int i = 0; i < 3; ++i) {
        cache::PersistentStoreConfig pc;
        pc.dir = opt.workDir + "/open" + std::to_string(i);
        auto t0 = Clock::now();
        cache::PersistentStore store(pc);
        openMs.push_back(msBetween(t0, Clock::now()));
    }
    m["cache.open_ms"] = median(openMs);

    cache::PersistentStoreConfig pc;
    pc.dir = opt.workDir + "/replay";
    cache::PersistentStore routerStore(pc);
    serve::RouterConfig rc;
    rc.persist = &routerStore;
    serve::Router router(rc);
    for (size_t i = 0; i < pool.warmCount; ++i)
        router.execute(pool.items[i].request);

    std::vector<double> warmMs, coldMs;
    double rttSum = 0, execSum = 0;
    size_t n = std::min(loop.records.size(), kReplayRequests);
    for (size_t i = 0; i < n; ++i) {
        const Record &rec = loop.records[i];
        auto t0 = Clock::now();
        router.execute(pool.items[rec.item].request);
        double ms = msBetween(t0, Clock::now());
        (rec.warm ? warmMs : coldMs).push_back(ms);
        rttSum += rec.rttMs;
        execSum += ms;
    }
    m["serve.execute_ms.warm"] = median(warmMs);
    m["serve.execute_ms.cold"] = median(coldMs);
    m["serve.transport_ms"] = n ? (rttSum - execSum) / n : 0;

    pc.dir = opt.workDir + "/tier";
    cache::PersistentStore store(pc);
    double appendUs = 0, lookupUs = 0;
    size_t appends = 0, lookups = 0;
    for (size_t i = 0; i < n; ++i) {
        const Record &rec = loop.records[i];
        if (!rec.ok)
            continue;
        uint64_t key = serve::persistKey(pool.items[rec.item].request);
        std::string doc;
        auto t0 = Clock::now();
        bool hit = store.lookup(key, doc);
        auto t1 = Clock::now();
        if (hit) {
            lookupUs += msBetween(t0, t1) * 1e3;
            ++lookups;
            continue;
        }
        store.append(key, rec.doc);
        appendUs += msBetween(t1, Clock::now()) * 1e3;
        ++appends;
    }
    m["cache.append_us"] = appends ? appendUs / appends : 0;
    m["cache.lookup_us"] = lookups ? lookupUs / lookups : 0;
}

} // anonymous namespace

Result
runServeMix(const Options &opt)
{
    if (mkdir(opt.workDir.c_str(), 0755) != 0 && errno != EEXIST)
        throw std::runtime_error("cannot create " + opt.workDir);
    Result result;
    Tracer generateTracer(opt.trace);
    Pool pool = makePool(opt.seed, generateTracer);

    // The last set-up's daemon serves the timed region; in a traced
    // run its two clients record a span per request.
    std::vector<Tracer> tracers(kClients, Tracer(opt.trace));
    std::vector<double> setupS;
    DaemonRun served;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        bool last = rep == kSetupReps - 1;
        served = runDaemon(opt, pool, rep, last, tracers);
        setupS.push_back(served.setupS);
    }
    result.attempted = served.fill.attempted + served.loop.attempted;
    result.failed = served.fill.failed + served.loop.failed;
    std::vector<double> renderMs =
        checkDocs(opt, pool, {&served.fill, &served.loop}, result);

    const LoopResult &loop = served.loop;
    Latency lat = latencies(loop);
    double reqPerS = loop.wallS > 0 ? lat.all.size() / loop.wallS : 0;
    double failRatio = result.attempted
                           ? double(result.failed) / result.attempted
                           : 0;
    result.note("setup_s", median(setupS), "s");
    result.note("fail_ratio", failRatio, "ratio");
    result.note("peak_rss_mb", served.peakRssMb, "MB");
    result.note("req_per_s", reqPerS, "1/s");
    result.note("hit_ms_p50", median(lat.warm), "ms");
    result.note("miss_ms_p50", median(lat.cold), "ms");
    result.note("requests", loop.records.size(), "count");
    result.note("cold_requests", lat.cold.size(), "count");

    if (!opt.trace) {
        result.add("setup_s", median(setupS), "s");
        result.add("peak_rss_mb", served.peakRssMb, "MB");
        result.add("ops_per_s", reqPerS, "1/s");
        // Warm and cold are the two kinds of input: each enters at
        // its median, as sim_sweep's programs and compile_corpus's
        // sources do.
        result.add("op_ms_geomean",
                   geomean({median(lat.warm), median(lat.cold)}), "ms");
        return result;
    }

    std::map<std::string, double> m;
    SpanSummary spans;
    for (const Tracer &t : tracers)
        spans.add(t);
    SpanSummary gen;
    gen.add(generateTracer);
    m["workloads.generate_ms"] = gen.self("workloads.generate");
    m["req_per_s"] = reqPerS;
    m["hit_ms_p50"] = median(lat.warm);
    m["miss_ms_p50"] = median(lat.cold);
    m["serve.rtt_ms.warm"] = median(spans.durations("serve.request.warm"));
    m["serve.rtt_ms.cold"] = median(spans.durations("serve.request.cold"));
    m["serve.hit_ms_p99"] = quantile(lat.warm, 0.99);
    m["serve.hit_ms_p99_samples"] = lat.warm.size();
    m["serve.miss_ms_p90"] = quantile(lat.cold, 0.9);
    m["serve.miss_ms_p90_samples"] = lat.cold.size();
    m["serve.rejected"] = served.stats.rejected;
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    m["cache.persist_hit_ratio"] = ratio(served.stats.persistHits,
                                         served.stats.persistLookups);
    m["cache.persist_lookups"] = served.stats.persistLookups;
    m["sim.run_cache_hit_ratio"] = ratio(served.stats.runCacheHits,
                                         served.stats.runCacheLookups);
    m["sim.run_cache_lookups"] = served.stats.runCacheLookups;
    replayInProcess(opt, pool, loop, m);

    double renderSum = 0;
    for (double ms : renderMs)
        renderSum += ms;
    m["sim.render_ms"] = renderMs.empty() ? 0 : renderSum / renderMs.size();
    m["fail_ratio"] = failRatio;
    m["trace.spans"] = double(spans.spans + gen.spans);
    m["trace.overhead_ratio"] =
        tracerOverhead(spans.spans + gen.spans, loop.wallS);
    addLayerMetrics(result, m);
    std::vector<const Tracer *> allTracers = {&generateTracer};
    for (const Tracer &t : tracers)
        allTracers.push_back(&t);
    writeSpans(opt.traceOut, allTracers);
    return result;
}

} // namespace perfbench
