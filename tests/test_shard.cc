/**
 * @file
 * Supervision-tree tests: the pure restart/backoff/breaker and
 * routing arithmetic, the reconnecting client's failover behavior,
 * the persistent cache layered under a server, and the real elagd
 * binary in sharded mode — SIGKILLed workers never take down the
 * supervisor, requests keep completing byte-identical to direct
 * simulation, poison requests are quarantined, and a full daemon
 * restart serves previously computed results from the persistent
 * cache. The binary's front end is tested in both modes too: the
 * supervisor's stats shape, oversized frames and SIGTERM drain,
 * signals that arrive after a drain, and a failed start.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "cache/persistent_store.hh"
#include "pipeline/telemetry.hh"
#include "serve/client.hh"
#include "serve/framing.hh"
#include "serve/protocol.hh"
#include "serve/routing.hh"
#include "serve/server.hh"
#include "serve/shard.hh"
#include "serve/socket.hh"
#include "sim/run_cache.hh"
#include "sim/simulator.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "support/strings.hh"
#include "support/subprocess.hh"

using namespace elag;
using namespace elag::serve;

// ---------------------------------------------------------------
// RestartPolicy: pure backoff + circuit-breaker arithmetic.
// ---------------------------------------------------------------

TEST(RestartPolicy, BackoffDoublesPerStreakAndCaps)
{
    RestartPolicy policy; // base 50, cap 5000
    EXPECT_EQ(policy.delayMs(1), 50u);
    EXPECT_EQ(policy.delayMs(2), 100u);
    EXPECT_EQ(policy.delayMs(3), 200u);
    EXPECT_EQ(policy.delayMs(4), 400u);
    EXPECT_EQ(policy.delayMs(7), 3200u);
    EXPECT_EQ(policy.delayMs(8), 5000u);
    // Far past the cap: no overflow, still capped.
    EXPECT_EQ(policy.delayMs(100), 5000u);
}

TEST(RestartPolicy, BreakerTripsAtThreshold)
{
    RestartPolicy policy; // threshold 5
    EXPECT_FALSE(policy.breakerTrips(0));
    EXPECT_FALSE(policy.breakerTrips(4));
    EXPECT_TRUE(policy.breakerTrips(5));
    EXPECT_TRUE(policy.breakerTrips(6));
}

// ---------------------------------------------------------------
// Routing: content hashing, shard selection, failover order.
// ---------------------------------------------------------------

namespace {

Request
workRequest(const std::string &source)
{
    Request request;
    request.verb = "simulate";
    request.source = source;
    request.maxInst = 1'000'000;
    return request;
}

} // namespace

TEST(Routing, HashIsContentIdentity)
{
    Request a = workRequest("int main() { return 1; }");
    Request b = workRequest("int main() { return 1; }");
    Request c = workRequest("int main() { return 2; }");

    EXPECT_EQ(routingHash(a), routingHash(b));
    EXPECT_NE(routingHash(a), routingHash(c));

    // Affinity is by program text: connection-level noise like the
    // request id or deadline must not move a program between shards.
    b.id = 999;
    b.deadlineMs = 1234;
    b.verb = "compile";
    EXPECT_EQ(routingHash(a), routingHash(b));
}

TEST(Routing, ShardForStaysInRangeAndCoversFleet)
{
    std::vector<bool> seen(4, false);
    for (uint64_t i = 0; i < 256; ++i) {
        Request request =
            workRequest("int main() { return " +
                        std::to_string(i) + "; }");
        uint64_t hash = routingHash(request);
        uint32_t shard = shardFor(hash, 4);
        ASSERT_LT(shard, 4u);
        EXPECT_EQ(shard, shardFor(hash, 4)); // deterministic
        seen[shard] = true;
    }
    for (bool hit : seen)
        EXPECT_TRUE(hit) << "256 distinct programs must spread "
                            "across a 4-shard fleet";
}

TEST(Routing, FailoverOrderIsPermutationLedByPrimary)
{
    for (uint32_t shards : {1u, 2u, 3u, 8u}) {
        for (uint64_t hash : {0ull, 1ull, 0xdeadbeefull,
                              ~0ull}) {
            std::vector<uint32_t> order =
                failoverOrder(hash, shards);
            ASSERT_EQ(order.size(), shards);
            EXPECT_EQ(order[0], shardFor(hash, shards));
            std::vector<bool> seen(shards, false);
            for (uint32_t shard : order) {
                ASSERT_LT(shard, shards);
                EXPECT_FALSE(seen[shard]) << "duplicate shard";
                seen[shard] = true;
            }
        }
    }
}

TEST(Routing, PersistKeyCoversResultAffectingFieldsOnly)
{
    Request base = workRequest("int main() { return 0; }");
    base.file = "a.c";
    uint64_t key = persistKey(base);

    // Every field that changes the result document changes the key.
    auto changed = [&](std::function<void(Request &)> mutate) {
        Request request = base;
        mutate(request);
        return persistKey(request) != key;
    };
    EXPECT_TRUE(changed([](Request &r) { r.verb = "compile"; }));
    EXPECT_TRUE(changed([](Request &r) { r.source += " "; }));
    EXPECT_TRUE(changed([](Request &r) { r.file = "b.c"; }));
    EXPECT_TRUE(changed([](Request &r) { r.machine = "baseline"; }));
    EXPECT_TRUE(changed([](Request &r) { r.selection = "ev"; }));
    EXPECT_TRUE(changed([](Request &r) { r.table = 512; }));
    EXPECT_TRUE(changed([](Request &r) { r.regs = 4; }));
    EXPECT_TRUE(changed([](Request &r) { r.noOpt = true; }));
    EXPECT_TRUE(changed([](Request &r) { r.noClassify = true; }));
    EXPECT_TRUE(changed([](Request &r) { r.maxInst = 42; }));

    // Delivery details must not fragment the cache.
    EXPECT_FALSE(changed([](Request &r) { r.deadlineMs = 77; }));
    EXPECT_FALSE(changed([](Request &r) { r.id = 123; }));
    EXPECT_FALSE(changed([](Request &r) { r.trace = "cafe"; }));
}

TEST(Routing, HashesHaveKnownAnswers)
{
    // persistKey names on-disk cache records and routingHash picks a
    // request's shard: both must stay fixed across releases.
    Request request = workRequest("int main() { return 0; }");
    request.spec = "{\"family\":\"strided\"}";
    request.file = "kat.c";
    request.selection = "compiler";
    request.table = 512;
    request.regs = 4;
    request.noClassify = true;
    EXPECT_EQ(routingHash(request), 0xe05f49b370c674b2ull);
    EXPECT_EQ(persistKey(request), 0x90491b1fea3cff81ull);
}

// ---------------------------------------------------------------
// In-process: reconnecting client and persistent-cache layering.
// ---------------------------------------------------------------

namespace {

/** Fresh socket path per server so tests never collide. */
std::string
testSocketPath()
{
    static std::atomic<int> counter{0};
    return formatString("/tmp/elag-shard-test-%d-%d.sock",
                        static_cast<int>(::getpid()),
                        counter.fetch_add(1));
}

std::string
uniqueCacheDir(const std::string &stem)
{
    static int counter = 0;
    return testing::TempDir() + "elag-shardcache-" + stem + "-" +
           std::to_string(::getpid()) + "-" +
           std::to_string(counter++);
}

const char *kArrayProgram = R"(
    int arr[64];
    int main() {
        int t = 0;
        for (int i = 0; i < 64; i++) { arr[i] = i * 3; t += arr[i]; }
        print(t);
        return 0;
    }
)";

/** The simulate document computed without any server. */
std::string
directSimulation(const char *source, uint64_t max_inst = 1'000'000)
{
    auto prog = sim::compile(source);
    auto base = sim::runTimed(
        prog, pipeline::MachineConfig::baseline(), max_inst);
    pipeline::LoadTelemetry telemetry;
    auto timed =
        sim::runTimed(prog, pipeline::MachineConfig::proposed(),
                      max_inst, {&telemetry});
    return sim::statsReportJson("<request>", "proposed", "", prog,
                                base, timed, telemetry);
}

} // namespace

TEST(ReconnectingClient, SurvivesServerRestartOnSameSocket)
{
    setQuiet(true);
    std::string socket = testSocketPath();
    RetryConfig retry;
    retry.maxAttempts = 8;
    retry.baseDelayMs = 5;
    ReconnectingClient client(socket, 0, retry);

    Request health;
    health.verb = "health";

    parallel::ThreadPool pool(2);
    {
        ServerConfig config;
        config.socketPath = socket;
        config.pool = &pool;
        Server server(config);
        server.start();
        EXPECT_TRUE(client.call(health).ok);
        server.beginDrain();
        server.wait();
    }
    // The old connection is dead (the server EOF'd it on exit) and a
    // new server owns the socket: the next call must reconnect and
    // resend transparently.
    ServerConfig config;
    config.socketPath = socket;
    config.pool = &pool;
    Server server(config);
    server.start();
    EXPECT_TRUE(client.call(health).ok);
    EXPECT_GE(client.retries(), 1u);
    server.beginDrain();
    server.wait();
}

TEST(ReconnectingClient, GivesUpAfterMaxAttempts)
{
    setQuiet(true);
    RetryConfig retry;
    retry.maxAttempts = 2;
    retry.baseDelayMs = 1;
    ReconnectingClient client(testSocketPath(), 0, retry);
    Request health;
    health.verb = "health";
    EXPECT_THROW(client.call(health), FatalError);
    EXPECT_EQ(client.retries(), 1u);
}

TEST(CacheServe, PersistentStoreWarmsServerAcrossRestart)
{
    setQuiet(true);
    sim::RunCache::instance().clear();
    std::string dir = uniqueCacheDir("inproc");
    std::string expected = directSimulation(kArrayProgram);

    parallel::ThreadPool pool(2);
    std::string first;
    {
        cache::PersistentStoreConfig storeConfig;
        storeConfig.dir = dir;
        cache::PersistentStore store(storeConfig);

        ServerConfig config;
        config.socketPath = testSocketPath();
        config.pool = &pool;
        config.router.persist = &store;
        Server server(config);
        server.start();
        Client client = Client::connectTo(config.socketPath);
        Response response = client.call(workRequest(kArrayProgram));
        ASSERT_TRUE(response.ok) << response.errorMessage;
        first = response.result;
        EXPECT_EQ(first, expected);
        EXPECT_EQ(store.stats().appends, 1u);
        server.beginDrain();
        server.wait();
    }

    // A fresh process image: cold RunCache, cold store object — only
    // the segment files persist. The result must come back
    // byte-identical without re-simulation.
    sim::RunCache::instance().clear();
    cache::PersistentStoreConfig storeConfig;
    storeConfig.dir = dir;
    cache::PersistentStore store(storeConfig);
    EXPECT_EQ(store.stats().recovered, 1u);

    ServerConfig config;
    config.socketPath = testSocketPath();
    config.pool = &pool;
    config.router.persist = &store;
    Server server(config);
    server.start();
    Client client = Client::connectTo(config.socketPath);
    Response response = client.call(workRequest(kArrayProgram));
    ASSERT_TRUE(response.ok) << response.errorMessage;
    EXPECT_EQ(response.result, first);
    EXPECT_EQ(store.stats().hits, 1u);
    // Served from disk: the run cache was never consulted or filled.
    EXPECT_EQ(sim::RunCache::instance().size(), 0u);
    server.beginDrain();
    server.wait();
}

// ---------------------------------------------------------------
// The real binary: supervisor + crash-contained shard workers.
// ---------------------------------------------------------------

#ifdef ELAG_ELAGD_BIN

namespace {

/** A running elagd, SIGKILLed (whole group) if a test bails early. */
struct Daemon
{
    pid_t pid = -1;

    explicit Daemon(const std::vector<std::string> &argv)
    {
        std::string error;
        pid = spawnSubprocess(argv, SpawnLimits{}, error);
        EXPECT_GT(pid, 0) << error;
    }

    ~Daemon()
    {
        if (pid > 0) {
            killSpawnedGroup(pid, SIGKILL);
            waitSpawned(pid, 5000);
        }
    }

    /** Graceful shutdown; asserts a clean exit. */
    void
    drain(Client &client)
    {
        Request request;
        request.verb = "drain";
        EXPECT_TRUE(client.call(request).ok);
        SpawnedStatus status = waitSpawned(pid, 20'000);
        EXPECT_FALSE(status.running);
        EXPECT_EQ(status.exitCode, 0);
        pid = -1;
    }
};

/** Poll until the daemon's socket answers health; assert on timeout. */
Client
awaitDaemon(const std::string &socket, int timeout_ms = 20'000)
{
    for (int waited = 0;; waited += 100) {
        try {
            Client client = Client::connectTo(socket);
            Request health;
            health.verb = "health";
            if (client.call(health).ok)
                return client;
        } catch (const FatalError &) {
        }
        if (waited >= timeout_ms)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    ADD_FAILURE() << "daemon on " << socket << " never came up";
    return Client::connectTo(socket); // throws; unreachable on pass
}

/** Poll @p verb until @p good(result) holds; false on timeout. */
bool
awaitDoc(Client &client, const std::string &verb,
         const std::function<bool(const std::string &)> &good,
         int timeout_ms = 20'000)
{
    Request request;
    request.verb = verb;
    for (int waited = 0;; waited += 50) {
        Response response = client.call(request);
        EXPECT_TRUE(response.ok) << response.errorMessage;
        if (response.ok && good(response.result))
            return true;
        if (waited >= timeout_ms)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

bool
liveShards(const std::string &doc, uint64_t want)
{
    uint64_t live = 0;
    return jsonExtractUint(doc, "shards_live", live) && live == want;
}

/** Every "pid" member of the stats document's shards array. */
std::vector<pid_t>
shardPids(Client &client)
{
    Request stats;
    stats.verb = "stats";
    Response response = client.call(stats);
    EXPECT_TRUE(response.ok);
    std::vector<pid_t> pids;
    const std::string needle = "\"pid\": ";
    for (size_t pos = response.result.find(needle);
         pos != std::string::npos;
         pos = response.result.find(needle, pos + 1)) {
        long pid = std::atol(response.result.c_str() + pos +
                             needle.size());
        if (pid > 0)
            pids.push_back(static_cast<pid_t>(pid));
    }
    return pids;
}

/** Retry a work request until the fleet answers it ok. */
Response
awaitWorkOk(Client &client, const Request &request,
            int timeout_ms = 20'000)
{
    Response response;
    for (int waited = 0;; waited += 100) {
        response = client.call(request);
        if (response.ok || waited >= timeout_ms)
            return response;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
}

/** Top-level member names of the JSON object @p doc, in order. */
std::vector<std::string>
memberNames(const std::string &doc)
{
    std::vector<std::string> names;
    int depth = 0;
    for (size_t i = 0; i < doc.size(); ++i) {
        char c = doc[i];
        if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            --depth;
        } else if (c == '"') {
            size_t end = i + 1;
            while (end < doc.size() && doc[end] != '"')
                end += doc[end] == '\\' ? 2 : 1;
            size_t next = doc.find_first_not_of(" \n", end + 1);
            if (depth == 1 && next != std::string::npos &&
                doc[next] == ':') {
                names.push_back(doc.substr(i + 1, end - i - 1));
            }
            i = end;
        }
    }
    return names;
}

bool
pathExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

} // namespace

TEST(ShardE2E, SigkilledWorkerNeverTakesDownService)
{
    setQuiet(true);
    std::string socket = testSocketPath();
    Daemon daemon({ELAG_ELAGD_BIN, "--socket=" + socket,
                   "--shards=2", "--quiet"});
    Client control = awaitDaemon(socket);
    ASSERT_TRUE(awaitDoc(control, "health", [](const std::string &d) {
        return liveShards(d, 2);
    }));

    std::string expected = directSimulation(kArrayProgram);
    Response response = control.call(workRequest(kArrayProgram));
    ASSERT_TRUE(response.ok) << response.errorMessage;
    EXPECT_EQ(response.result, expected);

    std::vector<pid_t> pids = shardPids(control);
    ASSERT_EQ(pids.size(), 2u);
    ASSERT_EQ(::kill(pids[0], SIGKILL), 0);

    // The very next request completes — either its shard survived or
    // the supervisor failed the work over — and stays byte-identical.
    response = awaitWorkOk(control, workRequest(kArrayProgram));
    ASSERT_TRUE(response.ok)
        << response.errorType << ": " << response.errorMessage;
    EXPECT_EQ(response.result, expected);

    // The killed worker is restarted under a new pid and the fleet
    // heals back to full strength; the supervisor itself never died
    // (the control connection above kept answering).
    ASSERT_TRUE(awaitDoc(
        control, "stats", [&](const std::string &doc) {
            if (doc.find("\"restarts\": 1") == std::string::npos)
                return false;
            Client probe = Client::connectTo(socket);
            Request health;
            health.verb = "health";
            Response h = probe.call(health);
            return h.ok && liveShards(h.result, 2);
        }));
    std::vector<pid_t> healed = shardPids(control);
    ASSERT_EQ(healed.size(), 2u);
    EXPECT_EQ(std::count(healed.begin(), healed.end(), pids[0]), 0);

    // Restarts surface in the aggregated metrics document.
    Request metrics;
    metrics.verb = "metrics";
    response = control.call(metrics);
    ASSERT_TRUE(response.ok);
    EXPECT_NE(
        response.result.find("elag_serve_shard_restarts_total"),
        std::string::npos);

    daemon.drain(control);
}

TEST(ShardE2E, PoisonRequestIsQuarantinedNotFatal)
{
    setQuiet(true);
    std::string socket = testSocketPath();
    // The chaos hook only fires when the workers inherit the flag;
    // unset right after the spawn so nothing else sees it.
    ::setenv("ELAG_CHAOS_CRASH", "1", 1);
    Daemon daemon({ELAG_ELAGD_BIN, "--socket=" + socket,
                   "--shards=2", "--quarantine-threshold=1",
                   "--quiet"});
    ::unsetenv("ELAG_CHAOS_CRASH");

    Client control = awaitDaemon(socket);
    ASSERT_TRUE(awaitDoc(control, "health", [](const std::string &d) {
        return liveShards(d, 2);
    }));

    // The poison request kills its worker mid-request; at threshold
    // one that first death already quarantines the content hash, so
    // the client gets a typed error, not a hung or broken connection.
    Request poison;
    poison.verb = "crash";
    poison.source = "int main() { return 0; } // poison";
    Response response = control.call(poison);
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.errorType, errtype::Quarantined)
        << response.errorMessage;

    // Resending it is rejected up front — no worker dies again.
    response = control.call(poison);
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.errorType, errtype::Quarantined);

    Request stats;
    stats.verb = "stats";
    response = control.call(stats);
    ASSERT_TRUE(response.ok);
    uint64_t entries = 0;
    EXPECT_TRUE(jsonExtractUint(response.result, "entries", entries));
    EXPECT_EQ(entries, 1u);

    // Innocent work still completes once the fleet heals.
    std::string expected = directSimulation(kArrayProgram);
    response = awaitWorkOk(control, workRequest(kArrayProgram));
    ASSERT_TRUE(response.ok)
        << response.errorType << ": " << response.errorMessage;
    EXPECT_EQ(response.result, expected);

    daemon.drain(control);
}

TEST(ShardE2E, DaemonRestartServesFromPersistentCache)
{
    setQuiet(true);
    std::string cacheDir = uniqueCacheDir("e2e");
    std::string expected = directSimulation(kArrayProgram);

    std::string first;
    {
        std::string socket = testSocketPath();
        Daemon daemon({ELAG_ELAGD_BIN, "--socket=" + socket,
                       "--shards=2", "--cache-dir=" + cacheDir,
                       "--quiet"});
        Client control = awaitDaemon(socket);
        ASSERT_TRUE(
            awaitDoc(control, "health", [](const std::string &d) {
                return liveShards(d, 2);
            }));
        Response response =
            control.call(workRequest(kArrayProgram));
        ASSERT_TRUE(response.ok) << response.errorMessage;
        first = response.result;
        EXPECT_EQ(first, expected);
        daemon.drain(control);
    }

    // A brand-new supervisor + workers on the same cache directory:
    // the workers replay the segments at startup and the previously
    // computed result is served from disk, byte-identical.
    std::string socket = testSocketPath();
    Daemon daemon({ELAG_ELAGD_BIN, "--socket=" + socket,
                   "--shards=2", "--cache-dir=" + cacheDir,
                   "--quiet"});
    Client control = awaitDaemon(socket);
    ASSERT_TRUE(awaitDoc(control, "health", [](const std::string &d) {
        return liveShards(d, 2);
    }));
    Response response = control.call(workRequest(kArrayProgram));
    ASSERT_TRUE(response.ok) << response.errorMessage;
    EXPECT_EQ(response.result, first);

    Request metrics;
    metrics.verb = "metrics";
    response = control.call(metrics);
    ASSERT_TRUE(response.ok);
    uint64_t recovered = 0, hits = 0;
    EXPECT_TRUE(jsonExtractUint(response.result,
                                "elag_cache_persist_recovered_total",
                                recovered));
    EXPECT_GE(recovered, 1u);
    EXPECT_TRUE(jsonExtractUint(response.result,
                                "elag_cache_persist_hits_total",
                                hits));
    EXPECT_EQ(hits, 1u);

    daemon.drain(control);
}

TEST(ShardE2E, SupervisorStatsOversizedFrameAndSigterm)
{
    setQuiet(true);
    std::string socket = testSocketPath();
    Daemon daemon({ELAG_ELAGD_BIN, "--socket=" + socket,
                   "--shards=2", "--quiet"});
    Client control = awaitDaemon(socket);
    ASSERT_TRUE(awaitDoc(control, "health", [](const std::string &d) {
        return liveShards(d, 2);
    }));

    // The stats document's shape is an interface: pin member order.
    Request stats;
    stats.verb = "stats";
    Response response = control.call(stats);
    ASSERT_TRUE(response.ok);
    using Names = std::vector<std::string>;
    EXPECT_EQ(memberNames(response.result),
              (Names{"server", "build", "proxy", "verbs", "shards",
                     "quarantine"}));
    std::string server;
    ASSERT_TRUE(jsonExtractRaw(response.result, "server", server));
    EXPECT_EQ(memberNames(server),
              (Names{"role", "draining", "accepted",
                     "active_connections", "uptime_seconds"}));

    // An oversized frame header: a typed bad_request frame, then EOF
    // (the stream cannot be resynchronized).
    {
        Fd conn = connectUnix(socket);
        const uint8_t header[4] = {0xff, 0xff, 0xff, 0xff};
        ASSERT_TRUE(writeFull(conn.get(), header, sizeof(header)));
        std::string payload;
        ASSERT_EQ(readFrame(conn.get(), payload), FrameStatus::Ok);
        Response rejected;
        std::string error;
        ASSERT_TRUE(parseResponse(payload, rejected, error)) << error;
        EXPECT_FALSE(rejected.ok);
        EXPECT_EQ(rejected.errorType, errtype::BadRequest);
        EXPECT_EQ(readFrame(conn.get(), payload), FrameStatus::Eof);
    }

    // SIGTERM drains the whole tree: exit 0, the client socket is
    // unlinked, and no worker outlives its supervisor.
    std::vector<pid_t> pids = shardPids(control);
    ASSERT_EQ(pids.size(), 2u);
    ASSERT_EQ(::kill(daemon.pid, SIGTERM), 0);
    SpawnedStatus status = waitSpawned(daemon.pid, 20'000);
    ASSERT_FALSE(status.running);
    daemon.pid = -1;
    EXPECT_EQ(status.exitCode, 0);
    EXPECT_FALSE(pathExists(socket));
    for (pid_t pid : pids)
        EXPECT_NE(::kill(pid, 0), 0) << "shard pid " << pid;
}

TEST(ShardE2E, SigtermAfterDrainStillExitsZero)
{
    setQuiet(true);
    std::string expected = directSimulation(kArrayProgram);
    for (const char *mode : {"", "--shards=1"}) {
        SCOPED_TRACE(*mode ? mode : "embedded");
        std::string socket = testSocketPath();
        std::string stem = uniqueCacheDir("late-sigterm");
        std::string exitDoc = stem + ".exit.json";
        // The shell only redirects stdout: exec keeps the pid, so
        // the signals below reach elagd itself.
        Daemon daemon({"/bin/sh", "-c",
                       formatString("exec %s --socket=%s --quiet "
                                    "--trace-out=%s.trace.json %s "
                                    "> %s",
                                    ELAG_ELAGD_BIN, socket.c_str(),
                                    stem.c_str(), mode,
                                    exitDoc.c_str())});
        Client client = awaitDaemon(socket);
        for (int i = 0; i < 3; ++i) {
            Response response =
                awaitWorkOk(client, workRequest(kArrayProgram));
            ASSERT_TRUE(response.ok) << response.errorMessage;
            EXPECT_EQ(response.result, expected);
        }
        Request drain;
        drain.verb = "drain";
        ASSERT_TRUE(client.call(drain).ok);

        // What a scripted stop does: `drain`, then `kill -TERM`. A
        // late signal must not cut the span flush or the exit
        // document short, so keep signalling until the daemon exits.
        SpawnedStatus status;
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        for (;;) {
            ::kill(daemon.pid, SIGTERM);
            status = pollSpawned(daemon.pid);
            if (!status.running ||
                std::chrono::steady_clock::now() > deadline) {
                break;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        ASSERT_FALSE(status.running) << "elagd ignored drain";
        daemon.pid = -1;
        EXPECT_EQ(status.termSignal, 0);
        EXPECT_EQ(status.exitCode, 0);
        EXPECT_TRUE(jsonValid(readFile(exitDoc))) << readFile(exitDoc);
        std::remove(exitDoc.c_str());
        std::remove((stem + ".trace.json").c_str());
    }
}

TEST(ShardE2E, FailedStartLeavesNoSocketFile)
{
    // Hold a loopback port so the supervisor's TCP bind must fail.
    Fd busy = listenTcpLoopback(0);
    sockaddr_in addr = {};
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(busy.get(),
                            reinterpret_cast<sockaddr *>(&addr), &len),
              0);
    std::string socket = testSocketPath();
    SubprocessLimits limits;
    limits.wallTimeoutMs = 60'000;
    auto r = runSubprocess(
        {ELAG_ELAGD_BIN, "--socket=" + socket,
         formatString("--tcp-port=%u", ntohs(addr.sin_port)),
         "--shards=1", "--quiet"},
        limits);
    ASSERT_EQ(r.status, SubprocessStatus::Exited)
        << describeSubprocessResult(r);
    EXPECT_EQ(r.exitCode, 1) << r.err;
    // A socket file left behind would fool a `[ -S path ]` probe.
    EXPECT_FALSE(pathExists(socket)) << socket;
}

TEST(ShardE2E, MalformedFlagsAreUsageErrors)
{
    struct Case
    {
        const char *flag;
    } cases[] = {
        {"--shards=abc"},
        {"--shards=65"},
        {"--quarantine-threshold=0"},
        {"--cache-dir="},
        {"--shard-index=0"}, // worker-only flag without --shard-worker
    };
    for (const Case &c : cases) {
        auto r = runSubprocess({ELAG_ELAGD_BIN,
                                "--socket=/tmp/elag-usage.sock",
                                c.flag});
        ASSERT_EQ(r.status, SubprocessStatus::Exited) << c.flag;
        EXPECT_EQ(r.exitCode, 2) << c.flag << "\n" << r.err;
    }

    // --shard-worker is an internal re-exec flag, incompatible with
    // running a supervisor.
    auto r = runSubprocess({ELAG_ELAGD_BIN,
                            "--socket=/tmp/elag-usage.sock",
                            "--shard-worker", "--shards=2"});
    ASSERT_EQ(r.status, SubprocessStatus::Exited);
    EXPECT_EQ(r.exitCode, 2);
}

#endif // ELAG_ELAGD_BIN
