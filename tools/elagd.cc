/**
 * @file
 * elagd — the elag simulation-as-a-service daemon.
 *
 * Serves the framed JSON protocol (compile / classify / simulate /
 * stats / health / metrics / drain) over a Unix-domain socket,
 * optionally also on a TCP loopback port. Simulations execute on the
 * shared support::parallel worker pool and repeated workloads hit
 * the bounded sim::RunCache.
 *
 *   elagd --socket=/tmp/elagd.sock                serve until signalled
 *   elagd --socket=S --tcp-port=7878              extra TCP listener
 *   elagd --socket=S --jobs=8 --queue-depth=32    sizing
 *   elagd --socket=S --deadline-ms=2000           default deadline
 *   elagd --socket=S --cache-capacity=256         RunCache bound
 *   elagd --socket=S --cache-dir=DIR              persistent results
 *   elagd --socket=S --trace-out=trace.json       span tracing
 *
 * With --shards=N the daemon becomes a supervision tree: the process
 * itself only accepts, routes, and proxies; N sandboxed shard worker
 * processes (this same binary, re-exec'd with the hidden
 * --shard-worker flag) do the compiling and simulating on sockets of
 * their own. Workers that crash are restarted with backoff, workers
 * that hang are killed, poisonous requests are quarantined after
 * --quarantine-threshold worker deaths, and --cache-dir gives the
 * fleet a durable result cache that survives all of it:
 *
 *   elagd --socket=S --shards=4 --cache-dir=/var/cache/elagd
 *
 * SIGTERM/SIGINT (or a `drain` request) drains gracefully: stop
 * accepting, finish in-flight requests, flush the stats document to
 * stdout, exit 0. Once drained, further SIGTERM/SIGINT are ignored,
 * so `drain` followed by `kill -TERM` still exits 0.
 *
 * Exit codes: 0 graceful drain, 1 startup failure (FatalError),
 * 2 usage.
 */

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "cache/persistent_store.hh"
#include "obs/span.hh"
#include "serve/server.hh"
#include "serve/supervisor.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "support/strings.hh"
#include "support/trace.hh"

#include "sim/run_cache.hh"

using namespace elag;

namespace {

struct Options
{
    std::string socket;
    uint16_t tcpPort = 0;
    uint32_t queueDepth = 64;
    uint32_t jobs = 0; ///< 0 keeps the parallel layer's default
    uint64_t deadlineMs = 0;
    uint64_t cacheCapacity = sim::RunCache::kDefaultCapacity;
    /** 0 = single-process embedded mode; N = supervision tree. */
    uint32_t shards = 0;
    /** Worker deaths per content hash before quarantine. */
    uint32_t quarantineThreshold = 3;
    /** Persistent result cache directory; empty disables it. */
    std::string cacheDir;
    /** Mid-request simulate checkpoints; empty disables them. */
    std::string checkpointDir;
    /** Retires between request snapshots (0 = the 5M default). */
    uint64_t checkpointEvery = 0;
    /** RLIMIT_AS per shard worker, in MiB; 0 = unlimited. */
    uint32_t shardMemMb = 0;
    /** Hidden: run as a shard worker of a supervisor. */
    bool shardWorker = false;
    uint32_t shardIndex = 0;
    bool shardIndexSet = false;
    std::string traceSpec;
    std::string traceOut;
    bool quiet = false;
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: elagd --socket=PATH [--tcp-port=N]\n"
                 "             [--queue-depth=N] [--jobs=N]\n"
                 "             [--deadline-ms=N] [--cache-capacity=N]\n"
                 "             [--shards=N] [--quarantine-threshold=N]\n"
                 "             [--cache-dir=PATH] [--shard-mem-mb=N]\n"
                 "             [--checkpoint-dir=PATH] "
                 "[--checkpoint-every=N]\n"
                 "             [--trace=CH[,CH...]]\n"
                 "             [--trace-out=FILE] [--quiet]\n");
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *prefix) {
            return arg.substr(std::strlen(prefix));
        };
        if (startsWith(arg, "--socket=")) {
            opts.socket = value("--socket=");
        } else if (startsWith(arg, "--tcp-port=")) {
            uint32_t port;
            if (!parseNumericFlag("elagd", arg, "--tcp-port=", port))
                return false;
            if (port == 0 || port > 65535) {
                std::fprintf(stderr,
                             "elagd: --tcp-port out of range\n");
                return false;
            }
            opts.tcpPort = static_cast<uint16_t>(port);
        } else if (startsWith(arg, "--queue-depth=")) {
            if (!parseNumericFlag("elagd", arg, "--queue-depth=",
                                  opts.queueDepth))
                return false;
        } else if (startsWith(arg, "--jobs=")) {
            if (!parseNumericFlag("elagd", arg, "--jobs=", opts.jobs))
                return false;
        } else if (startsWith(arg, "--deadline-ms=")) {
            if (!parseNumericFlag("elagd", arg, "--deadline-ms=",
                                  opts.deadlineMs))
                return false;
        } else if (startsWith(arg, "--cache-capacity=")) {
            if (!parseNumericFlag("elagd", arg, "--cache-capacity=",
                                  opts.cacheCapacity))
                return false;
        } else if (startsWith(arg, "--shards=")) {
            if (!parseNumericFlag("elagd", arg, "--shards=", opts.shards))
                return false;
            if (opts.shards > 64) {
                std::fprintf(stderr,
                             "elagd: --shards must be at most 64\n");
                return false;
            }
        } else if (startsWith(arg, "--quarantine-threshold=")) {
            if (!parseNumericFlag("elagd", arg, "--quarantine-threshold=",
                                  opts.quarantineThreshold))
                return false;
            if (opts.quarantineThreshold == 0) {
                std::fprintf(stderr,
                             "elagd: --quarantine-threshold must "
                             "be at least 1\n");
                return false;
            }
        } else if (startsWith(arg, "--cache-dir=")) {
            opts.cacheDir = value("--cache-dir=");
            if (opts.cacheDir.empty()) {
                std::fprintf(stderr,
                             "elagd: --cache-dir needs a path\n");
                return false;
            }
        } else if (startsWith(arg, "--checkpoint-dir=")) {
            opts.checkpointDir = value("--checkpoint-dir=");
            if (opts.checkpointDir.empty()) {
                std::fprintf(stderr,
                             "elagd: --checkpoint-dir needs a "
                             "path\n");
                return false;
            }
        } else if (startsWith(arg, "--checkpoint-every=")) {
            if (!parseNumericFlag("elagd", arg, "--checkpoint-every=",
                                  opts.checkpointEvery))
                return false;
        } else if (startsWith(arg, "--shard-mem-mb=")) {
            if (!parseNumericFlag("elagd", arg, "--shard-mem-mb=",
                                  opts.shardMemMb))
                return false;
        } else if (arg == "--shard-worker") {
            opts.shardWorker = true;
        } else if (startsWith(arg, "--shard-index=")) {
            if (!parseNumericFlag("elagd", arg, "--shard-index=",
                                  opts.shardIndex))
                return false;
            opts.shardIndexSet = true;
        } else if (startsWith(arg, "--trace=")) {
            opts.traceSpec = value("--trace=");
        } else if (startsWith(arg, "--trace-out=")) {
            opts.traceOut = value("--trace-out=");
        } else if (arg == "--quiet") {
            opts.quiet = true;
        } else {
            std::fprintf(stderr, "elagd: unknown option '%s'\n",
                         arg.c_str());
            return false;
        }
    }
    if (opts.socket.empty()) {
        std::fprintf(stderr, "elagd: --socket=PATH is required\n");
        return false;
    }
    if (opts.queueDepth == 0) {
        std::fprintf(stderr,
                     "elagd: --queue-depth must be at least 1\n");
        return false;
    }
    if (opts.shardWorker && opts.shards) {
        std::fprintf(stderr,
                     "elagd: --shard-worker and --shards are "
                     "mutually exclusive\n");
        return false;
    }
    if (opts.shardIndexSet && !opts.shardWorker) {
        std::fprintf(stderr,
                     "elagd: --shard-index is only valid with "
                     "--shard-worker\n");
        return false;
    }
    return true;
}

/**
 * Embedded single-process mode, and the body of a shard worker: one
 * Server on opts.socket. Workers skip the exit-stats print (stdout
 * is shared with the supervisor, whose exit document is the one a
 * scripted run harvests).
 */
int
runServer(const Options &opts)
{
    std::unique_ptr<cache::PersistentStore> persist;
    if (!opts.cacheDir.empty()) {
        cache::PersistentStoreConfig pc;
        pc.dir = opts.cacheDir;
        pc.owner = opts.shardWorker
                       ? formatString("shard%u", opts.shardIndex)
                       : "main";
        persist.reset(new cache::PersistentStore(pc));
    }

    serve::ServerConfig config;
    config.socketPath = opts.socket;
    config.tcpPort = opts.tcpPort;
    config.queueDepth = opts.queueDepth;
    config.router.defaultDeadlineMs = opts.deadlineMs;
    config.router.persist = persist.get();
    config.router.checkpointDir = opts.checkpointDir;
    config.router.checkpointEvery = opts.checkpointEvery;

    serve::Server server(config);
    try {
        server.start();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "elagd: %s\n", e.what());
        return 1;
    }
    server.installSignalHandlers();

    inform("elagd: serving on %s%s (queue depth %u, %u jobs)",
           opts.socket.c_str(),
           opts.tcpPort
               ? formatString(" and 127.0.0.1:%u", opts.tcpPort)
                     .c_str()
               : "",
           config.queueDepth, parallel::jobs());

    server.wait();
    obs::SpanTracer::process().flush();

    if (!opts.shardWorker) {
        // Final stats snapshot so a scripted run (CI, experiments)
        // can harvest counters even without a live `stats` request.
        std::fputs(server.statsJson().c_str(), stdout);
        std::fputc('\n', stdout);
    }
    return 0;
}

/** Supervision-tree mode: this process proxies, workers compute. */
int
runSupervisor(const Options &opts)
{
    serve::SupervisorConfig config;
    config.socketPath = opts.socket;
    config.tcpPort = opts.tcpPort;
    config.queueDepth = opts.queueDepth;
    config.defaultDeadlineMs = opts.deadlineMs;
    config.shards.shards = opts.shards;
    config.shards.quarantineThreshold = opts.quarantineThreshold;
    if (opts.shardMemMb) {
        config.shards.limits.addressSpaceBytes =
            static_cast<uint64_t>(opts.shardMemMb) << 20;
    }
    config.shards.socketPathFor = [&opts](uint32_t index) {
        return formatString("%s.shard%u", opts.socket.c_str(),
                            index);
    };
    config.shards.workerArgv = [&opts](uint32_t index,
                                       const std::string &socket) {
        // Re-exec this very image: /proc/self/exe survives renames
        // and never races a PATH lookup. Workers are quiet (their
        // stderr is the supervisor's) and print no exit stats.
        std::vector<std::string> argv = {
            "/proc/self/exe",
            "--shard-worker",
            formatString("--shard-index=%u", index),
            "--socket=" + socket,
            formatString("--queue-depth=%u", opts.queueDepth),
            "--quiet",
        };
        if (opts.jobs)
            argv.push_back(formatString("--jobs=%u", opts.jobs));
        if (opts.deadlineMs) {
            argv.push_back(formatString("--deadline-ms=%llu",
                                        (unsigned long long)
                                            opts.deadlineMs));
        }
        argv.push_back(formatString(
            "--cache-capacity=%llu",
            (unsigned long long)opts.cacheCapacity));
        if (!opts.cacheDir.empty())
            argv.push_back("--cache-dir=" + opts.cacheDir);
        // Workers share the checkpoint directory: a restarted
        // worker handed a retried request picks up the snapshot its
        // dead predecessor left there.
        if (!opts.checkpointDir.empty()) {
            argv.push_back("--checkpoint-dir=" + opts.checkpointDir);
            if (opts.checkpointEvery) {
                argv.push_back(formatString(
                    "--checkpoint-every=%llu",
                    (unsigned long long)opts.checkpointEvery));
            }
        }
        return argv;
    };

    serve::Supervisor supervisor(config);
    try {
        supervisor.start();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "elagd: %s\n", e.what());
        return 1;
    }
    supervisor.installSignalHandlers();

    inform("elagd: supervising %u shards on %s%s (queue depth %u)",
           opts.shards, opts.socket.c_str(),
           opts.tcpPort
               ? formatString(" and 127.0.0.1:%u", opts.tcpPort)
                     .c_str()
               : "",
           opts.queueDepth);

    supervisor.wait();
    obs::SpanTracer::process().flush();

    std::fputs(supervisor.statsJson().c_str(), stdout);
    std::fputc('\n', stdout);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        usage();
        return 2;
    }
    if (opts.quiet)
        setQuiet(true);
    if (!opts.traceSpec.empty())
        trace::enableSpec(opts.traceSpec);
    trace::applyEnvironment();
    obs::SpanTracer::process().setProcessLabel(
        opts.shardWorker
            ? formatString("elagd-shard%u", opts.shardIndex)
            : "elagd");
    if (!opts.traceOut.empty())
        obs::SpanTracer::process().enable(opts.traceOut);
    obs::SpanTracer::process().applyEnvironment();
    if (opts.jobs)
        parallel::setJobs(opts.jobs);
    sim::RunCache::instance().setCapacity(opts.cacheCapacity);
    if (!opts.checkpointDir.empty() &&
        mkdir(opts.checkpointDir.c_str(), 0755) != 0 &&
        errno != EEXIST) {
        std::fprintf(stderr,
                     "elagd: cannot create checkpoint dir '%s': %s\n",
                     opts.checkpointDir.c_str(), std::strerror(errno));
        return 1;
    }

    try {
        return opts.shards ? runSupervisor(opts) : runServer(opts);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "elagd: %s\n", e.what());
        return 1;
    }
}
