/**
 * @file
 * The elagd supervision tree's root: accept, route, proxy, survive.
 *
 * In sharded mode (--shards=N) the daemon process never compiles or
 * simulates anything itself. It accepts client connections, answers
 * control verbs locally, and proxies work verbs — frame in, frame
 * out — to one of N shard worker processes selected by content hash
 * (serve/routing.hh). Workers are sandboxed children (rlimit-capped,
 * own process groups) owned by a ShardManager that restarts them
 * with backoff when they crash and SIGKILLs them when they hang.
 *
 * What a client observes under failure:
 *
 *  - Worker crashes mid-request: the proxy read fails, the request
 *    is retried verbatim on a sibling shard (work verbs are pure, so
 *    the retry is safe); the client sees a normal response, just
 *    slower. A request that keeps killing workers is answered with
 *    `shard_failed`, and once its content hash has crashed workers
 *    `--quarantine-threshold` times, with `quarantined` — before
 *    ever reaching another worker.
 *  - Worker hangs mid-request: the per-request proxy deadline
 *    expires, the worker is SIGKILLed and respawned, the client gets
 *    a `timeout` error.
 *  - Partial capacity: admission scales with the live shard count —
 *    fewer workers, proportionally fewer in-flight requests, typed
 *    `overloaded` rejections for the rest. Zero live workers answer
 *    `unavailable` immediately.
 *  - Drain (SIGTERM or the `drain` verb): stop accepting, finish
 *    every in-flight proxied request, then SIGTERM the workers (they
 *    drain themselves) and reap the fleet.
 *
 * Control verbs: `health` and `stats` describe the tree (per-shard
 * pid/state/restart counts — chaos tooling reads pids from here);
 * `metrics` merges the supervisor's own counters with every live
 * shard's (scraped via the counters exposition) into one document,
 * so counters both hops record, such as accepted connections and
 * requests by verb, sum the supervisor's and the workers'.
 *
 * The client-facing transport (listeners, connection threads, the
 * `drain` verb, signals) is the serve::Frontend the embedded Server
 * uses too; this class is the handler behind it.
 */

#ifndef ELAG_SERVE_SUPERVISOR_HH
#define ELAG_SERVE_SUPERVISOR_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/frontend.hh"
#include "serve/protocol.hh"
#include "serve/shard.hh"

namespace elag {
namespace serve {

struct SupervisorConfig
{
    /** Client-facing Unix-domain socket path (required). */
    std::string socketPath;
    /** Extra TCP listener on 127.0.0.1:tcpPort; 0 disables it. */
    uint16_t tcpPort = 0;
    /**
     * In-flight proxied requests at full capacity; the effective
     * bound scales with the live shard fraction.
     */
    uint32_t queueDepth = 64;
    /** Deadline for requests that carry none; 0 = unlimited. */
    uint64_t defaultDeadlineMs = 0;
    /** Worker fleet shape (shard count, argv, restart policy...). */
    ShardManagerConfig shards;
};

class Supervisor
{
  public:
    explicit Supervisor(const SupervisorConfig &config);

    Supervisor(const Supervisor &) = delete;
    Supervisor &operator=(const Supervisor &) = delete;

    /** Spawn the fleet, bind listeners, start accepting. */
    void start();

    /**
     * Block until drained: acceptor and connection threads joined
     * (in-flight proxied requests completed), listeners closed,
     * socket file unlinked, then workers terminated and reaped.
     */
    void wait();

    /** SIGTERM/SIGINT -> beginDrain via the front end's self-pipe. */
    void installSignalHandlers() { frontend.installSignalHandlers(); }

    /** The `stats` verb document (also flushed at daemon exit). */
    std::string statsJson() const;

  private:
    /** Answer one request the front end hands over. */
    std::string handle(const Request &request,
                       const std::string &raw_payload);

    /** Route + failover + quarantine for one work request. */
    std::string proxyWork(const Request &request,
                          const std::string &raw_payload);

    /** Merged supervisor + live-shard counters, JSON or Prometheus. */
    std::string aggregateMetrics(const Request &request);

    SupervisorConfig cfg;
    std::unique_ptr<ShardManager> shards_;

    std::atomic<uint32_t> inflight_{0};
    std::atomic<uint64_t> proxied_{0};
    std::atomic<uint64_t> retried_{0};
    std::atomic<uint64_t> rejectedOverload_{0};
    std::atomic<uint64_t> rejectedUnavailable_{0};
    std::atomic<uint64_t> rejectedDraining_{0};

    /**
     * Last, so it is destroyed first: its destructor drains and
     * joins every connection thread before the shard manager stops
     * the fleet.
     */
    Frontend frontend;
};

} // namespace serve
} // namespace elag

#endif // ELAG_SERVE_SUPERVISOR_HH
