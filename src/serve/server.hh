/**
 * @file
 * The elagd server: one process that compiles and simulates.
 *
 * The client-facing transport (listeners, connection threads, the
 * `drain` verb, signals) is the shared serve::Frontend; this class
 * is the handler behind it. Control verbs (stats/health/metrics)
 * are answered inline on the connection thread and bypass admission
 * control, so they keep working under overload. Work verbs pass
 * admission control: a bounded count of requests
 * submitted-but-not-started. At the configured depth new work is
 * rejected immediately with a typed `overloaded` error instead of
 * queueing unboundedly. Admitted requests execute on the
 * support::parallel worker pool (shared with the rest of the
 * toolchain, sized by --jobs); the connection thread blocks on the
 * result future and writes the response, so each connection is
 * strictly request/response ordered.
 *
 * The admission and run-cache counts in the stats document are read
 * from the process registry (`elag_serve_admitted_total`,
 * `elag_serve_rejected_total{reason}`, `elag_runcache_*`); in an
 * elagd process, which holds one server, they are this server's.
 */

#ifndef ELAG_SERVE_SERVER_HH
#define ELAG_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "cache/persistent_store.hh"
#include "serve/framing.hh"
#include "serve/frontend.hh"
#include "serve/router.hh"
#include "support/parallel.hh"

namespace elag {
namespace serve {

struct ServerConfig
{
    /** Unix-domain socket path (required). */
    std::string socketPath;
    /** Extra TCP listener on 127.0.0.1:tcpPort; 0 disables it. */
    uint16_t tcpPort = 0;
    /** Admission queue depth: max requests waiting for a worker. */
    uint32_t queueDepth = 64;
    /** Per-frame payload cap. */
    size_t maxFrameBytes = kMaxFramePayload;
    /** Worker pool; null uses parallel::ThreadPool::shared(). */
    parallel::ThreadPool *pool = nullptr;
    /**
     * How work verbs run: default deadline, durable result cache and
     * mid-request checkpoints. Shard workers and the embedded daemon
     * both wire these from elagd's flags.
     */
    RouterConfig router;
};

class Server
{
  public:
    explicit Server(const ServerConfig &config);

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind listeners and start the acceptor. Throws FatalError when
     * a listener cannot be set up.
     */
    void start() { frontend.start(); }

    /** Begin graceful drain (see Frontend::beginDrain). */
    void beginDrain() { frontend.beginDrain(); }

    bool draining() const { return frontend.draining(); }

    /**
     * Block until the server has fully drained (see Frontend::wait).
     * Call exactly once, after start().
     */
    void wait() { frontend.wait(); }

    /** SIGTERM/SIGINT -> beginDrain via the front end's self-pipe. */
    void installSignalHandlers() { frontend.installSignalHandlers(); }

    /** The `stats` verb document (also flushed at daemon exit). */
    std::string statsJson() const;

  private:
    /** Answer one request the front end hands over. */
    std::string handle(const Request &request);

    /** Admission control + pool execution of one work verb. */
    std::string executeAdmitted(const Request &request);

    parallel::ThreadPool &pool();

    ServerConfig cfg;
    Router router;

    /** Admitted but not yet started on a worker. */
    std::atomic<uint32_t> backlog_{0};
    std::atomic<uint32_t> executing_{0};
    std::atomic<uint64_t> completed_{0};

    /**
     * Last, so it is destroyed first: its destructor drains and
     * joins every connection thread before the router goes away.
     */
    Frontend frontend;
};

} // namespace serve
} // namespace elag

#endif // ELAG_SERVE_SERVER_HH
