/**
 * @file
 * Client side of the elagd protocol: a single-connection blocking
 * Client, and a closed-loop LoadGen that drives many Clients from
 * concurrent threads and reports throughput and latency quantiles.
 *
 * Both are used by the elag_client tool and by the in-process
 * end-to-end tests, which connect to a Server running in the same
 * process.
 */

#ifndef ELAG_SERVE_CLIENT_HH
#define ELAG_SERVE_CLIENT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "serve/socket.hh"

namespace elag {

class JsonWriter;

namespace serve {

/**
 * One blocking protocol connection. call() is strictly
 * request/response, matching the server's per-connection ordering.
 * Transport failures (connection refused, server hangup mid-call)
 * throw FatalError; protocol-level errors come back as a Response
 * with ok == false.
 */
class Client
{
  public:
    static Client connectTo(const std::string &socket_path);
    static Client connectTcp(uint16_t port);

    Response call(const Request &request);

    Client(Client &&) = default;
    Client &operator=(Client &&) = default;

  private:
    explicit Client(Fd fd) : fd_(std::move(fd)) {}
    Fd fd_;
};

/** Connection-retry policy for ReconnectingClient. */
struct RetryConfig
{
    /** Total attempts per call(); 1 disables retry. */
    uint32_t maxAttempts = 4;
    /**
     * Backoff before the first retry; doubled per further retry up
     * to 1 s.
     */
    uint64_t baseDelayMs = 20;
};

/**
 * A Client that survives its server's restarts: transport failures
 * (connection refused while a supervisor respawns, EPIPE or a short
 * read when a worker dies mid-call) are retried on a fresh
 * connection with jittered exponential backoff, up to
 * RetryConfig::maxAttempts. Requests against elagd are pure, so
 * resending one that may already have executed is safe.
 *
 * Protocol-level errors (ok == false responses) are returned, never
 * retried — the server answered; the answer was no. FatalError
 * propagates only once every attempt is spent.
 */
class ReconnectingClient
{
  public:
    /** Unix-domain target (or TCP loopback when @p path is empty). */
    ReconnectingClient(const std::string &path, uint16_t tcp_port,
                       const RetryConfig &retry = {});

    Response call(const Request &request);

    /** Reconnect-and-resend cycles performed so far. */
    uint64_t retries() const { return retries_; }

  private:
    void connect();

    std::string socketPath_;
    uint16_t tcpPort_;
    RetryConfig retry_;
    std::unique_ptr<Client> client_;
    uint64_t retries_ = 0;
};

/** Closed-loop load generation configuration. */
struct LoadGenConfig
{
    std::string socketPath;
    /** TCP fallback when socketPath is empty. */
    uint16_t tcpPort = 0;
    uint32_t clients = 1;
    /** Requests issued per client thread. */
    uint32_t requests = 1;
    /**
     * Template request; `id` is rewritten per request, and when the
     * template carries no `trace` member each request gets a fresh
     * obs::newTraceId() so client and server spans correlate.
     */
    Request request;
    /** Per-call reconnect policy (failover rides on this). */
    RetryConfig retry;
};

/** Aggregated results of one load-generation run. */
struct LoadGenReport
{
    uint64_t attempted = 0;
    uint64_t succeeded = 0;
    /** Protocol-level errors by type (overloaded, timeout, ...). */
    uint64_t failed = 0;
    /** Transport-level failures (connect/IO) after all retries. */
    uint64_t transportErrors = 0;
    /** Reconnect-and-resend cycles absorbed by the retry policy. */
    uint64_t retries = 0;
    double wallSeconds = 0.0;
    double throughputRps = 0.0;
    uint64_t minUs = 0, maxUs = 0;
    double meanUs = 0.0;
    uint64_t p50Us = 0, p95Us = 0, p99Us = 0;
    /**
     * Failures by cause: protocol error types (overloaded, timeout,
     * ...) plus "transport" for connect/IO failures. Empty on a
     * clean run.
     */
    std::map<std::string, uint64_t> errorsByType;

    /** Human-readable multi-line summary. */
    std::string text() const;
    void writeJson(JsonWriter &w) const;
};

/**
 * Run the closed loop: each client thread opens its own connection
 * and issues its requests back to back; latencies are aggregated
 * across threads and wall time covers the whole fleet.
 */
LoadGenReport runLoadGen(const LoadGenConfig &config);

} // namespace serve
} // namespace elag

#endif // ELAG_SERVE_CLIENT_HH
