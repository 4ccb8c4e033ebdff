/**
 * @file
 * The client-facing transport both elagd roles share.
 *
 * A Frontend owns what a client talks to: the Unix-domain listener,
 * the optional TCP-loopback listener, the acceptor thread, one
 * tracked thread per connection, and graceful drain. serve::Server
 * and serve::Supervisor each hold one and differ only in the handler
 * they pass it: the server runs admission control and the Router,
 * the supervisor proxies to its shard workers.
 *
 * Threading model: the acceptor polls the listeners plus a
 * self-pipe; each accepted connection gets a joinable, tracked
 * thread that reads frames, parses requests, answers `drain` itself
 * and hands every other request to the handler, strictly
 * request/response in order. An oversized frame gets a typed
 * `bad_request` answer and a hangup (the stream cannot be
 * resynchronized). Each request is one span, named by the role
 * (`request`, `proxy`), and one per-verb sample in the ServerMetrics
 * behind the stats document's `verbs` block.
 *
 * Graceful drain (SIGTERM/SIGINT via the self-pipe, or the `drain`
 * verb): stop accepting, shut down the read side of every open
 * connection so idle clients see EOF, let in-flight requests finish
 * and their responses flush, then wait() returns. From then on a
 * process whose signals this front end routes ignores SIGTERM and
 * SIGINT, so a late signal can cut short neither the caller's trace
 * flush nor its exit document.
 */

#ifndef ELAG_SERVE_FRONTEND_HH
#define ELAG_SERVE_FRONTEND_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/metrics.hh"
#include "serve/protocol.hh"
#include "serve/socket.hh"

namespace elag {

class JsonWriter;

namespace trace {
class Channel;
}

namespace serve {

class Frontend
{
  public:
    /**
     * Answers one parsed request; @p raw is the request's exact
     * frame payload (what a proxy forwards verbatim). Runs on
     * connection threads, concurrently.
     */
    using Handler = std::function<std::string(const Request &request,
                                              const std::string &raw)>;

    /**
     * @param span_name the per-request span (`request`, `proxy`)
     * @param channel   where request and drain trace lines go
     */
    Frontend(const std::string &socket_path, uint16_t tcp_port,
             size_t max_frame_bytes, const char *span_name,
             trace::Channel &channel, Handler handler);

    /** Drains and waits when started and not yet waited on. */
    ~Frontend();

    Frontend(const Frontend &) = delete;
    Frontend &operator=(const Frontend &) = delete;

    /**
     * Bind the listeners and start the acceptor. Throws FatalError
     * when a listener cannot be set up. The TCP port is bound before
     * the Unix socket, so a taken port leaves no socket file behind.
     */
    void start();

    /**
     * Begin graceful drain (idempotent, callable from any thread,
     * including connection threads and the signal path): stop
     * accepting, EOF idle connections, let in-flight work finish.
     */
    void beginDrain();

    bool draining() const { return draining_.load(); }

    /**
     * Block until fully drained: acceptor gone, every connection
     * thread joined, listeners closed, socket file unlinked. When
     * this front end routes the signals, SIGTERM and SIGINT are
     * ignored from here on. Call exactly once, after start().
     */
    void wait();

    /**
     * Route SIGTERM/SIGINT to beginDrain() through the self-pipe
     * (the handler only write(2)s, so it is async-signal-safe).
     * Call after start().
     */
    void installSignalHandlers();

    /** Put SIGTERM/SIGINT back to their defaults (tests). */
    static void restoreSignalHandlers();

    /**
     * The stats document's `server` members, into the object the
     * caller has open: draining, accepted, active_connections,
     * uptime_seconds.
     */
    void writeServerFields(JsonWriter &w) const;

    /** Per-verb request counts and latencies (`verbs` in stats). */
    const ServerMetrics &verbMetrics() const { return metrics_; }

  private:
    void acceptLoop();
    void serveConnection(int fd, uint64_t conn_id);

    std::string socketPath_;
    uint16_t tcpPort_;
    size_t maxFrameBytes_;
    const char *spanName_;
    trace::Channel &channel_;
    Handler handler_;
    ServerMetrics metrics_;

    Fd unixListener;
    Fd tcpListener;
    /** Self-pipe waking the acceptor's poll (drain, signals). */
    Fd wakeRead, wakeWrite;

    std::thread acceptor;
    mutable std::mutex connMu;
    std::vector<std::thread> connThreads;
    std::set<int> activeFds;

    std::atomic<bool> started_{false};
    std::atomic<bool> draining_{false};
    std::atomic<uint64_t> requestSeq_{0};
    /** Construction time, for the stats verb's uptime_seconds. */
    std::chrono::steady_clock::time_point startTime_ =
        std::chrono::steady_clock::now();
};

} // namespace serve
} // namespace elag

#endif // ELAG_SERVE_FRONTEND_HH
