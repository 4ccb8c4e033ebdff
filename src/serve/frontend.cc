#include "serve/frontend.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "serve/framing.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/trace.hh"

namespace elag {
namespace serve {

namespace {

/**
 * Write end of the drain self-pipe, published for the signal
 * handler. The handler only ever write(2)s one byte, which is
 * async-signal-safe; all actual drain work happens on the acceptor
 * thread when the poll wakes up.
 */
std::atomic<int> gSignalWakeFd{-1};

extern "C" void
drainSignalHandler(int)
{
    int fd = gSignalWakeFd.load(std::memory_order_relaxed);
    if (fd >= 0) {
        char byte = 's';
        // The pipe is non-blocking: a full pipe just means a wakeup
        // is already pending, so a failed write is fine to ignore.
        ssize_t ignored = ::write(fd, &byte, 1);
        (void)ignored;
    }
}

void
setDrainSignals(void (*handler)(int))
{
    struct sigaction sa = {};
    sa.sa_handler = handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
}

obs::Counter &
acceptedCounter()
{
    static obs::Counter &counter = obs::Registry::process().counter(
        "elag_serve_accepted_connections_total",
        "Connections accepted by the daemon.");
    return counter;
}

} // anonymous namespace

Frontend::Frontend(const std::string &socket_path, uint16_t tcp_port,
                   size_t max_frame_bytes, const char *span_name,
                   trace::Channel &channel, Handler handler)
    : socketPath_(socket_path), tcpPort_(tcp_port),
      maxFrameBytes_(max_frame_bytes), spanName_(span_name),
      channel_(channel), handler_(std::move(handler))
{}

Frontend::~Frontend()
{
    if (started_.load()) {
        beginDrain();
        if (acceptor.joinable())
            wait();
    }
}

void
Frontend::start()
{
    elag_assert(!started_.load());
    ignoreSigpipe();

    // Non-blocking, so the signal handler can never block on a full
    // pipe during a burst of signals.
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_NONBLOCK) != 0)
        fatal("elagd: cannot create wake pipe: %s", strerror(errno));
    wakeRead.reset(pipe_fds[0]);
    wakeWrite.reset(pipe_fds[1]);

    // TCP first: the Unix bind creates the socket file, so it goes
    // last, and a taken port leaves no file to fool a readiness
    // probe. The Fd stays local until both listeners exist.
    Fd tcp;
    if (tcpPort_)
        tcp = listenTcpLoopback(tcpPort_);
    unixListener = listenUnix(socketPath_);
    tcpListener = std::move(tcp);

    started_.store(true);
    acceptor = std::thread([this] { acceptLoop(); });
}

void
Frontend::installSignalHandlers()
{
    elag_assert(wakeWrite.valid());
    gSignalWakeFd.store(wakeWrite.get(), std::memory_order_relaxed);
    setDrainSignals(drainSignalHandler);
}

void
Frontend::restoreSignalHandlers()
{
    gSignalWakeFd.store(-1, std::memory_order_relaxed);
    setDrainSignals(SIG_DFL);
}

void
Frontend::beginDrain()
{
    if (draining_.exchange(true))
        return;

    ELAG_TRACE_EVT(channel_, requestSeq_.load(), "drain begins");

    // Wake the acceptor's poll so it stops accepting promptly.
    if (wakeWrite.valid()) {
        char byte = 'd';
        ssize_t ignored = ::write(wakeWrite.get(), &byte, 1);
        (void)ignored;
    }

    // EOF the read side of every open connection: idle clients see
    // a clean close, while responses still in flight go out on the
    // untouched write side. Connections deregister before closing,
    // so every fd in the set is still owned by its thread here.
    std::lock_guard<std::mutex> lock(connMu);
    for (int fd : activeFds)
        ::shutdown(fd, SHUT_RD);
}

void
Frontend::wait()
{
    elag_assert(started_.load());
    if (acceptor.joinable())
        acceptor.join();

    // The acceptor is gone, so no new connection threads can appear;
    // one sweep collects them all. Join outside the lock — threads
    // take connMu themselves to deregister their fd.
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(connMu);
        threads.swap(connThreads);
    }
    for (std::thread &t : threads)
        if (t.joinable())
            t.join();

    unixListener.reset();
    tcpListener.reset();
    ::unlink(socketPath_.c_str());

    // Drained. A late SIGTERM/SIGINT (a script's `drain` then
    // `kill -TERM`) must not kill the process before its owner
    // flushes the trace and the exit document, so ignore both until
    // exit. SIG_IGN goes in before the handler loses the pipe, and
    // the pipe stays open until destruction, so a handler already
    // running never writes to a closed descriptor.
    int mine = wakeWrite.get();
    if (gSignalWakeFd.load(std::memory_order_relaxed) == mine) {
        setDrainSignals(SIG_IGN);
        gSignalWakeFd.compare_exchange_strong(mine, -1);
    }
}

void
Frontend::acceptLoop()
{
    while (!draining_.load()) {
        struct pollfd fds[3];
        fds[0] = {wakeRead.get(), POLLIN, 0};
        fds[1] = {unixListener.get(), POLLIN, 0};
        nfds_t nfds = 2;
        if (tcpListener.valid())
            fds[nfds++] = {tcpListener.get(), POLLIN, 0};

        int rc = ::poll(fds, nfds, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            warn("elagd: poll failed: %s", strerror(errno));
            beginDrain();
            break;
        }

        if (fds[0].revents) {
            // Drain or signal wakeup; beginDrain is idempotent, so
            // it is safe to run it for a byte it wrote itself.
            beginDrain();
            break;
        }

        for (nfds_t i = 1; i < nfds; ++i) {
            if (!(fds[i].revents & POLLIN))
                continue;
            int conn = acceptOn(fds[i].fd);
            if (conn < 0)
                continue;
            // The process-wide count doubles as the connection's id
            // in spans and trace lines (one front end per elagd
            // process, so the ids are unique there).
            acceptedCounter().inc();
            uint64_t conn_id = acceptedCounter().value();
            std::lock_guard<std::mutex> lock(connMu);
            if (draining_.load()) {
                // Lost the race with beginDrain: it already swept
                // activeFds, so close rather than serve.
                ::close(conn);
                continue;
            }
            activeFds.insert(conn);
            connThreads.emplace_back([this, conn, conn_id] {
                serveConnection(conn, conn_id);
            });
        }
    }
}

void
Frontend::serveConnection(int fd, uint64_t conn_id)
{
    std::string payload;
    for (;;) {
        FrameStatus status = readFrame(fd, payload, maxFrameBytes_);
        if (status == FrameStatus::Eof)
            break;
        if (status == FrameStatus::Oversized) {
            // The stream cannot be resynchronized; tell the peer
            // why, then hang up.
            Request anon;
            writeFrame(fd, errorResponse(
                               anon, errtype::BadRequest,
                               formatString("frame exceeds %zu byte limit",
                                            maxFrameBytes_)));
            break;
        }
        if (status != FrameStatus::Ok)
            break; // Truncated / IoError: peer died mid-frame.

        auto started = std::chrono::steady_clock::now();
        uint64_t seq = requestSeq_.fetch_add(1) + 1;

        // One span per request, parse through response write; the
        // client attaches the same trace_id to its side, so the two
        // trace files line up per request.
        obs::Span span(spanName_, "serve");
        span.arg("conn", std::to_string(conn_id));

        Request request;
        std::string parse_error;
        std::string response;
        bool drain = false;
        if (!parseRequest(payload, request, parse_error)) {
            response = errorResponse(request, errtype::BadRequest,
                                     parse_error);
        } else {
            span.arg("verb", request.verb);
            if (!request.trace.empty())
                span.arg("trace_id", request.trace);
            if (request.verb == "drain") {
                drain = true;
                JsonWriter w(0);
                w.beginObject();
                w.field("draining", true);
                w.endObject();
                response = okResponse(request, w.str());
            } else {
                response = handler_(request, payload);
            }
        }

        uint64_t micros =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - started)
                .count();
        bool ok = startsWith(response, "{\"ok\":true");
        const std::string &verb =
            request.verb.empty() ? "<invalid>" : request.verb;
        metrics_.record(verb, ok, micros);
        ELAG_TRACE_EVT(channel_, seq,
                       "conn %llu verb=%s id=%llu %s %llu us",
                       (unsigned long long)conn_id, verb.c_str(),
                       (unsigned long long)request.id,
                       ok ? "ok" : "error",
                       (unsigned long long)micros);

        // Drain before the ack goes out, so a client holding the ack
        // sees a draining server. The ack is still the last frame on
        // this connection: beginDrain only shuts read sides, and
        // closing here makes the cutoff deterministic for the
        // requesting client while beginDrain EOFs the others.
        if (drain)
            beginDrain();
        bool wrote = writeFrame(fd, response);
        span.end();
        if (drain || !wrote)
            break;
    }

    // Deregister before closing so beginDrain never shutdown(2)s a
    // recycled descriptor.
    {
        std::lock_guard<std::mutex> lock(connMu);
        activeFds.erase(fd);
    }
    ::close(fd);
}

void
Frontend::writeServerFields(JsonWriter &w) const
{
    size_t active;
    {
        std::lock_guard<std::mutex> lock(connMu);
        active = activeFds.size();
    }
    w.field("draining", draining_.load());
    w.field("accepted", acceptedCounter().value());
    w.field("active_connections", static_cast<uint64_t>(active));
    w.field("uptime_seconds",
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::seconds>(
                    std::chrono::steady_clock::now() - startTime_)
                    .count()));
}

} // namespace serve
} // namespace elag
