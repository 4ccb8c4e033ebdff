/**
 * @file
 * Socket plumbing for the serving daemon and its clients.
 *
 * Thin, error-hardened wrappers over the POSIX socket calls: RAII
 * file descriptors, Unix-domain and TCP-loopback listeners and
 * connectors, and full-buffer read/write helpers that retry EINTR
 * and resume short transfers. SIGPIPE is ignored process-wide by
 * ignoreSigpipe(), so a peer that disconnects mid-response surfaces
 * as an EPIPE write error on one connection instead of killing the
 * server.
 *
 * All setup helpers (the listen and connect family) throw FatalError
 * with a descriptive message; the data-path helpers return status
 * codes so
 * per-connection code can decide between closing quietly and
 * reporting.
 */

#ifndef ELAG_SERVE_SOCKET_HH
#define ELAG_SERVE_SOCKET_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace elag {
namespace serve {

/**
 * Ignore SIGPIPE for the whole process (idempotent). Both elagd and
 * elag_client call this before touching a socket; library users that
 * embed a Server get it from Frontend::start().
 */
void ignoreSigpipe();

/** Movable owner of one file descriptor; closes on destruction. */
class Fd
{
  public:
    Fd() = default;
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd() { reset(); }

    Fd(Fd &&other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    Fd &
    operator=(Fd &&other) noexcept
    {
        if (this != &other) {
            reset();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;

    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    /** Close (if open) and adopt @p fd. */
    void reset(int fd = -1);

  private:
    int fd_ = -1;
};

/**
 * Bind and listen on a Unix-domain socket at @p path, replacing any
 * stale socket file left by a previous run. Throws FatalError on
 * failure (path too long for sun_path, bind/listen errors).
 */
Fd listenUnix(const std::string &path, int backlog = 64);

/** Bind and listen on 127.0.0.1:@p port. Throws FatalError. */
Fd listenTcpLoopback(uint16_t port, int backlog = 64);

/** Connect to a Unix-domain socket. Throws FatalError. */
Fd connectUnix(const std::string &path);

/** Connect to 127.0.0.1:@p port. Throws FatalError. */
Fd connectTcpLoopback(uint16_t port);

/** accept(2) with EINTR retry; returns -1 on any other error. */
int acceptOn(int listen_fd);

/** How a full-buffer read ended. */
enum class IoStatus
{
    Ok,      ///< all n bytes transferred
    Eof,     ///< clean EOF before the first byte
    Short,   ///< EOF after some bytes (peer died mid-message)
    Error,   ///< read/write error (errno-level)
    Timeout, ///< deadline expired before all n bytes arrived
};

/**
 * Read exactly @p n bytes, retrying EINTR and short reads. On Short
 * or Error, @p got (when non-null) holds the bytes transferred.
 */
IoStatus readFull(int fd, void *buf, size_t n, size_t *got = nullptr);

/**
 * readFull with a wall-clock budget: gives up with IoStatus::Timeout
 * when @p timeout_ms elapses before all @p n bytes arrive (the bytes
 * read so far are in the buffer and counted in @p got). A budget of
 * 0 means no deadline — identical to readFull. The fd stays in
 * blocking mode; readiness is awaited with poll(2), so only readable
 * fds are ever read.
 */
IoStatus readFullTimed(int fd, void *buf, size_t n,
                       uint64_t timeout_ms, size_t *got = nullptr);

/**
 * Write exactly @p n bytes, retrying EINTR and short writes.
 * @return true when everything was written.
 */
bool writeFull(int fd, const void *buf, size_t n);

} // namespace serve
} // namespace elag

#endif // ELAG_SERVE_SOCKET_HH
