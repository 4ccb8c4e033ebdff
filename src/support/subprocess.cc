#include "support/subprocess.hh"

#include <cerrno>
#include <cstring>
#include <csignal>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "support/logging.hh"

namespace elag {

namespace {

uint64_t
monotonicMs()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000 +
           static_cast<uint64_t>(ts.tv_nsec) / 1'000'000;
}

/** Append from @p fd into @p dest honouring the capture cap. */
void
drainFd(int fd, std::string &dest, bool &truncated, size_t cap)
{
    char buf[4096];
    for (;;) {
        ssize_t n = read(fd, buf, sizeof(buf));
        if (n <= 0)
            return; // EOF, EAGAIN, or error: caller's poll loop decides
        size_t room = dest.size() < cap ? cap - dest.size() : 0;
        if (room == 0) {
            truncated = true; // keep draining so the child never blocks
        } else {
            size_t take = std::min(static_cast<size_t>(n), room);
            dest.append(buf, take);
            if (take < static_cast<size_t>(n))
                truncated = true;
        }
    }
}

void
setLimit(int resource, uint64_t value)
{
    struct rlimit rl;
    rl.rlim_cur = value;
    rl.rlim_max = value;
    setrlimit(resource, &rl); // best-effort inside the child
}

} // namespace

SubprocessResult
runSubprocess(const std::vector<std::string> &argv,
              const SubprocessLimits &limits)
{
    SubprocessResult result;
    if (argv.empty()) {
        result.error = "empty argv";
        return result;
    }

    int outPipe[2];
    int errPipe[2];
    if (pipe(outPipe) != 0) {
        result.error = std::string("pipe: ") + std::strerror(errno);
        return result;
    }
    if (pipe(errPipe) != 0) {
        result.error = std::string("pipe: ") + std::strerror(errno);
        close(outPipe[0]);
        close(outPipe[1]);
        return result;
    }

    // argv must be materialized before fork: only async-signal-safe
    // calls are allowed in the child of a multithreaded parent.
    std::vector<char *> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string &arg : argv)
        cargv.push_back(const_cast<char *>(arg.c_str()));
    cargv.push_back(nullptr);

    uint64_t start = monotonicMs();
    pid_t pid = fork();
    if (pid < 0) {
        result.error = std::string("fork: ") + std::strerror(errno);
        close(outPipe[0]);
        close(outPipe[1]);
        close(errPipe[0]);
        close(errPipe[1]);
        return result;
    }

    if (pid == 0) {
        // Child: own process group so a timeout kill reaps helpers
        // the job spawned too (e.g. /bin/sh wrappers).
        setpgid(0, 0);
        dup2(outPipe[1], STDOUT_FILENO);
        dup2(errPipe[1], STDERR_FILENO);
        close(outPipe[0]);
        close(outPipe[1]);
        close(errPipe[0]);
        close(errPipe[1]);
        if (limits.cpuSeconds)
            setLimit(RLIMIT_CPU, limits.cpuSeconds);
        if (limits.addressSpaceBytes)
            setLimit(RLIMIT_AS, limits.addressSpaceBytes);
        execvp(cargv[0], cargv.data());
        // exec failed; 127 is the shell convention for command-not-found.
        _exit(127);
    }

    // Parent.
    close(outPipe[1]);
    close(errPipe[1]);
    fcntl(outPipe[0], F_SETFL, O_NONBLOCK);
    fcntl(errPipe[0], F_SETFL, O_NONBLOCK);

    bool killed = false;
    int openFds = 2;
    struct pollfd fds[2];
    fds[0] = {outPipe[0], POLLIN, 0};
    fds[1] = {errPipe[0], POLLIN, 0};

    // Drain both pipes until EOF; enforce the wall deadline while
    // draining so a hung child with open descriptors still dies.
    while (openFds > 0) {
        int timeout = -1;
        if (limits.wallTimeoutMs && !killed) {
            uint64_t elapsed = monotonicMs() - start;
            if (elapsed >= limits.wallTimeoutMs) {
                kill(-pid, SIGKILL);
                killed = true;
                timeout = -1;
            } else {
                timeout = static_cast<int>(
                    std::min<uint64_t>(limits.wallTimeoutMs - elapsed,
                                       1 << 30));
            }
        }
        int rv = poll(fds, 2, timeout);
        if (rv < 0 && errno != EINTR)
            break;
        for (int i = 0; i < 2; ++i) {
            if (fds[i].fd < 0 || !(fds[i].revents & (POLLIN | POLLHUP)))
                continue;
            std::string &dest = i == 0 ? result.out : result.err;
            bool &trunc =
                i == 0 ? result.outTruncated : result.errTruncated;
            drainFd(fds[i].fd, dest, trunc, limits.maxCaptureBytes);
            if (fds[i].revents & POLLHUP) {
                // Writer closed; drainFd above consumed what was left.
                close(fds[i].fd);
                fds[i].fd = -1;
                --openFds;
            }
        }
    }
    if (fds[0].fd >= 0)
        close(fds[0].fd);
    if (fds[1].fd >= 0)
        close(fds[1].fd);

    // Reap, still honouring the deadline: the child may have closed
    // its pipes but kept running.
    int status = 0;
    for (;;) {
        pid_t w = waitpid(pid, &status, killed ? 0 : WNOHANG);
        if (w == pid)
            break;
        if (w < 0 && errno != EINTR) {
            result.error =
                std::string("waitpid: ") + std::strerror(errno);
            break;
        }
        if (w == 0) {
            uint64_t elapsed = monotonicMs() - start;
            if (limits.wallTimeoutMs && elapsed >= limits.wallTimeoutMs) {
                kill(-pid, SIGKILL);
                killed = true;
                continue;
            }
            struct timespec nap = {0, 2'000'000}; // 2 ms
            nanosleep(&nap, nullptr);
        }
    }

    result.wallMs = monotonicMs() - start;
    if (killed) {
        result.status = SubprocessStatus::TimedOut;
        result.termSignal =
            WIFSIGNALED(status) ? WTERMSIG(status) : SIGKILL;
    } else if (WIFSIGNALED(status)) {
        result.status = SubprocessStatus::Signaled;
        result.termSignal = WTERMSIG(status);
    } else if (WIFEXITED(status)) {
        result.status = SubprocessStatus::Exited;
        result.exitCode = WEXITSTATUS(status);
    } else {
        result.error = "unrecognized wait status";
    }
    return result;
}

pid_t
spawnSubprocess(const std::vector<std::string> &argv,
                const SpawnLimits &limits, std::string &error)
{
    if (argv.empty()) {
        error = "empty argv";
        return -1;
    }
    std::vector<char *> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string &arg : argv)
        cargv.push_back(const_cast<char *>(arg.c_str()));
    cargv.push_back(nullptr);

    pid_t pid = fork();
    if (pid < 0) {
        error = std::string("fork: ") + std::strerror(errno);
        return -1;
    }
    if (pid == 0) {
        setpgid(0, 0);
        // Default SIGTERM/SIGINT even when this process ignores them
        // (exec keeps SIG_IGN): a drained elagd supervisor ignores
        // both, yet still stops its workers with SIGTERM.
        signal(SIGTERM, SIG_DFL);
        signal(SIGINT, SIG_DFL);
        if (limits.addressSpaceBytes)
            setLimit(RLIMIT_AS, limits.addressSpaceBytes);
        execvp(cargv[0], cargv.data());
        _exit(127);
    }
    return pid;
}

namespace {

SpawnedStatus
statusFromWait(int status)
{
    SpawnedStatus s;
    s.running = false;
    if (WIFEXITED(status))
        s.exitCode = WEXITSTATUS(status);
    else if (WIFSIGNALED(status))
        s.termSignal = WTERMSIG(status);
    return s;
}

} // anonymous namespace

SpawnedStatus
pollSpawned(pid_t pid)
{
    int status = 0;
    for (;;) {
        pid_t w = waitpid(pid, &status, WNOHANG);
        if (w == pid)
            return statusFromWait(status);
        if (w == 0)
            return SpawnedStatus{};
        if (errno != EINTR) {
            // ECHILD: already reaped (or never ours). Report it down
            // with neither exit code nor signal known.
            SpawnedStatus s;
            s.running = false;
            return s;
        }
    }
}

SpawnedStatus
waitSpawned(pid_t pid, uint64_t timeout_ms)
{
    uint64_t start = monotonicMs();
    for (;;) {
        SpawnedStatus s = pollSpawned(pid);
        if (!s.running)
            return s;
        if (monotonicMs() - start >= timeout_ms)
            return s;
        struct timespec nap = {0, 2'000'000}; // 2 ms
        nanosleep(&nap, nullptr);
    }
}

void
killSpawnedGroup(pid_t pid, int sig)
{
    if (pid > 0)
        kill(-pid, sig);
}

std::string
describeSubprocessResult(const SubprocessResult &result)
{
    switch (result.status) {
      case SubprocessStatus::Exited:
        return formatString("exit %d", result.exitCode);
      case SubprocessStatus::Signaled:
        return formatString("signal %d (%s)", result.termSignal,
                            strsignal(result.termSignal));
      case SubprocessStatus::TimedOut:
        return formatString(
            "timeout after %llu ms",
            static_cast<unsigned long long>(result.wallMs));
      case SubprocessStatus::StartFailed:
        return "start failed: " + result.error;
    }
    return "?";
}

} // namespace elag
