/**
 * @file
 * Sandboxed subprocess execution for crash-isolated job running.
 *
 * runSubprocess() forks a child into its own process group, applies
 * optional rlimit caps (CPU seconds, address space), captures stdout
 * and stderr through pipes with a per-stream truncation cap, and
 * enforces a wall-clock timeout by SIGKILLing the whole group. The
 * parent never blocks uninterruptibly: pipes are drained with poll()
 * against the deadline, so a child that hangs with open descriptors
 * is still killed on time.
 *
 * This is the isolation layer under tools/elag_campaign: a crashed,
 * hung, or memory-exploding job takes down only its own process, and
 * the caller gets enough of the exit status back to classify the
 * failure (clean exit / signal / timeout / suspected OOM kill).
 */

#ifndef ELAG_SUPPORT_SUBPROCESS_HH
#define ELAG_SUPPORT_SUBPROCESS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace elag {

/** Resource caps applied to one subprocess run; 0 means unlimited. */
struct SubprocessLimits
{
    /** Wall-clock budget; past it the process group is SIGKILLed. */
    uint64_t wallTimeoutMs = 0;
    /** RLIMIT_CPU in seconds (kernel delivers SIGXCPU/SIGKILL). */
    uint64_t cpuSeconds = 0;
    /** RLIMIT_AS in bytes (allocations past it fail in the child). */
    uint64_t addressSpaceBytes = 0;
    /** Per-stream capture cap; excess output is drained, not stored. */
    size_t maxCaptureBytes = 1 << 20;
};

/** How a subprocess run ended, in classification priority order. */
enum class SubprocessStatus {
    Exited,      ///< normal exit; see exitCode
    Signaled,    ///< killed by a signal it raised itself; see termSignal
    TimedOut,    ///< wall-clock cap hit; we SIGKILLed the group
    StartFailed, ///< fork/pipe failure in the parent; see error
};

/** Everything the caller needs to classify and log one run. */
struct SubprocessResult
{
    SubprocessStatus status = SubprocessStatus::StartFailed;
    /** Exit code when status == Exited (127 = exec failed). */
    int exitCode = -1;
    /** Terminating signal when status is Signaled or TimedOut. */
    int termSignal = 0;
    std::string out; ///< captured stdout (possibly truncated)
    std::string err; ///< captured stderr (possibly truncated)
    bool outTruncated = false;
    bool errTruncated = false;
    uint64_t wallMs = 0; ///< wall-clock duration of the run
    std::string error; ///< parent-side failure detail (StartFailed)

    /**
     * A SIGKILL we did not send ourselves: on Linux this is the OOM
     * killer's signature (the kernel never SIGKILLs for RLIMIT_AS —
     * that surfaces as allocation failure — but it does for cgroup /
     * system OOM, and RLIMIT_CPU hard-limit overrun).
     */
    bool
    oomSuspected() const
    {
        return status == SubprocessStatus::Signaled &&
               termSignal == 9 /* SIGKILL */;
    }
};

/**
 * Run @p argv (argv[0] is the executable, resolved via PATH) under
 * @p limits and block until it finishes or times out. Thread-safe:
 * only async-signal-safe calls happen between fork and exec, so
 * worker-pool threads may call this concurrently.
 */
SubprocessResult runSubprocess(const std::vector<std::string> &argv,
                               const SubprocessLimits &limits = {});

/**
 * "exit 7", "signal 11 (SIGSEGV)", "timeout after 1200 ms", ...
 * Tests use it to explain a failed child.
 */
std::string describeSubprocessResult(const SubprocessResult &result);

/**
 * Resource cap applied to a long-lived spawned child. Unlike
 * SubprocessLimits there is no wall-clock or CPU cap:
 * supervision-tree children live until their supervisor stops them,
 * and hang detection is the supervisor's job (heartbeats,
 * per-request deadlines), not the spawn layer's.
 */
struct SpawnLimits
{
    /** RLIMIT_AS in bytes (allocations past it fail in the child). */
    uint64_t addressSpaceBytes = 0;
};

/**
 * Fork+exec @p argv as a long-lived child in its own process group,
 * with @p limits applied before exec and stdio inherited from the
 * parent. The same fork discipline as runSubprocess applies (only
 * async-signal-safe calls before exec), so a multithreaded
 * supervisor may spawn and respawn workers at any time.
 *
 * @return the child pid, or -1 with @p error set when fork failed.
 * An exec failure surfaces as the child exiting 127, observable
 * through pollSpawned().
 */
pid_t spawnSubprocess(const std::vector<std::string> &argv,
                      const SpawnLimits &limits, std::string &error);

/** Snapshot of a spawned child's state from a non-blocking poll. */
struct SpawnedStatus
{
    /** False once the child has been reaped (exit/signal below). */
    bool running = true;
    /** Exit code when the child exited normally, else -1. */
    int exitCode = -1;
    /** Terminating signal when the child was killed, else 0. */
    int termSignal = 0;
};

/**
 * waitpid(WNOHANG) for a child created with spawnSubprocess. Once a
 * poll reports the child down it has been reaped; further polls on
 * that pid are invalid.
 */
SpawnedStatus pollSpawned(pid_t pid);

/**
 * Block up to @p timeout_ms for the child to exit, reaping it.
 * @return running == true when the deadline passed first.
 */
SpawnedStatus waitSpawned(pid_t pid, uint64_t timeout_ms);

/**
 * Deliver @p sig to the child's whole process group (spawned
 * children are their own group leaders), so helpers the worker
 * forked die with it. Safe on an already-dead group.
 */
void killSpawnedGroup(pid_t pid, int sig);

} // namespace elag

#endif // ELAG_SUPPORT_SUBPROCESS_HH
