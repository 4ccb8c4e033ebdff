/**
 * @file
 * Shard-worker lifecycle for the supervision tree.
 *
 * The ShardManager owns N worker processes (re-exec'd elagd images in
 * --shard-worker mode), each listening on its own Unix socket next to
 * the supervisor's. A monitor thread keeps them honest:
 *
 *  - Crash detection: non-blocking waitpid catches workers that
 *    exited or were killed; each death schedules a respawn.
 *  - Hang detection: periodic `health` heartbeats with a bounded
 *    frame read; a worker that accepts but never answers is SIGKILLed
 *    (whole process group) and respawned. The supervisor's proxy path
 *    reports request-deadline hangs the same way via killShard().
 *  - Restart backoff: respawns are delayed exponentially per crash
 *    streak (RestartPolicy::delayMs); a worker that stays up long
 *    enough resets its streak.
 *  - Crash-loop circuit breaker: a streak past the threshold parks
 *    the shard (state Broken) for a cooldown instead of burning CPU
 *    on futile respawns; after the cooldown one probe respawn runs
 *    and either closes the breaker or re-trips it.
 *
 * Poison-request quarantine also lives here: the supervisor records
 * each routing hash whose request was in flight when a worker died.
 * A hash that has killed workers `quarantineThreshold` times is
 * quarantined — further requests with that hash are rejected with a
 * typed error before they reach a shard, so one poisonous program
 * cannot crash-loop the whole fleet.
 *
 * RestartPolicy is a pure value type (no clocks, no processes) so
 * backoff and breaker arithmetic is unit-testable without spawning
 * anything.
 */

#ifndef ELAG_SERVE_SHARD_HH
#define ELAG_SERVE_SHARD_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "support/subprocess.hh"

namespace elag {
namespace serve {

/** Backoff + circuit-breaker arithmetic, pure and unit-testable. */
struct RestartPolicy
{
    /**
     * Respawn delay for the @p streak-th consecutive crash
     * (streak >= 1): 50 ms doubled per extra crash, capped at 5 s.
     */
    static uint64_t delayMs(uint32_t streak);

    /** @return true when @p streak trips the circuit breaker (5). */
    static bool breakerTrips(uint32_t streak);
};

/** Where one shard is in its lifecycle. */
enum class ShardState
{
    Down,     ///< not yet spawned (manager not started)
    Starting, ///< spawned, first heartbeat not yet answered
    Up,       ///< heartbeating; routable
    Backoff,  ///< crashed; respawn scheduled
    Broken,   ///< circuit breaker open; parked until cooldown ends
};

/** Stable lowercase name for stats documents and logs. */
const char *name(ShardState state);

/** How one request/response exchange with a worker ended. */
enum class Exchange
{
    Ok,          ///< response frame received
    ConnectFail, ///< could not connect or write (worker not there)
    Died,        ///< stream broke mid-exchange (worker died)
    Timeout,     ///< read budget expired (worker hung)
};

/**
 * Connect to the worker socket at @p socket_path, send @p request as
 * one frame and read one response frame of at most @p max_payload
 * bytes into @p response within @p timeout_ms (0 = unbounded). The
 * supervisor's proxy and metrics scrape and the manager's heartbeats
 * all talk to workers this way.
 */
Exchange exchangeFrame(const std::string &socket_path,
                       const std::string &request, size_t max_payload,
                       uint64_t timeout_ms, std::string &response);

struct ShardManagerConfig
{
    uint32_t shards = 0;
    /**
     * argv for one worker, built by the owner (tools/elagd bakes its
     * own re-exec flags here); the manager execs it verbatim.
     */
    std::function<std::vector<std::string>(
        uint32_t index, const std::string &socket_path)>
        workerArgv;
    /** Worker socket path for shard i (supervisor path + suffix). */
    std::function<std::string(uint32_t index)> socketPathFor;
    /** rlimit caps applied to every worker. */
    SpawnLimits limits;
    /** Crashes per routing hash before quarantine. */
    uint32_t quarantineThreshold = 3;
};

class ShardManager
{
  public:
    explicit ShardManager(const ShardManagerConfig &config);
    ~ShardManager();

    ShardManager(const ShardManager &) = delete;
    ShardManager &operator=(const ShardManager &) = delete;

    /** Spawn every worker and start the monitor thread. */
    void start();

    /**
     * Stop monitoring and take the fleet down: SIGTERM each worker
     * (they drain in-flight work themselves), escalate to SIGKILL
     * past the stop timeout. Idempotent.
     */
    void stop();

    /** @return true when shard @p index is routable. */
    bool isUp(uint32_t index) const;

    /** Routable shard count (drives admission scaling). */
    uint32_t liveCount() const;

    std::string socketPathOf(uint32_t index) const;

    /**
     * A proxied request on @p index hit its deadline or found the
     * worker wedged: SIGKILL the worker's group now and respawn it
     * through the normal backoff path, attributed to @p reason
     * ("hang" from the proxy, "crash" variants come from the
     * monitor itself).
     */
    void killShard(uint32_t index, const std::string &reason);

    /**
     * Record that a request with routing hash @p hash was in flight
     * when its worker died. @return true when the hash is now (or
     * already was) quarantined.
     */
    bool recordPoison(uint64_t hash);

    /** @return true when @p hash has been quarantined. */
    bool isQuarantined(uint64_t hash) const;

    /** One shard's row in the supervisor's stats document. */
    struct ShardInfo
    {
        uint32_t index = 0;
        pid_t pid = -1;
        ShardState state = ShardState::Down;
        std::string socketPath;
        uint64_t restarts = 0;
        uint32_t crashStreak = 0;
    };

    std::vector<ShardInfo> snapshot() const;

    /** Quarantined hash count (stats). */
    size_t quarantineSize() const;

  private:
    struct Shard
    {
        pid_t pid = -1;
        ShardState state = ShardState::Down;
        std::string socketPath;
        uint64_t restarts = 0;
        uint32_t crashStreak = 0;
        /** monotonic ms of the last spawn. */
        uint64_t spawnedAtMs = 0;
        /** monotonic ms when Backoff/Broken may respawn. */
        uint64_t retryAtMs = 0;
        /** monotonic ms of the last heartbeat attempt. */
        uint64_t lastBeatMs = 0;
        uint32_t missedBeats = 0;
        /** Reason to attribute the next observed death to. */
        std::string pendingReason;
    };

    void monitorLoop();
    /** Spawn shard @p index. Lock held. */
    void spawnLocked(uint32_t index);
    /** Death bookkeeping: streak, backoff, breaker. Lock held. */
    void recordDeathLocked(uint32_t index, const std::string &reason,
                           uint64_t now_ms);

    ShardManagerConfig cfg;

    mutable std::mutex mu;
    std::vector<Shard> shards_;
    std::unordered_map<uint64_t, uint32_t> poisonCounts_;
    std::atomic<uint32_t> liveCount_{0};

    std::thread monitor_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopped_{false};
};

} // namespace serve
} // namespace elag

#endif // ELAG_SERVE_SHARD_HH
