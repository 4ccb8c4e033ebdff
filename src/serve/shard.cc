#include "serve/shard.hh"

#include <csignal>

#include <algorithm>
#include <chrono>

#include "obs/metrics.hh"
#include "serve/framing.hh"
#include "serve/protocol.hh"
#include "serve/socket.hh"
#include "support/backoff.hh"
#include "support/logging.hh"

namespace elag {
namespace serve {

namespace {

/** Respawn delay after the first crash of a streak. */
constexpr uint64_t kBackoffBaseMs = 50;
/** Upper bound on the exponential respawn delay. */
constexpr uint64_t kBackoffCapMs = 5000;
/** Uptime that resets a shard's crash streak. */
constexpr uint64_t kStableMs = 10'000;
/** Crash-streak length that trips the circuit breaker. */
constexpr uint32_t kBreakerThreshold = 5;
/** How long a tripped breaker parks the shard before a probe. */
constexpr uint64_t kBreakerCooldownMs = 10'000;
/** Monitor tick. */
constexpr uint64_t kPollIntervalMs = 50;
/** Gap between heartbeats to one Up shard. */
constexpr uint64_t kHeartbeatIntervalMs = 500;
/** Budget for one heartbeat round-trip before it counts missed. */
constexpr uint64_t kHeartbeatTimeoutMs = 2000;
/** Consecutive missed heartbeats that declare a hang. */
constexpr uint32_t kHeartbeatMisses = 3;
/** Spawn-to-first-heartbeat budget before a worker is hung. */
constexpr uint64_t kStartupGraceMs = 10'000;
/** SIGTERM-to-SIGKILL budget per worker at stop(). */
constexpr uint64_t kStopTimeoutMs = 5000;

uint64_t
monotonicMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

obs::Counter &
restartCounter(const std::string &reason)
{
    // Registration is idempotent and the set of reasons is tiny, so
    // resolving per event (restarts are rare) beats caching.
    return obs::Registry::process().counter(
        "elag_serve_shard_restarts_total",
        "Shard worker respawns scheduled by the supervisor, by "
        "reason.",
        {{"reason", reason}});
}

} // anonymous namespace

const char *
name(ShardState state)
{
    switch (state) {
      case ShardState::Down:
        return "down";
      case ShardState::Starting:
        return "starting";
      case ShardState::Up:
        return "up";
      case ShardState::Backoff:
        return "backoff";
      case ShardState::Broken:
        return "broken";
    }
    return "?";
}

Exchange
exchangeFrame(const std::string &socket_path, const std::string &request,
              size_t max_payload, uint64_t timeout_ms,
              std::string &response)
{
    Fd fd;
    try {
        fd = connectUnix(socket_path);
    } catch (const FatalError &) {
        return Exchange::ConnectFail; // socket not bound (yet)
    }
    if (!writeFrame(fd.get(), request))
        return Exchange::ConnectFail;
    switch (readFrameTimed(fd.get(), response, max_payload,
                           timeout_ms)) {
      case FrameStatus::Ok:
        return Exchange::Ok;
      case FrameStatus::Timeout:
        return Exchange::Timeout;
      case FrameStatus::Eof:
      case FrameStatus::Truncated:
      case FrameStatus::IoError:
      case FrameStatus::Oversized:
        return Exchange::Died;
    }
    return Exchange::Died;
}

uint64_t
RestartPolicy::delayMs(uint32_t streak)
{
    elag_assert(streak >= 1);
    return cappedDoubling(kBackoffBaseMs, streak, kBackoffCapMs);
}

bool
RestartPolicy::breakerTrips(uint32_t streak)
{
    return streak >= kBreakerThreshold;
}

ShardManager::ShardManager(const ShardManagerConfig &config)
    : cfg(config)
{
    elag_assert(cfg.shards >= 1);
    elag_assert(cfg.workerArgv && cfg.socketPathFor);
    elag_assert(cfg.quarantineThreshold >= 1);
}

ShardManager::~ShardManager()
{
    stop();
}

void
ShardManager::start()
{
    elag_assert(!running_.load() && !stopped_.load());
    {
        std::lock_guard<std::mutex> lock(mu);
        shards_.resize(cfg.shards);
        for (uint32_t i = 0; i < cfg.shards; ++i) {
            shards_[i].socketPath = cfg.socketPathFor(i);
            spawnLocked(i);
        }
    }
    running_.store(true);
    monitor_ = std::thread([this] { monitorLoop(); });
}

void
ShardManager::stop()
{
    if (stopped_.exchange(true))
        return;
    running_.store(false);
    if (monitor_.joinable())
        monitor_.join();

    // The monitor is gone; this thread owns all shard state now.
    std::vector<pid_t> pids;
    {
        std::lock_guard<std::mutex> lock(mu);
        for (Shard &shard : shards_) {
            if (shard.pid > 0)
                pids.push_back(shard.pid);
            shard.state = ShardState::Down;
        }
        liveCount_.store(0);
    }

    // Workers drain themselves on SIGTERM (they run the same
    // graceful-drain path as a standalone daemon); escalate to
    // SIGKILL only past the budget.
    for (pid_t pid : pids)
        killSpawnedGroup(pid, SIGTERM);
    for (pid_t pid : pids) {
        SpawnedStatus status = waitSpawned(pid, kStopTimeoutMs);
        if (status.running) {
            warn("elagd: shard pid %d ignored SIGTERM; killing",
                 static_cast<int>(pid));
            killSpawnedGroup(pid, SIGKILL);
            waitSpawned(pid, 2000);
        }
    }

    std::lock_guard<std::mutex> lock(mu);
    for (Shard &shard : shards_)
        shard.pid = -1;
}

void
ShardManager::spawnLocked(uint32_t index)
{
    Shard &shard = shards_[index];
    std::vector<std::string> argv =
        cfg.workerArgv(index, shard.socketPath);
    std::string error;
    pid_t pid = spawnSubprocess(argv, cfg.limits, error);
    uint64_t now = monotonicMs();
    if (pid < 0) {
        warn("elagd: cannot spawn shard %u: %s", index,
             error.c_str());
        shard.state = ShardState::Backoff;
        shard.retryAtMs = now + RestartPolicy::delayMs(
                                    std::max(shard.crashStreak, 1u));
        return;
    }
    shard.pid = pid;
    shard.state = ShardState::Starting;
    shard.spawnedAtMs = now;
    shard.lastBeatMs = 0;
    shard.missedBeats = 0;
    shard.pendingReason.clear();
}

void
ShardManager::recordDeathLocked(uint32_t index,
                                const std::string &reason,
                                uint64_t now_ms)
{
    Shard &shard = shards_[index];
    bool wasStable = now_ms - shard.spawnedAtMs >= kStableMs;
    shard.crashStreak = wasStable ? 1 : shard.crashStreak + 1;
    shard.pid = -1;
    shard.missedBeats = 0;
    shard.pendingReason.clear();
    ++shard.restarts;
    restartCounter(reason).inc();

    if (RestartPolicy::breakerTrips(shard.crashStreak)) {
        shard.state = ShardState::Broken;
        shard.retryAtMs = now_ms + kBreakerCooldownMs;
        warn("elagd: shard %u crash-looping (%u in a row, %s); "
             "breaker open for %llu ms",
             index, shard.crashStreak, reason.c_str(),
             (unsigned long long)kBreakerCooldownMs);
    } else {
        uint64_t delay = RestartPolicy::delayMs(shard.crashStreak);
        shard.state = ShardState::Backoff;
        shard.retryAtMs = now_ms + delay;
        warn("elagd: shard %u died (%s); respawn in %llu ms", index,
             reason.c_str(), (unsigned long long)delay);
    }

    uint32_t live = 0;
    for (const Shard &s : shards_)
        if (s.state == ShardState::Up)
            ++live;
    liveCount_.store(live);
}

void
ShardManager::monitorLoop()
{
    Request ping;
    ping.verb = "health";
    const std::string ping_doc = buildRequestDoc(ping);

    while (running_.load()) {
        uint64_t now = monotonicMs();

        // Reap deaths and run due respawns under the lock; gather
        // the heartbeat worklist for the unlocked IO below.
        struct Probe
        {
            uint32_t index;
            pid_t pid;
            std::string socket;
        };
        std::vector<Probe> probes;
        {
            std::lock_guard<std::mutex> lock(mu);
            for (uint32_t i = 0; i < shards_.size(); ++i) {
                Shard &shard = shards_[i];
                switch (shard.state) {
                  case ShardState::Starting:
                  case ShardState::Up: {
                      SpawnedStatus status = pollSpawned(shard.pid);
                      if (!status.running) {
                          std::string reason =
                              !shard.pendingReason.empty()
                                  ? shard.pendingReason
                                  : (status.termSignal ? "crash"
                                                       : "exit");
                          recordDeathLocked(i, reason, now);
                          break;
                      }
                      bool due =
                          shard.state == ShardState::Starting
                              ? now - shard.lastBeatMs >= kPollIntervalMs
                              : now - shard.lastBeatMs >=
                                    kHeartbeatIntervalMs;
                      if (due) {
                          shard.lastBeatMs = now;
                          probes.push_back(
                              {i, shard.pid, shard.socketPath});
                      }
                      break;
                  }
                  case ShardState::Backoff:
                  case ShardState::Broken:
                      if (now >= shard.retryAtMs)
                          spawnLocked(i);
                      break;
                  case ShardState::Down:
                      break;
                }
            }
        }

        // Heartbeat IO happens unlocked; results are applied only if
        // the shard is still the same incarnation (same pid).
        for (const Probe &probe : probes) {
            std::string pong;
            bool alive = exchangeFrame(probe.socket, ping_doc,
                                       kMaxFramePayload,
                                       kHeartbeatTimeoutMs,
                                       pong) == Exchange::Ok;
            std::lock_guard<std::mutex> lock(mu);
            Shard &shard = shards_[probe.index];
            if (shard.pid != probe.pid ||
                (shard.state != ShardState::Starting &&
                 shard.state != ShardState::Up)) {
                continue; // respawned or reaped meanwhile
            }
            if (alive) {
                if (shard.state == ShardState::Starting) {
                    shard.state = ShardState::Up;
                    uint32_t live = 0;
                    for (const Shard &s : shards_)
                        if (s.state == ShardState::Up)
                            ++live;
                    liveCount_.store(live);
                    inform("elagd: shard %u up (pid %d)",
                           probe.index,
                           static_cast<int>(probe.pid));
                }
                shard.missedBeats = 0;
                continue;
            }
            if (shard.state == ShardState::Starting) {
                // Workers get a startup grace to bind their socket;
                // past it an unresponsive worker is hung.
                if (monotonicMs() - shard.spawnedAtMs > kStartupGraceMs) {
                    shard.pendingReason = "hang";
                    killSpawnedGroup(shard.pid, SIGKILL);
                }
                continue;
            }
            if (++shard.missedBeats >= kHeartbeatMisses) {
                warn("elagd: shard %u missed %u heartbeats; "
                     "killing",
                     probe.index, shard.missedBeats);
                shard.pendingReason = "hang";
                killSpawnedGroup(shard.pid, SIGKILL);
            }
        }

        std::this_thread::sleep_for(
            std::chrono::milliseconds(kPollIntervalMs));
    }
}

bool
ShardManager::isUp(uint32_t index) const
{
    std::lock_guard<std::mutex> lock(mu);
    return index < shards_.size() &&
           shards_[index].state == ShardState::Up;
}

uint32_t
ShardManager::liveCount() const
{
    return liveCount_.load();
}

std::string
ShardManager::socketPathOf(uint32_t index) const
{
    std::lock_guard<std::mutex> lock(mu);
    elag_assert(index < shards_.size());
    return shards_[index].socketPath;
}

void
ShardManager::killShard(uint32_t index, const std::string &reason)
{
    std::lock_guard<std::mutex> lock(mu);
    if (index >= shards_.size())
        return;
    Shard &shard = shards_[index];
    if (shard.pid <= 0 || (shard.state != ShardState::Up &&
                           shard.state != ShardState::Starting)) {
        return;
    }
    shard.pendingReason = reason;
    killSpawnedGroup(shard.pid, SIGKILL);
    // The monitor reaps the death and schedules the respawn with
    // this reason attached.
}

bool
ShardManager::recordPoison(uint64_t hash)
{
    std::lock_guard<std::mutex> lock(mu);
    uint32_t count = ++poisonCounts_[hash];
    return count >= cfg.quarantineThreshold;
}

bool
ShardManager::isQuarantined(uint64_t hash) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = poisonCounts_.find(hash);
    return it != poisonCounts_.end() &&
           it->second >= cfg.quarantineThreshold;
}

std::vector<ShardManager::ShardInfo>
ShardManager::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<ShardInfo> out;
    out.reserve(shards_.size());
    for (uint32_t i = 0; i < shards_.size(); ++i) {
        const Shard &shard = shards_[i];
        out.push_back({i, shard.pid, shard.state, shard.socketPath,
                       shard.restarts, shard.crashStreak});
    }
    return out;
}

size_t
ShardManager::quarantineSize() const
{
    std::lock_guard<std::mutex> lock(mu);
    size_t n = 0;
    for (const auto &kv : poisonCounts_)
        if (kv.second >= cfg.quarantineThreshold)
            ++n;
    return n;
}

} // namespace serve
} // namespace elag
