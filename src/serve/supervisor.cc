#include "serve/supervisor.hh"

#include <algorithm>

#include "obs/build_info.hh"
#include "obs/metrics.hh"
#include "serve/framing.hh"
#include "serve/protocol.hh"
#include "serve/routing.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/trace.hh"

namespace elag {
namespace serve {

namespace {

trace::Channel &supTrace = trace::channel("supervisor");

/** Extra proxy-read budget past the request's own deadline. */
constexpr uint64_t kProxyGraceMs = 2000;

obs::Counter &
quarantinedCounter()
{
    static obs::Counter &counter = obs::Registry::process().counter(
        "elag_serve_quarantined_total",
        "Requests rejected because their content hash is "
        "quarantined.");
    return counter;
}

} // anonymous namespace

Supervisor::Supervisor(const SupervisorConfig &config)
    : cfg(config),
      frontend(config.socketPath, config.tcpPort, kMaxFramePayload,
               "proxy", supTrace,
               [this](const Request &request, const std::string &raw) {
                   return handle(request, raw);
               })
{
    if (cfg.shards.shards == 0)
        fatal("elagd: supervisor needs at least one shard");
    if (cfg.queueDepth == 0)
        fatal("elagd: --queue-depth must be at least 1");
    shards_.reset(new ShardManager(cfg.shards));
}

void
Supervisor::start()
{
    // Workers first: by the time a client can connect there is a
    // fleet to route to (workers may still be binding; admission
    // answers `unavailable` until the first heartbeat lands).
    shards_->start();
    frontend.start();
}

void
Supervisor::wait()
{
    // Every in-flight proxied request has completed (its connection
    // thread is joined); only now is it safe to take the fleet down.
    frontend.wait();
    shards_->stop();
}

std::string
Supervisor::handle(const Request &request,
                   const std::string &raw_payload)
{
    if (request.verb == "health") {
        JsonWriter w(0);
        w.beginObject();
        w.field("status", "ok");
        w.field("role", "supervisor");
        w.field("draining", frontend.draining());
        w.field("shards",
                static_cast<uint64_t>(cfg.shards.shards));
        w.field("shards_live",
                static_cast<uint64_t>(shards_->liveCount()));
        w.endObject();
        return okResponse(request, w.str());
    }

    if (request.verb == "stats")
        return okResponse(request, statsJson());

    if (request.verb == "metrics")
        return aggregateMetrics(request);

    // Everything else — the work verbs, and any verb this supervisor
    // does not know — is the workers' business: route it. Workers
    // answer unknown verbs with the typed error themselves, so the
    // supervisor stays agnostic to worker-side verb growth.
    if (frontend.draining()) {
        rejectedDraining_.fetch_add(1);
        return errorResponse(request, errtype::ShuttingDown,
                             "server is draining");
    }

    return proxyWork(request, raw_payload);
}

std::string
Supervisor::proxyWork(const Request &request,
                      const std::string &raw_payload)
{
    uint64_t hash = routingHash(request);

    if (shards_->isQuarantined(hash)) {
        quarantinedCounter().inc();
        return errorResponse(
            request, errtype::Quarantined,
            formatString("request content has crashed workers %u "
                         "times and is quarantined",
                         cfg.shards.quarantineThreshold));
    }

    // Graceful degradation: admission scales with surviving
    // capacity. At full strength the bound is queueDepth; with half
    // the fleet down, half the in-flight work.
    uint32_t live = shards_->liveCount();
    if (live == 0) {
        rejectedUnavailable_.fetch_add(1);
        return errorResponse(request, errtype::Unavailable,
                             "no shard workers are available");
    }
    uint32_t limit = std::max<uint32_t>(
        1, static_cast<uint32_t>(
               static_cast<uint64_t>(cfg.queueDepth) * live /
               cfg.shards.shards));
    uint32_t inflight = inflight_.load();
    do {
        if (inflight >= limit) {
            rejectedOverload_.fetch_add(1);
            return errorResponse(
                request, errtype::Overloaded,
                formatString("supervisor is at capacity (%u in "
                             "flight, limit %u with %u/%u shards "
                             "live)",
                             inflight, limit, live,
                             cfg.shards.shards));
        }
    } while (
        !inflight_.compare_exchange_weak(inflight, inflight + 1));
    proxied_.fetch_add(1);

    struct InflightGuard
    {
        std::atomic<uint32_t> &count;
        ~InflightGuard() { count.fetch_sub(1); }
    } guard{inflight_};

    // Per-request proxy deadline: the request's own deadline plus
    // grace (the worker enforces the precise one; the grace only
    // catches a worker too wedged to answer at all). Requests with
    // no deadline read unbounded — heartbeats break true hangs by
    // killing the worker, which surfaces here as a died stream.
    uint64_t deadline = request.deadlineMs ? request.deadlineMs
                                           : cfg.defaultDeadlineMs;
    uint64_t timeout_ms = deadline ? deadline + kProxyGraceMs : 0;

    std::vector<uint32_t> order =
        failoverOrder(hash, cfg.shards.shards);
    uint32_t deaths = 0;
    bool attempted = false;
    for (uint32_t index : order) {
        if (!shards_->isUp(index))
            continue;
        attempted = true;
        std::string response;
        Exchange outcome =
            exchangeFrame(shards_->socketPathOf(index), raw_payload,
                          kMaxFramePayload, timeout_ms, response);
        switch (outcome) {
          case Exchange::Ok:
            return response;
          case Exchange::ConnectFail:
            // The worker is between death and respawn; its sibling
            // can take the request. Not the request's fault.
            retried_.fetch_add(1);
            continue;
          case Exchange::Timeout:
            // The worker wedged on this request. Kill it (the
            // manager respawns it) and fail the request: its
            // deadline budget is spent, a sibling retry would just
            // hang twice as long.
            shards_->killShard(index, "hang");
            shards_->recordPoison(hash);
            return errorResponse(
                request, errtype::Timeout,
                formatString("shard %u exceeded the %llu ms proxy "
                             "deadline",
                             index,
                             (unsigned long long)timeout_ms));
          case Exchange::Died: {
            // The worker died mid-request. Work verbs are pure, so
            // the retry on a sibling is safe — unless this content
            // keeps killing workers.
            bool quarantined = shards_->recordPoison(hash);
            ++deaths;
            if (quarantined) {
                quarantinedCounter().inc();
                return errorResponse(
                    request, errtype::Quarantined,
                    formatString(
                        "request content has crashed workers %u "
                        "times and is quarantined",
                        cfg.shards.quarantineThreshold));
            }
            if (deaths >= 2) {
                return errorResponse(
                    request, errtype::ShardFailed,
                    formatString("request crashed %u shard workers",
                                 deaths));
            }
            retried_.fetch_add(1);
            continue;
          }
        }
    }

    if (deaths > 0) {
        return errorResponse(
            request, errtype::ShardFailed,
            formatString("request crashed %u shard worker%s and no "
                         "sibling could serve it",
                         deaths, deaths == 1 ? "" : "s"));
    }
    rejectedUnavailable_.fetch_add(1);
    return errorResponse(request, errtype::Unavailable,
                         attempted
                             ? "every live shard refused the "
                               "connection"
                             : "no shard workers are available");
}

std::string
Supervisor::aggregateMetrics(const Request &request)
{
    if (!request.format.empty() && request.format != "json" &&
        request.format != "prometheus") {
        return errorResponse(
            request, errtype::BadRequest,
            formatString("unknown metrics format '%s'",
                         request.format.c_str()));
    }

    // Merge this process's counters with every live worker's into a
    // private registry. Counters are deltas-from-zero, so summing
    // same-named samples is the right aggregation; histograms stay
    // per-process (the counters exposition is what workers export).
    obs::Registry merged;
    {
        JsonWriter w(0);
        obs::Registry::process().writeCountersJson(w);
        merged.restoreCounters(w.str());
    }

    Request scrape;
    scrape.verb = "metrics";
    scrape.format = "counters";
    std::string scrape_doc = buildRequestDoc(scrape);
    for (const ShardManager::ShardInfo &info : shards_->snapshot()) {
        if (info.state != ShardState::Up)
            continue;
        std::string payload;
        if (exchangeFrame(info.socketPath, scrape_doc,
                          kMaxFramePayload, 2000,
                          payload) != Exchange::Ok) {
            continue;
        }
        Response response;
        std::string parse_error;
        if (parseResponse(payload, response, parse_error) &&
            response.ok) {
            merged.restoreCounters(response.result);
        }
    }

    if (request.format == "prometheus") {
        JsonWriter w(0);
        w.beginObject();
        w.field("format", "prometheus");
        w.field("body", merged.prometheus());
        w.endObject();
        return okResponse(request, w.str());
    }
    JsonWriter w(0);
    merged.writeJson(w);
    return okResponse(request, w.str());
}

std::string
Supervisor::statsJson() const
{
    JsonWriter w;
    w.beginObject();

    w.key("server").beginObject();
    w.field("role", "supervisor");
    frontend.writeServerFields(w);
    w.endObject();

    w.key("build");
    obs::writeJson(w, obs::buildInfo());

    w.key("proxy").beginObject();
    w.field("depth", static_cast<uint64_t>(cfg.queueDepth));
    w.field("inflight", static_cast<uint64_t>(inflight_.load()));
    w.field("proxied", proxied_.load());
    w.field("retried", retried_.load());
    w.field("rejected_overload", rejectedOverload_.load());
    w.field("rejected_quarantine", quarantinedCounter().value());
    w.field("rejected_unavailable", rejectedUnavailable_.load());
    w.field("rejected_draining", rejectedDraining_.load());
    w.endObject();

    w.key("verbs");
    frontend.verbMetrics().writeJson(w);

    w.key("shards").beginArray();
    for (const ShardManager::ShardInfo &info : shards_->snapshot()) {
        w.beginObject();
        w.field("index", static_cast<uint64_t>(info.index));
        w.field("pid", static_cast<int64_t>(info.pid));
        w.field("state", name(info.state));
        w.field("socket", info.socketPath);
        w.field("restarts", info.restarts);
        w.field("crash_streak",
                static_cast<uint64_t>(info.crashStreak));
        w.endObject();
    }
    w.endArray();

    w.key("quarantine").beginObject();
    w.field("threshold",
            static_cast<uint64_t>(cfg.shards.quarantineThreshold));
    w.field("entries",
            static_cast<uint64_t>(shards_->quarantineSize()));
    w.endObject();

    w.endObject();
    return w.str();
}

} // namespace serve
} // namespace elag
