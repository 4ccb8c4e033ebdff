#include "serve/server.hh"

#include <cstdlib>
#include <future>

#include "obs/build_info.hh"
#include "obs/metrics.hh"
#include "sim/decoded.hh"
#include "sim/run_cache.hh"
#include "sim/simulator.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/trace.hh"

namespace elag {
namespace serve {

namespace {

trace::Channel &serverTrace = trace::channel("server");

/** The admission counts the stats verb reports, in the registry. */
struct ServeCounters
{
    obs::Counter &admitted;
    obs::Counter &rejectedOverload;
    obs::Counter &rejectedDraining;

    static ServeCounters &
    instance()
    {
        static ServeCounters counters = [] {
            obs::Registry &r = obs::Registry::process();
            return ServeCounters{
                r.counter("elag_serve_admitted_total",
                          "Work requests past admission control."),
                r.counter("elag_serve_rejected_total",
                          "Work requests rejected at the door, by "
                          "reason.",
                          {{"reason", "overload"}}),
                r.counter("elag_serve_rejected_total",
                          "Work requests rejected at the door, by "
                          "reason.",
                          {{"reason", "draining"}}),
            };
        }();
        return counters;
    }
};

} // anonymous namespace

Server::Server(const ServerConfig &config)
    : cfg(config),
      router(config.router),
      frontend(config.socketPath, config.tcpPort, config.maxFrameBytes,
               "request", serverTrace,
               [this](const Request &request, const std::string &) {
                   return handle(request);
               })
{
    if (cfg.queueDepth == 0)
        fatal("elagd: --queue-depth must be at least 1");
}

parallel::ThreadPool &
Server::pool()
{
    return cfg.pool ? *cfg.pool : parallel::ThreadPool::shared();
}

std::string
Server::handle(const Request &request)
{
    if (request.verb == "health") {
        JsonWriter w(0);
        w.beginObject();
        w.field("status", "ok");
        w.field("draining", frontend.draining());
        w.endObject();
        return okResponse(request, w.str());
    }

    if (request.verb == "stats")
        return okResponse(request, statsJson());

    if (request.verb == "metrics") {
        obs::Registry &registry = obs::Registry::process();
        if (request.format == "prometheus") {
            // The framed protocol carries JSON, so the text
            // exposition rides inside an envelope the client
            // unwraps (elag_client --format=prometheus prints the
            // body verbatim).
            JsonWriter w(0);
            w.beginObject();
            w.field("format", "prometheus");
            w.field("body", registry.prometheus());
            w.endObject();
            return okResponse(request, w.str());
        }
        if (request.format == "counters") {
            // Flat counters-only snapshot: what the supervisor
            // scrapes from each shard to aggregate a fleet-wide
            // metrics document (counters sum across processes;
            // histograms do not).
            JsonWriter w(0);
            registry.writeCountersJson(w);
            return okResponse(request, w.str());
        }
        if (!request.format.empty() && request.format != "json") {
            return errorResponse(
                request, errtype::BadRequest,
                formatString("unknown metrics format '%s'",
                             request.format.c_str()));
        }
        JsonWriter w(0);
        registry.writeJson(w);
        return okResponse(request, w.str());
    }

    // Chaos hook for supervision-tree tests: with ELAG_CHAOS_CRASH
    // set in the environment, the `crash` verb kills this process
    // dead, mid-request, exactly like a wild simulator bug would.
    // Without the env var the verb falls through to unknown_verb.
    if (request.verb == "crash" && std::getenv("ELAG_CHAOS_CRASH")) {
        warn("elagd: chaos crash requested; aborting");
        std::abort();
    }

    if (!isWorkVerb(request.verb))
        return errorResponse(request, errtype::UnknownVerb,
                             formatString("unknown verb '%s'",
                                          request.verb.c_str()));

    if (frontend.draining()) {
        ServeCounters::instance().rejectedDraining.inc();
        return errorResponse(request, errtype::ShuttingDown,
                             "server is draining");
    }

    return executeAdmitted(request);
}

std::string
Server::executeAdmitted(const Request &request)
{
    // Admission control: bound the number of requests that have been
    // accepted but not yet started on a worker. Rejecting at the
    // door keeps latency predictable instead of queueing without
    // limit while the pool is saturated.
    uint32_t backlog = backlog_.load();
    do {
        if (backlog >= cfg.queueDepth) {
            ServeCounters::instance().rejectedOverload.inc();
            return errorResponse(
                request, errtype::Overloaded,
                formatString("request queue is full "
                             "(%u waiting, depth %u)",
                             backlog, cfg.queueDepth));
        }
    } while (!backlog_.compare_exchange_weak(backlog, backlog + 1));
    ServeCounters::instance().admitted.inc();

    std::promise<std::string> done;
    std::future<std::string> result = done.get_future();
    pool().submit([this, &request, &done] {
        backlog_.fetch_sub(1);
        executing_.fetch_add(1);
        std::string response;
        try {
            response = okResponse(request, router.execute(request));
        } catch (const sim::SimTimeoutError &e) {
            response = errorResponse(request, errtype::Timeout,
                                     e.what());
        } catch (const sim::GuestTrapError &e) {
            // A guest fault is the submitted program's bug; the
            // server stays up and answers with a typed frame.
            response = errorResponse(request, errtype::GuestTrap,
                                     e.what());
        } catch (const FatalError &e) {
            response = errorResponse(request, errtype::Fatal,
                                     e.what());
        } catch (const PanicError &e) {
            response = errorResponse(request, errtype::Panic,
                                     e.what());
        } catch (const std::exception &e) {
            response = errorResponse(request, errtype::Panic,
                                     e.what());
        }
        executing_.fetch_sub(1);
        completed_.fetch_add(1);
        done.set_value(std::move(response));
    });
    return result.get();
}

std::string
Server::statsJson() const
{
    const ServeCounters &counters = ServeCounters::instance();
    sim::RunCache &cache = sim::RunCache::instance();
    sim::RunCache::Stats cs = cache.stats();

    JsonWriter w;
    w.beginObject();

    w.key("server").beginObject();
    frontend.writeServerFields(w);
    w.endObject();

    w.key("build");
    obs::writeJson(w, obs::buildInfo());

    w.key("queue").beginObject();
    w.field("depth", static_cast<uint64_t>(cfg.queueDepth));
    w.field("backlog", static_cast<uint64_t>(backlog_.load()));
    w.field("executing", static_cast<uint64_t>(executing_.load()));
    w.field("admitted", counters.admitted.value());
    w.field("rejected_overload", counters.rejectedOverload.value());
    w.field("rejected_draining", counters.rejectedDraining.value());
    w.field("completed", completed_.load());
    w.endObject();

    w.key("verbs");
    frontend.verbMetrics().writeJson(w);

    w.key("run_cache").beginObject();
    w.field("hits", cs.hits);
    w.field("misses", cs.misses);
    w.field("bypasses", cs.bypasses);
    w.field("evictions", cs.evictions);
    w.field("entries", static_cast<uint64_t>(cache.size()));
    w.field("capacity", static_cast<uint64_t>(cache.capacity()));
    w.endObject();

    if (cfg.router.persist) {
        cache::PersistentStore::Stats ps = cfg.router.persist->stats();
        w.key("persist").beginObject();
        w.field("dir", cfg.router.persist->dir());
        w.field("entries",
                static_cast<uint64_t>(cfg.router.persist->size()));
        w.field("appends", ps.appends);
        w.field("dedup_skipped", ps.dedupSkipped);
        w.field("hits", ps.hits);
        w.field("misses", ps.misses);
        w.field("recovered", ps.recovered);
        w.field("torn_truncated", ps.tornTruncated);
        w.field("corrupt_skipped", ps.corruptSkipped);
        w.field("read_failures", ps.readFailures);
        w.field("write_failures", ps.writeFailures);
        w.field("compactions", ps.compactions);
        w.endObject();
    }

    w.endObject();
    return w.str();
}

} // namespace serve
} // namespace elag
