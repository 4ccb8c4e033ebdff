#include "serve/client.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <random>
#include <thread>

#include "obs/span.hh"
#include "serve/framing.hh"
#include "support/backoff.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace elag {
namespace serve {

namespace {

/** Ceiling of ReconnectingClient's retry backoff. */
constexpr uint64_t kCapDelayMs = 1000;

} // anonymous namespace

Client
Client::connectTo(const std::string &socket_path)
{
    ignoreSigpipe();
    return Client(connectUnix(socket_path));
}

Client
Client::connectTcp(uint16_t port)
{
    ignoreSigpipe();
    return Client(connectTcpLoopback(port));
}

Response
Client::call(const Request &request)
{
    // The client-side view of the same request the server spans:
    // shared trace_id, different clock — the gap between the two
    // durations is transport + queueing.
    obs::Span span("request", "client");
    span.arg("verb", request.verb);
    if (!request.trace.empty())
        span.arg("trace_id", request.trace);

    if (!writeFrame(fd_.get(), buildRequestDoc(request)))
        fatal("elag_client: server hung up while sending request");

    std::string payload;
    FrameStatus status = readFrame(fd_.get(), payload);
    if (status != FrameStatus::Ok)
        fatal("elag_client: reading response failed: %s",
              name(status));

    Response response;
    std::string error;
    if (!parseResponse(payload, response, error))
        fatal("elag_client: malformed response: %s", error.c_str());
    return response;
}

ReconnectingClient::ReconnectingClient(const std::string &path,
                                       uint16_t tcp_port,
                                       const RetryConfig &retry)
    : socketPath_(path), tcpPort_(tcp_port), retry_(retry)
{
    elag_assert(retry_.maxAttempts >= 1);
}

void
ReconnectingClient::connect()
{
    Client fresh = socketPath_.empty()
                       ? Client::connectTcp(tcpPort_)
                       : Client::connectTo(socketPath_);
    client_.reset(new Client(std::move(fresh)));
}

Response
ReconnectingClient::call(const Request &request)
{
    // Thread-local so concurrent loadgen clients don't share (and
    // serialize on) one generator; jitter decorrelates the retry
    // storms of clients that all saw the same worker die.
    static thread_local std::mt19937_64 rng{std::random_device{}()};

    for (uint32_t attempt = 1;; ++attempt) {
        try {
            if (!client_)
                connect();
            return client_->call(request);
        } catch (const FatalError &) {
            // Connection refused (server restarting) or the stream
            // broke mid-call (worker died). The dead connection is
            // useless either way.
            client_.reset();
            if (attempt >= retry_.maxAttempts)
                throw;
            ++retries_;
            uint64_t delay = cappedDoubling(retry_.baseDelayMs,
                                            attempt, kCapDelayMs);
            // Full jitter: anywhere in [delay/2, delay].
            uint64_t floor = delay / 2;
            delay = floor + (delay > floor
                                 ? rng() % (delay - floor + 1)
                                 : 0);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
        }
    }
}

namespace {

uint64_t
percentile(const std::vector<uint64_t> &sorted, unsigned pct)
{
    if (sorted.empty())
        return 0;
    // Nearest-rank definition: smallest value covering pct percent.
    size_t rank = (pct * sorted.size() + 99) / 100;
    if (rank == 0)
        rank = 1;
    return sorted[std::min(rank, sorted.size()) - 1];
}

} // anonymous namespace

std::string
LoadGenReport::text() const
{
    std::string out;
    out += formatString("requests:   %llu attempted, %llu ok, "
                        "%llu error, %llu transport, "
                        "%llu retries\n",
                        (unsigned long long)attempted,
                        (unsigned long long)succeeded,
                        (unsigned long long)failed,
                        (unsigned long long)transportErrors,
                        (unsigned long long)retries);
    out += formatString("wall:       %.3f s\n", wallSeconds);
    out += formatString("throughput: %.1f req/s\n", throughputRps);
    out += formatString("latency:    mean %.0f us, min %llu us, "
                        "max %llu us\n",
                        meanUs, (unsigned long long)minUs,
                        (unsigned long long)maxUs);
    out += formatString("quantiles:  p50 %llu us, p95 %llu us, "
                        "p99 %llu us\n",
                        (unsigned long long)p50Us,
                        (unsigned long long)p95Us,
                        (unsigned long long)p99Us);
    if (!errorsByType.empty()) {
        out += "errors:    ";
        for (const auto &kv : errorsByType)
            out += formatString(" %s=%llu", kv.first.c_str(),
                                (unsigned long long)kv.second);
        out += "\n";
    }
    return out;
}

void
LoadGenReport::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.field("attempted", attempted);
    w.field("succeeded", succeeded);
    w.field("failed", failed);
    w.field("transport_errors", transportErrors);
    w.field("retries", retries);
    w.field("wall_seconds", wallSeconds);
    w.field("throughput_rps", throughputRps);
    w.key("latency_us").beginObject();
    w.field("mean", meanUs);
    w.field("min", minUs);
    w.field("max", maxUs);
    w.field("p50", p50Us);
    w.field("p95", p95Us);
    w.field("p99", p99Us);
    w.endObject();
    w.key("errors_by_type").beginObject();
    for (const auto &kv : errorsByType)
        w.field(kv.first, kv.second);
    w.endObject();
    w.endObject();
}

LoadGenReport
runLoadGen(const LoadGenConfig &config)
{
    elag_assert(config.clients > 0);

    LoadGenReport report;
    std::mutex mu;
    std::vector<uint64_t> latencies;
    std::atomic<uint64_t> next_id{1};

    auto started = std::chrono::steady_clock::now();

    std::vector<std::thread> threads;
    threads.reserve(config.clients);
    for (uint32_t c = 0; c < config.clients; ++c) {
        threads.emplace_back([&] {
            uint64_t ok = 0, err = 0, transport = 0, attempted = 0;
            std::map<std::string, uint64_t> localErrors;
            std::vector<uint64_t> local;
            local.reserve(config.requests);
            // The reconnecting client absorbs worker deaths and
            // supervisor restarts: a request whose connection broke
            // is resent on a fresh one, and only a request that
            // exhausted every attempt counts as a transport error —
            // the thread then moves on to its next request rather
            // than abandoning the run.
            ReconnectingClient client(config.socketPath,
                                      config.tcpPort, config.retry);
            for (uint32_t i = 0; i < config.requests; ++i) {
                Request request = config.request;
                request.id = next_id.fetch_add(1);
                if (request.trace.empty())
                    request.trace = obs::newTraceId();
                ++attempted;
                auto t0 = std::chrono::steady_clock::now();
                try {
                    Response response = client.call(request);
                    uint64_t us =
                        std::chrono::duration_cast<
                            std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
                    local.push_back(us);
                    if (response.ok) {
                        ++ok;
                    } else {
                        ++err;
                        ++localErrors[response.errorType.empty()
                                          ? "unknown"
                                          : response.errorType];
                    }
                } catch (const FatalError &) {
                    ++transport;
                    ++localErrors["transport"];
                }
            }
            std::lock_guard<std::mutex> lock(mu);
            report.attempted += attempted;
            report.succeeded += ok;
            report.failed += err;
            report.transportErrors += transport;
            report.retries += client.retries();
            for (const auto &kv : localErrors)
                report.errorsByType[kv.first] += kv.second;
            latencies.insert(latencies.end(), local.begin(),
                             local.end());
        });
    }
    for (std::thread &t : threads)
        t.join();

    report.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - started)
            .count();

    std::sort(latencies.begin(), latencies.end());
    if (!latencies.empty()) {
        uint64_t sum = 0;
        for (uint64_t us : latencies)
            sum += us;
        report.minUs = latencies.front();
        report.maxUs = latencies.back();
        report.meanUs =
            static_cast<double>(sum) / latencies.size();
        report.p50Us = percentile(latencies, 50);
        report.p95Us = percentile(latencies, 95);
        report.p99Us = percentile(latencies, 99);
    }
    if (report.wallSeconds > 0.0)
        report.throughputRps =
            (report.succeeded + report.failed) / report.wallSeconds;
    return report;
}

} // namespace serve
} // namespace elag
