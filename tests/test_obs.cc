/**
 * @file
 * Unit tests for the observability plane: the metrics registry
 * (counters/histograms, JSON + Prometheus exposition, durable
 * counter snapshots) and the span tracer (Chrome trace-event output,
 * disabled-path behaviour, trace-ID minting).
 *
 * Everything here runs against private Registry / SpanTracer
 * instances so the process-wide singletons stay untouched and the
 * tests are order-independent. The concurrency tests double as the
 * TSan workload for the lock-free recording paths.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "support/json.hh"
#include "support/logging.hh"

using namespace elag;

// ---------------------------------------------------------------------------
// Metric primitives

TEST(ObsMetrics, CounterStartsAtZeroAndAccumulates)
{
    obs::Registry registry;
    obs::Counter &c = registry.counter("elag_test_total", "help");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(ObsMetrics, CounterIsSharedByName)
{
    obs::Registry registry;
    registry.counter("elag_test_total", "help").inc(3);
    EXPECT_EQ(registry.counter("elag_test_total", "help").value(), 3u);
}

TEST(ObsMetrics, LabelsDistinguishChildren)
{
    obs::Registry registry;
    registry.counter("elag_req_total", "h", {{"verb", "simulate"}})
        .inc(5);
    registry.counter("elag_req_total", "h", {{"verb", "stats"}})
        .inc(2);
    EXPECT_EQ(registry
                  .counter("elag_req_total", "h",
                           {{"verb", "simulate"}})
                  .value(),
              5u);
    EXPECT_EQ(
        registry.counter("elag_req_total", "h", {{"verb", "stats"}})
            .value(),
        2u);
}

TEST(ObsMetrics, HistogramBucketsAndOverflow)
{
    obs::Registry registry;
    obs::Histogram &h =
        registry.histogram("elag_lat_us", "h", 4, 10);
    h.observe(0);   // bucket 0
    h.observe(9);   // bucket 0
    h.observe(10);  // bucket 1
    h.observe(39);  // bucket 3
    h.observe(40);  // overflow
    h.observe(999); // overflow
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.sum(), 0u + 9 + 10 + 39 + 40 + 999);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_DOUBLE_EQ(h.mean(), (0.0 + 9 + 10 + 39 + 40 + 999) / 6.0);
}

TEST(ObsMetrics, KindCollisionPanics)
{
    obs::Registry registry;
    registry.counter("elag_thing_total", "h");
    EXPECT_THROW(registry.histogram("elag_thing_total", "h", 4, 1),
                 PanicError);
    registry.histogram("elag_lat_us", "h", 4, 1);
    EXPECT_THROW(registry.counter("elag_lat_us", "h"), PanicError);
}

TEST(ObsMetrics, InvalidNamePanics)
{
    obs::Registry registry;
    EXPECT_THROW(registry.counter("", "h"), PanicError);
    EXPECT_THROW(registry.counter("9starts_with_digit", "h"),
                 PanicError);
    EXPECT_THROW(registry.counter("has space", "h"), PanicError);
}

// ---------------------------------------------------------------------------
// Exposition

TEST(ObsMetrics, WriteJsonIsValidAndFlat)
{
    obs::Registry registry;
    registry.counter("elag_hits_total", "h").inc(7);
    registry.counter("elag_req_total", "h", {{"verb", "stats"}}).inc(3);
    registry.histogram("elag_lat_us", "h", 2, 50).observe(120);

    JsonWriter w(0);
    registry.writeJson(w);
    std::string doc = w.str();
    EXPECT_TRUE(jsonValid(doc)) << doc;
    uint64_t hits = 0;
    EXPECT_TRUE(jsonExtractUint(doc, "elag_hits_total", hits));
    EXPECT_EQ(hits, 7u);
    std::string hist;
    EXPECT_TRUE(jsonExtractRaw(doc, "elag_lat_us", hist));
    uint64_t overflow = 0;
    EXPECT_TRUE(jsonExtractUint(hist, "overflow", overflow));
    EXPECT_EQ(overflow, 1u);
}

TEST(ObsMetrics, JsonFlatNameCarriesLabels)
{
    obs::Registry registry;
    registry.counter("elag_req_total", "h", {{"verb", "simulate"}})
        .inc();
    JsonWriter w(0);
    registry.writeJson(w);
    EXPECT_NE(w.str().find("elag_req_total{verb=\\\"simulate\\\"}"),
              std::string::npos)
        << w.str();
}

TEST(ObsMetrics, PrometheusExpositionPassesGrammar)
{
    obs::Registry registry;
    registry.counter("elag_hits_total", "Cache hits.").inc(7);
    registry
        .counter("elag_req_total", "Requests.",
                 {{"verb", "simulate"}})
        .inc(2);
    registry.counter("elag_entries_total", "Entries admitted.").inc(3);
    registry.histogram("elag_lat_us", "Latency.", 3, 10).observe(25);

    std::string text = registry.prometheus();
    EXPECT_EQ(obs::validatePrometheus(text), "") << text;
    EXPECT_NE(text.find("# HELP elag_hits_total Cache hits.\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE elag_hits_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("elag_hits_total 7\n"), std::string::npos);
    EXPECT_NE(text.find("elag_req_total{verb=\"simulate\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE elag_lat_us histogram\n"),
              std::string::npos);
    // 25 lands in bucket 2 ([20,30)): cumulative 0,0,1 then +Inf.
    EXPECT_NE(text.find("elag_lat_us_bucket{le=\"10\"} 0\n"),
              std::string::npos);
    EXPECT_NE(text.find("elag_lat_us_bucket{le=\"30\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("elag_lat_us_bucket{le=\"+Inf\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("elag_lat_us_sum 25\n"), std::string::npos);
    EXPECT_NE(text.find("elag_lat_us_count 1\n"), std::string::npos);
}

TEST(ObsMetrics, ValidatorRejectsMalformedExpositions)
{
    EXPECT_NE(obs::validatePrometheus("no newline at end"), "");
    EXPECT_NE(obs::validatePrometheus("# BOGUS comment\n"), "");
    EXPECT_NE(obs::validatePrometheus("9name 1\n"), "");
    EXPECT_NE(obs::validatePrometheus("name\n"), "");
    EXPECT_NE(obs::validatePrometheus("name notanumber\n"), "");
    EXPECT_NE(obs::validatePrometheus("name{k=unquoted} 1\n"), "");
    EXPECT_EQ(obs::validatePrometheus(""), "");
    EXPECT_EQ(obs::validatePrometheus("name{k=\"v\"} 1.5e3\n"), "");
    EXPECT_EQ(obs::validatePrometheus("name +Inf\n"), "");
}

// ---------------------------------------------------------------------------
// Durable counter snapshots (campaign resume)

TEST(ObsMetrics, CounterSnapshotRoundTrips)
{
    obs::Registry source;
    source.counter("elag_jobs_total", "h", {{"taxonomy", "clean"}})
        .inc(12);
    source.counter("elag_jobs_total", "h", {{"taxonomy", "crash"}})
        .inc(3);
    source.counter("elag_plain_total", "h").inc(9);
    // Histograms are excluded from the durable snapshot by design.
    source.histogram("elag_lat_us", "h", 4, 10).observe(5);

    JsonWriter w(0);
    source.writeCountersJson(w);
    std::string snapshot = w.str();
    EXPECT_TRUE(jsonValid(snapshot)) << snapshot;

    obs::Registry restored;
    // Pre-existing counts accumulate rather than being overwritten.
    restored.counter("elag_plain_total", "h").inc(1);
    EXPECT_EQ(restored.restoreCounters(snapshot), 3u);
    EXPECT_EQ(restored.counter("elag_plain_total", "h").value(), 10u);
    EXPECT_EQ(restored
                  .counter("elag_jobs_total", "h",
                           {{"taxonomy", "clean"}})
                  .value(),
              12u);
    EXPECT_EQ(restored
                  .counter("elag_jobs_total", "h",
                           {{"taxonomy", "crash"}})
                  .value(),
              3u);
}

TEST(ObsMetrics, RestoreCountersRejectsGarbage)
{
    obs::Registry registry;
    EXPECT_EQ(registry.restoreCounters("not json"), 0u);
    EXPECT_EQ(registry.restoreCounters("[1,2,3]"), 0u);
    EXPECT_EQ(registry.restoreCounters("{}"), 0u);
    EXPECT_EQ(registry.restoreCounters("{\"elag_cut_total\": 5"), 0u);
}

TEST(ObsMetrics, SnapshotLabelValuesDecodeEveryEscape)
{
    const obs::Labels labels = {{"why", "a\nb \"q\" \\"}};
    obs::Registry source;
    source.counter("elag_jobs_total", "h", labels).inc(4);
    JsonWriter w(0);
    source.writeCountersJson(w);

    obs::Registry restored;
    EXPECT_EQ(restored.restoreCounters(w.str()), 1u);
    EXPECT_EQ(restored.counter("elag_jobs_total", "h", labels).value(),
              4u)
        << w.str();
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan leg exercises these under the race detector)

TEST(ObsMetrics, ConcurrentCountersSumExactly)
{
    obs::Registry registry;
    constexpr int kThreads = 8;
    constexpr int kIncrements = 20'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&registry, t] {
            // Half the threads re-resolve the counter each time,
            // racing registration against recording.
            obs::Counter &mine =
                registry.counter("elag_conc_total", "h");
            for (int i = 0; i < kIncrements; ++i) {
                if (t % 2)
                    registry.counter("elag_conc_total", "h").inc();
                else
                    mine.inc();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(registry.counter("elag_conc_total", "h").value(),
              static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(ObsMetrics, ConcurrentHistogramKeepsEverySample)
{
    obs::Registry registry;
    obs::Histogram &h =
        registry.histogram("elag_conc_lat_us", "h", 16, 8);
    constexpr int kThreads = 4;
    constexpr int kSamples = 10'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h] {
            for (int i = 0; i < kSamples; ++i)
                h.observe(static_cast<uint64_t>(i % 200));
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(h.count(),
              static_cast<uint64_t>(kThreads) * kSamples);
    uint64_t binned = h.overflow();
    for (size_t i = 0; i < h.numBuckets(); ++i)
        binned += h.bucket(i);
    EXPECT_EQ(binned, h.count());
}

// ---------------------------------------------------------------------------
// Span tracer

TEST(ObsSpans, DisabledTracerRecordsNothing)
{
    obs::SpanTracer tracer;
    EXPECT_FALSE(tracer.enabled());
    {
        obs::Span span("work", "test", tracer);
        span.arg("k", "v");
        EXPECT_FALSE(span.active());
    }
    EXPECT_EQ(tracer.eventCount(), 0u);
}

#ifndef ELAG_NO_SPANS

TEST(ObsSpans, EnabledSpanRecordsOneCompleteEvent)
{
    obs::SpanTracer tracer;
    tracer.enable("/dev/null");
    {
        obs::Span span("simulate", "serve", tracer);
        span.arg("trace_id", "deadbeefdeadbeef");
        EXPECT_TRUE(span.active());
    }
    EXPECT_EQ(tracer.eventCount(), 1u);

    std::string doc = tracer.json();
    EXPECT_TRUE(jsonValid(doc)) << doc;
    EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"simulate\""), std::string::npos);
    EXPECT_NE(doc.find("\"cat\":\"serve\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"trace_id\":\"deadbeefdeadbeef\""),
              std::string::npos);
}

TEST(ObsSpans, EndIsIdempotent)
{
    obs::SpanTracer tracer;
    tracer.enable("/dev/null");
    obs::Span span("once", "test", tracer);
    span.end();
    span.end();
    EXPECT_FALSE(span.active());
    EXPECT_EQ(tracer.eventCount(), 1u);
}

TEST(ObsSpans, ProcessLabelBecomesMetadataEvent)
{
    obs::SpanTracer tracer;
    tracer.setProcessLabel("testproc");
    std::string doc = tracer.json();
    EXPECT_NE(doc.find("\"name\":\"process_name\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"testproc\""), std::string::npos);
}

TEST(ObsSpans, FlushWritesLoadableTraceFile)
{
    std::string path = ::testing::TempDir() + "obs_trace_test.json";
    obs::SpanTracer tracer;
    tracer.enable(path);
    { obs::Span span("phase", "pipeline", tracer); }
    EXPECT_TRUE(tracer.flush());

    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string content;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        content.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());

    EXPECT_TRUE(jsonValid(content)) << content;
    EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(content.find("\"phase\""), std::string::npos);
}

TEST(ObsSpans, ConcurrentSpansGetDistinctThreadIds)
{
    obs::SpanTracer tracer;
    tracer.enable("/dev/null");
    constexpr int kThreads = 4;
    constexpr int kSpans = 500;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&tracer] {
            for (int i = 0; i < kSpans; ++i)
                obs::Span span("w", "test", tracer);
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(tracer.eventCount(),
              static_cast<uint64_t>(kThreads) * kSpans);
    EXPECT_TRUE(jsonValid(tracer.json()));
}

#endif // ELAG_NO_SPANS

TEST(ObsSpans, FlushWithoutArmingReportsFalse)
{
    obs::SpanTracer tracer;
    EXPECT_FALSE(tracer.flush());
}

TEST(ObsSpans, TraceIdsAreWellFormedAndUnique)
{
    std::set<std::string> seen;
    for (int i = 0; i < 1000; ++i) {
        std::string id = obs::newTraceId();
        ASSERT_EQ(id.size(), 16u);
        for (char c : id) {
            EXPECT_TRUE((c >= '0' && c <= '9') ||
                        (c >= 'a' && c <= 'f'))
                << id;
        }
        EXPECT_TRUE(seen.insert(id).second) << "duplicate " << id;
    }
}
