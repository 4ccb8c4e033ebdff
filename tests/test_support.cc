/**
 * @file
 * Unit tests for the support library: logging, RNG, stats, strings,
 * and table formatting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <set>

#include "support/hash.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/stats.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "support/trace.hh"

using namespace elag;

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom %d", 42), PanicError);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("user error %s", "x"), FatalError);
}

TEST(Logging, MessagesAreFormatted)
{
    try {
        fatal("value=%d name=%s", 7, "seven");
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: value=7 name=seven");
    }
}

TEST(Logging, AssertMacroThrowsOnFailure)
{
    EXPECT_THROW([] { elag_assert(1 == 2); }(), PanicError);
    EXPECT_NO_THROW([] { elag_assert(2 == 2); }());
}

TEST(Hash, Fnv1aMatchesPublishedVectors)
{
    EXPECT_EQ(Fnv1a().value(), 0xcbf29ce484222325ull);
    Fnv1a a;
    a.mixBytes("a", 1);
    EXPECT_EQ(a.value(), 0xaf63dc4c8601ec8cull);
    Fnv1a foobar;
    foobar.mixBytes("foobar", 6);
    EXPECT_EQ(foobar.value(), 0x85944171f73967e8ull);
    // mix() folds a word's bytes least significant first.
    Fnv1a word;
    word.mix(0x0102030405060708ull);
    const uint8_t le[] = {8, 7, 6, 5, 4, 3, 2, 1};
    Fnv1a bytes;
    bytes.mixBytes(le, sizeof(le));
    EXPECT_EQ(word.value(), bytes.value());
}

TEST(Random, Deterministic)
{
    Pcg32 a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Pcg32 a(1), b(2);
    int differ = 0;
    for (int i = 0; i < 32; ++i)
        differ += a.next() != b.next();
    EXPECT_GT(differ, 16);
}

TEST(Random, BoundedStaysInBounds)
{
    Pcg32 rng(7);
    for (int i = 0; i < 1000; ++i) {
        uint32_t v = rng.nextBounded(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Random, RangeIsInclusive)
{
    Pcg32 rng(9);
    std::set<int32_t> seen;
    for (int i = 0; i < 2000; ++i) {
        int32_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(Random, DoubleInUnitInterval)
{
    Pcg32 rng(11);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, HistogramBucketsAndOverflow)
{
    Histogram h(4, 10); // buckets [0,10) [10,20) [20,30) [30,40)
    h.sample(5);
    h.sample(10);
    h.sample(39);
    h.sample(40); // overflow
    h.sample(1000); // overflow
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_DOUBLE_EQ(h.mean(), (5 + 10 + 39 + 40 + 1000) / 5.0);
}

TEST(Stats, StatGroupRatio)
{
    StatGroup g;
    g.counter("hits") += 3;
    g.counter("total") += 4;
    EXPECT_DOUBLE_EQ(g.ratio("hits", "total"), 0.75);
    EXPECT_DOUBLE_EQ(g.ratio("hits", "missing"), 0.0);
    EXPECT_EQ(g.value("missing"), 0u);
}

TEST(Stats, StatGroupDumpSorted)
{
    StatGroup g;
    g.counter("b") += 2;
    g.counter("a") += 1;
    auto dump = g.dump();
    ASSERT_EQ(dump.size(), 2u);
    EXPECT_EQ(dump[0].first, "a");
    EXPECT_EQ(dump[1].first, "b");
}

TEST(Strings, SplitKeepsEmptyFields)
{
    auto parts = splitString("a,,b", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[1], "");
}

TEST(Strings, TrimBothEnds)
{
    EXPECT_EQ(trimString("  x y \t\n"), "x y");
    EXPECT_EQ(trimString(""), "");
    EXPECT_EQ(trimString("   "), "");
}

TEST(Strings, JoinRoundTripsSplit)
{
    std::vector<std::string> parts{"a", "b", "c"};
    EXPECT_EQ(joinStrings(parts, "-"), "a-b-c");
    EXPECT_EQ(splitString("a-b-c", '-'), parts);
}

TEST(Strings, Padding)
{
    EXPECT_EQ(padLeft("x", 3), "  x");
    EXPECT_EQ(padRight("x", 3), "x  ");
    EXPECT_EQ(padLeft("long", 2), "long");
}

TEST(Strings, PrefixSuffix)
{
    EXPECT_TRUE(startsWith("ld_p", "ld"));
    EXPECT_FALSE(startsWith("ld", "ld_p"));
    EXPECT_TRUE(endsWith("bench_fig5a", "5a"));
}

TEST(Strings, ParseUint64StrictAcceptsPlainDecimals)
{
    uint64_t v = 99;
    EXPECT_TRUE(parseUint64("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseUint64("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);
    EXPECT_TRUE(parseUint64("+42", v));
    EXPECT_EQ(v, 42u);
}

TEST(Strings, ParseUint64RejectsGarbageAndOverflow)
{
    uint64_t v = 1234;
    EXPECT_FALSE(parseUint64("", v));
    EXPECT_FALSE(parseUint64("abc", v));
    EXPECT_FALSE(parseUint64("12abc", v)); // trailing garbage
    EXPECT_FALSE(parseUint64("-1", v));
    EXPECT_FALSE(parseUint64(" 12", v));
    EXPECT_FALSE(parseUint64("12 ", v));
    EXPECT_FALSE(parseUint64("1.5", v));
    EXPECT_FALSE(parseUint64("+", v));
    EXPECT_FALSE(parseUint64("18446744073709551616", v)); // 2^64
    EXPECT_EQ(v, 1234u) << "failed parse must not clobber out";
}

TEST(Strings, ParseUint32BoundsAtUint32Max)
{
    uint32_t v = 7;
    EXPECT_TRUE(parseUint32("4294967295", v));
    EXPECT_EQ(v, UINT32_MAX);
    EXPECT_FALSE(parseUint32("4294967296", v));
    EXPECT_EQ(v, UINT32_MAX);
}

TEST(Strings, FormatPercent)
{
    EXPECT_EQ(formatPercent(0.9301), "93.01");
    EXPECT_EQ(formatDouble(1.375, 2), "1.38");
    EXPECT_EQ(formatDouble(2.0, 3), "2.000");
}

TEST(Table, RendersAlignedColumns)
{
    TextTable t;
    t.setHeader({"name", "v"});
    t.addRow({"a", "1"});
    t.addRow({"bbbb", "22"});
    std::string out = t.render();
    // Header, separator, and both rows are present.
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("bbbb"), std::string::npos);
    // All lines have equal width columns (right-aligned second col).
    EXPECT_NE(out.find(" 1"), std::string::npos);
}

TEST(Table, HandlesRaggedRows)
{
    TextTable t;
    t.setHeader({"a", "b", "c"});
    t.addRow({"x"});
    EXPECT_NO_THROW(t.render());
}

TEST(Table, ExposesHeaderAndDataRows)
{
    TextTable t;
    t.setHeader({"name", "v"});
    t.addRow({"a", "1"});
    t.addSeparator();
    t.addRow({"total", "1"});
    ASSERT_EQ(t.headerCells().size(), 2u);
    EXPECT_EQ(t.headerCells()[0], "name");
    auto rows = t.dataRows(); // separators are dropped
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[1][0], "total");
}

TEST(Json, EscapesControlAndSpecialCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("x\n\t"), "x\\n\\t");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, WriterProducesValidDocument)
{
    JsonWriter w;
    w.beginObject();
    w.field("name", "elag");
    w.field("cycles", uint64_t{12345});
    w.field("ipc", 1.5);
    w.field("ok", true);
    w.key("missing").nullValue();
    w.key("list").beginArray();
    w.value(1);
    w.value(2);
    w.endArray();
    w.key("nested").beginObject();
    w.field("depth", 2);
    w.endObject();
    w.endObject();
    std::string doc = w.str();
    EXPECT_TRUE(jsonValid(doc));
    EXPECT_NE(doc.find("\"cycles\": 12345"), std::string::npos);
    EXPECT_NE(doc.find("\"ipc\": 1.5"), std::string::npos);
}

TEST(Json, CompactModeHasNoWhitespace)
{
    JsonWriter w(0);
    w.beginObject();
    w.field("a", 1);
    w.field("b", 2);
    w.endObject();
    EXPECT_EQ(w.str(), "{\"a\":1,\"b\":2}");
    EXPECT_TRUE(jsonValid(w.str()));
}

TEST(Json, NonFiniteDoublesBecomeNull)
{
    JsonWriter w(0);
    w.beginArray();
    w.value(0.0 / 0.0);
    w.value(1e308 * 10);
    w.value(-1e308 * 10);
    w.endArray();
    EXPECT_EQ(w.str(), "[null,null,null]");
    EXPECT_TRUE(jsonValid(w.str()));
}

TEST(Json, NonFiniteFieldsAndNestingStayValid)
{
    // Stats exporters feed rates straight into field(); a 0/0 rate
    // (e.g. forward rate with zero loads under an aggressive fault
    // plan) must degrade to null in any nesting, not break the doc.
    JsonWriter w(0);
    w.beginObject();
    w.field("nan_rate", 0.0 / 0.0);
    w.field("fine", 2.5);
    w.key("nested").beginObject();
    w.field("inf", 1e308 * 10);
    w.key("deep").beginArray();
    w.value(-1e308 * 10);
    w.value(1.0);
    w.endArray();
    w.endObject();
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"nan_rate\":null,\"fine\":2.5,\"nested\":"
              "{\"inf\":null,\"deep\":[null,1]}}");
    EXPECT_TRUE(jsonValid(w.str()));
}

TEST(Json, ValidatorAcceptsAndRejects)
{
    EXPECT_TRUE(jsonValid("{}"));
    EXPECT_TRUE(jsonValid("[1, 2.5, -3e2, \"s\", true, false, null]"));
    EXPECT_TRUE(jsonValid("{\"a\": {\"b\": []}}"));
    EXPECT_FALSE(jsonValid(""));
    EXPECT_FALSE(jsonValid("{"));
    EXPECT_FALSE(jsonValid("{} extra"));
    EXPECT_FALSE(jsonValid("{'a': 1}"));
    EXPECT_FALSE(jsonValid("[1,]"));
    EXPECT_FALSE(jsonValid("{\"a\" 1}"));
    EXPECT_FALSE(jsonValid("\"unterminated"));
}

TEST(Json, WriterMisusePanics)
{
    JsonWriter w;
    w.beginObject();
    EXPECT_THROW(w.value(1), PanicError); // value with no key
    JsonWriter w2;
    EXPECT_THROW(w2.endObject(), PanicError); // unbalanced end
}

TEST(Json, HistogramAndStatGroupSerialize)
{
    Histogram h(4, 10);
    h.sample(5);
    h.sample(45); // overflow
    JsonWriter w(0);
    writeJson(w, h);
    std::string doc = w.str();
    EXPECT_TRUE(jsonValid(doc));
    EXPECT_NE(doc.find("\"samples\":2"), std::string::npos);
    EXPECT_NE(doc.find("\"overflow\":1"), std::string::npos);

    StatGroup g;
    g.counter("hits") += 3;
    JsonWriter w2(0);
    writeJson(w2, g);
    EXPECT_TRUE(jsonValid(w2.str()));
    EXPECT_NE(w2.str().find("\"hits\":3"), std::string::npos);
}

namespace {

TEST(Json, ExtractStringFromManifestLine)
{
    std::string line = "{\"type\":\"job\",\"id\":\"gen:s1:k0+5\","
                       "\"taxonomy\":\"timeout\",\"exit\":-1}";
    std::string v;
    EXPECT_TRUE(jsonExtractString(line, "type", v));
    EXPECT_EQ(v, "job");
    EXPECT_TRUE(jsonExtractString(line, "id", v));
    EXPECT_EQ(v, "gen:s1:k0+5");
    EXPECT_TRUE(jsonExtractString(line, "taxonomy", v));
    EXPECT_EQ(v, "timeout");
    EXPECT_FALSE(jsonExtractString(line, "missing", v));
    EXPECT_FALSE(jsonExtractString(line, "exit", v)) << "not a string";
}

TEST(Json, ExtractStringUnescapes)
{
    std::string line =
        "{\"msg\":\"a \\\"b\\\"\\n\\tc \\\\ \\u0041\"}";
    std::string v;
    ASSERT_TRUE(jsonExtractString(line, "msg", v));
    EXPECT_EQ(v, "a \"b\"\n\tc \\ A");
}

TEST(Json, ExtractUint)
{
    std::string line = "{\"attempts\":3,\"wall_ms\":1250,\"id\":\"x\"}";
    uint64_t v = 0;
    EXPECT_TRUE(jsonExtractUint(line, "attempts", v));
    EXPECT_EQ(v, 3u);
    EXPECT_TRUE(jsonExtractUint(line, "wall_ms", v));
    EXPECT_EQ(v, 1250u);
    EXPECT_FALSE(jsonExtractUint(line, "id", v)) << "not a number";
    EXPECT_FALSE(jsonExtractUint(line, "nope", v));
}

TEST(Json, ExtractRoundTripsWriterEscapes)
{
    JsonWriter w(0);
    w.beginObject();
    w.field("msg", std::string("tab\there \"quoted\"\nnewline"));
    w.endObject();
    std::string v;
    ASSERT_TRUE(jsonExtractString(w.str(), "msg", v));
    EXPECT_EQ(v, "tab\there \"quoted\"\nnewline");
}

TEST(Json, RawValueSplicesVerbatim)
{
    // A pre-rendered document (with its own indentation) embedded in
    // a compact envelope must come back out byte for byte.
    JsonWriter inner;
    inner.beginObject();
    inner.key("stats").beginObject();
    inner.field("cycles", uint64_t{123});
    inner.field("note", std::string("has \"result\": inside"));
    inner.endObject();
    inner.endObject();
    std::string doc = inner.str();

    JsonWriter outer(0);
    outer.beginObject();
    outer.field("ok", true);
    outer.key("result").rawValue(doc);
    outer.endObject();
    std::string envelope = outer.str();
    EXPECT_TRUE(jsonValid(envelope));

    std::string recovered;
    ASSERT_TRUE(jsonExtractRaw(envelope, "result", recovered));
    EXPECT_EQ(recovered, doc);
}

TEST(Json, ExtractRawHandlesValueKinds)
{
    std::string raw;
    ASSERT_TRUE(jsonExtractRaw("{\"a\": [1, {\"b\": 2}], \"c\": 3}",
                               "a", raw));
    EXPECT_EQ(raw, "[1, {\"b\": 2}]");
    ASSERT_TRUE(jsonExtractRaw("{\"s\": \"br{ace \\\" }\"}", "s",
                               raw));
    EXPECT_EQ(raw, "\"br{ace \\\" }\"");
    ASSERT_TRUE(jsonExtractRaw("{\"n\": 42, \"m\": 1}", "n", raw));
    EXPECT_EQ(raw, "42");
    ASSERT_TRUE(jsonExtractRaw("{\"t\": true}", "t", raw));
    EXPECT_EQ(raw, "true");
    EXPECT_FALSE(jsonExtractRaw("{\"a\": 1}", "missing", raw));
    // Unbalanced nesting never matches.
    EXPECT_FALSE(jsonExtractRaw("{\"a\": [1, 2", "a", raw));
}

/** Capture trace output into a buffer via a tmpfile. */
std::string
captureTrace(const std::function<void()> &body)
{
    std::FILE *tmp = std::tmpfile();
    trace::setOutput(tmp);
    body();
    trace::setOutput(nullptr);
    std::fflush(tmp);
    std::rewind(tmp);
    std::string text;
    char buf[256];
    while (std::fgets(buf, sizeof(buf), tmp))
        text += buf;
    std::fclose(tmp);
    return text;
}

} // namespace

TEST(Trace, DisabledChannelEmitsNothing)
{
    trace::disableAll();
    auto &chan = trace::channel("test_off");
    EXPECT_FALSE(chan.enabled());
    std::string out = captureTrace(
        [&] { ELAG_TRACE_EVT(chan, 1, "should not appear %d", 7); });
    EXPECT_EQ(out, "");
}

TEST(Trace, DisabledChannelSkipsArgumentEvaluation)
{
    trace::disableAll();
    auto &chan = trace::channel("test_lazy");
    int evaluations = 0;
    auto count = [&] { return ++evaluations; };
    ELAG_TRACE_EVT(chan, 1, "%d", count());
    EXPECT_EQ(evaluations, 0);
}

TEST(Trace, EnabledChannelFormatsCycleStampedLines)
{
    trace::disableAll();
    trace::enable("test_fmt");
    auto &chan = trace::channel("test_fmt");
    ASSERT_TRUE(chan.enabled());
    std::string out = captureTrace(
        [&] { ELAG_TRACE_EVT(chan, 42, "pc=%u hit=%d", 7u, 1); });
    EXPECT_NE(out.find("42:"), std::string::npos);
    EXPECT_NE(out.find("test_fmt:"), std::string::npos);
    EXPECT_NE(out.find("pc=7 hit=1"), std::string::npos);
    trace::disableAll();
}

TEST(Trace, EnableSpecHandlesListsAndAll)
{
    trace::disableAll();
    trace::channel("test_a");
    trace::channel("test_b");
    trace::enableSpec("test_a,test_b");
    EXPECT_TRUE(trace::channel("test_a").enabled());
    EXPECT_TRUE(trace::channel("test_b").enabled());
    trace::disableAll();
    EXPECT_FALSE(trace::channel("test_a").enabled());

    trace::enableSpec("all");
    EXPECT_TRUE(trace::channel("test_a").enabled());
    // "all" also covers channels created afterwards.
    EXPECT_TRUE(trace::channel("test_created_later").enabled());
    trace::disableAll();
}

TEST(Trace, ChannelNamesAreSortedAndStable)
{
    trace::channel("test_zz");
    trace::channel("test_aa");
    auto names = trace::channelNames();
    ASSERT_GE(names.size(), 2u);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    // Same name returns the same channel object.
    EXPECT_EQ(&trace::channel("test_zz"), &trace::channel("test_zz"));
}
