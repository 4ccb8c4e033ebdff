/**
 * @file
 * Persistent result-cache tests: record round-trips, index recovery
 * across reopen, torn-tail truncation (a crash can only damage the
 * end of a segment, and recovery must drop exactly the torn record),
 * mid-file corruption skipping, segment rotation and compaction, and
 * the multi-writer sharing model (one owner tag per process, all
 * segments replayed by all readers).
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>

#include "cache/persistent_store.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "support/strings.hh"

using namespace elag;
using cache::PersistentStore;
using cache::PersistentStoreConfig;

namespace {

/** Fresh cache directory per test so stores never collide. */
std::string
uniqueDir(const std::string &stem)
{
    static int counter = 0;
    return testing::TempDir() + "elag-cache-" + stem + "-" +
           std::to_string(::getpid()) + "-" +
           std::to_string(counter++);
}

std::string
segmentPath(const std::string &dir, const std::string &owner,
            uint64_t gen)
{
    return dir + "/" + formatString("seg-%s.%llu.jsonl",
                                    owner.c_str(),
                                    (unsigned long long)gen);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
writeFile(const std::string &path, const std::string &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out.write(data.data(), data.size());
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

} // namespace

TEST(Crc32, MatchesKnownVectors)
{
    // The canonical IEEE check value.
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(crc32("", 0), 0u);
    // Sensitivity: one flipped bit changes the sum.
    EXPECT_NE(crc32("123456788", 9), crc32("123456789", 9));
}

TEST(CacheStore, RoundTripAndStats)
{
    setQuiet(true);
    PersistentStoreConfig config;
    config.dir = uniqueDir("roundtrip");
    PersistentStore store(config);

    std::string value;
    EXPECT_FALSE(store.lookup(1, value));
    store.append(1, "{\"a\": 1}");
    store.append(2, "{\"b\": 2}");
    ASSERT_TRUE(store.lookup(1, value));
    EXPECT_EQ(value, "{\"a\": 1}");
    ASSERT_TRUE(store.lookup(2, value));
    EXPECT_EQ(value, "{\"b\": 2}");
    EXPECT_EQ(store.size(), 2u);

    auto stats = store.stats();
    EXPECT_EQ(stats.appends, 2u);
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.recovered, 0u);
}

TEST(CacheStore, DedupSkipsDuplicateKeys)
{
    setQuiet(true);
    PersistentStoreConfig config;
    config.dir = uniqueDir("dedup");
    PersistentStore store(config);

    store.append(7, "first");
    store.append(7, "second");
    std::string value;
    ASSERT_TRUE(store.lookup(7, value));
    EXPECT_EQ(value, "first");
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.stats().appends, 1u);
    EXPECT_EQ(store.stats().dedupSkipped, 1u);
}

TEST(CacheStore, GnarlyValuesSurviveReopen)
{
    setQuiet(true);
    PersistentStoreConfig config;
    config.dir = uniqueDir("gnarly");

    // Values that attack the record format: newlines (records are
    // line-delimited), quotes and backslashes (JSON escaping), text
    // that looks like the record's own scalar members, and emptiness.
    const std::pair<uint64_t, std::string> cases[] = {
        {1, "line one\nline two\n"},
        {2, "quote \" backslash \\ tab \t"},
        {3, "\",\"c\":0,\"v\":\"spoofed"},
        {4, ""},
        {5, std::string(100'000, 'x')},
    };

    {
        PersistentStore store(config);
        for (const auto &kv : cases)
            store.append(kv.first, kv.second);
        std::string value;
        for (const auto &kv : cases) {
            ASSERT_TRUE(store.lookup(kv.first, value)) << kv.first;
            EXPECT_EQ(value, kv.second);
        }
    }

    PersistentStore reopened(config);
    EXPECT_EQ(reopened.stats().recovered, 5u);
    EXPECT_EQ(reopened.stats().tornTruncated, 0u);
    std::string value;
    for (const auto &kv : cases) {
        ASSERT_TRUE(reopened.lookup(kv.first, value)) << kv.first;
        EXPECT_EQ(value, kv.second);
    }
}

TEST(CacheStore, PartialTailTruncatedOnRecovery)
{
    setQuiet(true);
    PersistentStoreConfig config;
    config.dir = uniqueDir("torn");
    {
        PersistentStore store(config);
        store.append(1, "alpha");
        store.append(2, "beta");
        store.append(3, "gamma");
    }

    // A crash mid-append leaves a partial line at the end of the
    // segment: no newline, no complete record.
    std::string path = segmentPath(config.dir, "main", 1);
    std::string data = readFile(path);
    size_t intact = data.size();
    writeFile(path, data + "{\"k\":\"00000000000000");

    PersistentStore store(config);
    EXPECT_EQ(store.stats().recovered, 3u);
    EXPECT_EQ(store.stats().tornTruncated, 1u);
    EXPECT_EQ(store.stats().corruptSkipped, 0u);
    std::string value;
    EXPECT_TRUE(store.lookup(1, value));
    EXPECT_TRUE(store.lookup(2, value));
    ASSERT_TRUE(store.lookup(3, value));
    EXPECT_EQ(value, "gamma");

    // The torn bytes are gone from disk, not just from the index.
    EXPECT_EQ(readFile(path).size(), intact);
}

TEST(CacheStore, CorruptFinalRecordTruncated)
{
    setQuiet(true);
    PersistentStoreConfig config;
    config.dir = uniqueDir("torn-final");
    {
        PersistentStore store(config);
        store.append(1, "alpha");
        store.append(2, "beta");
    }

    // Damage the value bytes of the final (complete) line: its CRC
    // fails, which recovery treats as a torn tail.
    std::string path = segmentPath(config.dir, "main", 1);
    std::string data = readFile(path);
    size_t beta = data.rfind("beta");
    ASSERT_NE(beta, std::string::npos);
    data[beta] = 'X';
    writeFile(path, data);

    PersistentStore store(config);
    EXPECT_EQ(store.stats().recovered, 1u);
    EXPECT_EQ(store.stats().tornTruncated, 1u);
    std::string value;
    ASSERT_TRUE(store.lookup(1, value));
    EXPECT_EQ(value, "alpha");
    EXPECT_FALSE(store.lookup(2, value));
}

TEST(CacheStore, MidFileCorruptionSkipsOnlyThatRecord)
{
    setQuiet(true);
    PersistentStoreConfig config;
    config.dir = uniqueDir("midfile");
    {
        PersistentStore store(config);
        store.append(1, "alpha");
        store.append(2, "beta");
        store.append(3, "gamma");
    }

    // Bit rot in the middle of the segment: the damaged record is
    // skipped, but everything after it must still be served — no
    // truncation.
    std::string path = segmentPath(config.dir, "main", 1);
    std::string data = readFile(path);
    size_t size = data.size();
    size_t beta = data.find("beta");
    ASSERT_NE(beta, std::string::npos);
    data[beta] = 'X';
    writeFile(path, data);

    PersistentStore store(config);
    EXPECT_EQ(store.stats().recovered, 2u);
    EXPECT_EQ(store.stats().corruptSkipped, 1u);
    EXPECT_EQ(store.stats().tornTruncated, 0u);
    std::string value;
    ASSERT_TRUE(store.lookup(1, value));
    EXPECT_EQ(value, "alpha");
    EXPECT_FALSE(store.lookup(2, value));
    ASSERT_TRUE(store.lookup(3, value));
    EXPECT_EQ(value, "gamma");
    EXPECT_EQ(readFile(path).size(), size);
}

TEST(CacheStore, RotationAndCompactionKeepEveryLiveRecord)
{
    setQuiet(true);
    PersistentStoreConfig config;
    config.dir = uniqueDir("compact");
    config.maxSegmentBytes = 256; // force rotation every few records

    {
        PersistentStore store(config);
        for (uint64_t k = 1; k <= 20; ++k)
            store.append(k, formatString("value-%llu",
                                         (unsigned long long)k));
        // Rotation must have produced several segments.
        ASSERT_TRUE(fileExists(segmentPath(config.dir, "main", 1)));
        ASSERT_TRUE(fileExists(segmentPath(config.dir, "main", 2)));

        store.compact();
        EXPECT_EQ(store.stats().compactions, 1u);
        // The replaced segments are unlinked by the commit.
        EXPECT_FALSE(fileExists(segmentPath(config.dir, "main", 1)));
        EXPECT_FALSE(fileExists(segmentPath(config.dir, "main", 2)));

        // Hits re-read from the compacted segment.
        std::string value;
        for (uint64_t k = 1; k <= 20; ++k) {
            ASSERT_TRUE(store.lookup(k, value)) << k;
            EXPECT_EQ(value, formatString("value-%llu",
                                          (unsigned long long)k));
        }

        // The compacted segment stays appendable.
        store.append(21, "post-compaction");
    }

    PersistentStore reopened(config);
    EXPECT_EQ(reopened.stats().recovered, 21u);
    std::string value;
    ASSERT_TRUE(reopened.lookup(21, value));
    EXPECT_EQ(value, "post-compaction");
}

TEST(CacheStore, AutoCompactsAtOpenPastThreshold)
{
    setQuiet(true);
    PersistentStoreConfig config;
    config.dir = uniqueDir("autocompact");
    config.compactSegmentThreshold = 2;

    { // open #1: creates segment gen 1
        PersistentStore store(config);
        store.append(1, "one");
    }
    // Open #2 sees one own segment, creates its active one — that is
    // two own segments, at the threshold, so it compacts.
    PersistentStore store(config);
    EXPECT_EQ(store.stats().compactions, 1u);
    std::string value;
    ASSERT_TRUE(store.lookup(1, value));
    EXPECT_EQ(value, "one");
}

TEST(CacheStore, SharedDirectoryAcrossOwners)
{
    setQuiet(true);
    std::string dir = uniqueDir("shared");

    // Two concurrent writers (distinct owner tags, as shard workers
    // use) never touch each other's segments.
    PersistentStoreConfig a;
    a.dir = dir;
    a.owner = "shard0";
    PersistentStoreConfig b;
    b.dir = dir;
    b.owner = "shard1";
    {
        PersistentStore storeA(a);
        PersistentStore storeB(b);
        storeA.append(1, "from-shard0");
        storeB.append(2, "from-shard1");

        // B opened before A's append, so it only sees its own write;
        // sharing happens at (re)open, when all segments replay.
        std::string value;
        EXPECT_FALSE(storeB.lookup(1, value));
        ASSERT_TRUE(storeB.lookup(2, value));
        EXPECT_EQ(value, "from-shard1");
    }

    // A late reader (a respawned worker) replays every owner.
    PersistentStoreConfig c;
    c.dir = dir;
    c.owner = "shard2";
    PersistentStore reader(c);
    EXPECT_EQ(reader.stats().recovered, 2u);
    std::string value;
    ASSERT_TRUE(reader.lookup(1, value));
    EXPECT_EQ(value, "from-shard0");
    ASSERT_TRUE(reader.lookup(2, value));
    EXPECT_EQ(value, "from-shard1");
}

TEST(CacheStore, DamagedRecordBecomesMissNeverWrongAnswer)
{
    setQuiet(true);
    PersistentStoreConfig config;
    config.dir = uniqueDir("rot");
    PersistentStore store(config);
    store.append(1, "alpha");

    // Rot the segment under the live store: the index still points
    // at the record, but the hit path re-verifies and must demote
    // the entry to a miss.
    std::string path = segmentPath(config.dir, "main", 1);
    std::string data = readFile(path);
    size_t alpha = data.find("alpha");
    ASSERT_NE(alpha, std::string::npos);
    data[alpha] = 'X';
    writeFile(path, data);

    std::string value;
    EXPECT_FALSE(store.lookup(1, value));
    EXPECT_EQ(store.stats().readFailures, 1u);
    // The entry was dropped, so the key is appendable again.
    store.append(1, "alpha");
    ASSERT_TRUE(store.lookup(1, value));
    EXPECT_EQ(value, "alpha");
}

TEST(CacheStore, WriteFailureDegradesToMissNeverAnError)
{
    setQuiet(true);
    PersistentStoreConfig config;
    config.dir = uniqueDir("enospc");
    PersistentStore store(config);
    store.append(1, "kept");

    // Swap the active segment for /dev/full: every append now hits
    // a genuine ENOSPC from write(2). Appends must not throw, must
    // be counted, and must leave existing records servable.
    store.breakActiveSegmentForTesting();
    EXPECT_NO_THROW(store.append(2, "dropped"));
    EXPECT_NO_THROW(store.append(3, "also dropped"));
    EXPECT_EQ(store.stats().writeFailures, 2u);

    std::string value;
    ASSERT_TRUE(store.lookup(1, value));
    EXPECT_EQ(value, "kept");
    EXPECT_FALSE(store.lookup(2, value)); // degraded to a miss
    EXPECT_FALSE(store.lookup(3, value));
    EXPECT_EQ(store.size(), 1u);

    // Reopening the directory recovers cleanly: the failed appends
    // left no torn bytes behind.
    PersistentStore reopened(config);
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.stats().tornTruncated, 0u);
    EXPECT_EQ(reopened.stats().corruptSkipped, 0u);
    ASSERT_TRUE(reopened.lookup(1, value));
    EXPECT_EQ(value, "kept");
}

TEST(CacheStore, RejectsMalformedConfiguration)
{
    setQuiet(true);
    PersistentStoreConfig noDir;
    EXPECT_THROW(PersistentStore{noDir}, FatalError);

    PersistentStoreConfig badOwner;
    badOwner.dir = uniqueDir("badowner");
    badOwner.owner = "../escape";
    EXPECT_THROW(PersistentStore{badOwner}, FatalError);

    PersistentStoreConfig emptyOwner;
    emptyOwner.dir = uniqueDir("emptyowner");
    emptyOwner.owner = "";
    EXPECT_THROW(PersistentStore{emptyOwner}, FatalError);
}

TEST(CacheStore, IgnoresForeignFilesInDirectory)
{
    setQuiet(true);
    PersistentStoreConfig config;
    config.dir = uniqueDir("foreign");
    {
        PersistentStore store(config);
        store.append(1, "alpha");
    }
    // Leftover temp files (a crash mid-compaction) and stray files
    // are not segments and must not be replayed.
    writeFile(config.dir + "/seg-main.9.jsonl.tmp", "half-written");
    writeFile(config.dir + "/README", "not a segment");

    PersistentStore store(config);
    EXPECT_EQ(store.stats().recovered, 1u);
    std::string value;
    ASSERT_TRUE(store.lookup(1, value));
    EXPECT_EQ(value, "alpha");
}
