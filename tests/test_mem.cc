/**
 * @file
 * Memory-system tests: sparse main memory, the cache timing model
 * (hits, misses, non-blocking fill merges, LRU, no-write-allocate),
 * and the BTB.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/memory.hh"
#include "support/logging.hh"
#include "support/random.hh"

using namespace elag;
using namespace elag::mem;

TEST(MainMemory, ZeroInitialized)
{
    MainMemory mem(1 << 20);
    EXPECT_EQ(mem.readWord(0x1234), 0u);
    EXPECT_EQ(mem.readByte(0xffff), 0);
    EXPECT_EQ(mem.allocatedPages(), 0u); // reads allocate nothing
}

TEST(MainMemory, ByteAndWordRoundTrip)
{
    MainMemory mem(1 << 20);
    mem.writeWord(0x100, 0xdeadbeef);
    EXPECT_EQ(mem.readWord(0x100), 0xdeadbeefu);
    // Little-endian byte order.
    EXPECT_EQ(mem.readByte(0x100), 0xef);
    EXPECT_EQ(mem.readByte(0x103), 0xde);
    mem.writeByte(0x101, 0x00);
    EXPECT_EQ(mem.readWord(0x100), 0xdead00efu);
}

TEST(MainMemory, CrossPageWordAccess)
{
    MainMemory mem(1 << 20);
    uint32_t addr = 4096 - 2; // straddles a page boundary
    mem.writeWord(addr, 0x11223344);
    EXPECT_EQ(mem.readWord(addr), 0x11223344u);
}

TEST(MainMemory, OutOfRangeFaults)
{
    MainMemory mem(4096);
    EXPECT_THROW(mem.readWord(4094), FatalError);
    EXPECT_THROW(mem.writeByte(4096, 1), FatalError);
    EXPECT_NO_THROW(mem.readByte(4095));
}

TEST(MainMemory, WriteBlock)
{
    MainMemory mem(1 << 16);
    mem.writeBlock(10, {1, 2, 3});
    EXPECT_EQ(mem.readByte(10), 1);
    EXPECT_EQ(mem.readByte(12), 3);
}

TEST(Cache, HitAfterFill)
{
    Cache cache(CacheConfig{});
    auto miss = cache.access(0x1000, 100);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.readyCycle, 112u); // 12-cycle miss penalty
    // After the fill completes the block hits.
    auto hit = cache.access(0x1000, 113);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.readyCycle, 113u);
    // Same block, different word: also a hit (64B block).
    EXPECT_TRUE(cache.access(0x103c, 114).hit);
    // Next block: miss.
    EXPECT_FALSE(cache.access(0x1040, 115).hit);
}

TEST(Cache, FillInFlightMerges)
{
    Cache cache(CacheConfig{});
    auto miss = cache.access(0x2000, 50);
    ASSERT_FALSE(miss.hit);
    // A second access before the fill completes merges with it.
    auto merge = cache.access(0x2004, 55);
    EXPECT_FALSE(merge.hit);
    EXPECT_TRUE(merge.mergedWithFill);
    EXPECT_EQ(merge.readyCycle, miss.readyCycle);
    EXPECT_EQ(cache.fillMerges(), 1u);
}

TEST(Cache, DirectMappedConflict)
{
    CacheConfig cfg;
    cfg.sizeBytes = 1024;
    cfg.blockSize = 64;
    cfg.assoc = 1; // 16 sets
    Cache cache(cfg);
    cache.access(0, 10);
    EXPECT_TRUE(cache.access(0, 30).hit);
    // 1024 bytes away: same set, different tag -> evicts.
    cache.access(1024, 40);
    EXPECT_FALSE(cache.access(0, 60).hit);
}

TEST(Cache, TwoWayAvoidsPingPong)
{
    CacheConfig cfg;
    cfg.sizeBytes = 2048;
    cfg.blockSize = 64;
    cfg.assoc = 2;
    Cache cache(cfg);
    cache.access(0, 10);
    cache.access(2048, 20); // same set, second way
    EXPECT_TRUE(cache.access(0, 40).hit);
    EXPECT_TRUE(cache.access(2048, 41).hit);
    // Third conflicting block evicts the LRU (block 0 was touched
    // at 40, block 2048 at 41 -> 0 is LRU... touch 0 again first).
    cache.access(0, 42);
    cache.access(4096, 50);
    EXPECT_TRUE(cache.access(0, 60).hit);
    EXPECT_FALSE(cache.access(2048, 61).hit);
}

TEST(Cache, NoAllocateLeavesCacheCold)
{
    Cache cache(CacheConfig{});
    cache.access(0x3000, 10, /*allocate_on_miss=*/false);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_FALSE(cache.access(0x3000, 100).hit);
}

TEST(Cache, Stats)
{
    Cache cache(CacheConfig{});
    cache.access(0, 1);
    cache.access(0, 20);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

// Property: a large cache warmed with N distinct blocks hits on all
// of them when re-accessed (no false conflicts).
TEST(Cache, WarmedWorkingSetAllHitsProperty)
{
    Cache cache(CacheConfig{64 * 1024, 64, 1, 12, true});
    Pcg32 rng(9);
    std::vector<uint32_t> blocks;
    for (int i = 0; i < 256; ++i)
        blocks.push_back(static_cast<uint32_t>(i) * 64);
    for (uint32_t addr : blocks)
        cache.access(addr, 1);
    for (uint32_t addr : blocks)
        EXPECT_TRUE(cache.access(addr, 1000).hit) << addr;
}

TEST(Btb, ColdMissThenAllocatesOnTaken)
{
    Btb btb(1024);
    auto pred = btb.predict(100);
    EXPECT_FALSE(pred.hit);
    btb.update(100, false, 0); // not-taken branches do not allocate
    EXPECT_FALSE(btb.predict(100).hit);
    btb.update(100, true, 200);
    pred = btb.predict(100);
    EXPECT_TRUE(pred.hit);
    EXPECT_TRUE(pred.taken);
    EXPECT_EQ(pred.target, 200u);
}

TEST(Btb, TwoBitHysteresis)
{
    Btb btb(1024);
    btb.update(5, true, 50); // counter = 2
    btb.update(5, true, 50); // counter = 3
    btb.update(5, false, 0); // counter = 2, still predicts taken
    EXPECT_TRUE(btb.predict(5).taken);
    btb.update(5, false, 0); // counter = 1 -> not taken
    EXPECT_FALSE(btb.predict(5).taken);
    btb.update(5, true, 50); // counter = 2 -> taken again
    EXPECT_TRUE(btb.predict(5).taken);
}

TEST(Btb, TagPreventsAliasHit)
{
    Btb btb(16);
    btb.update(3, true, 30);
    // pc 19 maps to the same entry but has a different tag.
    EXPECT_FALSE(btb.predict(19).hit);
    btb.update(19, true, 90); // replaces
    EXPECT_FALSE(btb.predict(3).hit);
    EXPECT_EQ(btb.predict(19).target, 90u);
}

TEST(Btb, TargetUpdatesOnTaken)
{
    Btb btb(64);
    btb.update(7, true, 100);
    btb.update(7, true, 140); // indirect branch changed target
    EXPECT_EQ(btb.predict(7).target, 140u);
}
