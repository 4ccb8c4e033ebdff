/**
 * @file
 * Memory-system tests: sparse main memory, the cache timing model
 * (hits, misses, non-blocking fill merges, LRU, no-write-allocate,
 * the tag-free repeat hit), and the BTB.
 */

#include <gtest/gtest.h>

#include "ckpt/serial.hh"
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

TEST(Cache, RehitLastMatchesFullAccess)
{
    // rehitLast() on the block the last access() left present counts
    // the hit and stamps LRU exactly like a full access(): a two-way
    // cache then picks the same victim and serializes the same bytes.
    CacheConfig cfg{128, 16, 2, 12, true};
    Cache full(cfg);
    Cache fast(cfg);
    for (Cache *c : {&full, &fast}) {
        c->access(0x00, 1);   // set 0, way A: fill done at 13
        c->access(0x40, 2);   // set 0, way B
    }
    full.access(0x00, 20);
    full.access(0x04, 21);
    fast.access(0x00, 20);
    fast.rehitLast(21);       // same block as the last access
    full.access(0x80, 22);    // evicts the least recently used: 0x40
    fast.access(0x80, 22);
    EXPECT_EQ(fast.hits(), full.hits());
    EXPECT_EQ(fast.misses(), full.misses());
    EXPECT_TRUE(fast.access(0x00, 40).hit);
    EXPECT_TRUE(full.access(0x00, 40).hit);
    ckpt::Writer a, b;
    full.serialize(a);
    fast.serialize(b);
    EXPECT_EQ(a.data(), b.data());
}

TEST(Btb, ColdMissThenAllocatesOnTaken)
{
    // resolve() returns the prediction made before it trains.
    Btb btb(1024);
    EXPECT_FALSE(btb.resolve(100, false, 0).hit);
    // Not-taken branches do not allocate: still a miss.
    EXPECT_FALSE(btb.resolve(100, true, 200).hit);
    Btb::Prediction pred = btb.resolve(100, true, 200);
    EXPECT_TRUE(pred.hit);
    EXPECT_TRUE(pred.taken);
    EXPECT_EQ(pred.target, 200u);
}

TEST(Btb, TwoBitHysteresis)
{
    Btb btb(1024);
    btb.resolve(5, true, 50);  // allocates: counter = 2
    btb.resolve(5, true, 50);  // counter = 3
    btb.resolve(5, false, 0);  // counter = 2
    EXPECT_TRUE(btb.resolve(5, false, 0).taken);  // then counter = 1
    EXPECT_FALSE(btb.resolve(5, true, 50).taken); // then counter = 2
    EXPECT_TRUE(btb.resolve(5, true, 50).taken);
}

TEST(Btb, TagPreventsAliasHit)
{
    Btb btb(16);
    btb.resolve(3, true, 30);
    // pc 19 maps to the same entry but has a different tag; being
    // taken, it replaces pc 3's entry.
    EXPECT_FALSE(btb.resolve(19, true, 90).hit);
    EXPECT_FALSE(btb.resolve(3, false, 0).hit);
    EXPECT_EQ(btb.resolve(19, true, 90).target, 90u);
}

TEST(Btb, TargetUpdatesOnTaken)
{
    Btb btb(64);
    btb.resolve(7, true, 100);
    btb.resolve(7, true, 140); // indirect branch changed target
    EXPECT_EQ(btb.resolve(7, true, 140).target, 140u);
}
