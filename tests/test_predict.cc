/**
 * @file
 * Prediction-hardware tests: the Figure-3 stride FSM transition
 * semantics, the PC-indexed address table (tags, conflicts,
 * allocation), the R_addr register cache (binding, LRU, multicast
 * writes), and the per-load profiler.
 */

#include <gtest/gtest.h>

#include "predict/address_table.hh"
#include "predict/profiler.hh"
#include "predict/register_cache.hh"
#include "predict/stride_fsm.hh"
#include "support/random.hh"

using namespace elag;
using namespace elag::predict;

// ---------------------------------------------------------------
// StrideFsm: the exact Figure 3 semantics.
// ---------------------------------------------------------------

TEST(StrideFsm, ConstantAddressPredictsImmediately)
{
    StrideFsm fsm;
    fsm.allocate(100);
    // Replace arc: PA=CA, ST=0, STC=1 -> next access to 100 matches.
    EXPECT_TRUE(fsm.willPredict());
    EXPECT_EQ(fsm.predictedAddress(), 100u);
    EXPECT_TRUE(fsm.update(100));
    EXPECT_TRUE(fsm.update(100));
}

TEST(StrideFsm, StrideNeedsTwoConsecutiveConfirmations)
{
    StrideFsm fsm;
    fsm.allocate(100);
    // 104: PA(100) != CA -> New_Stride: learning, no prediction.
    EXPECT_FALSE(fsm.update(104));
    EXPECT_FALSE(fsm.willPredict());
    EXPECT_EQ(fsm.stride(), 4u);
    // 108: CA-PA == ST -> Verified_Stride: back to functioning.
    EXPECT_FALSE(fsm.update(108));
    EXPECT_TRUE(fsm.willPredict());
    EXPECT_EQ(fsm.predictedAddress(), 112u);
    // From here every strided access predicts correctly.
    EXPECT_TRUE(fsm.update(112));
    EXPECT_TRUE(fsm.update(116));
    EXPECT_TRUE(fsm.update(120));
}

TEST(StrideFsm, StrideChangeRelearns)
{
    StrideFsm fsm;
    fsm.allocate(0);
    fsm.update(4);
    fsm.update(8);           // verified stride 4
    EXPECT_TRUE(fsm.update(12));
    // Switch to stride 16: two misses, then locks on.
    EXPECT_FALSE(fsm.update(32)); // New_Stride (expected 16)
    EXPECT_FALSE(fsm.willPredict());
    EXPECT_FALSE(fsm.update(48)); // Verified_Stride
    EXPECT_TRUE(fsm.willPredict());
    EXPECT_TRUE(fsm.update(64));
}

TEST(StrideFsm, RandomWalkStaysInLearning)
{
    StrideFsm fsm;
    fsm.allocate(1);
    Pcg32 rng(5);
    int predictions = 0;
    uint32_t addr = 1;
    for (int i = 0; i < 200; ++i) {
        addr += 8 + rng.nextBounded(1000) * 4;
        predictions += fsm.update(addr);
    }
    // Ever-changing strides: essentially never predicts.
    EXPECT_LE(predictions, 4);
}

TEST(StrideFsm, NegativeStrideWorks)
{
    StrideFsm fsm;
    fsm.allocate(1000);
    fsm.update(996);
    fsm.update(992);
    EXPECT_TRUE(fsm.willPredict());
    EXPECT_TRUE(fsm.update(988));
}

// Property: for any fixed stride, after the two-instance learning
// the FSM predicts every access.
TEST(StrideFsm, AnyFixedStrideLocksProperty)
{
    Pcg32 rng(77);
    for (int trial = 0; trial < 100; ++trial) {
        StrideFsm fsm;
        uint32_t stride = rng.nextBounded(4096);
        uint32_t addr = rng.next();
        fsm.allocate(addr);
        addr += stride;
        fsm.update(addr);
        addr += stride;
        fsm.update(addr);
        for (int i = 0; i < 10; ++i) {
            addr += stride;
            EXPECT_TRUE(fsm.update(addr))
                << "stride " << stride << " iteration " << i;
        }
    }
}

// ---------------------------------------------------------------
// AddressTable.
// ---------------------------------------------------------------

TEST(AddressTable, MissMakesNoPrediction)
{
    AddressTable table(64);
    EXPECT_FALSE(table.probe(10).has_value());
    EXPECT_FALSE(table.present(10));
}

TEST(AddressTable, AllocationThenPrediction)
{
    AddressTable table(64);
    EXPECT_FALSE(table.update(10, 0x100)); // allocate
    EXPECT_TRUE(table.present(10));
    auto pred = table.probe(10);
    ASSERT_TRUE(pred.has_value());
    EXPECT_EQ(*pred, 0x100u); // constant-address assumption
}

TEST(AddressTable, StridedLoadEndToEnd)
{
    AddressTable table(64);
    uint32_t pc = 42;
    int correct = 0;
    for (int i = 0; i < 20; ++i) {
        uint32_t ca = 0x2000 + static_cast<uint32_t>(i) * 8;
        auto pred = table.probe(pc);
        if (pred && *pred == ca)
            ++correct;
        table.update(pc, ca);
    }
    // Allocation + 2-instance learning, then all correct.
    EXPECT_GE(correct, 16);
}

TEST(AddressTable, ConflictEvictsByTag)
{
    AddressTable table(16);
    // pc 3 and pc 19 collide in a 16-entry table.
    table.update(3, 0x100);
    table.update(3, 0x100);
    EXPECT_TRUE(table.probe(3).has_value());
    table.update(19, 0x900); // evicts pc 3's entry
    EXPECT_FALSE(table.probe(3).has_value());
    EXPECT_TRUE(table.present(19));
    EXPECT_EQ(table.replacements(), 1u);
}

TEST(AddressTable, LearningEntryDoesNotPredictUnlessAblationEnabled)
{
    AddressTable strict(16);
    strict.update(5, 100);
    strict.update(5, 200); // stride change -> learning
    EXPECT_FALSE(strict.probe(5).has_value());

    AddressTable loose(16, true);
    loose.update(5, 100);
    loose.update(5, 200);
    EXPECT_TRUE(loose.probe(5).has_value());
}

TEST(AddressTable, StatsCount)
{
    AddressTable table(16);
    table.probe(1);
    table.update(1, 8);
    table.probe(1);
    EXPECT_EQ(table.probes(), 2u);
    EXPECT_EQ(table.probeHits(), 1u);
}

// ---------------------------------------------------------------
// RegisterCache (R_addr).
// ---------------------------------------------------------------

TEST(RegisterCache, SingleEntryBindingSwitches)
{
    RegisterCache raddr(1);
    EXPECT_FALSE(raddr.isBound(7));
    raddr.bind(7);
    EXPECT_TRUE(raddr.isBound(7));
    // Binding another register evicts the only slot.
    raddr.bind(9);
    EXPECT_FALSE(raddr.isBound(7));
    EXPECT_TRUE(raddr.isBound(9));
}

TEST(RegisterCache, LruEvictionWithCapacityFour)
{
    RegisterCache cache(4);
    for (int r = 1; r <= 4; ++r)
        cache.bind(r);
    // Touch 1 so 2 becomes LRU... binding refreshes recency.
    cache.bind(1);
    cache.bind(5); // evicts 2
    EXPECT_TRUE(cache.isBound(1));
    EXPECT_FALSE(cache.isBound(2));
    EXPECT_TRUE(cache.isBound(3));
    EXPECT_TRUE(cache.isBound(4));
    EXPECT_TRUE(cache.isBound(5));
}

TEST(RegisterCache, RebindUpdatesInPlace)
{
    RegisterCache cache(2);
    cache.bind(3, 10);
    cache.bind(3, 25);
    cache.bind(4, 30);
    // The rebind reused its slot, so both registers stay bound, and
    // it ended the first binding after 15 cycles.
    EXPECT_TRUE(cache.isBound(3));
    EXPECT_TRUE(cache.isBound(4));
    EXPECT_EQ(cache.bindings(), 3u);
    EXPECT_EQ(cache.lifetimeHistogram().samples(), 1u);
    EXPECT_EQ(cache.lifetimeHistogram().mean(), 15.0);
}

TEST(RegisterCache, InvalidateDropsBindingAndSamplesLifetime)
{
    RegisterCache raddr(1);
    raddr.bind(7, 10);
    ASSERT_TRUE(raddr.isBound(7));
    raddr.invalidate(7, 45);
    EXPECT_FALSE(raddr.isBound(7));
    // The ended binding lived 35 cycles and was sampled.
    EXPECT_EQ(raddr.lifetimeHistogram().samples(), 1u);
    EXPECT_EQ(raddr.lifetimeHistogram().mean(), 35.0);
}

TEST(RegisterCache, InvalidateUnboundOrOtherRegisterIsNoOp)
{
    RegisterCache raddr(1);
    raddr.invalidate(7, 100); // nothing bound at all
    EXPECT_EQ(raddr.lifetimeHistogram().samples(), 0u);
    raddr.bind(7, 10);
    raddr.invalidate(8, 100); // a different register
    EXPECT_TRUE(raddr.isBound(7));
    EXPECT_EQ(raddr.lifetimeHistogram().samples(), 0u);
}

TEST(RegisterCache, BindInvalidateRebindLifecycle)
{
    // The fault injector's R_addr-invalidate storm exercises exactly
    // this sequence; a rebind after an invalidate must behave like a
    // first binding (fresh bound-cycle stamp).
    RegisterCache raddr(1);
    raddr.bind(5, 10);
    raddr.invalidate(5, 30);
    EXPECT_FALSE(raddr.isBound(5));
    raddr.bind(5, 50);
    ASSERT_TRUE(raddr.isBound(5));
    raddr.invalidate(5, 90);
    // Two completed bindings: lifetimes 20 and 40 cycles.
    EXPECT_EQ(raddr.lifetimeHistogram().samples(), 2u);
    EXPECT_EQ(raddr.lifetimeHistogram().mean(), 30.0);
    EXPECT_EQ(raddr.bindings(), 2u);
}

// ---------------------------------------------------------------
// AddressProfiler.
// ---------------------------------------------------------------

TEST(Profiler, StridedLoadProfilesHighRate)
{
    AddressProfiler profiler;
    for (int i = 0; i < 100; ++i)
        profiler.observe(1, 0x1000 + static_cast<uint32_t>(i) * 4);
    const auto &prof = profiler.profile().at(1);
    EXPECT_EQ(prof.executions, 100u);
    EXPECT_GT(prof.rate(), 0.9);
}

TEST(Profiler, RandomLoadProfilesLowRate)
{
    AddressProfiler profiler;
    Pcg32 rng(3);
    for (int i = 0; i < 100; ++i)
        profiler.observe(2, rng.next());
    EXPECT_LT(profiler.profile().at(2).rate(), 0.1);
}

TEST(Profiler, LoadsAreIndependent)
{
    AddressProfiler profiler;
    Pcg32 rng(4);
    for (int i = 0; i < 50; ++i) {
        profiler.observe(1, 0x100 + static_cast<uint32_t>(i) * 8);
        profiler.observe(2, rng.next());
    }
    EXPECT_GT(profiler.profile().at(1).rate(), 0.9);
    EXPECT_LT(profiler.profile().at(2).rate(), 0.2);
    EXPECT_EQ(profiler.totalExecutions(), 100u);
}
