/**
 * @file
 * IR infrastructure tests: CFG construction, reverse post order,
 * dominators, natural loops, liveness, the verifier, and printing.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "ir/dominators.hh"
#include "ir/ir.hh"
#include "ir/liveness.hh"
#include "ir/loops.hh"
#include "ir/printer.hh"
#include "ir/verify.hh"
#include "support/logging.hh"

using namespace elag;
using namespace elag::ir;

namespace {

IrInst
jump(BasicBlock *target)
{
    IrInst inst;
    inst.op = IrOpcode::Jump;
    inst.taken = target;
    return inst;
}

IrInst
branch(CondCode cc, int a, BasicBlock *taken, BasicBlock *not_taken)
{
    IrInst inst;
    inst.op = IrOpcode::Br;
    inst.cond = cc;
    inst.a = Operand::makeReg(a);
    inst.b = Operand::makeImm(0);
    inst.taken = taken;
    inst.notTaken = not_taken;
    return inst;
}

IrInst
ret()
{
    IrInst inst;
    inst.op = IrOpcode::Ret;
    return inst;
}

IrInst
movImm(int dest, int64_t value)
{
    IrInst inst;
    inst.op = IrOpcode::Mov;
    inst.dest = dest;
    inst.a = Operand::makeImm(value);
    return inst;
}

IrInst
addInst(int dest, int a, int64_t b)
{
    IrInst inst;
    inst.op = IrOpcode::Add;
    inst.dest = dest;
    inst.a = Operand::makeReg(a);
    inst.b = Operand::makeImm(b);
    return inst;
}

/** Build a diamond: entry -> (left|right) -> join -> exit. */
struct Diamond
{
    Function fn{"diamond"};
    BasicBlock *entry;
    BasicBlock *left;
    BasicBlock *right;
    BasicBlock *join;

    Diamond()
    {
        entry = fn.newBlock();
        left = fn.newBlock();
        right = fn.newBlock();
        join = fn.newBlock();
        int cond = fn.newVReg();
        entry->insts.push_back(movImm(cond, 1));
        entry->insts.push_back(
            branch(CondCode::Ne, cond, left, right));
        left->insts.push_back(jump(join));
        right->insts.push_back(jump(join));
        join->insts.push_back(ret());
        fn.recomputeCfg();
    }
};

/** Build a simple loop: entry -> header <-> body, header -> exit. */
struct SimpleLoop
{
    Function fn{"loop"};
    BasicBlock *entry;
    BasicBlock *header;
    BasicBlock *body;
    BasicBlock *exit;
    int iv;

    SimpleLoop()
    {
        entry = fn.newBlock();
        header = fn.newBlock();
        body = fn.newBlock();
        exit = fn.newBlock();
        iv = fn.newVReg();
        entry->insts.push_back(movImm(iv, 0));
        entry->insts.push_back(jump(header));
        header->insts.push_back(
            branch(CondCode::Lt, iv, body, exit));
        body->insts.push_back(addInst(iv, iv, 1));
        body->insts.push_back(jump(header));
        exit->insts.push_back(ret());
        fn.recomputeCfg();
    }
};

} // namespace

TEST(Cfg, DiamondEdges)
{
    Diamond d;
    EXPECT_EQ(d.entry->succs.size(), 2u);
    EXPECT_EQ(d.join->preds.size(), 2u);
    EXPECT_EQ(d.left->preds.size(), 1u);
}

TEST(Cfg, RpoVisitsEntryFirstAndAllBlocks)
{
    Diamond d;
    auto order = d.fn.rpo();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order.front(), d.entry);
    // Join comes after both branches.
    EXPECT_EQ(order.back(), d.join);
}

TEST(Cfg, RemoveUnreachableDropsOrphans)
{
    Diamond d;
    BasicBlock *orphan = d.fn.newBlock();
    orphan->insts.push_back(ret());
    EXPECT_EQ(d.fn.blocks().size(), 5u);
    d.fn.removeUnreachable();
    EXPECT_EQ(d.fn.blocks().size(), 4u);
}

TEST(Dominators, DiamondStructure)
{
    Diamond d;
    Dominators doms(d.fn);
    EXPECT_TRUE(doms.dominates(d.entry, d.join));
    EXPECT_TRUE(doms.dominates(d.entry, d.left));
    EXPECT_FALSE(doms.dominates(d.left, d.join));
    EXPECT_EQ(doms.idom(d.join), d.entry);
    EXPECT_EQ(doms.idom(d.entry), nullptr);
    EXPECT_TRUE(doms.dominates(d.join, d.join)); // reflexive
}

TEST(Loops, DetectsSimpleLoop)
{
    SimpleLoop l;
    LoopInfo info(l.fn);
    ASSERT_EQ(info.loops().size(), 1u);
    const Loop &loop = *info.loops()[0];
    EXPECT_EQ(loop.header, l.header);
    EXPECT_TRUE(loop.contains(l.body));
    EXPECT_FALSE(loop.contains(l.entry));
    EXPECT_FALSE(loop.contains(l.exit));
    EXPECT_EQ(loop.depth, 1);
}

TEST(Loops, NestedLoopsOrderedInnermostFirst)
{
    Function fn("nested");
    BasicBlock *entry = fn.newBlock();
    BasicBlock *outer_h = fn.newBlock();
    BasicBlock *inner_h = fn.newBlock();
    BasicBlock *inner_b = fn.newBlock();
    BasicBlock *outer_l = fn.newBlock();
    BasicBlock *exit = fn.newBlock();
    int v = fn.newVReg();
    entry->insts.push_back(movImm(v, 0));
    entry->insts.push_back(jump(outer_h));
    outer_h->insts.push_back(branch(CondCode::Lt, v, inner_h, exit));
    inner_h->insts.push_back(
        branch(CondCode::Lt, v, inner_b, outer_l));
    inner_b->insts.push_back(jump(inner_h));
    outer_l->insts.push_back(jump(outer_h));
    exit->insts.push_back(ret());
    fn.recomputeCfg();

    LoopInfo info(fn);
    ASSERT_EQ(info.loops().size(), 2u);
    auto ordered = info.loopsInnermostFirst();
    EXPECT_EQ(ordered[0]->header, inner_h);
    EXPECT_EQ(ordered[1]->header, outer_h);
    EXPECT_EQ(ordered[0]->depth, 2);
    EXPECT_EQ(ordered[0]->parent, ordered[1]);
    EXPECT_EQ(info.loopFor(inner_b), ordered[0]);
    EXPECT_EQ(info.loopFor(outer_l), ordered[1]);
    EXPECT_EQ(info.loopFor(entry), nullptr);
}

TEST(Loops, EnsurePreheaderCreatesUniqueEdge)
{
    SimpleLoop l;
    LoopInfo info(l.fn);
    Loop &loop = *info.loops()[0];
    BasicBlock *pre = ensurePreheader(l.fn, loop);
    ASSERT_NE(pre, nullptr);
    // The preheader jumps straight to the header and is its only
    // outside predecessor.
    EXPECT_EQ(pre->succs.size(), 1u);
    EXPECT_EQ(pre->succs[0], l.header);
    int outside_preds = 0;
    for (BasicBlock *p : l.header->preds) {
        if (!loop.contains(p))
            ++outside_preds;
    }
    EXPECT_EQ(outside_preds, 1);
    // Idempotent: asking again returns the same block.
    l.fn.recomputeCfg();
    LoopInfo info2(l.fn);
    EXPECT_EQ(ensurePreheader(l.fn, *info2.loops()[0]), pre);
}

TEST(Liveness, ValueLiveAcrossLoop)
{
    SimpleLoop l;
    Liveness live(l.fn);
    auto has = [](const Liveness::VRegSet &set, int v) {
        return std::binary_search(set.begin(), set.end(), v);
    };
    // iv is live into the header and body (used by branch and add).
    EXPECT_TRUE(has(live.liveIn(l.header), l.iv));
    EXPECT_TRUE(has(live.liveIn(l.body), l.iv));
    EXPECT_FALSE(has(live.liveIn(l.entry), l.iv));
    EXPECT_FALSE(has(live.liveIn(l.exit), l.iv));
}

TEST(Liveness, DeadAfterLastUse)
{
    Function fn("straight");
    BasicBlock *bb = fn.newBlock();
    int a = fn.newVReg();
    int b = fn.newVReg();
    bb->insts.push_back(movImm(a, 1));
    bb->insts.push_back(addInst(b, a, 2));
    IrInst r;
    r.op = IrOpcode::Ret;
    r.a = Operand::makeReg(b);
    bb->insts.push_back(r);
    fn.recomputeCfg();
    Liveness live(fn);
    EXPECT_TRUE(live.liveOut(bb).empty());
    EXPECT_TRUE(live.liveIn(bb).empty());
}

TEST(Verify, AcceptsWellFormed)
{
    Diamond d;
    EXPECT_NO_THROW(ir::verify(d.fn));
}

TEST(Verify, RejectsMissingTerminator)
{
    Function fn("bad");
    BasicBlock *bb = fn.newBlock();
    bb->insts.push_back(movImm(fn.newVReg(), 1));
    EXPECT_THROW(ir::verify(fn), PanicError);
}

TEST(Verify, RejectsMidBlockTerminator)
{
    Function fn("bad");
    BasicBlock *bb = fn.newBlock();
    bb->insts.push_back(ret());
    bb->insts.push_back(ret());
    EXPECT_THROW(ir::verify(fn), PanicError);
}

TEST(Verify, RejectsForeignBranchTarget)
{
    Function fn("bad");
    Function other("other");
    BasicBlock *bb = fn.newBlock();
    BasicBlock *foreign = other.newBlock();
    bb->insts.push_back(jump(foreign));
    EXPECT_THROW(ir::verify(fn), PanicError);
}

TEST(Verify, RejectsLoadWithImmediateBase)
{
    Function fn("bad");
    BasicBlock *bb = fn.newBlock();
    IrInst ld;
    ld.op = IrOpcode::Load;
    ld.dest = fn.newVReg();
    ld.a = Operand::makeImm(0x1000);
    ld.b = Operand::makeImm(0);
    bb->insts.push_back(ld);
    bb->insts.push_back(ret());
    EXPECT_THROW(ir::verify(fn), PanicError);
}

TEST(Printer, RendersLoadSpec)
{
    IrInst ld;
    ld.op = IrOpcode::Load;
    ld.dest = 3;
    ld.a = Operand::makeReg(1);
    ld.b = Operand::makeImm(8);
    ld.spec = isa::LoadSpec::Predict;
    EXPECT_EQ(toString(ld), "v3 = load [v1 + 8] (ld_p)");
}

TEST(Printer, FunctionListingHasBlocksAndEntry)
{
    Diamond d;
    std::string text = toString(d.fn);
    EXPECT_NE(text.find("func diamond"), std::string::npos);
    EXPECT_NE(text.find("; entry"), std::string::npos);
    EXPECT_NE(text.find("bb3:"), std::string::npos);
}

TEST(CondCodes, Negate)
{
    EXPECT_EQ(negateCond(CondCode::Lt), CondCode::Ge);
    EXPECT_EQ(negateCond(CondCode::Eq), CondCode::Ne);
}

TEST(Module, NumberLoadsAssignsStableUniqueIds)
{
    Module mod;
    auto fn = std::make_unique<Function>("f");
    BasicBlock *bb = fn->newBlock();
    for (int i = 0; i < 3; ++i) {
        IrInst ld;
        ld.op = IrOpcode::Load;
        ld.dest = fn->newVReg();
        ld.a = Operand::makeReg(ld.dest > 1 ? 1 : fn->newVReg());
        ld.b = Operand::makeImm(0);
        bb->insts.push_back(ld);
    }
    bb->insts.push_back(ret());
    mod.functions.push_back(std::move(fn));
    mod.numberLoads();
    std::set<int> ids;
    for (const auto &inst : mod.functions[0]->blocks()[0]->insts) {
        if (inst.isLoad())
            ids.insert(inst.loadId);
    }
    EXPECT_EQ(ids.size(), 3u);
    EXPECT_FALSE(ids.count(0));
}
