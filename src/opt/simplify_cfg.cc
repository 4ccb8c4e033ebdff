#include "opt/pass.hh"

#include <algorithm>

#include "support/logging.hh"

namespace elag {
namespace opt {

using ir::BasicBlock;
using ir::Function;
using ir::IrInst;
using ir::IrOpcode;

namespace {

/** Follow chains of blocks containing only a single jump. */
BasicBlock *
jumpThreadTarget(BasicBlock *bb)
{
    // Limit the walk so jump cycles cannot hang us.
    for (int hops = 0; hops < 64; ++hops) {
        if (bb->insts.size() != 1)
            return bb;
        const IrInst &inst = bb->insts.front();
        if (inst.op != IrOpcode::Jump || inst.taken == bb)
            return bb;
        bb = inst.taken;
    }
    return bb;
}

/**
 * Merge @p bb's successor into @p bb when @p bb ends in a jump to it
 * and is its unique predecessor. Keeps preds/succs current in place.
 * @return true if a merge was made.
 */
bool
mergeSuccessor(const Function &fn, BasicBlock *bb)
{
    IrInst *term = bb->terminator();
    if (!term || term->op != IrOpcode::Jump)
        return false;
    BasicBlock *succ = term->taken;
    if (succ == bb || succ->preds.size() != 1 || succ == fn.entry())
        return false;
    bb->insts.pop_back();
    for (auto &inst : succ->insts)
        bb->insts.push_back(std::move(inst));
    succ->insts.clear();
    // Leave succ empty and unreachable; give it a jump to itself so
    // the verifier's terminator rule holds until removeUnreachable
    // prunes it.
    IrInst self_jump;
    self_jump.op = IrOpcode::Jump;
    self_jump.taken = succ;
    succ->insts.push_back(self_jump);
    bb->succs = std::move(succ->succs);
    for (BasicBlock *next : bb->succs)
        std::replace(next->preds.begin(), next->preds.end(), succ, bb);
    succ->preds.clear();
    succ->succs.clear();
    return true;
}

} // anonymous namespace

bool
simplifyCfg(Function &fn)
{
    bool any = false;
    bool changed = true;
    while (changed) {
        changed = false;
        fn.recomputeCfg();

        // Thread jumps through empty forwarding blocks.
        for (auto &bb : fn.blocks()) {
            IrInst *term = bb->terminator();
            if (!term)
                continue;
            if (term->taken) {
                BasicBlock *target = jumpThreadTarget(term->taken);
                if (target != term->taken) {
                    term->taken = target;
                    changed = true;
                }
            }
            if (term->notTaken) {
                BasicBlock *target = jumpThreadTarget(term->notTaken);
                if (target != term->notTaken) {
                    term->notTaken = target;
                    changed = true;
                }
            }
            // A conditional branch to the same place is a jump.
            if (term->op == IrOpcode::Br &&
                term->taken == term->notTaken) {
                term->op = IrOpcode::Jump;
                term->notTaken = nullptr;
                term->a = ir::Operand::none();
                term->b = ir::Operand::none();
                changed = true;
            }
        }
        if (fn.entry()) {
            BasicBlock *target = jumpThreadTarget(fn.entry());
            if (target != fn.entry()) {
                fn.setEntry(target);
                changed = true;
            }
        }
        fn.removeUnreachable();
        bool threaded = changed;

        // Merge blocks into their unique successors, in block order,
        // re-testing a merged block before moving on. Once threading
        // is at a fixed point, a merge changes no other block's
        // eligibility and opens no new threading unless it leaves a
        // lone jump, so all such merges are made in one scan.
        // Otherwise the scan stops after one merge and threading runs
        // again.
        bool rescan = false;
        for (auto &bb : fn.blocks()) {
            while (!rescan && mergeSuccessor(fn, bb.get())) {
                changed = true;
                rescan = threaded ||
                         (bb->insts.size() == 1 &&
                          bb->insts[0].op == IrOpcode::Jump);
            }
            if (rescan)
                break;
        }
        fn.removeUnreachable();
        any |= changed;
    }
    return any;
}

} // namespace opt
} // namespace elag
