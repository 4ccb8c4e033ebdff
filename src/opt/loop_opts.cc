/**
 * @file
 * Loop optimizations: loop-invariant code motion and induction-
 * variable strength reduction.
 *
 * Strength reduction is the transformation that turns
 *     t = i << 2 ; x = load [base + t] ; i = i + 1
 * into
 *     p = base + (i0 << 2)   (preheader)
 *     x = load [p + 0] ; p = p + 4
 * which is exactly the strided register+offset load shape the
 * paper's ld_p classification targets (Figure 4b).
 */

#include <optional>

#include "ir/dominators.hh"
#include "ir/loops.hh"
#include "opt/pass.hh"
#include "opt/util.hh"
#include "support/logging.hh"

namespace elag {
namespace opt {

using ir::BasicBlock;
using ir::Dominators;
using ir::Function;
using ir::IrInst;
using ir::IrOpcode;
using ir::Loop;
using ir::LoopInfo;
using ir::Operand;

namespace {

/** True if the loop contains any store or call. */
bool
loopHasMemSideEffects(const Loop &loop)
{
    for (const BasicBlock *bb : loop.blocks) {
        for (const auto &inst : bb->insts) {
            if (inst.isStore() || inst.isCall() ||
                inst.op == IrOpcode::Print) {
                return true;
            }
        }
    }
    return false;
}

/** Blocks with a back edge to the loop header. */
std::vector<BasicBlock *>
loopLatches(const Loop &loop)
{
    std::vector<BasicBlock *> latches;
    for (BasicBlock *pred : loop.header->preds) {
        if (loop.contains(pred))
            latches.push_back(pred);
    }
    return latches;
}

/** Registers with any definition inside the loop, ascending. */
std::set<int>
loopDefinedVRegs(const Loop &loop)
{
    std::set<int> defined;
    for (const BasicBlock *bb : loop.blocks) {
        for (const auto &inst : bb->insts) {
            if (inst.dest)
                defined.insert(inst.dest);
        }
    }
    return defined;
}

} // anonymous namespace

bool
loopInvariantCodeMotion(Function &fn)
{
    bool any = false;
    fn.recomputeCfg();
    LoopInfo loop_info(fn);
    // Only per-vreg def counts are read, and neither a hoist (which
    // moves an instruction) nor a preheader (which adds a Jump)
    // changes one, so the def map is built once.
    const auto defs = collectDefs(fn);
    // Built on first use; stale only once a preheader is inserted.
    std::optional<Dominators> doms;

    for (Loop *loop : loop_info.loopsInnermostFirst()) {
        bool mem_unsafe = loopHasMemSideEffects(*loop);
        std::vector<BasicBlock *> latches = loopLatches(*loop);
        std::set<int> defined_in_loop = loopDefinedVRegs(*loop);

        BasicBlock *preheader = nullptr;
        bool changed = true;
        while (changed) {
            changed = false;
            for (BasicBlock *bb : loop->blocks) {
                for (size_t i = 0; i < bb->insts.size(); ++i) {
                    IrInst &inst = bb->insts[i];
                    bool movable_op =
                        isPureBinaryOp(inst.op) ||
                        inst.op == IrOpcode::Mov ||
                        inst.op == IrOpcode::FrameAddr ||
                        inst.op == IrOpcode::GlobalAddr ||
                        (inst.isLoad() && !mem_unsafe);
                    if (!movable_op || !inst.dest)
                        continue;
                    // Dest must be single-def in the function.
                    auto dit = defs.find(inst.dest);
                    if (dit == defs.end() || dit->second.size() != 1)
                        continue;
                    // All sources invariant.
                    std::vector<int> srcs;
                    inst.sourceRegs(srcs);
                    bool invariant = true;
                    for (int s : srcs) {
                        if (defined_in_loop.count(s)) {
                            invariant = false;
                            break;
                        }
                    }
                    if (!invariant)
                        continue;
                    // Loads must execute on every iteration to be
                    // hoisted (they are not speculated past guards).
                    if (inst.isLoad()) {
                        if (!doms)
                            doms.emplace(fn);
                        bool dominates_latches = true;
                        for (BasicBlock *latch : latches) {
                            if (!doms->dominates(bb, latch)) {
                                dominates_latches = false;
                                break;
                            }
                        }
                        if (!dominates_latches)
                            continue;
                    }
                    if (!preheader) {
                        size_t blocks_before = fn.blocks().size();
                        preheader = ir::ensurePreheader(fn, *loop);
                        if (fn.blocks().size() != blocks_before)
                            doms.reset(); // the CFG changed
                    }
                    // Insert before the preheader's terminator.
                    int moved_dest = inst.dest;
                    IrInst moved = inst;
                    bb->insts.erase(bb->insts.begin() +
                                    static_cast<long>(i));
                    preheader->insts.insert(
                        preheader->insts.end() - 1, std::move(moved));
                    defined_in_loop.erase(moved_dest);
                    changed = true;
                    any = true;
                    --i;
                }
            }
        }
    }
    if (any)
        fn.recomputeCfg();
    return any;
}

namespace {

/** A basic induction variable i = i + step. */
struct BasicIv
{
    int vreg = 0;
    int64_t step = 0;
    BasicBlock *incBlock = nullptr;
    size_t incIndex = 0;
};

/** Find basic IVs of @p loop: vregs with exactly one in-loop def of
 * the form v = add v, imm, that def living in a latch-dominating
 * block. Only vregs defined in the loop can qualify, so only they
 * are visited, in ascending order. */
std::vector<BasicIv>
findBasicIvs(const DefMap &defs, const Loop &loop,
             const std::set<int> &defined_in_loop)
{
    std::vector<BasicIv> ivs;
    for (int vreg : defined_in_loop) {
        InstRef in_loop_def{};
        int in_loop_defs = 0;
        bool def_outside = false;
        for (const InstRef &ref : defs.at(vreg)) {
            if (loop.contains(ref.block)) {
                in_loop_def = ref;
                ++in_loop_defs;
            } else {
                def_outside = true;
            }
        }
        if (in_loop_defs != 1 || !def_outside)
            continue;
        const IrInst &inst = in_loop_def.inst();
        bool is_inc = inst.op == IrOpcode::Add && inst.a.isReg() &&
                      inst.a.reg == vreg && inst.b.isImm() &&
                      inst.dest == vreg;
        bool is_dec = inst.op == IrOpcode::Sub && inst.a.isReg() &&
                      inst.a.reg == vreg && inst.b.isImm() &&
                      inst.dest == vreg;
        if (!is_inc && !is_dec)
            continue;
        BasicIv iv;
        iv.vreg = vreg;
        iv.step = is_inc ? inst.b.imm : -inst.b.imm;
        iv.incBlock = in_loop_def.block;
        iv.incIndex = in_loop_def.index;
        ivs.push_back(iv);
    }
    return ivs;
}

} // anonymous namespace

namespace {

/**
 * Transform at most one (IV, scaled-temp) candidate in @p loop.
 * @p defs and @p doms describe @p fn, which is left untouched unless
 * this returns true.
 * @return true if a transformation was applied.
 */
bool
reduceOneCandidate(Function &fn, Loop &loop, const DefMap &defs,
                   const Dominators &doms, std::set<int> &reduced_temps)
{
    std::set<int> defined_in_loop = loopDefinedVRegs(loop);
    std::vector<BasicIv> ivs = findBasicIvs(defs, loop, defined_in_loop);
    if (ivs.empty())
        return false;

    for (const BasicIv &iv : ivs) {
        // Increment must dominate every latch so the pointer update
        // executes exactly once per iteration.
        bool inc_each_iter = true;
        for (BasicBlock *latch : loopLatches(loop)) {
            if (!doms.dominates(iv.incBlock, latch)) {
                inc_each_iter = false;
                break;
            }
        }
        if (!inc_each_iter)
            continue;

        // Find scaled copies: t = shl iv, k (single-def, in loop,
        // computed with the pre-increment IV value).
        for (int t_vreg : defined_in_loop) {
            const std::vector<InstRef> &t_defs = defs.at(t_vreg);
            if (t_defs.size() != 1 || reduced_temps.count(t_vreg))
                continue;
            InstRef t_ref = t_defs[0];
            const IrInst &t_inst = t_ref.inst();
            if (t_inst.op != IrOpcode::Shl || !t_inst.a.isReg() ||
                t_inst.a.reg != iv.vreg || !t_inst.b.isImm()) {
                continue;
            }
            if (t_ref.block == iv.incBlock &&
                t_ref.index > iv.incIndex) {
                continue;
            }
            int64_t shift = t_inst.b.imm;

            // Memory accesses [base + t] with loop-invariant base.
            struct Site
            {
                BasicBlock *block;
                size_t index;
            };
            std::vector<Site> sites;
            for (BasicBlock *bb : loop.blocks) {
                for (size_t i = 0; i < bb->insts.size(); ++i) {
                    IrInst &inst = bb->insts[i];
                    bool site_ok =
                        inst.isMem() && inst.b.isReg() &&
                        inst.b.reg == t_vreg && inst.a.isReg() &&
                        !defined_in_loop.count(inst.a.reg) &&
                        // Access must observe the pre-increment IV.
                        !(bb == iv.incBlock && i > iv.incIndex) &&
                        doms.dominates(t_ref.block, bb) &&
                        !(bb == t_ref.block && i < t_ref.index);
                    if (site_ok)
                        sites.push_back({bb, i});
                }
            }
            if (sites.empty())
                continue;

            // Group sites by base register; one strided pointer per
            // base register.
            std::map<int, int> base_to_ptr;
            BasicBlock *preheader = ir::ensurePreheader(fn, loop);
            // Rewrite sites in reverse so stored indices stay valid
            // while the IV-increment block gains the bump insts.
            for (auto it = sites.rbegin(); it != sites.rend(); ++it) {
                IrInst &mem = it->block->insts[it->index];
                int base = mem.a.reg;
                int ptr;
                auto found = base_to_ptr.find(base);
                if (found == base_to_ptr.end()) {
                    int t0 = fn.newVReg();
                    ptr = fn.newVReg();
                    IrInst shl;
                    shl.op = IrOpcode::Shl;
                    shl.dest = t0;
                    shl.a = Operand::makeReg(iv.vreg);
                    shl.b = Operand::makeImm(shift);
                    IrInst addp;
                    addp.op = IrOpcode::Add;
                    addp.dest = ptr;
                    addp.a = Operand::makeReg(base);
                    addp.b = Operand::makeReg(t0);
                    preheader->insts.insert(preheader->insts.end() - 1,
                                            shl);
                    preheader->insts.insert(preheader->insts.end() - 1,
                                            addp);
                    IrInst bump;
                    bump.op = IrOpcode::Add;
                    bump.dest = ptr;
                    bump.a = Operand::makeReg(ptr);
                    bump.b = Operand::makeImm(iv.step *
                                              (1ll << shift));
                    iv.incBlock->insts.insert(
                        iv.incBlock->insts.begin() +
                            static_cast<long>(iv.incIndex) + 1,
                        bump);
                    base_to_ptr[base] = ptr;
                } else {
                    ptr = found->second;
                }
                mem.a = Operand::makeReg(ptr);
                mem.b = Operand::makeImm(0);
            }
            reduced_temps.insert(t_vreg);
            return true;
        }
    }
    return false;
}

} // anonymous namespace

bool
strengthReduceInductionVariables(Function &fn)
{
    bool any = false;
    fn.recomputeCfg();

    // Each transformation invalidates CFG-derived analyses, so loops
    // are re-discovered after every change, bounded by a generous cap.
    // A loop that yields no candidate leaves the function untouched,
    // so one def map and one dominator tree serve every loop tried
    // between two changes.
    std::set<int> reduced_temps;
    for (int iter = 0; iter < 256; ++iter) {
        LoopInfo loop_info(fn);
        const DefMap defs = collectDefs(fn);
        const Dominators doms(fn);
        bool changed = false;
        for (Loop *loop : loop_info.loopsInnermostFirst()) {
            if (reduceOneCandidate(fn, *loop, defs, doms, reduced_temps)) {
                changed = true;
                break;
            }
        }
        if (!changed)
            break;
        fn.recomputeCfg();
        any = true;
    }
    return any;
}

} // namespace opt
} // namespace elag
