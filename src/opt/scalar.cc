/**
 * @file
 * Scalar cleanup passes: constant propagation, copy propagation,
 * dead-code elimination, and local redundant-load elimination with
 * store-to-load forwarding.
 */

#include <optional>

#include "ir/dominators.hh"
#include "ir/liveness.hh"
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
using ir::Operand;

namespace {

/** Substitute a known-constant register operand with an immediate. */
bool
substConst(Operand &o, const std::map<int, int32_t> &consts,
           bool keep_reg)
{
    if (!o.isReg() || keep_reg)
        return false;
    auto it = consts.find(o.reg);
    if (it == consts.end())
        return false;
    o = Operand::makeImm(it->second);
    return true;
}

/** Try to fold @p inst into a simpler form; true if changed. */
bool
foldInst(IrInst &inst)
{
    using Op = IrOpcode;
    // Fully-constant pure ops (and div/rem with non-zero divisor).
    bool foldable =
        isPureBinaryOp(inst.op) ||
        ((inst.op == Op::Div || inst.op == Op::Rem) && inst.b.isImm() &&
         inst.b.imm != 0);
    if (foldable && inst.a.isImm() && inst.b.isImm()) {
        int32_t v = evalIrOp(inst.op, static_cast<int32_t>(inst.a.imm),
                             static_cast<int32_t>(inst.b.imm));
        inst.op = Op::Mov;
        inst.a = Operand::makeImm(v);
        inst.b = Operand::none();
        return true;
    }
    // Algebraic identities with a register operand.
    if (inst.b.isImm()) {
        int64_t k = inst.b.imm;
        bool identity =
            ((inst.op == Op::Add || inst.op == Op::Sub ||
              inst.op == Op::Or || inst.op == Op::Xor ||
              inst.op == Op::Shl || inst.op == Op::Shr ||
              inst.op == Op::Sra) &&
             k == 0) ||
            ((inst.op == Op::Mul || inst.op == Op::Div) && k == 1);
        if (identity && inst.a.isReg()) {
            inst.op = Op::Mov;
            inst.b = Operand::none();
            return true;
        }
        if (inst.op == Op::Mul && k == 0) {
            inst.op = Op::Mov;
            inst.a = Operand::makeImm(0);
            inst.b = Operand::none();
            return true;
        }
        // Multiplication by a power of two becomes a shift.
        if (inst.op == Op::Mul && k > 1 && (k & (k - 1)) == 0) {
            int shift = 0;
            while ((1ll << shift) < k)
                ++shift;
            inst.op = Op::Shl;
            inst.b = Operand::makeImm(shift);
            return true;
        }
    }
    // Constant-foldable branches are handled by simplifyCfg via the
    // Br-with-equal-targets rule; fold the condition here.
    if (inst.op == Op::Br && inst.a.isImm() && inst.b.isImm()) {
        int32_t a = static_cast<int32_t>(inst.a.imm);
        int32_t b = static_cast<int32_t>(inst.b.imm);
        bool taken;
        switch (inst.cond) {
          case ir::CondCode::Eq: taken = a == b; break;
          case ir::CondCode::Ne: taken = a != b; break;
          case ir::CondCode::Lt: taken = a < b; break;
          case ir::CondCode::Le: taken = a <= b; break;
          case ir::CondCode::Gt: taken = a > b; break;
          case ir::CondCode::Ge: taken = a >= b; break;
          case ir::CondCode::LtU:
            taken = static_cast<uint32_t>(a) < static_cast<uint32_t>(b);
            break;
          case ir::CondCode::GeU:
            taken = static_cast<uint32_t>(a) >= static_cast<uint32_t>(b);
            break;
          default:
            panic("foldInst: bad cond code");
        }
        inst.op = Op::Jump;
        inst.taken = taken ? inst.taken : inst.notTaken;
        inst.notTaken = nullptr;
        inst.a = Operand::none();
        inst.b = Operand::none();
        return true;
    }
    return false;
}

bool
dominatesRef(const Dominators &doms, const InstRef &def,
             const BasicBlock *use_bb, size_t use_idx)
{
    if (def.block == use_bb)
        return def.index < use_idx;
    return doms.dominates(def.block, use_bb);
}

} // anonymous namespace

bool
constantPropagation(Function &fn)
{
    bool any = false;

    // Local propagation and folding within each block.
    for (auto &bb : fn.blocks()) {
        std::map<int, int32_t> consts;
        for (auto &inst : bb->insts) {
            bool mem_base =
                inst.op == IrOpcode::Load || inst.op == IrOpcode::Store;
            any |= substConst(inst.a, consts, mem_base);
            any |= substConst(inst.b, consts, false);
            any |= substConst(inst.c, consts, false);
            any |= foldInst(inst);
            if (inst.dest) {
                if (inst.op == IrOpcode::Mov && inst.a.isImm()) {
                    consts[inst.dest] =
                        static_cast<int32_t>(inst.a.imm);
                } else {
                    consts.erase(inst.dest);
                }
            }
        }
    }

    // Global propagation of single-def constants (with dominance).
    fn.recomputeCfg();
    auto defs = collectDefs(fn);
    std::map<int, std::pair<InstRef, int32_t>> constant_defs;
    for (auto &kv : defs) {
        if (kv.second.size() != 1)
            continue;
        const IrInst &inst = kv.second[0].inst();
        if (inst.op == IrOpcode::Mov && inst.a.isImm()) {
            constant_defs[kv.first] = {
                kv.second[0], static_cast<int32_t>(inst.a.imm)};
        }
    }
    if (!constant_defs.empty()) {
        Dominators doms(fn);
        for (auto &bb : fn.blocks()) {
            for (size_t i = 0; i < bb->insts.size(); ++i) {
                IrInst &inst = bb->insts[i];
                auto subst = [&](Operand &o, bool keep_reg) {
                    if (!o.isReg() || keep_reg)
                        return;
                    auto it = constant_defs.find(o.reg);
                    if (it == constant_defs.end())
                        return;
                    if (!dominatesRef(doms, it->second.first, bb.get(),
                                      i)) {
                        return;
                    }
                    o = Operand::makeImm(it->second.second);
                    any = true;
                };
                bool mem_base = inst.op == IrOpcode::Load ||
                                inst.op == IrOpcode::Store;
                subst(inst.a, mem_base);
                subst(inst.b, false);
                subst(inst.c, false);
                any |= foldInst(inst);
            }
        }
    }
    return any;
}

bool
copyPropagation(Function &fn)
{
    bool any = false;

    // Local window: map copy dest -> source while both are unchanged.
    for (auto &bb : fn.blocks()) {
        std::map<int, int> copies;
        for (auto &inst : bb->insts) {
            auto subst = [&](Operand &o) {
                if (!o.isReg())
                    return;
                auto it = copies.find(o.reg);
                if (it != copies.end()) {
                    o = Operand::makeReg(it->second);
                    any = true;
                }
            };
            subst(inst.a);
            subst(inst.b);
            subst(inst.c);
            for (auto &arg : inst.args) {
                auto it = copies.find(arg);
                if (it != copies.end()) {
                    arg = it->second;
                    any = true;
                }
            }
            if (inst.dest) {
                // Kill mappings involving the redefined register.
                copies.erase(inst.dest);
                for (auto it = copies.begin(); it != copies.end();) {
                    if (it->second == inst.dest)
                        it = copies.erase(it);
                    else
                        ++it;
                }
                if (inst.op == IrOpcode::Mov && inst.a.isReg() &&
                    inst.a.reg != inst.dest) {
                    copies[inst.dest] = inst.a.reg;
                }
            }
        }
    }

    // Global single-def copy propagation.
    fn.recomputeCfg();
    auto defs = collectDefs(fn);
    Dominators doms(fn);
    for (auto &kv : defs) {
        if (kv.second.size() != 1)
            continue;
        IrInst &def_inst = kv.second[0].inst();
        if (def_inst.op != IrOpcode::Mov || !def_inst.a.isReg())
            continue;
        int src = def_inst.a.reg;
        auto src_defs = defs.find(src);
        if (src_defs == defs.end() || src_defs->second.size() != 1)
            continue;
        // src's unique def must dominate the copy itself.
        if (!dominatesRef(doms, src_defs->second[0],
                          kv.second[0].block, kv.second[0].index)) {
            continue;
        }
        int dest = kv.first;
        for (auto &bb : fn.blocks()) {
            for (size_t i = 0; i < bb->insts.size(); ++i) {
                IrInst &inst = bb->insts[i];
                if (&inst == &def_inst)
                    continue;
                auto subst = [&](Operand &o) {
                    if (o.isReg() && o.reg == dest &&
                        dominatesRef(doms, kv.second[0], bb.get(), i)) {
                        o = Operand::makeReg(src);
                        any = true;
                    }
                };
                subst(inst.a);
                subst(inst.b);
                subst(inst.c);
                for (auto &arg : inst.args) {
                    if (arg == dest &&
                        dominatesRef(doms, kv.second[0], bb.get(), i)) {
                        arg = src;
                        any = true;
                    }
                }
            }
        }
    }
    return any;
}

bool
coalesceMoves(Function &fn)
{
    bool any = false;
    auto uses = countUses(fn);
    for (auto &bb : fn.blocks()) {
        for (size_t i = 0; i + 1 < bb->insts.size(); ++i) {
            IrInst &def = bb->insts[i];
            IrInst &mv = bb->insts[i + 1];
            if (mv.op != IrOpcode::Mov || !mv.a.isReg() || !mv.dest)
                continue;
            if (!def.dest || def.dest != mv.a.reg)
                continue;
            if (def.dest == mv.dest)
                continue;
            // t must be consumed only by the mov.
            auto it = uses.find(def.dest);
            if (it == uses.end() || it->second != 1)
                continue;
            def.dest = mv.dest;
            bb->insts.erase(bb->insts.begin() +
                            static_cast<long>(i) + 1);
            any = true;
            // The erased mov was t's only use; no other count moves.
            it->second = 0;
        }
    }
    return any;
}

bool
deadCodeElimination(Function &fn)
{
    fn.recomputeCfg();
    ir::Liveness live(fn);
    bool any = false;
    std::vector<int> srcs;
    // v is live at the current point of the backward walk over block
    // number `block` iff live_mark[v] == block, so the marks need no
    // clearing between blocks.
    std::vector<size_t> live_mark(static_cast<size_t>(fn.vregLimit()), 0);
    size_t block = 0;
    auto isLive = [&](int v) {
        return live_mark.at(static_cast<size_t>(v)) == block;
    };
    for (auto &bb : fn.blocks()) {
        ++block;
        for (int v : live.liveOut(bb.get()))
            live_mark.at(static_cast<size_t>(v)) = block;
        for (size_t i = bb->insts.size(); i-- > 0;) {
            IrInst &inst = bb->insts[i];
            bool dead = inst.dest && !isLive(inst.dest) &&
                        !inst.hasSideEffects() && !inst.isLoad();
            // Dead loads are removable too: this machine's loads have
            // no observable side effects at the IR level.
            if (inst.dest && !isLive(inst.dest) && inst.isLoad())
                dead = true;
            if (dead) {
                bb->insts.erase(bb->insts.begin() +
                                static_cast<long>(i));
                any = true;
                continue;
            }
            if (inst.op == IrOpcode::Nop) {
                bb->insts.erase(bb->insts.begin() +
                                static_cast<long>(i));
                any = true;
                continue;
            }
            // A call whose result is unused keeps running for its
            // side effects, but the dest can be dropped.
            if (inst.isCall() && inst.dest && !isLive(inst.dest)) {
                inst.dest = 0;
                any = true;
            }
            if (inst.dest)
                live_mark.at(static_cast<size_t>(inst.dest)) = 0;
            srcs.clear();
            inst.sourceRegs(srcs);
            for (int s : srcs)
                live_mark.at(static_cast<size_t>(s)) = block;
        }
    }
    return any;
}

bool
redundantLoadElimination(Function &fn)
{
    bool any = false;
    struct MemKey
    {
        int base;
        bool offIsReg;
        int64_t off;
        isa::MemWidth width;

        bool
        operator<(const MemKey &o) const
        {
            return std::tie(base, offIsReg, off, width) <
                   std::tie(o.base, o.offIsReg, o.off, o.width);
        }
    };
    for (auto &bb : fn.blocks()) {
        std::map<MemKey, int> available; // key -> vreg holding value
        auto keyFor = [](const IrInst &inst) {
            MemKey k;
            k.base = inst.a.reg;
            k.offIsReg = inst.b.isReg();
            k.off = k.offIsReg ? inst.b.reg : inst.b.imm;
            k.width = inst.width;
            return k;
        };
        for (auto &inst : bb->insts) {
            bool was_load = inst.isLoad();
            MemKey load_key{};
            bool load_hit = false;
            if (was_load) {
                load_key = keyFor(inst);
                auto it = available.find(load_key);
                if (it != available.end()) {
                    inst.op = IrOpcode::Mov;
                    inst.a = Operand::makeReg(it->second);
                    inst.b = Operand::none();
                    any = true;
                    load_hit = true;
                }
            } else if (inst.isStore()) {
                // Conservative: a store may alias anything.
                available.clear();
            } else if (inst.isCall()) {
                available.clear();
            }

            // Kill cached values that mention the redefined vreg.
            if (inst.dest) {
                for (auto it = available.begin();
                     it != available.end();) {
                    bool stale =
                        it->first.base == inst.dest ||
                        (it->first.offIsReg &&
                         it->first.off == inst.dest) ||
                        it->second == inst.dest;
                    if (stale)
                        it = available.erase(it);
                    else
                        ++it;
                }
            }

            // Record new availability after the kill.
            if (was_load && !load_hit) {
                bool self_clobber =
                    inst.dest == load_key.base ||
                    (load_key.offIsReg && inst.dest == load_key.off);
                if (!self_clobber)
                    available[load_key] = inst.dest;
            } else if (inst.isStore() && inst.c.isReg()) {
                // Store-to-load forwarding for the exact location.
                available[keyFor(inst)] = inst.c.reg;
            }
        }
    }
    return any;
}

} // namespace opt
} // namespace elag
