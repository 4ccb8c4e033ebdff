#include "classify/classify.hh"

#include <algorithm>
#include <set>

#include "ir/loops.hh"
#include "opt/util.hh"
#include "support/logging.hh"

namespace elag {
namespace classify {

using ir::BasicBlock;
using ir::Function;
using ir::IrInst;
using ir::IrOpcode;
using ir::Loop;
using ir::LoopInfo;
using isa::LoadSpec;

namespace {

/** @return true for the "arithmetic instructions" of Section 4.1. */
bool
isArithmetic(const IrInst &inst)
{
    switch (inst.op) {
      case IrOpcode::Add: case IrOpcode::Sub: case IrOpcode::Mul:
      case IrOpcode::Div: case IrOpcode::Rem:
      case IrOpcode::And: case IrOpcode::Or: case IrOpcode::Xor:
      case IrOpcode::Shl: case IrOpcode::Shr: case IrOpcode::Sra:
      case IrOpcode::SetLt: case IrOpcode::SetLtU:
      case IrOpcode::SetEq:
      case IrOpcode::Mov:
        return true;
      default:
        return false;
    }
}

/**
 * Compute the S_load closure for a set of blocks: the register
 * specifiers whose contents were loaded from memory or computed from
 * a loaded value (steps 1 and 2 of Section 4.1).
 */
std::set<int>
computeSLoad(const std::set<BasicBlock *, ir::BlockIdLess> &blocks)
{
    std::set<int> s_load;
    // Step 1: destination registers of loads. Call results are
    // treated like loads: their values are data-dependent on memory.
    for (const BasicBlock *bb : blocks) {
        for (const auto &inst : bb->insts) {
            if ((inst.isLoad() || inst.isCall()) && inst.dest)
                s_load.insert(inst.dest);
        }
    }
    // Step 2: propagate through arithmetic instructions to a
    // fixpoint.
    bool changed = true;
    std::vector<int> srcs;
    while (changed) {
        changed = false;
        for (const BasicBlock *bb : blocks) {
            for (const auto &inst : bb->insts) {
                if (!isArithmetic(inst) || !inst.dest)
                    continue;
                if (s_load.count(inst.dest))
                    continue;
                srcs.clear();
                inst.sourceRegs(srcs);
                for (int s : srcs) {
                    if (s_load.count(s)) {
                        s_load.insert(inst.dest);
                        changed = true;
                        break;
                    }
                }
            }
        }
    }
    return s_load;
}

/** Pointers to every load in a block set, in program order. */
std::vector<IrInst *>
loadsIn(const std::set<BasicBlock *, ir::BlockIdLess> &blocks)
{
    std::vector<IrInst *> loads;
    for (BasicBlock *bb : blocks) {
        for (auto &inst : bb->insts) {
            if (inst.isLoad())
                loads.push_back(&inst);
        }
    }
    return loads;
}

/**
 * Step 3 of Section 4.1: given the loads of one region and its
 * S_load set, pick specifiers. Already-classified loads (from inner
 * loops) are skipped but still counted toward group sizes.
 */
void
assignSpecifiers(const std::vector<IrInst *> &loads,
                 const std::set<int> &s_load,
                 const std::set<int> &classified,
                 std::set<int> &newly_classified)
{
    // Partition into load-dependent and arithmetic-dependent.
    std::vector<IrInst *> load_dep;
    std::vector<IrInst *> arith_dep;
    for (IrInst *load : loads) {
        bool base_dep = load->a.isReg() && s_load.count(load->a.reg);
        bool index_dep = load->b.isReg() && s_load.count(load->b.reg);
        if (base_dep || index_dep)
            load_dep.push_back(load);
        else
            arith_dep.push_back(load);
    }

    // Group register+offset load-dependent loads by base register;
    // the largest group gets R_addr (ld_e).
    std::map<int, int> group_size;
    for (IrInst *load : load_dep) {
        if (load->b.isImm())
            ++group_size[load->a.reg];
    }
    int best_base = 0;
    int best_size = 0;
    for (const auto &kv : group_size) {
        if (kv.second > best_size) {
            best_base = kv.first;
            best_size = kv.second;
        }
    }

    for (IrInst *load : load_dep) {
        if (classified.count(load->loadId))
            continue;
        bool in_winner = load->b.isImm() && load->a.reg == best_base;
        load->spec = in_winner ? LoadSpec::EarlyCalc : LoadSpec::Normal;
        newly_classified.insert(load->loadId);
    }
    for (IrInst *load : arith_dep) {
        if (classified.count(load->loadId))
            continue;
        load->spec = LoadSpec::Predict;
        newly_classified.insert(load->loadId);
    }
}

/** @return true if the base register is defined solely by
 * GlobalAddr (an absolute location, Section 4.2). */
bool
isAbsoluteLoad(Function &fn, const IrInst &load,
               const std::map<int, std::vector<opt::InstRef>> &defs)
{
    if (!load.a.isReg())
        return false;
    auto it = defs.find(load.a.reg);
    if (it == defs.end())
        return false;
    for (const auto &ref : it->second) {
        if (ref.inst().op != IrOpcode::GlobalAddr)
            return false;
    }
    (void)fn;
    return !it->second.empty();
}

void
classifyFunction(Function &fn, ClassifyStats &stats)
{
    fn.recomputeCfg();
    LoopInfo loop_info(fn);
    std::set<int> classified;

    // Cyclic portion: nested loops are sorted and inner loops are
    // analyzed first (Section 4.1); inner decisions stick.
    for (Loop *loop : loop_info.loopsInnermostFirst()) {
        std::set<int> s_load = computeSLoad(loop->blocks);
        std::vector<IrInst *> loads = loadsIn(loop->blocks);
        std::set<int> newly;
        assignSpecifiers(loads, s_load, classified, newly);
        classified.insert(newly.begin(), newly.end());
    }

    // Acyclic portion (Section 4.2): absolute loads are predicted;
    // the largest base-register group gets early calculation; the
    // rest stay normal.
    std::set<BasicBlock *, ir::BlockIdLess> acyclic_blocks;
    for (auto &bb : fn.blocks()) {
        if (!loop_info.loopFor(bb.get()))
            acyclic_blocks.insert(bb.get());
    }
    auto defs = opt::collectDefs(fn);
    std::vector<IrInst *> loads = loadsIn(acyclic_blocks);

    std::map<int, int> group_size;
    for (IrInst *load : loads) {
        if (classified.count(load->loadId))
            continue;
        if (!isAbsoluteLoad(fn, *load, defs) && load->b.isImm())
            ++group_size[load->a.reg];
    }
    int best_base = 0;
    int best_size = 0;
    for (const auto &kv : group_size) {
        if (kv.second > best_size) {
            best_base = kv.first;
            best_size = kv.second;
        }
    }

    for (IrInst *load : loads) {
        if (classified.count(load->loadId))
            continue;
        if (isAbsoluteLoad(fn, *load, defs)) {
            load->spec = LoadSpec::Predict;
        } else if (load->b.isImm() && load->a.reg == best_base) {
            load->spec = LoadSpec::EarlyCalc;
        } else {
            load->spec = LoadSpec::Normal;
        }
        classified.insert(load->loadId);
    }

    // Tally.
    for (const auto &bb : fn.blocks()) {
        for (const auto &inst : bb->insts) {
            if (!inst.isLoad())
                continue;
            switch (inst.spec) {
              case LoadSpec::Normal: ++stats.numNormal; break;
              case LoadSpec::Predict: ++stats.numPredict; break;
              case LoadSpec::EarlyCalc: ++stats.numEarlyCalc; break;
            }
        }
    }
}

} // anonymous namespace

ClassifyStats
classifyLoads(ir::Module &mod)
{
    ClassifyStats stats;
    for (auto &fn : mod.functions)
        classifyFunction(*fn, stats);
    return stats;
}

void
clearClassification(ir::Module &mod)
{
    for (auto &fn : mod.functions) {
        for (auto &bb : fn->blocks()) {
            for (auto &inst : bb->insts) {
                if (inst.isLoad())
                    inst.spec = LoadSpec::Normal;
            }
        }
    }
}

int
applyAddressProfile(ir::Module &mod, const AddressProfile &profile,
                    double threshold)
{
    int upgraded = 0;
    for (auto &fn : mod.functions) {
        for (auto &bb : fn->blocks()) {
            for (auto &inst : bb->insts) {
                if (!inst.isLoad() ||
                    inst.spec != LoadSpec::Normal) {
                    continue;
                }
                auto it = profile.find(inst.loadId);
                if (it == profile.end())
                    continue;
                if (it->second.executions > 0 &&
                    it->second.rate() > threshold) {
                    inst.spec = LoadSpec::Predict;
                    ++upgraded;
                }
            }
        }
    }
    return upgraded;
}

} // namespace classify
} // namespace elag
