/**
 * @file
 * Function inlining.
 *
 * The paper applies inlining before load classification so that small
 * helpers called from loops do not hide arithmetic-dependent loads
 * behind call boundaries (Section 6 notes remaining calls are the
 * main classification obstacle).
 */

#include <map>
#include <set>

#include "opt/pass.hh"
#include "support/logging.hh"

namespace elag {
namespace opt {

using ir::BasicBlock;
using ir::Function;
using ir::IrInst;
using ir::IrOpcode;
using ir::Module;
using ir::Operand;

namespace {

/** Callee instruction-count cap for inlining. */
constexpr size_t kInlineThreshold = 48;
/** Maximum caller growth factor for inlining. */
constexpr size_t kInlineGrowthLimit = 6;

/** Direct callees of a function. */
std::set<std::string>
calleesOf(const Function &fn)
{
    std::set<std::string> out;
    for (const auto &bb : fn.blocks()) {
        for (const auto &inst : bb->insts) {
            if (inst.isCall())
                out.insert(inst.callee);
        }
    }
    return out;
}

/** Functions on a call-graph cycle (conservative DFS per node). */
std::set<std::string>
findRecursive(const Module &mod)
{
    std::map<std::string, std::set<std::string>> graph;
    for (const auto &fn : mod.functions)
        graph[fn->name()] = calleesOf(*fn);

    std::set<std::string> recursive;
    for (const auto &root : graph) {
        // Can 'root' reach itself?
        std::set<std::string> visited;
        std::vector<std::string> work(root.second.begin(),
                                      root.second.end());
        bool cyclic = false;
        while (!work.empty()) {
            std::string cur = work.back();
            work.pop_back();
            if (cur == root.first) {
                cyclic = true;
                break;
            }
            if (!visited.insert(cur).second)
                continue;
            auto it = graph.find(cur);
            if (it == graph.end())
                continue;
            for (const auto &next : it->second)
                work.push_back(next);
        }
        if (cyclic)
            recursive.insert(root.first);
    }
    return recursive;
}

/**
 * Inline one call site.
 * @param caller the function containing the call
 * @param bb the block containing the call
 * @param call_idx index of the call instruction in @p bb
 * @param callee the function to inline (must not be @p caller)
 */
void
inlineCallSite(Function &caller, BasicBlock *bb, size_t call_idx,
               const Function &callee)
{
    IrInst call = bb->insts[call_idx];
    elag_assert(call.isCall());
    elag_assert(call.args.size() == callee.params.size());

    // Split the call block: bb keeps [0, call_idx); 'after' gets the
    // remainder.
    BasicBlock *after = caller.newBlock();
    after->insts.assign(bb->insts.begin() +
                            static_cast<long>(call_idx) + 1,
                        bb->insts.end());
    bb->insts.erase(bb->insts.begin() + static_cast<long>(call_idx),
                    bb->insts.end());

    // Remap callee vregs and stack objects into the caller.
    int vreg_base = caller.vregLimit();
    caller.reserveVRegs(vreg_base + callee.vregLimit());
    auto mapReg = [&](int vreg) { return vreg ? vreg + vreg_base : 0; };

    std::map<int, int> object_map;
    for (const auto &obj : callee.stackObjects()) {
        object_map[obj.id] = caller.newStackObject(
            obj.size, obj.align, callee.name() + "." + obj.name);
    }

    std::map<const BasicBlock *, BasicBlock *> block_map;
    for (const auto &cbb : callee.blocks())
        block_map[cbb.get()] = caller.newBlock();

    for (const auto &cbb : callee.blocks()) {
        BasicBlock *nbb = block_map[cbb.get()];
        for (const auto &cinst : cbb->insts) {
            IrInst inst = cinst;
            inst.dest = mapReg(inst.dest);
            auto remapOperand = [&](Operand &o) {
                if (o.isReg())
                    o.reg = mapReg(o.reg);
            };
            remapOperand(inst.a);
            remapOperand(inst.b);
            remapOperand(inst.c);
            for (auto &arg : inst.args)
                arg = mapReg(arg);
            if (inst.op == IrOpcode::FrameAddr)
                inst.a = Operand::makeImm(object_map.at(
                    static_cast<int>(cinst.a.imm)));
            if (inst.taken)
                inst.taken = block_map.at(inst.taken);
            if (inst.notTaken)
                inst.notTaken = block_map.at(inst.notTaken);
            if (inst.op == IrOpcode::Ret) {
                // Return becomes: result move (if used) + jump out.
                if (call.dest) {
                    IrInst mv;
                    mv.op = IrOpcode::Mov;
                    mv.dest = call.dest;
                    mv.a = inst.a.isNone() ? Operand::makeImm(0)
                                           : inst.a;
                    nbb->insts.push_back(std::move(mv));
                }
                IrInst jump;
                jump.op = IrOpcode::Jump;
                jump.taken = after;
                nbb->insts.push_back(std::move(jump));
                continue;
            }
            nbb->insts.push_back(std::move(inst));
        }
    }

    // Bind arguments and enter the inlined body.
    for (size_t i = 0; i < call.args.size(); ++i) {
        IrInst mv;
        mv.op = IrOpcode::Mov;
        mv.dest = mapReg(callee.params[i]);
        mv.a = Operand::makeReg(call.args[i]);
        bb->insts.push_back(std::move(mv));
    }
    IrInst enter;
    enter.op = IrOpcode::Jump;
    enter.taken = block_map.at(callee.entry());
    bb->insts.push_back(std::move(enter));

    caller.recomputeCfg();
}

} // anonymous namespace

bool
inlineFunctions(Module &mod)
{
    bool any = false;
    std::set<std::string> recursive = findRecursive(mod);

    for (auto &caller : mod.functions) {
        size_t budget = caller->instCount() * kInlineGrowthLimit +
                        kInlineThreshold * 4;

        // Repeatedly inline eligible call sites until none remain or
        // the growth budget is exhausted. Newly inlined calls are
        // considered too (enables transitive inlining of small
        // helpers), which terminates because recursion is excluded.
        bool changed = true;
        while (changed && caller->instCount() < budget) {
            changed = false;
            for (auto &bb : caller->blocks()) {
                for (size_t i = 0; i < bb->insts.size(); ++i) {
                    const IrInst &inst = bb->insts[i];
                    if (!inst.isCall())
                        continue;
                    if (inst.callee == caller->name())
                        continue;
                    if (recursive.count(inst.callee) ||
                        recursive.count(caller->name())) {
                        continue;
                    }
                    Function *callee = mod.findFunction(inst.callee);
                    if (!callee)
                        continue;
                    if (callee->instCount() > kInlineThreshold)
                        continue;
                    inlineCallSite(*caller, bb.get(), i, *callee);
                    changed = true;
                    any = true;
                    break;
                }
                if (changed)
                    break;
            }
        }
    }
    return any;
}

} // namespace opt
} // namespace elag
