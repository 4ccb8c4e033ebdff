#include "ir/ir.hh"

#include <algorithm>
#include <set>

#include "support/logging.hh"

namespace elag {
namespace ir {

bool
IrInst::hasSideEffects() const
{
    switch (op) {
      case IrOpcode::Store:
      case IrOpcode::Br:
      case IrOpcode::Jump:
      case IrOpcode::Call:
      case IrOpcode::Ret:
      case IrOpcode::Print:
        return true;
      case IrOpcode::Div:
      case IrOpcode::Rem:
        // May trap on divide-by-zero; keep unless the divisor is a
        // non-zero immediate.
        return !(b.isImm() && b.imm != 0);
      default:
        return false;
    }
}

void
IrInst::sourceRegs(std::vector<int> &regs) const
{
    if (a.isReg())
        regs.push_back(a.reg);
    if (b.isReg())
        regs.push_back(b.reg);
    if (c.isReg())
        regs.push_back(c.reg);
    for (int arg : args)
        regs.push_back(arg);
}

const IrInst *
BasicBlock::terminator() const
{
    if (insts.empty() || !insts.back().isTerminator())
        return nullptr;
    return &insts.back();
}

IrInst *
BasicBlock::terminator()
{
    if (insts.empty() || !insts.back().isTerminator())
        return nullptr;
    return &insts.back();
}

Function::Function(std::string name)
    : name_(std::move(name))
{
}

void
Function::reserveVRegs(int limit)
{
    nextVReg = std::max(nextVReg, limit);
}

BasicBlock *
Function::newBlock()
{
    blocks_.push_back(std::make_unique<BasicBlock>(nextBlockId++));
    BasicBlock *bb = blocks_.back().get();
    if (!entry_)
        entry_ = bb;
    return bb;
}

int
Function::newStackObject(int size, int align, const std::string &name)
{
    StackObject obj;
    obj.id = static_cast<int>(stackObjects_.size());
    obj.size = size;
    obj.align = align;
    obj.name = name;
    stackObjects_.push_back(obj);
    return obj.id;
}

void
Function::recomputeCfg()
{
    for (auto &bb : blocks_) {
        bb->preds.clear();
        bb->succs.clear();
    }
    for (auto &bb : blocks_) {
        const IrInst *term = bb->terminator();
        if (!term)
            continue;
        auto link = [&](BasicBlock *succ) {
            if (!succ)
                return;
            bb->succs.push_back(succ);
            succ->preds.push_back(bb.get());
        };
        if (term->op == IrOpcode::Br) {
            link(term->taken);
            link(term->notTaken);
        } else if (term->op == IrOpcode::Jump) {
            link(term->taken);
        }
    }
}

std::vector<BasicBlock *>
Function::rpo() const
{
    std::vector<BasicBlock *> postorder;
    std::set<const BasicBlock *> visited;
    // Iterative DFS with explicit state to avoid deep recursion.
    struct Frame
    {
        BasicBlock *bb;
        size_t next = 0;
    };
    std::vector<Frame> stack;
    if (entry_) {
        stack.push_back({entry_});
        visited.insert(entry_);
    }
    while (!stack.empty()) {
        Frame &f = stack.back();
        if (f.next < f.bb->succs.size()) {
            BasicBlock *succ = f.bb->succs[f.next++];
            if (visited.insert(succ).second)
                stack.push_back({succ});
        } else {
            postorder.push_back(f.bb);
            stack.pop_back();
        }
    }
    std::reverse(postorder.begin(), postorder.end());
    return postorder;
}

void
Function::removeUnreachable()
{
    recomputeCfg();
    std::set<const BasicBlock *> reachable;
    for (BasicBlock *bb : rpo())
        reachable.insert(bb);
    blocks_.erase(
        std::remove_if(blocks_.begin(), blocks_.end(),
                       [&](const std::unique_ptr<BasicBlock> &bb) {
                           return !reachable.count(bb.get());
                       }),
        blocks_.end());
    recomputeCfg();
}

void
Function::numberLoads(int &next_load_id)
{
    for (auto &bb : blocks_) {
        for (auto &inst : bb->insts) {
            if (inst.isLoad() && inst.loadId == 0)
                inst.loadId = next_load_id++;
        }
    }
}

size_t
Function::instCount() const
{
    size_t n = 0;
    for (const auto &bb : blocks_)
        n += bb->insts.size();
    return n;
}

Function *
Module::findFunction(const std::string &name) const
{
    for (const auto &fn : functions) {
        if (fn->name() == name)
            return fn.get();
    }
    return nullptr;
}

void
Module::numberLoads()
{
    int next = 1;
    for (auto &fn : functions)
        fn->numberLoads(next);
}

std::string
irOpcodeName(IrOpcode op)
{
    switch (op) {
      case IrOpcode::Add: return "add";
      case IrOpcode::Sub: return "sub";
      case IrOpcode::Mul: return "mul";
      case IrOpcode::Div: return "div";
      case IrOpcode::Rem: return "rem";
      case IrOpcode::And: return "and";
      case IrOpcode::Or: return "or";
      case IrOpcode::Xor: return "xor";
      case IrOpcode::Shl: return "shl";
      case IrOpcode::Shr: return "shr";
      case IrOpcode::Sra: return "sra";
      case IrOpcode::SetLt: return "setlt";
      case IrOpcode::SetLtU: return "setltu";
      case IrOpcode::SetEq: return "seteq";
      case IrOpcode::Mov: return "mov";
      case IrOpcode::FrameAddr: return "frameaddr";
      case IrOpcode::GlobalAddr: return "globaladdr";
      case IrOpcode::Load: return "load";
      case IrOpcode::Store: return "store";
      case IrOpcode::Br: return "br";
      case IrOpcode::Jump: return "jump";
      case IrOpcode::Call: return "call";
      case IrOpcode::Ret: return "ret";
      case IrOpcode::Print: return "print";
      case IrOpcode::Nop: return "nop";
      default:
        panic("irOpcodeName: bad opcode");
    }
}

std::string
condCodeName(CondCode cc)
{
    switch (cc) {
      case CondCode::Eq: return "eq";
      case CondCode::Ne: return "ne";
      case CondCode::Lt: return "lt";
      case CondCode::Le: return "le";
      case CondCode::Gt: return "gt";
      case CondCode::Ge: return "ge";
      case CondCode::LtU: return "ltu";
      case CondCode::GeU: return "geu";
      default:
        panic("condCodeName: bad cond");
    }
}

CondCode
negateCond(CondCode cc)
{
    switch (cc) {
      case CondCode::Eq: return CondCode::Ne;
      case CondCode::Ne: return CondCode::Eq;
      case CondCode::Lt: return CondCode::Ge;
      case CondCode::Ge: return CondCode::Lt;
      case CondCode::Le: return CondCode::Gt;
      case CondCode::Gt: return CondCode::Le;
      case CondCode::LtU: return CondCode::GeU;
      case CondCode::GeU: return CondCode::LtU;
      default:
        panic("negateCond: bad cond");
    }
}

} // namespace ir
} // namespace elag
