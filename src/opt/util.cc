#include "opt/util.hh"

#include "support/logging.hh"

namespace elag {
namespace opt {

DefMap
collectDefs(ir::Function &fn)
{
    DefMap defs;
    for (auto &bb : fn.blocks()) {
        for (size_t i = 0; i < bb->insts.size(); ++i) {
            if (bb->insts[i].dest)
                defs[bb->insts[i].dest].push_back({bb.get(), i});
        }
    }
    return defs;
}

std::map<int, int>
countUses(const ir::Function &fn)
{
    std::map<int, int> uses;
    std::vector<int> srcs;
    for (const auto &bb : fn.blocks()) {
        for (const auto &inst : bb->insts) {
            srcs.clear();
            inst.sourceRegs(srcs);
            for (int s : srcs)
                ++uses[s];
        }
    }
    return uses;
}

int32_t
evalIrOp(ir::IrOpcode op, int32_t a, int32_t b)
{
    using Op = ir::IrOpcode;
    uint32_t ua = static_cast<uint32_t>(a);
    uint32_t ub = static_cast<uint32_t>(b);
    switch (op) {
      case Op::Add: return static_cast<int32_t>(ua + ub);
      case Op::Sub: return static_cast<int32_t>(ua - ub);
      case Op::Mul: return static_cast<int32_t>(ua * ub);
      case Op::Div:
        elag_assert(b != 0);
        if (a == INT32_MIN && b == -1)
            return INT32_MIN;
        return a / b;
      case Op::Rem:
        elag_assert(b != 0);
        if (a == INT32_MIN && b == -1)
            return 0;
        return a % b;
      case Op::And: return a & b;
      case Op::Or: return a | b;
      case Op::Xor: return a ^ b;
      case Op::Shl: return static_cast<int32_t>(ua << (ub & 31));
      case Op::Shr: return static_cast<int32_t>(ua >> (ub & 31));
      case Op::Sra: return a >> (ub & 31);
      case Op::SetLt: return a < b;
      case Op::SetLtU: return ua < ub;
      case Op::SetEq: return a == b;
      default:
        panic("evalIrOp: not a foldable op");
    }
}

bool
isPureBinaryOp(ir::IrOpcode op)
{
    using Op = ir::IrOpcode;
    switch (op) {
      case Op::Add: case Op::Sub: case Op::Mul:
      case Op::And: case Op::Or: case Op::Xor:
      case Op::Shl: case Op::Shr: case Op::Sra:
      case Op::SetLt: case Op::SetLtU: case Op::SetEq:
        return true;
      case Op::Div:
      case Op::Rem:
        return false; // may trap; handled specially
      default:
        return false;
    }
}

} // namespace opt
} // namespace elag
