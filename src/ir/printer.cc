#include "ir/printer.hh"

#include "support/logging.hh"

namespace elag {
namespace ir {

namespace {

std::string
operandStr(const Operand &o)
{
    switch (o.kind) {
      case Operand::Kind::None: return "<none>";
      case Operand::Kind::Reg: return formatString("v%d", o.reg);
      case Operand::Kind::Imm:
        return formatString("%lld", static_cast<long long>(o.imm));
      default:
        panic("operandStr: bad operand kind");
    }
}

std::string
blockLabel(const BasicBlock *bb)
{
    return bb ? formatString("bb%d", bb->id()) : "<null>";
}

} // anonymous namespace

std::string
toString(const IrInst &inst)
{
    using O = IrOpcode;
    std::string dest =
        inst.dest ? formatString("v%d = ", inst.dest) : std::string();
    switch (inst.op) {
      case O::Add: case O::Sub: case O::Mul: case O::Div: case O::Rem:
      case O::And: case O::Or: case O::Xor:
      case O::Shl: case O::Shr: case O::Sra:
      case O::SetLt: case O::SetLtU: case O::SetEq:
        return dest + irOpcodeName(inst.op) + " " +
               operandStr(inst.a) + ", " + operandStr(inst.b);
      case O::Mov:
        return dest + "mov " + operandStr(inst.a);
      case O::FrameAddr:
        return dest + formatString("frameaddr #%lld",
                                   static_cast<long long>(inst.a.imm));
      case O::GlobalAddr:
        return dest + formatString("globaladdr +%lld",
                                   static_cast<long long>(inst.a.imm));
      case O::Load:
        return dest +
               formatString("load%s [%s + %s] (%s)",
                            inst.width == isa::MemWidth::Byte ? ".b" : "",
                            operandStr(inst.a).c_str(),
                            operandStr(inst.b).c_str(),
                            isa::loadSpecName(inst.spec).c_str());
      case O::Store:
        return formatString("store%s [%s + %s], %s",
                            inst.width == isa::MemWidth::Byte ? ".b" : "",
                            operandStr(inst.a).c_str(),
                            operandStr(inst.b).c_str(),
                            operandStr(inst.c).c_str());
      case O::Br:
        return formatString("br %s %s, %s -> %s, %s",
                            condCodeName(inst.cond).c_str(),
                            operandStr(inst.a).c_str(),
                            operandStr(inst.b).c_str(),
                            blockLabel(inst.taken).c_str(),
                            blockLabel(inst.notTaken).c_str());
      case O::Jump:
        return "jump " + blockLabel(inst.taken);
      case O::Call: {
        std::string s = dest + "call " + inst.callee + "(";
        for (size_t i = 0; i < inst.args.size(); ++i) {
            if (i)
                s += ", ";
            s += formatString("v%d", inst.args[i]);
        }
        return s + ")";
      }
      case O::Ret:
        return inst.a.isNone() ? "ret" : "ret " + operandStr(inst.a);
      case O::Print:
        return "print " + operandStr(inst.a);
      case O::Nop:
        return "nop";
      default:
        panic("toString: bad IR opcode");
    }
}

std::string
toString(const Function &fn)
{
    std::string out = "func " + fn.name() + "(";
    for (size_t i = 0; i < fn.params.size(); ++i) {
        if (i)
            out += ", ";
        out += formatString("v%d", fn.params[i]);
    }
    out += ")\n";
    for (const auto &obj : fn.stackObjects()) {
        out += formatString("  stack #%d: %d bytes (%s)\n", obj.id,
                            obj.size, obj.name.c_str());
    }
    for (const auto &bb : fn.blocks()) {
        out += formatString("%s:%s\n", blockLabel(bb.get()).c_str(),
                            bb.get() == fn.entry() ? " ; entry" : "");
        for (const auto &inst : bb->insts)
            out += "  " + toString(inst) + "\n";
    }
    return out;
}

} // namespace ir
} // namespace elag
