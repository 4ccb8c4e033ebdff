/**
 * @file
 * The intermediate representation.
 *
 * A non-SSA, virtual-register, three-address IR in the spirit of the
 * IMPACT compiler's Lcode: unbounded virtual registers, explicit
 * control-flow graph, and memory accesses expressed as
 * base-register + (immediate | register) addressing so the load
 * classifier can reason about addressing modes directly.
 */

#ifndef ELAG_IR_IR_HH
#define ELAG_IR_IR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/instruction.hh"

namespace elag {
namespace ir {

/** IR opcodes. */
enum class IrOpcode : uint8_t
{
    // dest = a op b (a, b are registers or immediates)
    Add, Sub, Mul, Div, Rem,
    And, Or, Xor,
    Shl, Shr, Sra,
    SetLt, SetLtU, SetEq,
    // dest = a
    Mov,
    // dest = address of stack object a.imm
    FrameAddr,
    // dest = GlobalBase + a.imm
    GlobalAddr,
    // dest = mem[a + b]; a must be a register, b register or immediate
    Load,
    // mem[a + b] = c
    Store,
    // conditional branch: if (a cond b) goto taken else fallthrough
    Br,
    // unconditional branch
    Jump,
    // dest = call callee(args...); dest may be absent
    Call,
    // return a (optional)
    Ret,
    // print a
    Print,
    Nop,
};

/** Branch condition codes. */
enum class CondCode : uint8_t { Eq, Ne, Lt, Le, Gt, Ge, LtU, GeU };

/** An instruction operand: nothing, a virtual register, or an imm. */
struct Operand
{
    enum class Kind : uint8_t { None, Reg, Imm };

    Kind kind = Kind::None;
    int reg = 0;
    int64_t imm = 0;

    static Operand none() { return Operand{}; }

    static Operand
    makeReg(int r)
    {
        Operand o;
        o.kind = Kind::Reg;
        o.reg = r;
        return o;
    }

    static Operand
    makeImm(int64_t v)
    {
        Operand o;
        o.kind = Kind::Imm;
        o.imm = v;
        return o;
    }

    bool isNone() const { return kind == Kind::None; }
    bool isReg() const { return kind == Kind::Reg; }
    bool isImm() const { return kind == Kind::Imm; }
    bool operator==(const Operand &o) const = default;
};

class BasicBlock;

/** One IR instruction. */
struct IrInst
{
    IrOpcode op = IrOpcode::Nop;
    /** Destination virtual register; 0 means none. */
    int dest = 0;
    Operand a;
    Operand b;
    /** Store data operand. */
    Operand c;

    // Memory access attributes (Load/Store).
    isa::MemWidth width = isa::MemWidth::Word;
    /** Early-generation specifier chosen by the classifier. */
    isa::LoadSpec spec = isa::LoadSpec::Normal;
    /** Stable id of a static load, for profiles; 0 = unassigned. */
    int loadId = 0;

    // Branch attributes.
    CondCode cond = CondCode::Eq;
    BasicBlock *taken = nullptr;    ///< Br/Jump target
    BasicBlock *notTaken = nullptr; ///< Br fallthrough

    // Call attributes.
    std::string callee;
    std::vector<int> args;

    bool isLoad() const { return op == IrOpcode::Load; }
    bool isStore() const { return op == IrOpcode::Store; }
    bool isMem() const { return isLoad() || isStore(); }
    bool isCall() const { return op == IrOpcode::Call; }
    bool
    isTerminator() const
    {
        return op == IrOpcode::Br || op == IrOpcode::Jump ||
               op == IrOpcode::Ret;
    }
    /** true if removing the instruction could change behaviour. */
    bool hasSideEffects() const;
    /** Registers read by this instruction (appended to @p regs). */
    void sourceRegs(std::vector<int> &regs) const;
};

/** A basic block: straight-line code ending in one terminator. */
class BasicBlock
{
  public:
    explicit BasicBlock(int id) : id_(id) {}

    int id() const { return id_; }
    std::vector<IrInst> insts;

    /** Predecessors/successors; valid after Function::recomputeCfg. */
    std::vector<BasicBlock *> preds;
    std::vector<BasicBlock *> succs;

    /**
     * @return the terminator, or null if the block is unterminated.
     * The const twin of the accessor below; no caller needs it yet.
     */
    const IrInst *terminator() const;
    IrInst *terminator();

  private:
    int id_;
};

/** A fixed-size stack allocation (local array or spilled variable). */
struct StackObject
{
    int id = 0;
    int size = 0;
    int align = 4;
    std::string name; ///< for diagnostics
};

/** One IR function. */
class Function
{
  public:
    explicit Function(std::string name);

    const std::string &name() const { return name_; }

    /** Allocate a new virtual register. */
    int newVReg() { return nextVReg++; }
    /** Number of allocated vregs + 1 (vreg ids are 1-based). */
    int vregLimit() const { return nextVReg; }
    /** Note that vreg ids below @p limit are in use (for cloning). */
    void reserveVRegs(int limit);

    /** Create a new basic block owned by this function. */
    BasicBlock *newBlock();

    /** Create a stack object of @p size bytes; returns its id. */
    int newStackObject(int size, int align, const std::string &name);

    BasicBlock *entry() const { return entry_; }
    void setEntry(BasicBlock *bb) { entry_ = bb; }

    const std::vector<std::unique_ptr<BasicBlock>> &blocks() const
    {
        return blocks_;
    }
    std::vector<std::unique_ptr<BasicBlock>> &blocks()
    {
        return blocks_;
    }

    const std::vector<StackObject> &stackObjects() const
    {
        return stackObjects_;
    }

    /** Parameter vregs, in order. */
    std::vector<int> params;

    /** Recompute pred/succ edges from terminators. */
    void recomputeCfg();

    /** Blocks in reverse post order from the entry. */
    std::vector<BasicBlock *> rpo() const;

    /** Remove blocks unreachable from the entry. */
    void removeUnreachable();

    /** Assign sequential ids to loads that lack one. */
    void numberLoads(int &next_load_id);

    /** Total count of instructions across blocks. */
    size_t instCount() const;

  private:
    std::string name_;
    std::vector<std::unique_ptr<BasicBlock>> blocks_;
    std::vector<StackObject> stackObjects_;
    BasicBlock *entry_ = nullptr;
    int nextVReg = 1;
    int nextBlockId = 0;
};

/** A whole program in IR form. */
class Module
{
  public:
    std::vector<std::unique_ptr<Function>> functions;
    /** Bytes of global data. */
    int globalSize = 0;
    /** Initial global segment contents. */
    std::vector<uint8_t> globalInit;

    Function *findFunction(const std::string &name) const;

    /** Assign stable loadIds across all functions. */
    void numberLoads();
};

/** Name of an IR opcode for printing. */
std::string irOpcodeName(IrOpcode op);
/** Name of a condition code ("eq", "lt", ...). */
std::string condCodeName(CondCode cc);
/** Logical negation of a condition code. */
CondCode negateCond(CondCode cc);

} // namespace ir
} // namespace elag

#endif // ELAG_IR_IR_HH
