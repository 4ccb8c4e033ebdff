/**
 * @file
 * The ELAG instruction set.
 *
 * A 32-bit RISC ISA modeled on the HP PA-7100 assumptions of the
 * paper: 64 integer and 64 floating-point registers, register+offset
 * and register+register load addressing, 1-cycle integer operations
 * and 2-cycle loads. The load instruction carries one of three
 * compiler-selected specifiers (paper Table 1):
 *
 *   ld_n  normal load, no early address generation
 *   ld_p  table-based address prediction
 *   ld_e  early calculation through the R_addr register cache
 */

#ifndef ELAG_ISA_INSTRUCTION_HH
#define ELAG_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

namespace elag {
namespace isa {

/** Number of architected integer registers (r0 is hardwired zero). */
constexpr int NumIntRegs = 64;
/** Number of architected floating-point registers. */
constexpr int NumFpRegs = 64;

/** Machine opcodes. */
enum class Opcode : uint8_t
{
    // Integer ALU, register-register.
    ADD, SUB, MUL, DIV, REM,
    AND, OR, XOR,
    SLL, SRL, SRA,
    SLT, SLTU, SEQ,
    // Integer ALU, register-immediate.
    ADDI, ANDI, ORI, XORI,
    SLLI, SRLI, SRAI, SLTI,
    LUI,
    // Memory.
    LOAD, STORE,
    // Control transfer (imm holds the absolute target PC).
    BEQ, BNE, BLT, BGE, BLTU, BGEU,
    JMP, JAL, JR,
    // Floating point (operands index the FP register file).
    FADD, FSUB, FMUL, FDIV,
    FLOAD, FSTORE,
    CVTIF,  ///< int reg -> fp reg
    CVTFI,  ///< fp reg -> int reg (truncating)
    // System.
    PRINT,  ///< emit rs1 to the emulator's output channel
    HALT,   ///< stop execution
    NOP,

    NumOpcodes
};

/** Compiler-selected early-address-generation specifier (Table 1). */
enum class LoadSpec : uint8_t
{
    Normal,     ///< ld_n
    Predict,    ///< ld_p
    EarlyCalc,  ///< ld_e
};

/** Memory access addressing mode. */
enum class AddrMode : uint8_t
{
    BaseOffset, ///< effective address = reg[base] + imm
    BaseIndex,  ///< effective address = reg[base] + reg[index]
};

/** Memory access width in bytes. */
enum class MemWidth : uint8_t
{
    Byte = 1,
    Word = 4,
};

/** Functional-unit class an instruction executes on. */
enum class FuClass : uint8_t
{
    IntAlu,
    MemPort,
    FpAlu,
    Branch,
    None,   ///< NOP/HALT consume an issue slot only
};

/**
 * One decoded machine instruction.
 *
 * Field meaning depends on the opcode:
 *  - ALU reg-reg:   rd <- rs1 op rs2
 *  - ALU reg-imm:   rd <- rs1 op imm
 *  - LOAD:          rd <- mem[rs1 + imm]  (BaseOffset)
 *                   rd <- mem[rs1 + rs2]  (BaseIndex)
 *  - STORE:         mem[rs1 + imm] <- rs2 (BaseOffset)
 *  - branches:      compare rs1, rs2; target PC = imm
 *  - JAL:           rd <- return PC; jump to imm
 *  - JR:            jump to rs1
 */
struct Instruction
{
    Opcode op = Opcode::NOP;
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    int32_t imm = 0;
    LoadSpec spec = LoadSpec::Normal;
    AddrMode mode = AddrMode::BaseOffset;
    MemWidth width = MemWidth::Word;

    bool operator==(const Instruction &other) const = default;

    /** @return true for integer or FP loads. */
    bool isLoad() const { return op == Opcode::LOAD || op == Opcode::FLOAD; }
    /** @return true for integer or FP stores. */
    bool
    isStore() const
    {
        return op == Opcode::STORE || op == Opcode::FSTORE;
    }
    /** @return true for any memory access. */
    bool isMem() const { return isLoad() || isStore(); }
    /** @return true for conditional branches. */
    bool isCondBranch() const
    {
        return op >= Opcode::BEQ && op <= Opcode::BGEU;
    }
    /** @return true for any control transfer. */
    bool isControl() const
    {
        return op >= Opcode::BEQ && op <= Opcode::JR;
    }
    /** @return true if this op terminates execution. */
    bool isHalt() const { return op == Opcode::HALT; }
    /** @return functional-unit class. */
    FuClass fuClass() const;

    /** @return true if the instruction writes an integer register. */
    bool writesIntReg() const { return intDest() > 0; }
    /** @return destination integer register or -1. */
    int intDest() const;
    /** @return true if the instruction writes an FP register. */
    bool writesFpReg() const
    {
        return (op >= Opcode::FADD && op <= Opcode::FDIV) ||
               op == Opcode::FLOAD || op == Opcode::CVTIF;
    }

    /** Integer source registers; -1 entries mean unused. */
    void intSources(int &s1, int &s2) const;

    /** @return the base register for a memory access (or -1). */
    int baseReg() const { return isMem() ? rs1 : -1; }
    /** @return the index register for a BaseIndex access (or -1). */
    int indexReg() const
    {
        return isLoad() && mode == AddrMode::BaseIndex ? rs2 : -1;
    }
};

// The predicates above (and the decode helpers below) lean on the
// declaration order of Opcode; pin the ranges they assume.
static_assert(Opcode::BEQ < Opcode::BNE && Opcode::BNE < Opcode::BLT &&
              Opcode::BLT < Opcode::BGE && Opcode::BGE < Opcode::BLTU &&
              Opcode::BLTU < Opcode::BGEU && Opcode::BGEU < Opcode::JMP &&
              Opcode::JMP < Opcode::JAL && Opcode::JAL < Opcode::JR,
              "control opcodes must stay contiguous");
static_assert(Opcode::FADD < Opcode::FSUB && Opcode::FSUB < Opcode::FMUL &&
              Opcode::FMUL < Opcode::FDIV,
              "FP ALU opcodes must stay contiguous");
static_assert(Opcode::ADD < Opcode::SEQ && Opcode::ADDI < Opcode::LUI,
              "ALU opcode groups must stay contiguous");

inline FuClass
Instruction::fuClass() const
{
    if (isMem())
        return FuClass::MemPort;
    if (isControl())
        return FuClass::Branch;
    switch (op) {
      case Opcode::FADD:
      case Opcode::FSUB:
      case Opcode::FMUL:
      case Opcode::FDIV:
      case Opcode::CVTIF:
      case Opcode::CVTFI:
        return FuClass::FpAlu;
      case Opcode::HALT:
      case Opcode::NOP:
        return FuClass::None;
      case Opcode::PRINT:
        return FuClass::IntAlu;
      default:
        return FuClass::IntAlu;
    }
}

inline int
Instruction::intDest() const
{
    switch (op) {
      case Opcode::ADD: case Opcode::SUB: case Opcode::MUL:
      case Opcode::DIV: case Opcode::REM:
      case Opcode::AND: case Opcode::OR: case Opcode::XOR:
      case Opcode::SLL: case Opcode::SRL: case Opcode::SRA:
      case Opcode::SLT: case Opcode::SLTU: case Opcode::SEQ:
      case Opcode::ADDI: case Opcode::ANDI: case Opcode::ORI:
      case Opcode::XORI: case Opcode::SLLI: case Opcode::SRLI:
      case Opcode::SRAI: case Opcode::SLTI: case Opcode::LUI:
      case Opcode::LOAD: case Opcode::JAL: case Opcode::CVTFI:
        return rd == 0 ? -1 : rd;
      default:
        return -1;
    }
}

inline void
Instruction::intSources(int &s1, int &s2) const
{
    s1 = -1;
    s2 = -1;
    switch (op) {
      case Opcode::ADD: case Opcode::SUB: case Opcode::MUL:
      case Opcode::DIV: case Opcode::REM:
      case Opcode::AND: case Opcode::OR: case Opcode::XOR:
      case Opcode::SLL: case Opcode::SRL: case Opcode::SRA:
      case Opcode::SLT: case Opcode::SLTU: case Opcode::SEQ:
      case Opcode::BEQ: case Opcode::BNE: case Opcode::BLT:
      case Opcode::BGE: case Opcode::BLTU: case Opcode::BGEU:
        s1 = rs1;
        s2 = rs2;
        break;
      case Opcode::ADDI: case Opcode::ANDI: case Opcode::ORI:
      case Opcode::XORI: case Opcode::SLLI: case Opcode::SRLI:
      case Opcode::SRAI: case Opcode::SLTI:
      case Opcode::JR: case Opcode::PRINT: case Opcode::CVTIF:
        s1 = rs1;
        break;
      case Opcode::LOAD:
      case Opcode::FLOAD:
        s1 = rs1;
        if (mode == AddrMode::BaseIndex)
            s2 = rs2;
        break;
      case Opcode::STORE:
        s1 = rs1;
        s2 = rs2;
        break;
      case Opcode::FSTORE:
        s1 = rs1;   // base address; data comes from the FP file
        break;
      default:
        break;
    }
    // r0 reads as constant zero and never creates a dependence.
    if (s1 == 0)
        s1 = -1;
    if (s2 == 0)
        s2 = -1;
}

/**
 * Precomputed per-instruction predicate word.
 *
 * One bit (or small field) per question the per-retire hot paths ask
 * of an instruction, so the timing model tests a cached word instead
 * of re-walking the opcode switches above on every committed
 * instruction. The word is a function of the whole Instruction (the
 * register numbers matter: e.g. WritesInt is clear when rd is the
 * hardwired-zero register), so it is computed once per static
 * instruction by the predecoder and carried alongside the retire
 * stream.
 */
namespace flag {

/** Word was produced by decodeFlags; Pipeline::retire requires it. */
constexpr uint16_t Valid = 1u << 0;
constexpr uint16_t Load = 1u << 1;
constexpr uint16_t Store = 1u << 2;
constexpr uint16_t CondBranch = 1u << 3;
constexpr uint16_t Control = 1u << 4;
/** Writes an integer register (false when rd is r0). */
constexpr uint16_t WritesInt = 1u << 5;
/** Writes a floating-point register. */
constexpr uint16_t WritesFp = 1u << 6;
/** Reads at least one floating-point register. */
constexpr uint16_t ReadsFp = 1u << 7;
/** Memory access uses reg+imm addressing (clear: reg+reg). */
constexpr uint16_t BaseOffset = 1u << 8;
/** Memory access is byte-wide (clear: word). */
constexpr uint16_t WidthByte = 1u << 9;
/** LoadSpec, as a 2-bit field. */
constexpr int SpecShift = 10;
constexpr uint16_t SpecMask = 0x3u << SpecShift;
/** FuClass, as a 3-bit field. */
constexpr int FuShift = 12;
constexpr uint16_t FuMask = 0x7u << FuShift;

} // namespace flag

/** Compute the full flag word (always has flag::Valid set). */
uint16_t decodeFlags(const Instruction &inst);

/** The FuClass field of a flag word. */
inline FuClass
flagFuClass(uint16_t flags)
{
    return static_cast<FuClass>((flags & flag::FuMask) >>
                                flag::FuShift);
}

/** The LoadSpec field of a flag word. */
inline LoadSpec
flagLoadSpec(uint16_t flags)
{
    return static_cast<LoadSpec>((flags & flag::SpecMask) >>
                                 flag::SpecShift);
}

/** Mnemonic for an opcode (e.g. "add", "ld_p"). */
std::string opcodeName(Opcode op);

/** Mnemonic for a load spec ("ld_n"/"ld_p"/"ld_e"). */
std::string loadSpecName(LoadSpec spec);

} // namespace isa
} // namespace elag

#endif // ELAG_ISA_INSTRUCTION_HH
