#include "isa/program.hh"

#include "support/logging.hh"

namespace elag {
namespace isa {

uint32_t
MachineProgram::heapBase() const
{
    // Word-align the start of the heap past the globals.
    uint32_t base = GlobalBase + globalSize;
    return (base + 7u) & ~7u;
}

void
MachineProgram::verify() const
{
    elag_assert(entry < code.size());
    for (size_t pc = 0; pc < code.size(); ++pc) {
        const Instruction &inst = code[pc];
        elag_assert(inst.rd < NumIntRegs);
        elag_assert(inst.rs1 < NumIntRegs);
        elag_assert(inst.rs2 < NumIntRegs);
        if (inst.isCondBranch() || inst.op == Opcode::JMP ||
            inst.op == Opcode::JAL) {
            if (inst.imm < 0 ||
                static_cast<size_t>(inst.imm) >= code.size()) {
                panic("verify: pc %zu (%s) target %d out of range",
                      pc, opcodeName(inst.op).c_str(), inst.imm);
            }
        }
    }
}

} // namespace isa
} // namespace elag
