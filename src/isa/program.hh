/**
 * @file
 * Container for a fully linked machine program.
 */

#ifndef ELAG_ISA_PROGRAM_HH
#define ELAG_ISA_PROGRAM_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/instruction.hh"

namespace elag {
namespace isa {

/** Base byte address of the global data segment. */
constexpr uint32_t GlobalBase = 0x1000;
/** Initial stack pointer (stack grows down). */
constexpr uint32_t StackTop = 0x0400'0000;
/** Total simulated memory size in bytes. */
constexpr uint32_t MemorySize = 0x0400'0000 + 0x1000;

/**
 * A linked ELAG machine program.
 *
 * The PC is an instruction index; instruction i occupies byte address
 * 4*i for instruction-cache purposes. Branch/jump immediates hold
 * absolute target PCs (indices into @ref code).
 */
struct MachineProgram
{
    /** The instruction stream. */
    std::vector<Instruction> code;
    /** Entry PC (index into code). */
    uint32_t entry = 0;
    /** Bytes of global data, placed at GlobalBase. */
    uint32_t globalSize = 0;
    /** Initial contents of the global segment (may be shorter). */
    std::vector<uint8_t> globalInit;
    /** Function name -> entry PC, for diagnostics. */
    std::map<std::string, uint32_t> symbols;

    /** @return byte address where the heap begins. */
    uint32_t heapBase() const;

    /**
     * Validate internal consistency: branch targets in range,
     * register indices legal, entry in range.
     * @throws PanicError on violation.
     */
    void verify() const;
};

} // namespace isa
} // namespace elag

#endif // ELAG_ISA_PROGRAM_HH
