/**
 * @file
 * Predecoded instruction streams for the emulator's dispatch loop.
 *
 * The emulator's inner loop used to re-read and re-derive every
 * Instruction field per committed instruction. A DecodedStream lowers
 * a linked isa::MachineProgram once into a dense array of DecodedInst
 * records: a specialized handler index (loads and stores are split by
 * addressing mode and width so the handler body carries no mode
 * branches), the precomputed isa::decodeFlags() predicate word the
 * timing model consumes at retire, pre-resolved integer source
 * registers, and the pre-split control-transfer target. One sentinel
 * record sits past the end of the stream so the dispatch loop needs
 * no per-instruction PC bounds check — falling off the end lands on a
 * handler that raises a typed guest trap.
 *
 * Streams are immutable after construction and cached process-wide
 * under the same content hash the run cache uses (sim::hashProgram),
 * so the serving daemon, the bench harness, and checkpoint resume all
 * share one predecode per distinct program.
 */

#ifndef ELAG_SIM_DECODED_HH
#define ELAG_SIM_DECODED_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace elag {
namespace sim {

/** Content hash of a linked machine program (defined in run_cache.cc,
 *  shared with the run cache and the checkpoint run keys). */
uint64_t hashProgram(const isa::MachineProgram &program);

/**
 * Guest fault taxonomy. A malformed or misbehaving *simulated*
 * program (divide by zero, wild PC, out-of-range effective address,
 * undecodable opcode) is the guest's bug, not the simulator's:
 * distinct from FatalError (host usage error) and PanicError
 * (simulator bug). Mapped to exit code 70 with a typed "guest_trap"
 * error document by elagc, and to a typed error frame by elagd.
 */
enum class GuestTrapKind : uint8_t
{
    DivideByZero,
    RemainderByZero,
    PcOutOfRange,
    BadAddress,
    BadOpcode,
};

/** Stable identifier for a trap kind ("divide_by_zero", ...). */
const char *name(GuestTrapKind kind);

/** Thrown by the emulator when the guest program faults. */
class GuestTrapError : public std::runtime_error
{
  public:
    GuestTrapError(GuestTrapKind kind, uint32_t pc,
                   const std::string &msg)
        : std::runtime_error(msg), kind_(kind), pc_(pc)
    {}

    GuestTrapKind kind() const { return kind_; }
    /** PC of the faulting instruction (or the wild PC itself). */
    uint32_t trapPc() const { return pc_; }

  private:
    GuestTrapKind kind_;
    uint32_t pc_;
};

/**
 * Execution handlers. LOAD/STORE/FLOAD are specialized by addressing
 * mode (BO = base+offset, BI = base+index) and width (W = word,
 * B = byte) so the hot handler bodies are straight-line. The two TRAP
 * handlers raise guest faults lazily, at execution time: a program
 * carrying an undecodable instruction it never reaches still runs.
 */
#define ELAG_DECODED_HANDLERS(X)                                      \
    X(ADD) X(SUB) X(MUL) X(DIV) X(REM)                                \
    X(AND) X(OR) X(XOR) X(SLL) X(SRL) X(SRA)                          \
    X(SLT) X(SLTU) X(SEQ)                                             \
    X(ADDI) X(ANDI) X(ORI) X(XORI)                                    \
    X(SLLI) X(SRLI) X(SRAI) X(SLTI) X(LUI)                            \
    X(LOAD_BO_W) X(LOAD_BO_B) X(LOAD_BI_W) X(LOAD_BI_B)               \
    X(STORE_BO_W) X(STORE_BO_B) X(STORE_BI_W) X(STORE_BI_B)           \
    X(BEQ) X(BNE) X(BLT) X(BGE) X(BLTU) X(BGEU)                       \
    X(JMP) X(JAL) X(JR)                                               \
    X(FADD) X(FSUB) X(FMUL) X(FDIV)                                   \
    X(FLOAD_BO) X(FLOAD_BI) X(FSTORE)                                 \
    X(CVTIF) X(CVTFI)                                                 \
    X(PRINT) X(HALT) X(NOP)                                           \
    X(TRAP_BADOP) X(TRAP_PCRANGE)

enum class Handler : uint8_t
{
#define ELAG_HANDLER_ENUM(name) name,
    ELAG_DECODED_HANDLERS(ELAG_HANDLER_ENUM)
#undef ELAG_HANDLER_ENUM
    NumHandlers
};

constexpr size_t NumHandlers =
    static_cast<size_t>(Handler::NumHandlers);

/** One predecoded instruction. */
struct DecodedInst
{
    /** The original instruction (copied into the retire stream). */
    isa::Instruction inst;
    /** Absolute control-transfer target (branches/JMP/JAL only). */
    uint32_t target = 0;
    /** isa::decodeFlags(inst). */
    uint16_t flags = 0;
    /** Specialized execution handler. */
    Handler handler = Handler::NOP;
    /** Pre-resolved integer source registers (-1 = unused). */
    int8_t src1 = -1;
    int8_t src2 = -1;
};

/** An immutable predecoded program. */
class DecodedStream
{
  public:
    /** Lower @p program (uncached; prefer get()). */
    explicit DecodedStream(const isa::MachineProgram &program);

    /**
     * The shared predecode of @p program, built on first use and
     * cached process-wide under hashProgram(program). Thread-safe.
     */
    static std::shared_ptr<const DecodedStream>
    get(const isa::MachineProgram &program);

    /** Entries cached right now (tests). */
    static size_t cacheSize();
    /** Drop all cached streams (tests, and perfbench's cold runs). */
    static void clearCache();

    /** The decoded records; size() == programSize() + 1 (sentinel). */
    const DecodedInst *insts() const { return insts_.data(); }
    size_t size() const { return insts_.size(); }
    /** Instruction count of the underlying program. */
    uint32_t programSize() const
    {
        return static_cast<uint32_t>(insts_.size() - 1);
    }

    const DecodedInst &at(size_t index) const { return insts_[index]; }

  private:
    std::vector<DecodedInst> insts_;
};

/** Lower one instruction (exposed for predecode unit tests). */
DecodedInst decodeInst(const isa::Instruction &inst);

/**
 * Always false: the emulator has one dispatch loop, a switch. Kept
 * only because perfbench/common.cc still prints it; the next change
 * to the benchmark removes both.
 */
constexpr bool
threadedDispatchActive()
{
    return false;
}

} // namespace sim
} // namespace elag

#endif // ELAG_SIM_DECODED_HH
