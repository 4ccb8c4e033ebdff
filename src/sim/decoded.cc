#include "sim/decoded.hh"

#include <list>
#include <mutex>
#include <unordered_map>

namespace elag {
namespace sim {

using isa::AddrMode;
using isa::Instruction;
using isa::MemWidth;
using isa::Opcode;

const char *
name(GuestTrapKind kind)
{
    switch (kind) {
      case GuestTrapKind::DivideByZero:
        return "divide_by_zero";
      case GuestTrapKind::RemainderByZero:
        return "remainder_by_zero";
      case GuestTrapKind::PcOutOfRange:
        return "pc_out_of_range";
      case GuestTrapKind::BadAddress:
        return "bad_address";
      case GuestTrapKind::BadOpcode:
        return "bad_opcode";
    }
    return "?";
}

namespace {

Handler
handlerFor(const Instruction &inst)
{
    bool bo = inst.mode == AddrMode::BaseOffset;
    bool byte = inst.width == MemWidth::Byte;
    switch (inst.op) {
      case Opcode::ADD: return Handler::ADD;
      case Opcode::SUB: return Handler::SUB;
      case Opcode::MUL: return Handler::MUL;
      case Opcode::DIV: return Handler::DIV;
      case Opcode::REM: return Handler::REM;
      case Opcode::AND: return Handler::AND;
      case Opcode::OR: return Handler::OR;
      case Opcode::XOR: return Handler::XOR;
      case Opcode::SLL: return Handler::SLL;
      case Opcode::SRL: return Handler::SRL;
      case Opcode::SRA: return Handler::SRA;
      case Opcode::SLT: return Handler::SLT;
      case Opcode::SLTU: return Handler::SLTU;
      case Opcode::SEQ: return Handler::SEQ;
      case Opcode::ADDI: return Handler::ADDI;
      case Opcode::ANDI: return Handler::ANDI;
      case Opcode::ORI: return Handler::ORI;
      case Opcode::XORI: return Handler::XORI;
      case Opcode::SLLI: return Handler::SLLI;
      case Opcode::SRLI: return Handler::SRLI;
      case Opcode::SRAI: return Handler::SRAI;
      case Opcode::SLTI: return Handler::SLTI;
      case Opcode::LUI: return Handler::LUI;
      case Opcode::LOAD:
        if (bo)
            return byte ? Handler::LOAD_BO_B : Handler::LOAD_BO_W;
        return byte ? Handler::LOAD_BI_B : Handler::LOAD_BI_W;
      case Opcode::STORE:
        if (bo)
            return byte ? Handler::STORE_BO_B : Handler::STORE_BO_W;
        return byte ? Handler::STORE_BI_B : Handler::STORE_BI_W;
      case Opcode::BEQ: return Handler::BEQ;
      case Opcode::BNE: return Handler::BNE;
      case Opcode::BLT: return Handler::BLT;
      case Opcode::BGE: return Handler::BGE;
      case Opcode::BLTU: return Handler::BLTU;
      case Opcode::BGEU: return Handler::BGEU;
      case Opcode::JMP: return Handler::JMP;
      case Opcode::JAL: return Handler::JAL;
      case Opcode::JR: return Handler::JR;
      case Opcode::FADD: return Handler::FADD;
      case Opcode::FSUB: return Handler::FSUB;
      case Opcode::FMUL: return Handler::FMUL;
      case Opcode::FDIV: return Handler::FDIV;
      case Opcode::FLOAD:
        return bo ? Handler::FLOAD_BO : Handler::FLOAD_BI;
      case Opcode::FSTORE: return Handler::FSTORE;
      case Opcode::CVTIF: return Handler::CVTIF;
      case Opcode::CVTFI: return Handler::CVTFI;
      case Opcode::PRINT: return Handler::PRINT;
      case Opcode::HALT: return Handler::HALT;
      case Opcode::NOP: return Handler::NOP;
      default:
        return Handler::TRAP_BADOP;
    }
}

} // anonymous namespace

DecodedInst
decodeInst(const Instruction &inst)
{
    DecodedInst d;
    d.inst = inst;
    d.handler = handlerFor(inst);
    if (d.handler == Handler::TRAP_BADOP) {
        // Leave an undecodable record inert beyond its handler: the
        // flag word of a junk opcode is meaningless and the trap
        // fires before any observer sees it.
        return d;
    }
    d.flags = isa::decodeFlags(inst);
    int s1, s2;
    inst.intSources(s1, s2);
    d.src1 = static_cast<int8_t>(s1);
    d.src2 = static_cast<int8_t>(s2);
    if (inst.isControl() && inst.op != Opcode::JR)
        d.target = static_cast<uint32_t>(inst.imm);
    return d;
}

DecodedStream::DecodedStream(const isa::MachineProgram &program)
{
    insts_.reserve(program.code.size() + 1);
    for (const Instruction &inst : program.code)
        insts_.push_back(decodeInst(inst));
    // Sentinel: executing past the last instruction (or entering at
    // an out-of-range PC equal to the stream size) traps instead of
    // reading out of bounds, which is what lets the dispatch loop
    // drop its per-instruction PC check.
    DecodedInst sentinel;
    sentinel.handler = Handler::TRAP_PCRANGE;
    insts_.push_back(sentinel);
}

namespace {

/**
 * Process-wide stream cache: content hash -> shared stream, bounded
 * LRU. Entries hold shared_ptr (not weak_ptr) so the bench pattern
 * of destroying and re-creating an Emulator per iteration still hits.
 * A collision-free 64-bit content hash is assumed, exactly as the run
 * cache and the checkpoint run keys already assume.
 */
struct StreamCache
{
    static constexpr size_t kCapacity = 64;

    std::mutex mu;
    std::unordered_map<uint64_t,
                       std::pair<std::shared_ptr<const DecodedStream>,
                                 std::list<uint64_t>::iterator>>
        entries;
    std::list<uint64_t> lru; // most recently used first

    static StreamCache &
    instance()
    {
        static StreamCache cache;
        return cache;
    }

    std::shared_ptr<const DecodedStream>
    get(const isa::MachineProgram &program)
    {
        uint64_t key = hashProgram(program);
        std::lock_guard<std::mutex> lock(mu);
        auto it = entries.find(key);
        if (it != entries.end()) {
            lru.splice(lru.begin(), lru, it->second.second);
            return it->second.first;
        }
        auto stream = std::make_shared<const DecodedStream>(program);
        lru.push_front(key);
        entries.emplace(key, std::make_pair(stream, lru.begin()));
        while (entries.size() > kCapacity) {
            entries.erase(lru.back());
            lru.pop_back();
        }
        return stream;
    }
};

} // anonymous namespace

std::shared_ptr<const DecodedStream>
DecodedStream::get(const isa::MachineProgram &program)
{
    return StreamCache::instance().get(program);
}

size_t
DecodedStream::cacheSize()
{
    StreamCache &cache = StreamCache::instance();
    std::lock_guard<std::mutex> lock(cache.mu);
    return cache.entries.size();
}

void
DecodedStream::clearCache()
{
    StreamCache &cache = StreamCache::instance();
    std::lock_guard<std::mutex> lock(cache.mu);
    cache.entries.clear();
    cache.lru.clear();
}

} // namespace sim
} // namespace elag
