#include "sim/emulator.hh"

#include "ckpt/serial.hh"

namespace elag {
namespace sim {

Emulator::Emulator(const isa::MachineProgram &program)
    : stream_(DecodedStream::get(program)), mem_(isa::MemorySize),
      pc_(program.entry)
{
    // Load the global segment and patch the heap bump pointer, which
    // by construction is the last word of the segment.
    mem_.writeBlock(isa::GlobalBase, program.globalInit);
    if (program.globalSize >= 4) {
        mem_.writeWord(isa::GlobalBase + program.globalSize - 4,
                       program.heapBase());
    }
}

int32_t
Emulator::reg(int index) const
{
    elag_assert(index >= 0 && index < isa::NumIntRegs);
    return regs[index];
}

void
Emulator::serialize(ckpt::Writer &w) const
{
    w.u32(pc_);
    for (int32_t reg : regs)
        w.i32(reg);
    for (float freg : fregs)
        w.f32(freg);
    mem_.serialize(w);
}

void
Emulator::restore(ckpt::Reader &r)
{
    pc_ = r.u32();
    for (int32_t &reg : regs)
        reg = r.i32();
    for (float &freg : fregs)
        freg = r.f32();
    // The dispatch loop reads regs[] unguarded and relies on the
    // hardwired-zero register actually holding zero; re-pin it in
    // case the checkpoint bytes were tampered with.
    regs[0] = 0;
    mem_.restore(r);
}

void
serialize(ckpt::Writer &w, const EmulationResult &result)
{
    w.varint(result.instructions);
    w.varint(result.output.size());
    for (int32_t value : result.output)
        w.i32(value);
    w.b(result.halted);
    w.i32(result.exitValue);
}

void
restore(ckpt::Reader &r, EmulationResult &result)
{
    result.instructions = r.varint();
    result.output.clear();
    uint64_t values = r.varint();
    result.output.reserve(values);
    for (uint64_t i = 0; i < values; ++i)
        result.output.push_back(r.i32());
    result.halted = r.b();
    result.exitValue = r.i32();
}

} // namespace sim
} // namespace elag
