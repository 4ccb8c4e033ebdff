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
    // run() accepts at most the end-of-program sentinel.
    if (pc_ > stream_->programSize()) {
        throw ckpt::CkptError(ckpt::ErrorKind::Corrupt,
                              "checkpoint PC lies past the program");
    }
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
    // Each value takes four bytes; check before reserving, so a
    // corrupt count cannot ask for a huge allocation.
    if (values > r.remaining() / 4) {
        throw ckpt::CkptError(ckpt::ErrorKind::Corrupt,
                              "checkpoint output count overruns the "
                              "payload");
    }
    result.output.reserve(values);
    for (uint64_t i = 0; i < values; ++i)
        result.output.push_back(r.i32());
    result.halted = r.b();
    result.exitValue = r.i32();
}

} // namespace sim
} // namespace elag
