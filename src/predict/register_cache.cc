#include "predict/register_cache.hh"

#include "ckpt/serial.hh"
#include "support/logging.hh"

namespace elag {
namespace predict {

RegisterCache::RegisterCache(uint32_t capacity)
    : slots(capacity)
{
    elag_assert(capacity > 0);
}

bool
RegisterCache::isBound(int reg) const
{
    for (const Slot &slot : slots) {
        if (slot.valid && slot.reg == reg)
            return true;
    }
    return false;
}

void
RegisterCache::bind(int reg, uint64_t cycle)
{
    ++tick;
    ++numBindings;
    Slot *victim = nullptr;
    for (Slot &slot : slots) {
        if (slot.valid && slot.reg == reg) {
            // Rebinding the same register ends the old binding.
            if (cycle > slot.boundCycle)
                lifeHist.sample(cycle - slot.boundCycle);
            slot.lastUsed = tick;
            slot.boundCycle = cycle;
            return;
        }
        if (!slot.valid) {
            if (!victim || victim->valid)
                victim = &slot;
        } else if (!victim ||
                   (victim->valid &&
                    slot.lastUsed < victim->lastUsed)) {
            victim = &slot;
        }
    }
    elag_assert(victim != nullptr);
    if (victim->valid && cycle > victim->boundCycle)
        lifeHist.sample(cycle - victim->boundCycle);
    victim->valid = true;
    victim->reg = reg;
    victim->lastUsed = tick;
    victim->boundCycle = cycle;
}

void
RegisterCache::invalidate(int reg, uint64_t cycle)
{
    for (Slot &slot : slots) {
        if (slot.valid && slot.reg == reg) {
            if (cycle > slot.boundCycle)
                lifeHist.sample(cycle - slot.boundCycle);
            slot = Slot();
        }
    }
}

void
RegisterCache::serialize(ckpt::Writer &w) const
{
    w.varint(slots.size());
    for (const Slot &slot : slots) {
        w.b(slot.valid);
        w.i32(slot.reg);
        w.varint(slot.lastUsed);
        w.varint(slot.boundCycle);
    }
    ckpt::serialize(w, lifeHist);
    w.varint(tick);
    w.varint(numBindings);
}

void
RegisterCache::restore(ckpt::Reader &r)
{
    uint64_t count = r.varint();
    if (count != slots.size()) {
        throw ckpt::CkptError(ckpt::ErrorKind::Mismatch,
                              "register-cache capacity mismatch "
                              "between checkpoint and machine "
                              "config");
    }
    for (Slot &slot : slots) {
        slot.valid = r.b();
        slot.reg = r.i32();
        slot.lastUsed = r.varint();
        slot.boundCycle = r.varint();
    }
    ckpt::restore(r, lifeHist);
    tick = r.varint();
    numBindings = r.varint();
}

} // namespace predict
} // namespace elag
