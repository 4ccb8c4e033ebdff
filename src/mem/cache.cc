#include "mem/cache.hh"

#include "ckpt/serial.hh"
#include "support/logging.hh"

namespace elag {
namespace mem {

Cache::Cache(const CacheConfig &config)
    : cfg(config)
{
    elag_assert(cfg.blockSize > 0 && cfg.assoc > 0);
    elag_assert(cfg.sizeBytes % (cfg.blockSize * cfg.assoc) == 0);
    numSets = cfg.sizeBytes / (cfg.blockSize * cfg.assoc);
    elag_assert(numSets > 0);
    pow2Geometry = std::has_single_bit(cfg.blockSize) &&
                   std::has_single_bit(numSets);
    if (pow2Geometry) {
        blockShift = static_cast<uint32_t>(
            std::countr_zero(cfg.blockSize));
        setShift = static_cast<uint32_t>(std::countr_zero(numSets));
        setMask = numSets - 1;
    }
    lines.assign(static_cast<size_t>(numSets) * cfg.assoc, Line());
}

ptrdiff_t
Cache::findLine(uint32_t addr) const
{
    uint32_t block = blockFor(addr);
    uint32_t set = setFor(block);
    uint32_t tag = tagFor(block);
    for (uint32_t w = 0; w < cfg.assoc; ++w) {
        size_t index = static_cast<size_t>(set) * cfg.assoc + w;
        if (lines[index].valid && lines[index].tag == tag)
            return static_cast<ptrdiff_t>(index);
    }
    return -1;
}

CacheAccessResult
Cache::access(uint32_t addr, uint64_t cycle, bool allocate_on_miss,
              uint32_t extra_penalty)
{
    CacheAccessResult result;
    ptrdiff_t found = findLine(addr);
    if (found >= 0) {
        lastLine = static_cast<size_t>(found);
        Line *line = &lines[lastLine];
        line->lastUsed = cycle;
        if (line->fillDone <= cycle) {
            ++numHits;
            result.hit = true;
            result.readyCycle = cycle;
        } else {
            // Fill in flight: merge with it.
            ++numMerges;
            result.hit = false;
            result.mergedWithFill = true;
            result.readyCycle = line->fillDone;
        }
        return result;
    }

    ++numMisses;
    result.hit = false;
    result.readyCycle = cycle + cfg.missPenalty + extra_penalty;
    if (allocate_on_miss) {
        uint32_t block = blockFor(addr);
        uint32_t set = setFor(block);
        Line *victim = nullptr;
        for (uint32_t w = 0; w < cfg.assoc; ++w) {
            Line &cand =
                lines[static_cast<size_t>(set) * cfg.assoc + w];
            if (!cand.valid) {
                victim = &cand;
                break;
            }
            if (!victim || cand.lastUsed < victim->lastUsed)
                victim = &cand;
        }
        lastLine = static_cast<size_t>(victim - lines.data());
        victim->valid = true;
        victim->tag = tagFor(block);
        victim->lastUsed = cycle;
        victim->fillDone = result.readyCycle;
    }
    return result;
}

Btb::Btb(uint32_t num_entries)
    : entries(num_entries), table(num_entries)
{
    elag_assert(num_entries > 0);
    pow2Entries = std::has_single_bit(entries);
    if (pow2Entries) {
        indexShift = static_cast<uint32_t>(std::countr_zero(entries));
        indexMask = entries - 1;
    }
}

Btb::Prediction
Btb::resolve(uint32_t pc, bool taken, uint32_t target)
{
    Entry &entry = table[indexOf(pc)];
    uint32_t tag = tagOf(pc);
    Prediction pred;
    if (!entry.valid || entry.tag != tag) {
        // Allocate on taken branches only; not-taken branches fall
        // through and need no BTB entry.
        if (taken) {
            entry.valid = true;
            entry.tag = tag;
            entry.target = target;
            entry.counter = 2;
        }
        return pred;
    }
    pred.hit = true;
    pred.taken = entry.counter >= 2;
    pred.target = entry.target;
    if (taken) {
        if (entry.counter < 3)
            ++entry.counter;
        entry.target = target;
    } else if (entry.counter > 0) {
        --entry.counter;
    }
    return pred;
}

void
Cache::serialize(ckpt::Writer &w) const
{
    w.varint(lines.size());
    for (const Line &line : lines) {
        w.b(line.valid);
        w.varint(line.tag);
        w.varint(line.lastUsed);
        w.varint(line.fillDone);
    }
    w.varint(numHits);
    w.varint(numMisses);
    w.varint(numMerges);
}

void
Cache::restore(ckpt::Reader &r)
{
    uint64_t count = r.varint();
    if (count != lines.size()) {
        throw ckpt::CkptError(ckpt::ErrorKind::Mismatch,
                              "cache geometry mismatch between "
                              "checkpoint and machine config");
    }
    for (Line &line : lines) {
        line.valid = r.b();
        line.tag = static_cast<uint32_t>(r.varint());
        line.lastUsed = r.varint();
        line.fillDone = r.varint();
    }
    numHits = r.varint();
    numMisses = r.varint();
    numMerges = r.varint();
}

void
Btb::serialize(ckpt::Writer &w) const
{
    w.varint(table.size());
    for (const Entry &entry : table) {
        w.b(entry.valid);
        w.varint(entry.tag);
        w.varint(entry.target);
        w.u8(entry.counter);
    }
}

void
Btb::restore(ckpt::Reader &r)
{
    uint64_t count = r.varint();
    if (count != table.size()) {
        throw ckpt::CkptError(ckpt::ErrorKind::Mismatch,
                              "BTB geometry mismatch between "
                              "checkpoint and machine config");
    }
    for (Entry &entry : table) {
        entry.valid = r.b();
        entry.tag = static_cast<uint32_t>(r.varint());
        entry.target = static_cast<uint32_t>(r.varint());
        entry.counter = r.u8();
    }
}

} // namespace mem
} // namespace elag
