#include "predict/address_table.hh"

#include "ckpt/serial.hh"
#include "support/logging.hh"
#include "verify/fault_injector.hh"

namespace elag {
namespace predict {

AddressTable::AddressTable(uint32_t num_entries,
                           bool predict_while_learning)
    : entries(num_entries),
      predictWhileLearning(predict_while_learning),
      table(num_entries)
{
    elag_assert(num_entries > 0);
    pow2Entries = std::has_single_bit(entries);
    if (pow2Entries) {
        indexShift = static_cast<uint32_t>(std::countr_zero(entries));
        indexMask = entries - 1;
    }
}

std::optional<uint32_t>
AddressTable::probe(uint32_t pc) const
{
    ++numProbes;
    const Entry &entry = table[indexOf(pc)];
    if (!entry.valid)
        return std::nullopt;
    if (entry.tag != tagOf(pc)) {
        // Tag-alias fault: the probe trusts the aliased entry as if
        // its tag matched, yielding another load's prediction.
        if (!(faults && faults->fireTagAlias()))
            return std::nullopt;
    }
    ++numProbeHits;
    if (!entry.fsm.willPredict() && !predictWhileLearning)
        return std::nullopt;
    uint32_t predicted = entry.fsm.predictedAddress();
    if (faults && faults->fireEntryCorrupt())
        predicted = faults->corruptAddress(predicted);
    return predicted;
}

bool
AddressTable::present(uint32_t pc) const
{
    const Entry &entry = table[indexOf(pc)];
    return entry.valid && entry.tag == tagOf(pc);
}

bool
AddressTable::update(uint32_t pc, uint32_t ca)
{
    Entry &entry = table[indexOf(pc)];
    uint32_t tag = tagOf(pc);
    if (!entry.valid || entry.tag != tag) {
        if (entry.valid)
            ++numReplacements;
        entry.valid = true;
        entry.tag = tag;
        entry.fsm.allocate(ca);
        confHist.sample(0);
        return false;
    }
    bool correct = entry.fsm.update(ca);
    confHist.sample(entry.fsm.confidentStreak());
    return correct;
}

void
AddressTable::serialize(ckpt::Writer &w) const
{
    w.varint(table.size());
    for (const Entry &entry : table) {
        w.b(entry.valid);
        w.varint(entry.tag);
        w.varint(entry.fsm.predictedAddress());
        w.varint(entry.fsm.stride());
        w.varint(entry.fsm.confidentStreak());
        w.b(entry.fsm.willPredict());
    }
    ckpt::serialize(w, confHist);
    w.varint(numProbes);
    w.varint(numProbeHits);
    w.varint(numReplacements);
}

void
AddressTable::restore(ckpt::Reader &r)
{
    uint64_t count = r.varint();
    if (count != table.size()) {
        throw ckpt::CkptError(ckpt::ErrorKind::Mismatch,
                              "address-table geometry mismatch "
                              "between checkpoint and machine "
                              "config");
    }
    for (Entry &entry : table) {
        entry.valid = r.b();
        entry.tag = static_cast<uint32_t>(r.varint());
        uint32_t pa = static_cast<uint32_t>(r.varint());
        uint32_t stride = static_cast<uint32_t>(r.varint());
        uint32_t streak = static_cast<uint32_t>(r.varint());
        bool confident = r.b();
        entry.fsm.restoreRaw(pa, stride, streak, confident);
    }
    ckpt::restore(r, confHist);
    numProbes = r.varint();
    numProbeHits = r.varint();
    numReplacements = r.varint();
}

} // namespace predict
} // namespace elag
