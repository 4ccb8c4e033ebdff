#include "predict/profiler.hh"

#include "support/logging.hh"

namespace elag {
namespace predict {

void
AddressProfiler::observe(int load_id, uint32_t address)
{
    elag_assert(load_id >= 0);
    if (static_cast<size_t>(load_id) >= loads.size())
        loads.resize(load_id + 1);
    PerLoad &entry = loads[load_id];
    entry.present = true;
    cacheStale = true;
    if (!entry.seeded) {
        // First execution allocates the entry (Replace arc); it is
        // not counted as a prediction opportunity.
        entry.fsm.allocate(address);
        entry.seeded = true;
        ++entry.prof.executions;
        return;
    }
    bool correct = entry.fsm.update(address);
    ++entry.prof.executions;
    if (correct)
        ++entry.prof.correct;
}

const classify::AddressProfile &
AddressProfiler::profile() const
{
    if (cacheStale) {
        cached.clear();
        for (size_t id = 0; id < loads.size(); ++id) {
            if (loads[id].present)
                cached.emplace(static_cast<int>(id), loads[id].prof);
        }
        cacheStale = false;
    }
    return cached;
}

uint64_t
AddressProfiler::totalExecutions() const
{
    uint64_t total = 0;
    for (const PerLoad &entry : loads)
        total += entry.prof.executions;
    return total;
}

} // namespace predict
} // namespace elag
