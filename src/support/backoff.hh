/**
 * @file
 * Exponential backoff arithmetic shared by every retry loop: shard
 * respawns, client reconnects and campaign job retries.
 */

#ifndef ELAG_SUPPORT_BACKOFF_HH
#define ELAG_SUPPORT_BACKOFF_HH

#include <cstdint>

namespace elag {

/**
 * @p base doubled once per step after the first, capped at @p cap:
 * min(base * 2^(step - 1), cap), with step 0 read as step 1. Never
 * overflows and never shifts by the width of the type, whatever
 * @p step is.
 */
inline uint64_t
cappedDoubling(uint64_t base, uint64_t step, uint64_t cap)
{
    if (base == 0)
        return 0;
    uint64_t shift = step > 1 ? step - 1 : 0;
    if (shift >= 64 || base > (cap >> shift))
        return cap;
    return base << shift;
}

} // namespace elag

#endif // ELAG_SUPPORT_BACKOFF_HH
