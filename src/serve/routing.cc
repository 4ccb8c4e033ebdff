#include "serve/routing.hh"

#include "support/hash.hh"
#include "support/logging.hh"

namespace elag {
namespace serve {

uint64_t
routingHash(const Request &request)
{
    // `generate` requests carry their content in spec, not source;
    // mixing both keeps every work verb content-routable.
    Fnv1a h(Fnv1a::kContentBasis);
    h.mixBytes(request.source.data(), request.source.size());
    h.mixBytes(request.spec.data(), request.spec.size());
    return h.value();
}

uint64_t
persistKey(const Request &request)
{
    Fnv1a h(Fnv1a::kContentBasis);
    h.mixString(request.verb);
    h.mixString(request.source);
    h.mixString(request.spec);
    h.mixString(request.file);
    h.mixString(request.machine);
    h.mixString(request.selection);
    h.mix(request.table);
    h.mix(request.regs);
    h.mix(request.noOpt ? 1 : 0);
    h.mix(request.noClassify ? 1 : 0);
    h.mix(request.maxInst);
    return h.value();
}

uint32_t
shardFor(uint64_t hash, uint32_t shards)
{
    elag_assert(shards >= 1);
    return static_cast<uint32_t>(hash % shards);
}

std::vector<uint32_t>
failoverOrder(uint64_t hash, uint32_t shards)
{
    std::vector<uint32_t> order;
    order.reserve(shards);
    uint32_t primary = shardFor(hash, shards);
    for (uint32_t i = 0; i < shards; ++i)
        order.push_back((primary + i) % shards);
    return order;
}

} // namespace serve
} // namespace elag
