/**
 * @file
 * The toolchain's two checksums: 64-bit FNV-1a for content identities
 * (run-cache and persistent-cache keys, shard routing, checkpoint run
 * keys, generated-source hashes, campaign seeds) and the IEEE CRC-32
 * that guards checkpoint sections and persistent-cache records.
 */

#ifndef ELAG_SUPPORT_HASH_HH
#define ELAG_SUPPORT_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace elag {

/**
 * Incremental 64-bit FNV-1a. Structured values are folded field by
 * field so struct padding never leaks into a hash.
 */
class Fnv1a
{
  public:
    /** The published FNV-1a 64-bit offset basis. */
    static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
    /**
     * The published basis with its last decimal digit dropped. The
     * run cache, shard routing, the persistent-cache key and the
     * generator's content hash have always started from it; their
     * values name on-disk records and served hashes, so it stays.
     */
    static constexpr uint64_t kContentBasis = 1469598103934665603ull;

    explicit Fnv1a(uint64_t basis = kOffsetBasis) : state_(basis) {}

    /** Fold @p n raw bytes. */
    void
    mixBytes(const void *data, size_t n)
    {
        const unsigned char *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            state_ ^= p[i];
            state_ *= 1099511628211ull;
        }
    }

    /** Fold all 8 bytes of @p value, least significant first. */
    void
    mix(uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            state_ ^= (value >> (8 * i)) & 0xff;
            state_ *= 1099511628211ull;
        }
    }

    /** Fold @p s length-prefixed, so "ab"+"c" and "a"+"bc" differ. */
    void
    mixString(const std::string &s)
    {
        mix(s.size());
        mixBytes(s.data(), s.size());
    }

    uint64_t value() const { return state_; }

  private:
    uint64_t state_;
};

/** IEEE 802.3 CRC-32 (reflected polynomial 0xedb88320, as zlib). */
uint32_t crc32(const void *data, size_t n);

} // namespace elag

#endif // ELAG_SUPPORT_HASH_HH
