#include "ckpt/serial.hh"

#include <cstring>

#include "support/logging.hh"

namespace elag {
namespace ckpt {

const char *
name(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::Io:
        return "io";
      case ErrorKind::Torn:
        return "torn";
      case ErrorKind::Corrupt:
        return "corrupt";
      case ErrorKind::VersionMismatch:
        return "version_mismatch";
      case ErrorKind::Mismatch:
        return "mismatch";
    }
    return "?";
}

void
Writer::u32(uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        u8(static_cast<uint8_t>(v >> (8 * i)));
}

void
Writer::u64(uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        u8(static_cast<uint8_t>(v >> (8 * i)));
}

void
Writer::f32(float v)
{
    uint32_t bits;
    std::memcpy(&bits, &v, 4);
    u32(bits);
}

void
Writer::f64(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    u64(bits);
}

void
Writer::varint(uint64_t v)
{
    while (v >= 0x80) {
        u8(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    u8(static_cast<uint8_t>(v));
}

void
Writer::str(const std::string &s)
{
    varint(s.size());
    bytes(s.data(), s.size());
}

void
Writer::bytes(const void *data, size_t len)
{
    buf_.append(static_cast<const char *>(data), len);
}

void
Reader::need(size_t n) const
{
    if (remaining() < n) {
        throw CkptError(
            ErrorKind::Corrupt,
            formatString("checkpoint payload underrun: need %zu "
                         "bytes, %zu remain",
                         n, remaining()));
    }
}

uint8_t
Reader::u8()
{
    need(1);
    return static_cast<uint8_t>(*p_++);
}

uint32_t
Reader::u32()
{
    need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(static_cast<uint8_t>(*p_++))
             << (8 * i);
    return v;
}

uint64_t
Reader::u64()
{
    need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(static_cast<uint8_t>(*p_++))
             << (8 * i);
    return v;
}

float
Reader::f32()
{
    uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, 4);
    return v;
}

double
Reader::f64()
{
    uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
}

uint64_t
Reader::varint()
{
    uint64_t v = 0;
    int shift = 0;
    for (;;) {
        uint8_t byte = u8();
        if (shift >= 64 || (shift == 63 && (byte & 0x7e))) {
            throw CkptError(ErrorKind::Corrupt,
                            "checkpoint varint overflows 64 bits");
        }
        v |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return v;
        shift += 7;
    }
}

std::string
Reader::str()
{
    uint64_t len = varint();
    need(len);
    std::string s(p_, len);
    p_ += len;
    return s;
}

void
Reader::bytes(void *out, size_t len)
{
    need(len);
    std::memcpy(out, p_, len);
    p_ += len;
}

void
serialize(Writer &w, const Histogram &h)
{
    w.varint(h.numBuckets());
    w.varint(h.bucketWidth());
    for (size_t i = 0; i < h.numBuckets(); ++i)
        w.varint(h.bucket(i));
    w.varint(h.overflow());
    w.varint(h.samples());
    w.varint(h.total());
}

void
restore(Reader &r, Histogram &h)
{
    uint64_t buckets = r.varint();
    uint64_t width = r.varint();
    if (buckets != h.numBuckets() || width != h.bucketWidth()) {
        throw CkptError(
            ErrorKind::Mismatch,
            formatString("histogram geometry mismatch: checkpoint "
                         "%llux%llu vs live %zux%llu",
                         static_cast<unsigned long long>(buckets),
                         static_cast<unsigned long long>(width),
                         h.numBuckets(),
                         static_cast<unsigned long long>(
                             h.bucketWidth())));
    }
    std::vector<uint64_t> counts(buckets);
    for (uint64_t i = 0; i < buckets; ++i)
        counts[i] = r.varint();
    uint64_t overflow = r.varint();
    uint64_t samples = r.varint();
    uint64_t total = r.varint();
    h.restoreRaw(counts, overflow, samples, total);
}

} // namespace ckpt
} // namespace elag
