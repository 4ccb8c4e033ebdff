/**
 * @file
 * Byte-level serialization primitives for checkpoints.
 *
 * Writer/Reader implement a compact little-endian codec (fixed-width
 * integers, LEB128 varints, length-prefixed strings, IEEE-754 bit
 * patterns for floats) used by every subsystem's serialize/restore
 * hook. The codec is deliberately dumb: no field names, no framing —
 * structure lives in the code on both sides, and integrity lives in
 * the checkpoint container's CRCs (ckpt/checkpoint.hh). Reads are
 * bounds-checked and throw CkptError instead of running off the
 * buffer, so a corrupt-but-CRC-colliding payload still cannot crash
 * the restoring process.
 */

#ifndef ELAG_CKPT_SERIAL_HH
#define ELAG_CKPT_SERIAL_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "support/stats.hh"

namespace elag {
namespace ckpt {

/** Why a checkpoint was rejected. */
enum class ErrorKind
{
    Io,              ///< open/write/rename/read failed
    Torn,            ///< file truncated mid-write (tail marker absent)
    Corrupt,         ///< CRC mismatch or structurally invalid content
    VersionMismatch, ///< written by an incompatible format version
    Mismatch,        ///< valid file, but for a different run/config
};

/** Stable lowercase name for an error kind (logs, JSON errors). */
const char *name(ErrorKind kind);

/** Typed checkpoint rejection; never restored past silently. */
class CkptError : public std::runtime_error
{
  public:
    CkptError(ErrorKind kind, const std::string &msg)
        : std::runtime_error(msg), kind_(kind)
    {}

    ErrorKind kind() const { return kind_; }

  private:
    ErrorKind kind_;
};

/** Append-only byte sink. */
class Writer
{
  public:
    void u8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    void u32(uint32_t v);
    void u64(uint64_t v);
    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
    void f32(float v);
    void f64(double v);
    /** LEB128 unsigned varint. */
    void varint(uint64_t v);
    /** varint length + raw bytes. */
    void str(const std::string &s);
    void bytes(const void *data, size_t len);

    const std::string &data() const { return buf_; }
    size_t size() const { return buf_.size(); }

  private:
    std::string buf_;
};

/** Bounds-checked reader over a byte span (not owned). */
class Reader
{
  public:
    Reader(const char *data, size_t size)
        : p_(data), end_(data + size)
    {}

    uint8_t u8();
    bool b() { return u8() != 0; }
    uint32_t u32();
    uint64_t u64();
    int32_t i32() { return static_cast<int32_t>(u32()); }
    float f32();
    double f64();
    uint64_t varint();
    std::string str();
    void bytes(void *out, size_t len);

    size_t remaining() const { return static_cast<size_t>(end_ - p_); }
    bool atEnd() const { return p_ == end_; }

  private:
    /** Throws CkptError(Corrupt) when fewer than @p n bytes remain. */
    void need(size_t n) const;

    const char *p_;
    const char *end_;
};

/**
 * Histogram state round trip. The restored histogram must have been
 * constructed with the same geometry (bucket count and width) as the
 * serialized one; a geometry difference throws CkptError(Mismatch).
 */
void serialize(Writer &w, const Histogram &h);
void restore(Reader &r, Histogram &h);

} // namespace ckpt
} // namespace elag

#endif // ELAG_CKPT_SERIAL_HH
