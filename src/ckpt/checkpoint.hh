/**
 * @file
 * The durable checkpoint container.
 *
 * A checkpoint is a single file of tagged sections:
 *
 *     "ELAGCKPT"                      8-byte magic
 *     u32 format version
 *     u32 section count
 *     per section:
 *         u32 tag (fourcc)
 *         u64 payload size
 *         u32 payload CRC-32
 *         payload bytes
 *     u32 file CRC-32 (over everything above)
 *     "ELAGEND."                      8-byte tail marker
 *
 * Integrity model, in rejection order:
 *  - bad head magic            -> Corrupt (not a checkpoint at all)
 *  - unknown format version    -> VersionMismatch
 *  - missing tail marker       -> Torn (writer died mid-write, or
 *                                 the file was truncated afterwards)
 *  - file or section CRC wrong -> Corrupt
 *
 * Files are written atomically: payload goes to a temp file in the
 * same directory, is fsync'd, and rename()d over the target, so a
 * crash during a snapshot leaves the previous snapshot intact. A
 * torn file can therefore only come from external damage — but it is
 * still detected and rejected with a typed error, never restored.
 */

#ifndef ELAG_CKPT_CHECKPOINT_HH
#define ELAG_CKPT_CHECKPOINT_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "ckpt/serial.hh"

namespace elag {
namespace ckpt {

/**
 * Current container format version. Version 2 dropped the cached
 * value, lookup count and hit count from the register-cache section;
 * a version-1 file reads as VersionMismatch.
 */
constexpr uint32_t kFormatVersion = 2;

/** Section tag from a 4-character literal, e.g. tag("META"). */
constexpr uint32_t
tag(const char (&s)[5])
{
    return static_cast<uint32_t>(static_cast<uint8_t>(s[0])) |
           static_cast<uint32_t>(static_cast<uint8_t>(s[1])) << 8 |
           static_cast<uint32_t>(static_cast<uint8_t>(s[2])) << 16 |
           static_cast<uint32_t>(static_cast<uint8_t>(s[3])) << 24;
}

/** Assembles and atomically writes one checkpoint file. */
class CheckpointWriter
{
  public:
    /**
     * Open a new section; returns the Writer its payload goes into.
     * The reference stays valid for the CheckpointWriter's lifetime.
     * Section order is preserved; tags should be unique.
     */
    Writer &section(const char (&name)[5]);

    /** The assembled container bytes (tests, in-memory round trips). */
    std::string container() const;

    /**
     * Atomically write the container to @p path (temp file
     * `<path>.tmp` + fsync + rename). Throws CkptError(Io) on any
     * filesystem failure; the previous file at @p path survives a
     * failed or interrupted write.
     */
    void writeFile(const std::string &path) const;

    /** Stamp a non-current version (version-mismatch tests only). */
    void setVersionForTesting(uint32_t version) { version_ = version; }

  private:
    struct Section
    {
        uint32_t tag;
        Writer payload;
    };

    /** deque: section() hands out stable references. */
    std::deque<Section> sections_;
    uint32_t version_ = kFormatVersion;
};

/** Validates and indexes one checkpoint file for reading. */
class CheckpointReader
{
  public:
    /** Parse @p bytes; throws typed CkptError on any defect. */
    static CheckpointReader fromBytes(std::string bytes);

    /** Read and parse @p path; throws CkptError (Io on read error). */
    static CheckpointReader fromFile(const std::string &path);

    bool has(const char (&name)[5]) const;

    /**
     * Reader over a section's (CRC-verified) payload. Throws
     * CkptError(Corrupt) when the section is absent.
     */
    Reader section(const char (&name)[5]) const;

  private:
    CheckpointReader() = default;

    struct Entry
    {
        uint32_t tag;
        size_t offset;
        size_t size;
    };

    const Entry *find(uint32_t t) const;

    std::string data_;
    std::vector<Entry> sections_;
};

/** @return true when @p path exists (resume-candidate probing). */
bool fileExists(const std::string &path);

/**
 * Delete the snapshot at @p path and the `<path>.tmp` a writer killed
 * mid-write leaves beside it. Missing files are not an error.
 */
void removeSnapshot(const std::string &path);

} // namespace ckpt
} // namespace elag

#endif // ELAG_CKPT_CHECKPOINT_HH
