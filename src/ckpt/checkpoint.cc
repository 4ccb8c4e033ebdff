#include "ckpt/checkpoint.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/hash.hh"
#include "support/logging.hh"

namespace elag {
namespace ckpt {

namespace {

constexpr char kHeadMagic[8] = {'E', 'L', 'A', 'G',
                                'C', 'K', 'P', 'T'};
constexpr char kTailMagic[8] = {'E', 'L', 'A', 'G',
                                'E', 'N', 'D', '.'};
constexpr size_t kMagicSize = 8;
/** head magic + version + section count. */
constexpr size_t kHeaderSize = kMagicSize + 4 + 4;
/** file CRC + tail magic. */
constexpr size_t kTrailerSize = 4 + kMagicSize;
/** tag + size + CRC. */
constexpr size_t kSectionHeaderSize = 4 + 8 + 4;

std::string
errnoString()
{
    return std::strerror(errno);
}

} // anonymous namespace

Writer &
CheckpointWriter::section(const char (&name)[5])
{
    sections_.push_back(Section{tag(name), Writer{}});
    return sections_.back().payload;
}

std::string
CheckpointWriter::container() const
{
    Writer w;
    w.bytes(kHeadMagic, kMagicSize);
    w.u32(version_);
    w.u32(static_cast<uint32_t>(sections_.size()));
    for (const Section &s : sections_) {
        w.u32(s.tag);
        w.u64(s.payload.size());
        w.u32(crc32(s.payload.data().data(), s.payload.size()));
        w.bytes(s.payload.data().data(), s.payload.size());
    }
    w.u32(crc32(w.data().data(), w.size()));
    w.bytes(kTailMagic, kMagicSize);
    return w.data();
}

void
CheckpointWriter::writeFile(const std::string &path) const
{
    std::string body = container();
    std::string tmp = path + ".tmp";

    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        throw CkptError(ErrorKind::Io,
                        formatString("cannot create '%s': %s",
                                     tmp.c_str(),
                                     errnoString().c_str()));
    }
    size_t written = 0;
    while (written < body.size()) {
        ssize_t n = ::write(fd, body.data() + written,
                            body.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            std::string err = errnoString();
            ::close(fd);
            ::unlink(tmp.c_str());
            throw CkptError(ErrorKind::Io,
                            formatString("write '%s' failed: %s",
                                         tmp.c_str(), err.c_str()));
        }
        written += static_cast<size_t>(n);
    }
    if (::fsync(fd) != 0) {
        std::string err = errnoString();
        ::close(fd);
        ::unlink(tmp.c_str());
        throw CkptError(ErrorKind::Io,
                        formatString("fsync '%s' failed: %s",
                                     tmp.c_str(), err.c_str()));
    }
    ::close(fd);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        std::string err = errnoString();
        ::unlink(tmp.c_str());
        throw CkptError(ErrorKind::Io,
                        formatString("rename '%s' -> '%s' failed: %s",
                                     tmp.c_str(), path.c_str(),
                                     err.c_str()));
    }
    // Make the rename itself durable. Best effort: a missing
    // directory fsync can only lose the newest snapshot to a power
    // cut, never corrupt it.
    std::string dir = path;
    size_t slash = dir.find_last_of('/');
    dir = slash == std::string::npos ? "." : dir.substr(0, slash);
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
}

CheckpointReader
CheckpointReader::fromBytes(std::string bytes)
{
    CheckpointReader cr;
    cr.data_ = std::move(bytes);
    const std::string &d = cr.data_;

    if (d.size() < kMagicSize ||
        std::memcmp(d.data(), kHeadMagic, kMagicSize) != 0) {
        throw CkptError(ErrorKind::Corrupt,
                        "not a checkpoint file (bad magic)");
    }
    if (d.size() < kHeaderSize) {
        throw CkptError(ErrorKind::Torn,
                        "checkpoint truncated inside the header");
    }
    Reader head(d.data() + kMagicSize, d.size() - kMagicSize);
    uint32_t version = head.u32();
    if (version != kFormatVersion) {
        throw CkptError(
            ErrorKind::VersionMismatch,
            formatString("checkpoint format version %u, this build "
                         "reads version %u",
                         version, kFormatVersion));
    }
    if (d.size() < kHeaderSize + kTrailerSize ||
        std::memcmp(d.data() + d.size() - kMagicSize, kTailMagic,
                    kMagicSize) != 0) {
        throw CkptError(ErrorKind::Torn,
                        "checkpoint tail marker missing (torn or "
                        "truncated write)");
    }
    size_t crcOffset = d.size() - kTrailerSize;
    Reader trailer(d.data() + crcOffset, 4);
    uint32_t fileCrc = trailer.u32();
    if (crc32(d.data(), crcOffset) != fileCrc) {
        throw CkptError(ErrorKind::Corrupt,
                        "checkpoint file CRC mismatch");
    }

    uint32_t count = head.u32();
    size_t off = kHeaderSize;
    for (uint32_t i = 0; i < count; ++i) {
        if (crcOffset - off < kSectionHeaderSize) {
            throw CkptError(ErrorKind::Corrupt,
                            "checkpoint section table overruns the "
                            "file");
        }
        Reader sh(d.data() + off, kSectionHeaderSize);
        Entry e;
        e.tag = sh.u32();
        uint64_t size = sh.u64();
        uint32_t crc = sh.u32();
        off += kSectionHeaderSize;
        if (size > crcOffset - off) {
            throw CkptError(ErrorKind::Corrupt,
                            "checkpoint section payload overruns the "
                            "file");
        }
        e.offset = off;
        e.size = static_cast<size_t>(size);
        if (crc32(d.data() + e.offset, e.size) != crc) {
            throw CkptError(
                ErrorKind::Corrupt,
                formatString("checkpoint section %u CRC mismatch",
                             i));
        }
        off += e.size;
        cr.sections_.push_back(e);
    }
    if (off != crcOffset) {
        throw CkptError(ErrorKind::Corrupt,
                        "checkpoint has trailing garbage after the "
                        "last section");
    }
    return cr;
}

CheckpointReader
CheckpointReader::fromFile(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        throw CkptError(ErrorKind::Io,
                        formatString("cannot open checkpoint '%s': "
                                     "%s",
                                     path.c_str(),
                                     errnoString().c_str()));
    }
    std::string bytes;
    char buf[1 << 16];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            std::string err = errnoString();
            ::close(fd);
            throw CkptError(ErrorKind::Io,
                            formatString("read '%s' failed: %s",
                                         path.c_str(), err.c_str()));
        }
        if (n == 0)
            break;
        bytes.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return fromBytes(std::move(bytes));
}

const CheckpointReader::Entry *
CheckpointReader::find(uint32_t t) const
{
    for (const Entry &e : sections_) {
        if (e.tag == t)
            return &e;
    }
    return nullptr;
}

bool
CheckpointReader::has(const char (&name)[5]) const
{
    return find(tag(name)) != nullptr;
}

Reader
CheckpointReader::section(const char (&name)[5]) const
{
    const Entry *e = find(tag(name));
    if (!e) {
        throw CkptError(ErrorKind::Corrupt,
                        formatString("checkpoint is missing section "
                                     "'%s'",
                                     name));
    }
    return Reader(data_.data() + e->offset, e->size);
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

void
removeSnapshot(const std::string &path)
{
    ::unlink(path.c_str());
    ::unlink((path + ".tmp").c_str());
}

} // namespace ckpt
} // namespace elag
