#pragma once

// Binary record framing of the persistent memo store (docs/ENGINE.md,
// "Persistent memo store").
//
// A shard file is:
//
//   magic "LLSMEMO1" (8 bytes)
//   format version   (u32 LE)
//   reserved flags   (u32 LE, zero)
//   record*          (until EOF)
//
// and each record is individually framed and checksummed:
//
//   payload length   (u32 LE)
//   payload          (section u8 | key blob | value blob)
//   checksum         (u64 LE, FNV-1a of the payload bytes)
//
// Per-record checksums make the format append-friendly: a writer can add
// records to the end of a file without rewriting anything, and a reader
// detects a truncated tail or a flipped bit without trusting a whole-file
// digest. Every integrity failure is raised as LlsError{IoError, stage
// "persist"}; the store layer contains it by rejecting the file (cold
// start), never by crashing.

#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace lls::persist {

inline constexpr char kMagic[8] = {'L', 'L', 'S', 'M', 'E', 'M', 'O', '1'};
/// Bumped whenever a stored value would replay something a cold run no
/// longer computes. Version 2: SAT queries load only the cones they reach,
/// which moves the conflict counts (WorkCost) and the --cone-mem
/// degradations stored with each evaluation.
inline constexpr std::uint32_t kFormatVersion = 2;
/// Shard files published by the store; anything else in the cache
/// directory (temp files, journals, stray files) is ignored by the loader.
inline constexpr const char* kShardExtension = ".shard";

/// Memo sections of the store. Values are part of the on-disk format —
/// never renumber; add new sections at the end. An unknown section id in a
/// structurally valid record is skipped (forward compatibility), not an
/// error.
enum class Section : std::uint8_t {
    Decompose = 1,    ///< (cone hash, params fp) -> ConeEvaluation
    Cec = 2,          ///< ordered structural-hash pair -> verdict
    Npn = 3,          ///< truth-table key -> NpnResult
    ExactStruct = 4,  ///< canonical-class key -> optional<ExactStructure>
};

/// FNV-1a over arbitrary bytes — the per-record checksum.
inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t h = 0xcbf29ce484222325ULL) {
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/// Little-endian append-only byte buffer: fixed-width ints, LEB128
/// varints, and length-prefixed blobs. The encoding layer of both record
/// payloads and whole shard files.
class ByteWriter {
public:
    void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void varint(std::uint64_t v) {
        while (v >= 0x80) {
            buf_.push_back(static_cast<char>(0x80 | (v & 0x7f)));
            v >>= 7;
        }
        buf_.push_back(static_cast<char>(v));
    }

    void raw(std::string_view bytes) { buf_.append(bytes); }

    void blob(std::string_view bytes) {
        varint(bytes.size());
        raw(bytes);
    }

    const std::string& str() const { return buf_; }
    std::string take() { return std::move(buf_); }

private:
    std::string buf_;
};

/// Bounds-checked reader over a byte span. Every underrun or malformed
/// varint throws LlsError{IoError, "persist"} — the store layer turns that
/// into a rejected shard, so a truncated or bit-flipped file can never
/// crash the process or smuggle in a half-read record.
class ByteReader {
public:
    explicit ByteReader(std::string_view data) : data_(data) {}

    std::uint8_t u8() { return static_cast<std::uint8_t>(need(1)[0]); }

    std::uint32_t u32() {
        const std::string_view b = need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v |= std::uint32_t(static_cast<unsigned char>(b[i])) << (8 * i);
        return v;
    }

    std::uint64_t u64() {
        const std::string_view b = need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v |= std::uint64_t(static_cast<unsigned char>(b[i])) << (8 * i);
        return v;
    }

    std::uint64_t varint() {
        std::uint64_t v = 0;
        for (int shift = 0; shift < 64; shift += 7) {
            const auto byte = static_cast<unsigned char>(need(1)[0]);
            v |= std::uint64_t(byte & 0x7f) << shift;
            if (!(byte & 0x80)) return v;
        }
        throw LlsError(ErrorKind::IoError, "varint longer than 64 bits", "persist");
    }

    std::string_view blob() {
        const std::uint64_t n = varint();
        if (n > remaining())
            throw LlsError(ErrorKind::IoError, "blob length past end of record", "persist");
        return need(static_cast<std::size_t>(n));
    }

    std::size_t remaining() const { return data_.size() - pos_; }
    bool at_end() const { return pos_ == data_.size(); }

    void expect_end() const {
        if (!at_end())
            throw LlsError(ErrorKind::IoError, "trailing bytes after record payload", "persist");
    }

private:
    std::string_view need(std::size_t n) {
        if (remaining() < n)
            throw LlsError(ErrorKind::IoError, "unexpected end of record", "persist");
        const std::string_view out = data_.substr(pos_, n);
        pos_ += n;
        return out;
    }

    std::string_view data_;
    std::size_t pos_ = 0;
};

}  // namespace lls::persist
