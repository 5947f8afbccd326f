// Checkpoint wire format: versioned, checksummed binary blobs for
// session/driver snapshots.
//
// A checkpoint is a REPLAY JOURNAL, not a state dump: it records the
// session's configuration, clock, and every submitted job, and restore
// rebuilds the session by replaying the submissions and advancing to the
// saved clock. Because a streamed run makes bit-identical decisions
// regardless of how the feed is chunked (the streaming differential wall,
// tests/streaming_test.cpp), the restored session is bit-identical to the
// original — same records, same pending queues, same future decisions —
// without serializing a single byte of policy internals. That keeps the
// format stable across policy refactors: only the journal is normative.
//
// Layout (all integers little-endian, all floats raw IEEE-754 bits; the
// field-by-field specification lives in docs/ARCHITECTURE.md and is
// normative — a change here without a version bump is a bug):
//
//   magic      8 bytes  "OSCKPT01" (session) / "OSCKPD01" (shard driver)
//   version    u32      format version (kCheckpointVersion)
//   body       ...      per-kind fields (see docs/ARCHITECTURE.md)
//   checksum   u64      FNV-1a 64 of every preceding byte
//
// Restore NEVER aborts on a damaged blob: truncation, corruption and
// version mismatches come back as diagnostic strings (the checksum is
// verified before any field is trusted, and every read is bounds-checked
// on top — a short or bit-flipped file can misparse, but it cannot touch
// memory out of bounds or allocate from an unvalidated length field).
// The checksum guards against accidental damage, not adversaries: a blob
// forged with a valid checksum is "a genuine checkpoint" as far as this
// layer can tell, and replaying it re-runs the same input validation any
// live submission faces.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace osched::service {

inline constexpr char kSessionCheckpointMagic[8] = {'O', 'S', 'C', 'K',
                                                    'P', 'T', '0', '1'};
inline constexpr char kDriverCheckpointMagic[8] = {'O', 'S', 'C', 'K',
                                                   'P', 'D', '0', '1'};
/// The one wire version this build writes and reads; restore refuses every
/// other version (older blobs included) with a diagnostic.
inline constexpr std::uint32_t kCheckpointVersion = 4;

/// FNV-1a 64-bit over a byte range — the checkpoint trailer's checksum.
inline std::uint64_t fnv1a64(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Append-only little-endian encoder. finish() seals the blob with the
/// FNV-1a trailer; the writer is spent afterwards.
class CheckpointWriter {
 public:
  void bytes(const void* data, std::size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }
  void u8(std::uint8_t value) { bytes(&value, 1); }
  void u32(std::uint32_t value) { put_le(value); }
  void u64(std::uint64_t value) { put_le(value); }
  void f64(double value) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    put_le(bits);
  }

  std::string finish() {
    const std::uint64_t checksum = fnv1a64(buffer_.data(), buffer_.size());
    put_le(checksum);
    return std::move(buffer_);
  }

 private:
  template <class T>
  void put_le(T value) {
    char out[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out[i] = static_cast<char>((value >> (8 * i)) & 0xff);
    }
    bytes(out, sizeof(T));
  }

  std::string buffer_;
};

/// Bounds-checked decoder over a sealed blob. Every read either succeeds or
/// latches a failure (ok() == false, error() says why) and returns zero;
/// callers may batch reads and check once. expect_magic/verify_checksum
/// front-load the whole-blob integrity checks.
class CheckpointReader {
 public:
  explicit CheckpointReader(std::string_view blob) : blob_(blob) {}

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  void fail(std::string message) {
    if (error_.empty()) error_ = std::move(message);
  }

  /// Bytes left between the cursor and the checksum trailer.
  std::size_t remaining() const {
    const std::size_t body = blob_.size() - sizeof(std::uint64_t);
    return pos_ < body ? body - pos_ : 0;
  }

  /// Checks the 8-byte magic, the trailing checksum and the version; the
  /// cursor ends up just past the version. All subsequent reads stop at the
  /// trailer.
  void open(const char (&magic)[8], const char* kind) {
    if (blob_.size() < sizeof(magic) + 2 * sizeof(std::uint64_t)) {
      return fail(std::string("checkpoint truncated: ") +
                  std::to_string(blob_.size()) + " bytes is too short for a " +
                  kind + " checkpoint header");
    }
    if (std::memcmp(blob_.data(), magic, sizeof(magic)) != 0) {
      return fail(std::string("not a ") + kind +
                  " checkpoint (magic mismatch)");
    }
    const std::size_t body = blob_.size() - sizeof(std::uint64_t);
    std::uint64_t stored = 0;
    for (std::size_t i = 0; i < sizeof(stored); ++i) {
      stored |= static_cast<std::uint64_t>(
                    static_cast<unsigned char>(blob_[body + i]))
                << (8 * i);
    }
    if (stored != fnv1a64(blob_.data(), body)) {
      return fail("checkpoint corrupted: checksum mismatch");
    }
    pos_ = sizeof(magic);
    const std::uint32_t version = u32();
    if (version != kCheckpointVersion) {
      fail("unsupported checkpoint version " + std::to_string(version) +
           " (this build reads version " + std::to_string(kCheckpointVersion) +
           ")");
    }
  }

  std::uint8_t u8() {
    std::uint8_t value = 0;
    read(&value, 1);
    return value;
  }
  void bytes(void* out, std::size_t size) { read(out, size); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  double f64() {
    const std::uint64_t bits = get_le<std::uint64_t>();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

 private:
  void read(void* out, std::size_t size) {
    if (!ok()) return;
    if (remaining() < size) {
      std::memset(out, 0, size);
      return fail("checkpoint truncated: field extends past the blob");
    }
    std::memcpy(out, blob_.data() + pos_, size);
    pos_ += size;
  }

  template <class T>
  T get_le() {
    unsigned char in[sizeof(T)] = {};
    read(in, sizeof(T));
    T value = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      value |= static_cast<T>(in[i]) << (8 * i);
    }
    return value;
  }

  std::string_view blob_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace osched::service
