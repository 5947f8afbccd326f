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
//   checksum   u64      checkpoint_checksum of every preceding byte
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

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace osched::service {

// The codec copies integers and doubles to and from the wire as raw host
// words, which is the little-endian encoding only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the checkpoint wire is little-endian");

inline constexpr char kSessionCheckpointMagic[8] = {'O', 'S', 'C', 'K',
                                                    'P', 'T', '0', '1'};
inline constexpr char kDriverCheckpointMagic[8] = {'O', 'S', 'C', 'K',
                                                   'P', 'D', '0', '1'};
/// The one wire version this build writes and reads; restore refuses every
/// other version (older blobs included) with a diagnostic.
inline constexpr std::uint32_t kCheckpointVersion = 5;

/// The checkpoint trailer's checksum. Every step is the xxHash64-style
/// round step(h, w) = rotl((h ^ w) * P, 31) * P. Four lanes run it over the
/// 8-byte little-endian words of each whole 32-byte stripe (word k of a
/// stripe feeds lane k; lane k starts at kChecksumSeed + k). The lanes fold
/// into lane 0 with the same step, in lane order; then the size % 32 tail
/// bytes go through the step one byte at a time, and last the byte length.
/// Each step is a bijection of the state for a fixed input, so changing any
/// single word or tail byte always changes the result; the rotation feeds
/// high product bits back into the low ones, so flips of the same high bit
/// in two words do not cancel. The four lanes are independent multiply
/// chains, so the hash runs at memory bandwidth rather than one multiply
/// latency per byte.
inline constexpr std::uint64_t kChecksumSeed = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kChecksumPrime = 0x9e3779b97f4a7c15ULL;

inline std::uint64_t checkpoint_checksum(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const auto step = [](std::uint64_t h, std::uint64_t w) {
    return std::rotl((h ^ w) * kChecksumPrime, 31) * kChecksumPrime;
  };
  std::uint64_t lane[4] = {kChecksumSeed, kChecksumSeed + 1,
                           kChecksumSeed + 2, kChecksumSeed + 3};
  std::size_t at = 0;
  for (; size - at >= sizeof(lane); at += sizeof(lane)) {
    for (std::size_t k = 0; k < 4; ++k) {
      std::uint64_t word;
      std::memcpy(&word, bytes + at + k * sizeof(word), sizeof(word));
      lane[k] = step(lane[k], word);
    }
  }
  std::uint64_t hash = lane[0];
  for (std::size_t k = 1; k < 4; ++k) hash = step(hash, lane[k]);
  for (; at < size; ++at) hash = step(hash, bytes[at]);
  return step(hash, size);
}

/// Append-only little-endian encoder. finish() seals the blob with the
/// checksum trailer; the writer is spent afterwards.
class CheckpointWriter {
 public:
  /// Pre-sizes the buffer for a blob of `total` bytes, trailer included.
  void reserve(std::size_t total) { buffer_.reserve(total); }
  std::size_t size() const { return buffer_.size(); }

  void bytes(const void* data, std::size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }
  void u8(std::uint8_t value) { bytes(&value, 1); }
  void u32(std::uint32_t value) { bytes(&value, sizeof(value)); }
  void u64(std::uint64_t value) { bytes(&value, sizeof(value)); }
  void f64(double value) { bytes(&value, sizeof(value)); }
  /// `count` doubles in one copy (a dense journal row).
  void f64s(const double* values, std::size_t count) {
    bytes(values, count * sizeof(double));
  }

  std::string finish() {
    u64(checkpoint_checksum(buffer_.data(), buffer_.size()));
    return std::move(buffer_);
  }

 private:
  std::string buffer_;
};

/// Bounds-checked decoder over a sealed blob. Every read either succeeds or
/// latches a failure (ok() == false, error() says why) and returns zero;
/// callers may batch reads and check once. open() front-loads the
/// whole-blob integrity checks.
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
    std::uint64_t stored;
    std::memcpy(&stored, blob_.data() + body, sizeof(stored));
    if (stored != checkpoint_checksum(blob_.data(), body)) {
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

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  double f64() { return get<double>(); }
  /// `count` doubles in one copy behind one bounds check (a dense row).
  void f64s(double* out, std::size_t count) {
    read(out, count * sizeof(double));
  }
  /// The next `size` bytes in place, without copying (a nested blob); empty
  /// on failure. The view aliases the blob this reader was opened on.
  std::string_view view(std::size_t size) {
    if (ok() && remaining() < size) {
      fail("checkpoint truncated: field extends past the blob");
    }
    if (!ok()) return {};
    const std::string_view out(blob_.data() + pos_, size);
    pos_ += size;
    return out;
  }

 private:
  void read(void* out, std::size_t size) {
    const std::string_view in = view(size);
    if (ok()) {
      std::memcpy(out, in.data(), size);
    } else {
      std::memset(out, 0, size);
    }
  }

  template <class T>
  T get() {
    T value;
    read(&value, sizeof(value));
    return value;
  }

  std::string_view blob_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace osched::service
