// Versioned, checksummed binary snapshots of estimator state.
//
// The paper's lower bounds (Section 5.1, after Assadi–Kol–Saxena–Yu) equate
// the state an algorithm retains at a pass or player boundary with a one-way
// communication message. This module makes that measurement literal: every
// estimator serializes its complete working state into a flat byte envelope,
// and the envelope's size *is* the message size the protocol simulation
// reports. The same bytes double as crash-recovery checkpoints — the driver
// snapshots at adjacency-list boundaries and resumes a fresh instance from
// the last good snapshot (stream/driver.h, tests/chaos_recovery_test.cc).
//
// Envelope layout (all integers little-endian):
//
//   offset  size  field
//   0       8     magic  "CYSNAPSH"
//   8       4     format version (kSnapshotVersion when written)
//   12      8     payload length in bytes
//   20      N     payload
//   20+N    4     CRC-32 (IEEE) over bytes [0, 20+N)
//
// Writers always stamp kSnapshotVersion. Readers accept every version from
// kOldestReadableVersion up to it and report which one they opened, so a
// layout that changes keeps decoding the older bytes (snapshot/codec.h).
// Version 2 dropped the two-pass triangle counter's triangle-edge map.
// Version 3 dropped the edge-stream contract's hash-set bucket count and its
// pass-0 record's capacity (the contract marks edges by CSR slot). Version 4
// added the wedge sampler's skip state after its wedge count: the reservoir
// threshold W (a double's bits, as a u64) and the 1-based index of the next
// wedge to admit. An older wedge checkpoint has neither, so its restore
// draws W from its exact law (the k-th smallest of N uniforms) with the
// restored generator, then the next index; it resumes with the same law,
// not the same draws. The sampler draws through std::log, std::exp, log1p
// and expm1, so the wedge checkpoints and digests tests/golden pins assume
// one libm: glibc's, which CI uses. Version 5 dropped the touched-list
// capacity after the last watch index of the one-pass triangle and 4-cycle
// counters, the distinguisher and the two-pass 4-cycle counter (they count
// completions as marks land). Version 6 keeps version 5's layout: the
// bottom-k sampler's member table changed, and with it the space the
// estimators built on it report, so a driver checkpoint's run report
// carries other peaks than a version-5 build's. Version 7 replaced the
// exact-stream counter's per-edge map, its bucket count and its current
// list's capacity by its stored lists: each vertex, a pending bit and its
// sorted neighbours; an older checkpoint's map is read into pending lists
// (core/exact_stream.h). Version 8 replaced every watch index's node map
// by a flat table (core/watch_index.h) and keeps its shape: the word
// before the lists is the table size, not a bucket count, and each list's
// capacity is the table's own, both checked on load (an older checkpoint's
// are read and dropped). Every other layout is the same in all eight.
//
// Corruption classes map to typed Status codes, checked in this order when a
// reader is opened: short/overlong buffer and truncated payload →
// kDataLoss; bad magic → kInvalidArgument; unsupported version →
// kFailedPrecondition; checksum mismatch (bit flips anywhere) → kDataLoss.
// A failed open never yields a reader, so restore paths cannot consume
// corrupt bytes and produce a wrong estimate.
//
// Reads are additionally bounds-checked ("poisoned reader"): a read past the
// declared payload marks the reader failed, every subsequent read returns
// zero, and `status()` reports kDataLoss. Restore implementations decode
// through snapshot::Loader (codec.h) and return its status, so a
// structurally short payload (possible only through a writer/reader
// version skew, since the CRC already vouches for the bytes) surfaces as an
// error instead of garbage state.

#ifndef CYCLESTREAM_SNAPSHOT_SNAPSHOT_H_
#define CYCLESTREAM_SNAPSHOT_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace cyclestream {
namespace snapshot {

/// The envelope format version writers stamp. Bump on any layout change,
/// and keep the older layout's decoder in the `Fields` that changed.
inline constexpr std::uint32_t kSnapshotVersion = 8;

/// The oldest version readers accept; versions outside
/// [kOldestReadableVersion, kSnapshotVersion] are kFailedPrecondition.
inline constexpr std::uint32_t kOldestReadableVersion = 1;

/// Envelope overhead in bytes (magic + version + length + CRC).
inline constexpr std::size_t kEnvelopeBytes = 8 + 4 + 8 + 4;

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `data`, seeded per the
/// standard so that CRC("") == 0. Exposed for tests.
std::uint32_t Crc32(std::span<const std::uint8_t> data);

/// Accumulates a snapshot payload and seals it into an envelope. Writing
/// cannot fail (memory buffer); `Finish()` stamps magic, version, length and
/// checksum. A writer is single-use.
class SnapshotWriter {
 public:
  SnapshotWriter();

  void WriteU8(std::uint8_t value);
  void WriteU32(std::uint32_t value);
  void WriteU64(std::uint64_t value);
  /// IEEE-754 bit pattern; round-trips doubles exactly.
  void WriteDouble(double value);
  void WriteBool(bool value) { WriteU8(value ? 1 : 0); }
  /// Length-prefixed byte string.
  void WriteBytes(std::span<const std::uint8_t> bytes);
  void WriteString(const std::string& s);

  /// Payload bytes written so far (envelope overhead not included).
  std::size_t payload_size() const { return buffer_.size() - kHeaderBytes; }

  /// Seals the envelope and returns the snapshot. The writer must not be
  /// used afterwards.
  std::vector<std::uint8_t> Finish() &&;

 private:
  static constexpr std::size_t kHeaderBytes = 8 + 4 + 8;
  std::vector<std::uint8_t> buffer_;  // header placeholder + payload
};

/// Validates and decodes a snapshot envelope. `Open` performs the full
/// integrity check (magic, version, length, CRC) before any field is read;
/// the returned reader then serves bounds-checked sequential reads.
class SnapshotReader {
 public:
  /// Validates `bytes` and returns a reader over the payload, or the typed
  /// error describing the corruption (see file comment for the mapping).
  /// `bytes` must outlive the reader.
  static StatusOr<SnapshotReader> Open(std::span<const std::uint8_t> bytes);

  std::uint8_t ReadU8();
  std::uint32_t ReadU32();
  std::uint64_t ReadU64();
  double ReadDouble();
  bool ReadBool() { return ReadU8() != 0; }
  /// Length-prefixed byte string (inverse of WriteBytes).
  std::vector<std::uint8_t> ReadBytesVec();
  std::string ReadString();

  /// The format version the envelope was written with.
  std::uint32_t version() const { return version_; }

  /// The pass a driver checkpoint's run cursor names. Once the driver sets
  /// it, every pass field read after it must name the same pass
  /// (snapshot::Loader::Pass); unset, a pass field need only be in range.
  void set_cursor_pass(int pass) { cursor_pass_ = pass; }
  std::optional<int> cursor_pass() const { return cursor_pass_; }

  /// Bytes of payload not yet consumed.
  std::size_t remaining() const { return payload_.size() - pos_; }

  /// OK while every read so far was in bounds; kDataLoss once any read ran
  /// past the payload. Restore implementations return this.
  const Status& status() const { return status_; }

  /// Convenience: `status()`, or kDataLoss if payload bytes were left over
  /// (a layout mismatch as surely as running short).
  Status Final() const;

 private:
  SnapshotReader(std::span<const std::uint8_t> payload, std::uint32_t version)
      : payload_(payload), version_(version) {}

  // Takes `n` bytes, or poisons the reader and returns nullptr.
  const std::uint8_t* Take(std::size_t n);

  std::span<const std::uint8_t> payload_;
  std::uint32_t version_;
  std::size_t pos_ = 0;
  Status status_;
  std::optional<int> cursor_pass_;
};

}  // namespace snapshot
}  // namespace cyclestream

#endif  // CYCLESTREAM_SNAPSHOT_SNAPSHOT_H_
