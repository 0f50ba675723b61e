// Checkpoint layouts, each written once.
//
// A type that checkpoints describes its layout in one function,
//
//   static void Fields(auto& self, auto& ar);
//
// and its Serialize and Restore run that function over a Saver and over a
// Loader:
//
//   void X::Serialize(snapshot::SnapshotWriter& w) const {
//     snapshot::Saver ar(w);
//     Fields(*this, ar);
//   }
//   Status X::Restore(snapshot::SnapshotReader& r) {
//     snapshot::Loader ar(r);
//     Fields(*this, ar);
//     return ar.status();
//   }
//
// The two archives have the same methods, one per field shape of the
// format, and each takes the field itself: a Saver writes it, a Loader
// overwrites it from the bytes. `self` is const on save. Callbacks
// take the archive as a parameter (`elem(ar, e)`, `value(ar, v)`) and are
// generic lambdas, so a Saver, which never calls `make`/`slot`, never
// instantiates a body that mutates `self`. Derived state stays out of the
// bytes: `make(key)` and `slot(key)` build what a key implies (endpoints,
// domain-bound containers), and one `if constexpr (ar.kLoading)` branch
// recomputes the rest.
//
// A Saver writes the current version (kSnapshotVersion, snapshot.h). A
// Loader reports the version it reads, and a layout that changed decodes
// the older bytes behind `if constexpr (ar.kLoading)` on `ar.version()`:
// it reads the fields the newer layout dropped and discards them. A single
// dropped u64 is one call, `ar.Dropped(N)`, which only a Loader of a
// version before N reads. Both archives report their version, so a field a
// version added is written and read under one `if (ar.version() >= N)`.
//
// A Loader stops at its first error and keeps it; every later call is a
// no-op that reads no bytes. Its errors:
//   - kDataLoss: the payload runs short (the reader's poison, snapshot.h),
//     a count exceeds what the rest of the payload could hold, a map, set
//     or marks key is not above the key before it, a marks key names no
//     slot, a Table names more entries than its table holds, a generator
//     state is all zeros, or a decoded state fails a layout's Require;
//   - kFailedPrecondition: an Option differs from the restoring instance's
//     value, or a Pass field exceeds the pass count or, in a driver
//     checkpoint, names another pass than the run cursor's;
//   - whatever a Nested section's Restore returns.
// Restore returns `ar.status()`; after an error the instance is discarded.
//
// Container geometry. The bit-identity contract (stream/algorithm.h) makes
// a restore rebuild not just content but the allocation geometry space
// accounting observes: vector capacities are stored and re-reserved exactly
// (a fresh vector's reserve(n) allocates exactly n), and hash-table bucket
// counts are stored and re-established with rehash (libstdc++ rehash(b)
// lands on exactly b when b came from the same prime table, which it did:
// it is the source table's own bucket count). Hash containers store their
// entries in ascending key order, so the encoding is a pure function of
// content and a restored table re-encodes to the same bytes. A set kept as
// marks (Marks) and a table sized by its owner's configuration (Table)
// carry no geometry at all: their entries alone. Which geometry the format
// carries is decided here, not in the layouts.

#ifndef CYCLESTREAM_SNAPSHOT_CODEC_H_
#define CYCLESTREAM_SNAPSHOT_CODEC_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "snapshot/snapshot.h"
#include "util/check.h"
#include "util/random.h"
#include "util/status.h"

namespace cyclestream {
namespace snapshot {

/// Writes fields into a snapshot payload.
class Saver {
 public:
  static constexpr bool kLoading = false;

  explicit Saver(SnapshotWriter& w) : w_(w) {}

  /// The format version written: always the current one.
  static constexpr std::uint32_t version() { return kSnapshotVersion; }

  /// Integers and enums, stored at the named width.
  void U8(auto value) { w_.WriteU8(static_cast<std::uint8_t>(value)); }
  void U32(auto value) { w_.WriteU32(static_cast<std::uint32_t>(value)); }
  void U64(auto value) { w_.WriteU64(static_cast<std::uint64_t>(value)); }
  void Bool(bool value) { w_.WriteBool(value); }
  void String(const std::string& s) { w_.WriteString(s); }
  void Bytes(std::span<const std::uint8_t> bytes) { w_.WriteBytes(bytes); }

  /// A value the restoring instance must already share (an option, a seed,
  /// a graph shape), stored at its own width: bool, double or integer.
  template <typename T>
  void Option(const T& value, const char* /*name*/) {
    Scalar(value);
  }

  /// A pass cursor in [-1, passes], stored as pass + 1.
  void Pass(int pass, int /*passes*/) { U64(pass + 1); }

  /// A vector: size, capacity, then `elem(ar, e)` per element, or each
  /// element at its own width when `elem` is omitted.
  template <typename V, typename Elem>
  void Vec(const V& v, Elem&& elem) {
    U64(v.size());
    U64(v.capacity());
    for (const auto& e : v) elem(*this, e);
  }
  template <typename V>
  void Vec(const V& v) {
    Vec(v, [](Saver& ar, const auto& e) { ar.Scalar(e); });
  }

  /// A vector's size alone; the layout archives its elements itself. On
  /// load each element must take at least `min_bytes` of the payload.
  template <typename V>
  void Size(const V& v, std::size_t /*min_bytes*/) {
    U64(v.size());
  }

  /// A count of entries the layout archives itself, one by one. On load
  /// each entry must take at least `min_bytes` of the payload.
  void Count(std::uint64_t count, std::size_t /*min_bytes*/) { U64(count); }

  /// A scratch vector, empty at every list boundary: its capacity alone.
  template <typename V>
  void Scratch(const V& v) {
    CYCLESTREAM_CHECK(v.empty());
    Capacity(v);
  }

  /// A vector whose contents are dead at list boundaries: its capacity.
  template <typename V>
  void Capacity(const V& v) {
    U64(v.capacity());
  }

  /// A hash table's bucket count.
  template <typename HashTable>
  void Buckets(const HashTable& table) {
    U64(table.bucket_count());
  }

  /// A u64 that versions before `until` wrote: nothing.
  void Dropped(std::uint32_t /*until*/) {}

  /// A hash map: a count, then each key and `value(ar, v)` in ascending
  /// key order. On load `slot(key)` returns the entry to fill.
  template <typename M, typename Slot, typename Value>
  void Map(const M& map, Slot&& /*slot*/, Value&& value) {
    std::vector<typename M::key_type> keys;
    keys.reserve(map.size());
    for (const auto& entry : map) keys.push_back(entry.first);
    std::sort(keys.begin(), keys.end());
    U64(keys.size());
    for (const auto& key : keys) {
      Scalar(key);
      value(*this, map.find(key)->second);
    }
  }

  /// A map a layout keeps in its own arrays rather than a std container:
  /// Map's bytes. `entries()` returns its (key, value pointer) pairs in
  /// ascending key order. On load `slot(key)` returns a pointer to the
  /// entry to fill, or null when the table has no room for the key (it is
  /// full, or the key is one it cannot hold), which is kDataLoss; the count
  /// sizes nothing.
  template <typename Entries, typename Slot, typename Value>
  void Table(Entries&& entries, Slot&& /*slot*/, Value&& value) {
    const auto sorted = entries();
    U64(sorted.size());
    for (const auto& [key, entry] : sorted) {
      Scalar(key);
      value(*this, *entry);
    }
  }

  /// A hash set: a count, then its elements in ascending order.
  template <typename S>
  void Set(const S& set) {
    std::vector<typename S::key_type> keys(set.begin(), set.end());
    std::sort(keys.begin(), keys.end());
    U64(keys.size());
    for (const auto& key : keys) Scalar(key);
  }

  /// A set kept as marks (a bitmap over slots) instead of a table: Set's
  /// bytes. `keys()` returns the marked keys in ascending order; on load
  /// `mark(key)` marks each one and returns false for a key with no slot.
  template <typename Keys, typename Mark>
  void Marks(Keys&& keys, Mark&& /*mark*/) {
    const auto sorted = keys();
    U64(sorted.size());
    for (const auto& key : sorted) Scalar(key);
  }

  /// A generator's four state words.
  void Rng(const cyclestream::Rng& rng) {
    std::uint64_t state[4];
    rng.GetState(state);
    for (std::uint64_t word : state) U64(word);
  }

  /// A section with its own Serialize/Restore (a copy, a contract, an
  /// algorithm behind a base pointer).
  template <typename T>
  void Nested(const T& section) {
    section.Serialize(w_);
  }

 private:
  template <typename T>
  void Scalar(const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      Bool(value);
    } else if constexpr (std::is_floating_point_v<T>) {
      w_.WriteDouble(value);
    } else if constexpr (sizeof(T) == 1) {
      U8(value);
    } else if constexpr (sizeof(T) == 4) {
      U32(value);
    } else {
      static_assert(sizeof(T) == 8);
      U64(value);
    }
  }

  SnapshotWriter& w_;
};

/// Reads fields back from a snapshot payload, stopping at the first error.
class Loader {
 public:
  static constexpr bool kLoading = true;

  explicit Loader(SnapshotReader& r) : r_(r) {}

  /// True until the first error.
  bool ok() const { return status_.ok() && r_.status().ok(); }

  /// The first error, or OK.
  const Status& status() const { return status_.ok() ? r_.status() : status_; }

  /// The format version of the payload being read.
  std::uint32_t version() const { return r_.version(); }

  template <typename T>
  void U8(T& value) {
    if (ok()) value = static_cast<T>(r_.ReadU8());
  }
  template <typename T>
  void U32(T& value) {
    if (ok()) value = static_cast<T>(r_.ReadU32());
  }
  template <typename T>
  void U64(T& value) {
    if (ok()) value = static_cast<T>(r_.ReadU64());
  }
  void Bool(bool& value) {
    if (ok()) value = r_.ReadBool();
  }
  void String(std::string& s) {
    if (ok()) s = r_.ReadString();
  }
  void Bytes(std::vector<std::uint8_t>& bytes) {
    if (ok()) bytes = r_.ReadBytesVec();
  }

  template <typename T>
  void Option(const T& value, const char* name) {
    T stored{};
    Scalar(stored);
    if (ok() && stored != value) {
      status_ = Status::FailedPrecondition(
          std::string("snapshot option '") + name +
          "' differs from the restoring instance's");
    }
  }

  /// Inside a driver checkpoint, whose reader carries the run cursor's
  /// pass, the field must name that pass; elsewhere it must be in range.
  void Pass(int& pass, int passes) {
    std::uint64_t field = 0;
    U64(field);
    if (!ok()) return;
    // Checked before the subtraction: the field is read from bytes.
    if (field > static_cast<std::uint64_t>(passes)) {
      status_ = Status::FailedPrecondition(
          "snapshot pass field " + std::to_string(field) + " exceeds " +
          std::to_string(passes) + " passes");
      return;
    }
    const std::optional<int> cursor = r_.cursor_pass();
    if (cursor.has_value() &&
        field != static_cast<std::uint64_t>(*cursor) + 1) {
      status_ = Status::FailedPrecondition(
          "snapshot pass field " + std::to_string(field) +
          " is not the run cursor's pass " + std::to_string(*cursor));
      return;
    }
    pass = static_cast<int>(field) - 1;
  }

  /// A condition the state decoded so far must meet, which the CRC cannot
  /// vouch for (a threshold inside its interval, a size its count
  /// implies). A state it refuses is kDataLoss. Loading only: call it under
  /// `if constexpr (ar.kLoading)`.
  void Require(bool holds, const char* what) {
    if (ok() && !holds) {
      status_ = Status::DataLoss(std::string("snapshot ") + what);
    }
  }

  /// Into an empty vector (allocator already bound).
  template <typename V, typename Elem>
  void Vec(V& v, Elem&& elem) {
    CYCLESTREAM_CHECK(v.empty());
    const std::uint64_t size = ReadCount(1);
    std::uint64_t capacity = 0;
    U64(capacity);
    if (!ok()) return;
    v.reserve(capacity);
    for (std::uint64_t i = 0; i < size && ok(); ++i) {
      typename V::value_type e{};
      elem(*this, e);
      if (ok()) v.push_back(std::move(e));
    }
  }
  template <typename V>
  void Vec(V& v) {
    Vec(v, [](Loader& ar, auto& e) { ar.Scalar(e); });
  }

  template <typename V>
  void Size(V& v, std::size_t min_bytes) {
    const std::uint64_t size = ReadCount(min_bytes);
    if (ok()) v.resize(size);
  }

  template <typename T>
  void Count(T& count, std::size_t min_bytes) {
    count = static_cast<T>(ReadCount(min_bytes));
  }

  template <typename V>
  void Scratch(V& v) {
    Capacity(v);
  }

  template <typename V>
  void Capacity(V& v) {
    std::uint64_t capacity = 0;
    U64(capacity);
    if (ok()) v.reserve(capacity);
  }

  /// Skips the rehash when the table already sits at the stored count:
  /// rehash(1) on a never-used libstdc++ table would allocate a bucket
  /// array the original (still on its static single bucket) never had.
  template <typename HashTable>
  void Buckets(HashTable& table) {
    std::uint64_t buckets = 0;
    U64(buckets);
    if (ok() && buckets != table.bucket_count()) table.rehash(buckets);
  }

  /// Reads the u64 and discards it when the payload is older than
  /// `until`; nothing is sized from it.
  void Dropped(std::uint32_t until) {
    std::uint64_t unused = 0;
    if (version() < until) U64(unused);
  }

  /// Into an empty map.
  template <typename M, typename Slot, typename Value>
  void Map(M& map, Slot&& slot, Value&& value) {
    CYCLESTREAM_CHECK(map.empty());
    const std::uint64_t count = ReadCount(ScalarBytes<typename M::key_type>());
    Grow(map, count);
    typename M::key_type key{};
    for (std::uint64_t i = 0; i < count && Key(key, i); ++i) {
      value(*this, slot(key));
    }
  }

  /// Into an empty table. A key `slot` finds no room for is kDataLoss.
  template <typename Entries, typename Slot, typename Value>
  void Table(Entries&& /*entries*/, Slot&& slot, Value&& value) {
    using K = typename std::invoke_result_t<Entries&>::value_type::first_type;
    const std::uint64_t count = ReadCount(ScalarBytes<K>());
    K key{};
    for (std::uint64_t i = 0; i < count && Key(key, i); ++i) {
      auto* entry = slot(key);
      if (entry == nullptr) {
        status_ = Status::DataLoss("snapshot names " + std::to_string(count) +
                                   " entries for a table with no room for"
                                   " entry " + std::to_string(i));
        return;
      }
      value(*this, *entry);
    }
  }

  /// Into an empty set.
  template <typename S>
  void Set(S& set) {
    CYCLESTREAM_CHECK(set.empty());
    const std::uint64_t count = ReadCount(ScalarBytes<typename S::key_type>());
    Grow(set, count);
    typename S::key_type key{};
    for (std::uint64_t i = 0; i < count && Key(key, i); ++i) set.insert(key);
  }

  /// A key `mark` refuses is kDataLoss.
  template <typename Keys, typename Mark>
  void Marks(Keys&& /*keys*/, Mark&& mark) {
    using K = typename std::invoke_result_t<Keys&>::value_type;
    const std::uint64_t count = ReadCount(ScalarBytes<K>());
    K key{};
    for (std::uint64_t i = 0; i < count && Key(key, i); ++i) {
      if (!mark(key)) {
        status_ = Status::DataLoss("snapshot key " + std::to_string(key) +
                                   " names no slot");
      }
    }
  }

  /// All-zero words are kDataLoss: no seeded generator reaches that state,
  /// and Rng::SetState would abort on it.
  void Rng(cyclestream::Rng& rng) {
    std::uint64_t state[4] = {0, 0, 0, 0};
    for (std::uint64_t& word : state) U64(word);
    if (!ok()) return;
    if ((state[0] | state[1] | state[2] | state[3]) == 0) {
      status_ = Status::DataLoss("snapshot generator state is all zeros");
      return;
    }
    rng.SetState(state);
  }

  template <typename T>
  void Nested(T& section) {
    if (!ok()) return;
    Status status = section.Restore(r_);
    if (!status.ok()) status_ = std::move(status);
  }

 private:
  template <typename T>
  static constexpr std::size_t ScalarBytes() {
    return std::is_same_v<T, bool> ? 1 : sizeof(T);
  }

  template <typename T>
  void Scalar(T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      Bool(value);
    } else if constexpr (std::is_floating_point_v<T>) {
      if (ok()) value = r_.ReadDouble();
    } else if constexpr (sizeof(T) == 1) {
      U8(value);
    } else if constexpr (sizeof(T) == 4) {
      U32(value);
    } else {
      static_assert(sizeof(T) == 8);
      U64(value);
    }
  }

  // Reads the `index`-th key of a map or set section over `key`, which holds
  // the key before it. The Saver writes keys strictly ascending, so a key
  // not above the previous one is corruption the CRC let through (a second
  // entry for one key would reach a filled slot): kDataLoss, before the key
  // is used. False once the archive has failed.
  template <typename K>
  bool Key(K& key, std::uint64_t index) {
    const K previous = key;
    Scalar(key);
    if (ok() && index > 0 && !(previous < key)) {
      status_ = Status::DataLoss("snapshot key " + std::to_string(key) +
                                 " is not above the key before it");
    }
    return ok();
  }

  // Before `count` inserts, sizes a table too small to hold them with one
  // reserve() instead of letting the inserts grow it step by step. Every
  // table a layout restores into is sized by then, by a Buckets before its
  // entries, and is left alone; in a valid checkpoint this sizes only a
  // table a decoder reads and drops (version 1's triangle-edge map).
  template <typename HashTable>
  static void Grow(HashTable& table, std::uint64_t count) {
    if (count > table.bucket_count() * table.max_load_factor()) {
      table.reserve(count);
    }
  }

  // A count of entries taking at least `min_bytes` each. The CRC vouches
  // for the bytes, not for the counts inside them, so one the rest of the
  // payload cannot hold is kDataLoss before anything is sized by it.
  std::uint64_t ReadCount(std::size_t min_bytes) {
    std::uint64_t count = 0;
    U64(count);
    if (ok() && count > r_.remaining() / min_bytes) {
      status_ = Status::DataLoss(
          "snapshot claims " + std::to_string(count) + " entries but holds " +
          std::to_string(r_.remaining()) + " bytes");
    }
    return ok() ? count : 0;
  }

  SnapshotReader& r_;
  Status status_;
};

}  // namespace snapshot
}  // namespace cyclestream

#endif  // CYCLESTREAM_SNAPSHOT_CODEC_H_
