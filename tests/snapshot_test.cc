// The snapshot envelope layer: primitive round-trips, CRC vectors, and —
// the part the chaos harness leans on — every corruption class mapping to
// its typed Status code, never to a successfully-opened reader.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "test_util.h"
#include "util/random.h"
#include "util/status.h"

namespace cyclestream {
namespace snapshot {
namespace {

std::vector<std::uint8_t> SampleEnvelope() {
  SnapshotWriter w;
  w.WriteU8(0x5a);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefULL);
  w.WriteDouble(-2.5);
  w.WriteBool(true);
  w.WriteString("adjacency");
  return std::move(w).Finish();
}

TEST(Snapshot, PrimitivesRoundTrip) {
  std::vector<std::uint8_t> bytes = SampleEnvelope();
  StatusOr<SnapshotReader> r = SnapshotReader::Open(bytes);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r->ReadU8(), 0x5a);
  EXPECT_EQ(r->ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(r->ReadU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r->ReadDouble(), -2.5);
  EXPECT_TRUE(r->ReadBool());
  EXPECT_EQ(r->ReadString(), "adjacency");
  EXPECT_EQ(r->remaining(), 0u);
  EXPECT_TRUE(r->Final().ok());
}

TEST(Snapshot, DoubleRoundTripsBitExactly) {
  const double values[] = {0.0, -0.0, 1.0 / 3.0, 1e-300, -1e300, 6.02e23};
  SnapshotWriter w;
  for (double v : values) w.WriteDouble(v);
  std::vector<std::uint8_t> bytes = std::move(w).Finish();
  StatusOr<SnapshotReader> r = SnapshotReader::Open(bytes);
  ASSERT_TRUE(r.ok());
  for (double v : values) {
    double got = r->ReadDouble();
    EXPECT_EQ(std::memcmp(&got, &v, sizeof v), 0);
  }
}

TEST(Snapshot, BytesRoundTrip) {
  std::vector<std::uint8_t> blob = {0, 255, 7, 7, 0};
  SnapshotWriter w;
  w.WriteBytes(blob);
  w.WriteBytes({});  // empty is legal
  std::vector<std::uint8_t> bytes = std::move(w).Finish();
  StatusOr<SnapshotReader> r = SnapshotReader::Open(bytes);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ReadBytesVec(), blob);
  EXPECT_TRUE(r->ReadBytesVec().empty());
  EXPECT_TRUE(r->Final().ok());
}

TEST(Snapshot, EmptyPayloadEnvelopeIsValid) {
  SnapshotWriter w;
  EXPECT_EQ(w.payload_size(), 0u);
  std::vector<std::uint8_t> bytes = std::move(w).Finish();
  EXPECT_EQ(bytes.size(), kEnvelopeBytes);
  StatusOr<SnapshotReader> r = SnapshotReader::Open(bytes);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->remaining(), 0u);
  EXPECT_TRUE(r->Final().ok());
}

TEST(Snapshot, Crc32KnownVectors) {
  // Standard IEEE CRC-32 check values.
  EXPECT_EQ(Crc32({}), 0u);
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(check), 0xcbf43926u);
  const std::uint8_t a[] = {'a'};
  EXPECT_EQ(Crc32(a), 0xe8b7be43u);
}

// --- Corruption classes. Each must be a typed open failure. ---

TEST(SnapshotCorruption, TruncatedBufferIsDataLoss) {
  std::vector<std::uint8_t> bytes = SampleEnvelope();
  for (std::size_t keep : {0u, 1u, 8u, 19u, 23u}) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    StatusOr<SnapshotReader> r = SnapshotReader::Open(cut);
    ASSERT_FALSE(r.ok()) << "kept " << keep;
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << "kept " << keep;
  }
  // Mid-payload cuts too (length field no longer matches the buffer).
  std::vector<std::uint8_t> cut(bytes.begin(), bytes.end() - 5);
  StatusOr<SnapshotReader> r = SnapshotReader::Open(cut);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotCorruption, TrailingGarbageIsDataLoss) {
  std::vector<std::uint8_t> bytes = SampleEnvelope();
  bytes.push_back(0xcc);
  StatusOr<SnapshotReader> r = SnapshotReader::Open(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotCorruption, BadMagicIsInvalidArgument) {
  std::vector<std::uint8_t> bytes = SampleEnvelope();
  bytes[0] ^= 0xff;
  StatusOr<SnapshotReader> r = SnapshotReader::Open(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Snapshot, OpensEveryReadableVersionAndReportsIt) {
  ASSERT_EQ(kOldestReadableVersion, 1u);
  ASSERT_EQ(kSnapshotVersion, 8u);
  for (const std::uint32_t version : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    std::vector<std::uint8_t> bytes = SampleEnvelope();
    testing_util::Restamp(bytes, version);
    StatusOr<SnapshotReader> r = SnapshotReader::Open(bytes);
    ASSERT_TRUE(r.ok()) << "version " << version;
    EXPECT_EQ(r->version(), version);
    EXPECT_EQ(r->ReadU8(), 0x5a);
  }
}

TEST(SnapshotCorruption, WrongVersionIsFailedPrecondition) {
  // One below the oldest readable version and one above the current one,
  // each under a valid CRC.
  for (const std::uint32_t version : {0u, kSnapshotVersion + 1}) {
    std::vector<std::uint8_t> bytes = SampleEnvelope();
    testing_util::Restamp(bytes, version);
    StatusOr<SnapshotReader> r = SnapshotReader::Open(bytes);
    ASSERT_FALSE(r.ok()) << "version " << version;
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(SnapshotCorruption, EveryPayloadBitFlipIsCaught) {
  std::vector<std::uint8_t> bytes = SampleEnvelope();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::vector<std::uint8_t> flipped = bytes;
      flipped[i] ^= static_cast<std::uint8_t>(1u << bit);
      StatusOr<SnapshotReader> r = SnapshotReader::Open(flipped);
      EXPECT_FALSE(r.ok()) << "byte " << i << " bit " << bit;
    }
  }
}

TEST(SnapshotCorruption, ChecksumMismatchIsDataLoss) {
  std::vector<std::uint8_t> bytes = SampleEnvelope();
  bytes[kEnvelopeBytes - 2] ^= 0x01;  // flip a CRC byte directly
  StatusOr<SnapshotReader> r = SnapshotReader::Open(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

// --- Poisoned-reader semantics (layout skew within a valid envelope). ---

TEST(SnapshotReaderTest, ReadPastPayloadPoisonsAndReturnsZero) {
  SnapshotWriter w;
  w.WriteU32(41);
  std::vector<std::uint8_t> bytes = std::move(w).Finish();
  StatusOr<SnapshotReader> r = SnapshotReader::Open(bytes);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ReadU32(), 41u);
  EXPECT_EQ(r->ReadU64(), 0u);  // past the end
  EXPECT_EQ(r->status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(r->ReadU32(), 0u);  // stays poisoned
  EXPECT_FALSE(r->Final().ok());
}

TEST(SnapshotReaderTest, LeftoverBytesFailFinal) {
  SnapshotWriter w;
  w.WriteU64(1);
  w.WriteU64(2);
  std::vector<std::uint8_t> bytes = std::move(w).Finish();
  StatusOr<SnapshotReader> r = SnapshotReader::Open(bytes);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ReadU64(), 1u);
  EXPECT_TRUE(r->status().ok());  // reads so far are fine
  EXPECT_EQ(r->Final().code(), StatusCode::kDataLoss);  // 8 bytes unread
}

TEST(SnapshotReaderTest, OversizedStringLengthIsCaught) {
  // A length prefix larger than the remaining payload must poison, not
  // allocate or read out of bounds.
  SnapshotWriter w;
  w.WriteU64(1u << 20);  // claims a 1 MiB string
  std::vector<std::uint8_t> bytes = std::move(w).Finish();
  StatusOr<SnapshotReader> r = SnapshotReader::Open(bytes);
  ASSERT_TRUE(r.ok());
  std::string s = r->ReadString();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(r->status().code(), StatusCode::kDataLoss);
}

TEST(Snapshot, PayloadSizeMatchesEnvelope) {
  SnapshotWriter w;
  w.WriteU64(7);
  w.WriteString("xy");
  const std::size_t payload = w.payload_size();
  EXPECT_EQ(payload, 8u + 8u + 2u);
  std::vector<std::uint8_t> bytes = std::move(w).Finish();
  EXPECT_EQ(bytes.size(), payload + kEnvelopeBytes);
}

// --- The archive (snapshot/codec.h): one layout, written once. ---

// A section with its own Serialize/Restore, archived through Nested.
struct ArchiveSection {
  std::uint64_t value = 0;

  static void Fields(auto& self, auto& ar) { ar.U64(self.value); }
  void Serialize(SnapshotWriter& w) const {
    Saver ar(w);
    Fields(*this, ar);
  }
  Status Restore(SnapshotReader& r) {
    Loader ar(r);
    Fields(*this, ar);
    return ar.status();
  }
};

// One field per archive method.
struct ArchiveSample {
  std::uint8_t u8 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  bool flag = false;
  std::string text;
  std::vector<std::uint8_t> blob;
  std::uint64_t option = 0;
  int pass = -1;
  std::vector<std::uint32_t> ids;
  std::vector<std::pair<std::uint32_t, std::uint8_t>> pairs;
  std::vector<std::uint64_t> sized;
  std::vector<std::uint32_t> scratch;
  std::vector<std::uint32_t> dead;
  std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> map;
  std::unordered_set<std::uint64_t> set;
  Rng rng{5};
  ArchiveSection section;

  static void Fields(auto& self, auto& ar) {
    ar.U8(self.u8);
    ar.U32(self.u32);
    ar.U64(self.u64);
    ar.Bool(self.flag);
    ar.String(self.text);
    ar.Bytes(self.blob);
    ar.Option(self.option, "option");
    ar.Pass(self.pass, 2);
    ar.Vec(self.ids);
    ar.Vec(self.pairs, [](auto& ar, auto& p) {
      ar.U32(p.first);
      ar.U8(p.second);
    });
    ar.Size(self.sized, 8);
    for (auto& x : self.sized) ar.U64(x);
    ar.Scratch(self.scratch);
    ar.Capacity(self.dead);
    ar.Buckets(self.map);
    ar.Map(
        self.map, [&](auto key) -> auto& { return self.map[key]; },
        [](auto& ar, auto& list) { ar.Vec(list); });
    ar.Set(self.set);
    ar.Buckets(self.set);
    ar.Rng(self.rng);
    ar.Nested(self.section);
  }
};

// Envelope around a raw payload, as SnapshotWriter::Finish seals one.
std::vector<std::uint8_t> SealPayload(std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out = {'C', 'Y', 'S', 'N', 'A', 'P', 'S', 'H'};
  auto put = [&out](std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  };
  put(kSnapshotVersion, 4);
  put(payload.size(), 8);
  out.insert(out.end(), payload.begin(), payload.end());
  put(Crc32(out), 4);
  return out;
}

TEST(SnapshotArchive, SaverWritesTheVersion1SequenceAndLoaderInvertsIt) {
  ArchiveSample in;
  in.u8 = 0xa5;
  in.u32 = 0xdeadbeef;
  in.u64 = 0x0123456789abcdefULL;
  in.flag = true;
  in.text = "list";
  in.blob = {0, 7, 255};
  in.option = 42;
  in.pass = 1;
  in.ids = {3, 1, 4};
  in.ids.reserve(9);
  in.pairs = {{5, 2}, {6, 0}};
  in.sized = {10, 20};
  in.scratch.reserve(12);
  in.dead = {8, 8};
  in.map[9] = {90, 91};
  in.map[2] = {20};
  in.map[7];
  in.set = {33, 11, 22};
  in.rng.Next64();
  in.section.value = 77;

  SnapshotWriter saved;
  Saver saver(saved);
  ArchiveSample::Fields(in, saver);
  const std::vector<std::uint8_t> bytes = std::move(saved).Finish();

  // The same fields by hand, in the version-1 order; record where the
  // fields the failure cases patch begin.
  SnapshotWriter w;
  w.WriteU8(in.u8);
  w.WriteU32(in.u32);
  w.WriteU64(in.u64);
  w.WriteBool(in.flag);
  w.WriteString(in.text);
  w.WriteBytes(in.blob);
  const std::size_t option_at = w.payload_size();
  w.WriteU64(in.option);
  const std::size_t pass_at = w.payload_size();
  w.WriteU64(static_cast<std::uint64_t>(in.pass + 1));
  w.WriteU64(in.ids.size());
  w.WriteU64(in.ids.capacity());
  for (std::uint32_t id : in.ids) w.WriteU32(id);
  w.WriteU64(in.pairs.size());
  w.WriteU64(in.pairs.capacity());
  for (const auto& [first, second] : in.pairs) {
    w.WriteU32(first);
    w.WriteU8(second);
  }
  w.WriteU64(in.sized.size());
  for (std::uint64_t x : in.sized) w.WriteU64(x);
  w.WriteU64(in.scratch.capacity());
  w.WriteU64(in.dead.capacity());
  w.WriteU64(in.map.bucket_count());
  w.WriteU64(in.map.size());
  for (std::uint32_t key : {2u, 7u, 9u}) {
    const std::vector<std::uint64_t>& list = in.map.at(key);
    w.WriteU32(key);
    w.WriteU64(list.size());
    w.WriteU64(list.capacity());
    for (std::uint64_t x : list) w.WriteU64(x);
  }
  w.WriteU64(in.set.size());
  for (std::uint64_t x : {11u, 22u, 33u}) w.WriteU64(x);
  w.WriteU64(in.set.bucket_count());
  const std::size_t rng_at = w.payload_size();
  std::uint64_t state[4];
  in.rng.GetState(state);
  for (std::uint64_t word : state) w.WriteU64(word);
  const std::size_t section_at = w.payload_size();
  w.WriteU64(in.section.value);
  EXPECT_EQ(bytes, std::move(w).Finish());

  // Round trip: the Loader rebuilds content and geometry, so the restored
  // sample saves to the same bytes.
  StatusOr<SnapshotReader> r = SnapshotReader::Open(bytes);
  ASSERT_TRUE(r.ok());
  ArchiveSample out;
  out.option = in.option;
  Loader loader(*r);
  ArchiveSample::Fields(out, loader);
  ASSERT_TRUE(loader.status().ok()) << loader.status().ToString();
  EXPECT_TRUE(r->Final().ok());
  EXPECT_EQ(out.pass, 1);
  EXPECT_EQ(out.text, "list");
  EXPECT_EQ(out.blob, in.blob);
  EXPECT_EQ(out.ids.capacity(), 9u);
  EXPECT_EQ(out.scratch.capacity(), 12u);
  EXPECT_EQ(out.map, in.map);
  EXPECT_EQ(out.set, in.set);
  EXPECT_EQ(out.section.value, 77u);
  SnapshotWriter again;
  Saver resaver(again);
  ArchiveSample::Fields(out, resaver);
  EXPECT_EQ(std::move(again).Finish(), bytes);
  EXPECT_EQ(out.rng.Next64(), in.rng.Next64());

  // Each failure has its code, and the Loader reads nothing after it: the
  // reader's remaining() is where the failing field left it.
  const std::span<const std::uint8_t> payload =
      std::span<const std::uint8_t>(bytes).subspan(
          20, bytes.size() - kEnvelopeBytes);
  struct Case {
    const char* name;
    std::vector<std::uint8_t> payload;
    std::uint64_t option;
    StatusCode code;
    std::size_t consumed;  // payload bytes read up to the failure
  };
  std::vector<Case> cases;
  cases.push_back({"short payload",
                   {payload.begin(), payload.end() - 3},
                   in.option,
                   StatusCode::kDataLoss,
                   payload.size() - 3});
  cases.push_back({"option mismatch",
                   {payload.begin(), payload.end()},
                   in.option + 1,
                   StatusCode::kFailedPrecondition,
                   pass_at});
  std::vector<std::uint8_t> bad_pass(payload.begin(), payload.end());
  bad_pass[pass_at] = 3;  // pass 2 of a two-pass layout
  cases.push_back({"pass out of range", bad_pass, in.option,
                   StatusCode::kFailedPrecondition, pass_at + 8});
  std::vector<std::uint8_t> zero_rng(payload.begin(), payload.end());
  std::fill(zero_rng.begin() + rng_at, zero_rng.begin() + section_at, 0);
  cases.push_back({"zero generator", zero_rng, in.option,
                   StatusCode::kDataLoss, section_at});
  ASSERT_LT(option_at, pass_at);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<std::uint8_t> sealed = SealPayload(c.payload);
    StatusOr<SnapshotReader> reader = SnapshotReader::Open(sealed);
    ASSERT_TRUE(reader.ok());
    ArchiveSample target;
    target.option = c.option;
    Loader failing(*reader);
    ArchiveSample::Fields(target, failing);
    EXPECT_FALSE(failing.ok());
    EXPECT_EQ(failing.status().code(), c.code) << failing.status().ToString();
    EXPECT_EQ(reader->remaining(), c.payload.size() - c.consumed);
    const std::size_t remaining = reader->remaining();
    std::uint64_t untouched = 5;
    failing.U64(untouched);
    failing.Nested(target.section);
    EXPECT_EQ(untouched, 5u);
    EXPECT_EQ(reader->remaining(), remaining);
    EXPECT_EQ(failing.status().code(), c.code);
  }
}

TEST(SnapshotArchive, DroppedIsReadOnlyFromOlderVersions) {
  // A word versions before `until` wrote: a Saver writes nothing, and a
  // Loader reads the word only from a payload older than `until`.
  SnapshotWriter saved;
  Saver saver(saved);
  saver.Dropped(3);
  EXPECT_EQ(saved.payload_size(), 0u);

  SnapshotWriter w;
  w.WriteU64(std::uint64_t{1} << 40);
  const std::vector<std::uint8_t> one_word = std::move(w).Finish();
  for (std::uint32_t version = kOldestReadableVersion;
       version <= kSnapshotVersion; ++version) {
    for (const std::uint32_t until : {2u, 3u, 5u}) {
      SCOPED_TRACE("version " + std::to_string(version) + ", until " +
                   std::to_string(until));
      std::vector<std::uint8_t> bytes = one_word;
      testing_util::Restamp(bytes, version);
      StatusOr<SnapshotReader> r = SnapshotReader::Open(bytes);
      ASSERT_TRUE(r.ok());
      Loader loader(*r);
      loader.Dropped(until);
      EXPECT_TRUE(loader.ok());
      EXPECT_EQ(r->remaining(), version < until ? 0u : 8u);
    }
  }
}

TEST(SnapshotArchive, CountIsOneWordBoundedByThePayload) {
  // A count of entries the layout archives itself: one u64 on save. On
  // load it must leave `min_bytes` per entry; one entry more than the rest
  // of the payload holds is kDataLoss, and the count reads as zero.
  SnapshotWriter saved;
  Saver saver(saved);
  saver.Count(2, 4);
  saver.U32(7);
  saver.U32(9);
  const std::vector<std::uint8_t> bytes = std::move(saved).Finish();
  EXPECT_EQ(bytes.size(), kEnvelopeBytes + 8 + 2 * 4);
  EXPECT_EQ(testing_util::PeekU64(bytes, 20), 2u);

  for (const std::size_t min_bytes : {4u, 5u}) {
    SCOPED_TRACE("min_bytes " + std::to_string(min_bytes));
    StatusOr<SnapshotReader> r = SnapshotReader::Open(bytes);
    ASSERT_TRUE(r.ok());
    Loader loader(*r);
    std::uint32_t count = 99;
    loader.Count(count, min_bytes);
    EXPECT_EQ(count, min_bytes == 4 ? 2u : 0u);
    EXPECT_EQ(loader.status().code(),
              min_bytes == 4 ? StatusCode::kOk : StatusCode::kDataLoss);
  }
}

TEST(SnapshotArchive, TableWritesMapBytesAndAFullTableIsDataLoss) {
  // A table kept in a layout's own arrays writes what Map writes for the
  // same entries. On load each key asks `slot` for room; a table with none
  // left is kDataLoss, and the entry's value is never read.
  const std::vector<std::uint64_t> keys = {3, 5, 9};
  const std::vector<std::uint32_t> values = {30, 50, 90};
  auto value = [](auto& ar, auto& v) { ar.U32(v); };

  SnapshotWriter map_writer;
  Saver map_saver(map_writer);
  const std::unordered_map<std::uint64_t, std::uint32_t> map = {
      {9, 90}, {3, 30}, {5, 50}};
  map_saver.Map(map, [](auto) -> std::uint32_t* { return nullptr; }, value);
  const std::vector<std::uint8_t> map_bytes = std::move(map_writer).Finish();

  SnapshotWriter table_writer;
  Saver table_saver(table_writer);
  auto entries = [&] {
    std::vector<std::pair<std::uint64_t, const std::uint32_t*>> out;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      out.push_back({keys[i], &values[i]});
    }
    return out;
  };
  table_saver.Table(entries, [](auto) -> std::uint32_t* { return nullptr; },
                    value);
  EXPECT_EQ(std::move(table_writer).Finish(), map_bytes);

  for (const std::size_t room : {3u, 2u}) {
    SCOPED_TRACE("room for " + std::to_string(room));
    StatusOr<SnapshotReader> r = SnapshotReader::Open(map_bytes);
    ASSERT_TRUE(r.ok());
    Loader loader(*r);
    std::vector<std::pair<std::uint64_t, std::uint32_t>> table;
    table.reserve(room);
    loader.Table(
        entries,
        [&](std::uint64_t key) -> std::uint32_t* {
          if (table.size() == room) return nullptr;
          table.push_back({key, 0});
          return &table.back().second;
        },
        value);
    EXPECT_EQ(table.size(), room);
    for (std::size_t i = 0; i < room; ++i) {
      EXPECT_EQ(table[i], std::make_pair(keys[i], values[i]));
    }
    if (room == keys.size()) {
      EXPECT_TRUE(loader.ok()) << loader.status().ToString();
    } else {
      EXPECT_EQ(loader.status().code(), StatusCode::kDataLoss);
      EXPECT_EQ(r->remaining(), 4u);  // the refused entry's value, unread
    }
  }
}

TEST(SnapshotArchive, KeyNotAboveThePreviousKeyIsDataLoss) {
  // The Saver writes map and set keys strictly ascending, so a repeated or
  // descending key is corruption the CRC cannot see. The Loader stops at
  // that key: it never reaches the map's slot or the set, and nothing after
  // it is read.
  const std::pair<std::uint32_t, std::uint32_t> orders[] = {{5, 5}, {7, 5}};
  for (const auto& [first, second] : orders) {
    SCOPED_TRACE(std::to_string(first) + "," + std::to_string(second));

    SnapshotWriter map_writer;
    map_writer.WriteU64(2);
    for (const std::uint32_t key : {first, second}) {
      map_writer.WriteU32(key);
      map_writer.WriteU64(1);  // size
      map_writer.WriteU64(1);  // capacity
      map_writer.WriteU64(key * 10);
    }
    const std::vector<std::uint8_t> map_bytes =
        std::move(map_writer).Finish();
    StatusOr<SnapshotReader> map_reader = SnapshotReader::Open(map_bytes);
    ASSERT_TRUE(map_reader.ok());
    std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> map;
    int slots = 0;
    Loader map_loader(*map_reader);
    map_loader.Map(
        map,
        [&](auto key) -> auto& {
          ++slots;
          return map[key];
        },
        [](auto& ar, auto& list) { ar.Vec(list); });
    EXPECT_EQ(map_loader.status().code(), StatusCode::kDataLoss)
        << map_loader.status().ToString();
    EXPECT_EQ(slots, 1);
    EXPECT_EQ(map, (std::unordered_map<std::uint32_t, std::vector<std::uint64_t>>{
                       {first, {first * 10u}}}));
    EXPECT_EQ(map_reader->remaining(), 3 * 8u);  // the second list, unread
    std::uint64_t untouched = 3;
    map_loader.U64(untouched);
    EXPECT_EQ(untouched, 3u);
    EXPECT_EQ(map_reader->remaining(), 3 * 8u);

    SnapshotWriter set_writer;
    set_writer.WriteU64(2);
    set_writer.WriteU64(first);
    set_writer.WriteU64(second);
    set_writer.WriteU64(99);  // a field after the set
    const std::vector<std::uint8_t> set_bytes =
        std::move(set_writer).Finish();
    StatusOr<SnapshotReader> set_reader = SnapshotReader::Open(set_bytes);
    ASSERT_TRUE(set_reader.ok());
    std::unordered_set<std::uint64_t> set;
    Loader set_loader(*set_reader);
    set_loader.Set(set);
    EXPECT_EQ(set_loader.status().code(), StatusCode::kDataLoss)
        << set_loader.status().ToString();
    EXPECT_EQ(set, (std::unordered_set<std::uint64_t>{first}));
    EXPECT_EQ(set_reader->remaining(), 8u);
    set_loader.U64(untouched);
    EXPECT_EQ(untouched, 3u);
    EXPECT_EQ(set_reader->remaining(), 8u);
  }
}

}  // namespace
}  // namespace snapshot
}  // namespace cyclestream
