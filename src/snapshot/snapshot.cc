#include "snapshot/snapshot.h"

#include <array>
#include <cstring>

namespace cyclestream {
namespace snapshot {

namespace {

// "CYSNAPSH" as a little-endian u64.
constexpr std::array<std::uint8_t, 8> kMagic = {'C', 'Y', 'S', 'N',
                                                'A', 'P', 'S', 'H'};

constexpr std::array<std::uint32_t, 256> BuildCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = BuildCrcTable();

void PutU32(std::uint8_t* out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

void PutU64(std::uint8_t* out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

std::uint32_t GetU32(const std::uint8_t* in) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  }
  return value;
}

std::uint64_t GetU64(const std::uint8_t* in) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return value;
}

}  // namespace

std::uint32_t Crc32(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    crc = kCrcTable[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

SnapshotWriter::SnapshotWriter() : buffer_(kHeaderBytes, 0) {}

void SnapshotWriter::WriteU8(std::uint8_t value) { buffer_.push_back(value); }

void SnapshotWriter::WriteU32(std::uint32_t value) {
  std::size_t at = buffer_.size();
  buffer_.resize(at + 4);
  PutU32(buffer_.data() + at, value);
}

void SnapshotWriter::WriteU64(std::uint64_t value) {
  std::size_t at = buffer_.size();
  buffer_.resize(at + 8);
  PutU64(buffer_.data() + at, value);
}

void SnapshotWriter::WriteDouble(double value) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  WriteU64(bits);
}

void SnapshotWriter::WriteBytes(std::span<const std::uint8_t> bytes) {
  WriteU64(bytes.size());
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void SnapshotWriter::WriteString(const std::string& s) {
  WriteBytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

std::vector<std::uint8_t> SnapshotWriter::Finish() && {
  std::memcpy(buffer_.data(), kMagic.data(), kMagic.size());
  PutU32(buffer_.data() + 8, kSnapshotVersion);
  PutU64(buffer_.data() + 12, buffer_.size() - kHeaderBytes);
  const std::uint32_t crc = Crc32(buffer_);
  std::size_t at = buffer_.size();
  buffer_.resize(at + 4);
  PutU32(buffer_.data() + at, crc);
  return std::move(buffer_);
}

StatusOr<SnapshotReader> SnapshotReader::Open(
    std::span<const std::uint8_t> bytes) {
  constexpr std::size_t kHeaderBytes = 8 + 4 + 8;
  if (bytes.size() < kEnvelopeBytes) {
    return Status::DataLoss("snapshot truncated: " +
                            std::to_string(bytes.size()) + " bytes, envelope " +
                            "needs at least " + std::to_string(kEnvelopeBytes));
  }
  if (std::memcmp(bytes.data(), kMagic.data(), kMagic.size()) != 0) {
    return Status::InvalidArgument(
        "snapshot has bad magic (not a cyclestream snapshot)");
  }
  const std::uint32_t version = GetU32(bytes.data() + 8);
  if (version < kOldestReadableVersion || version > kSnapshotVersion) {
    return Status::FailedPrecondition(
        "unsupported snapshot version " + std::to_string(version) +
        " (this build reads versions " +
        std::to_string(kOldestReadableVersion) + " to " +
        std::to_string(kSnapshotVersion) + ")");
  }
  const std::uint64_t payload_len = GetU64(bytes.data() + 12);
  if (payload_len != bytes.size() - kEnvelopeBytes) {
    return Status::DataLoss(
        "snapshot payload truncated: declared " + std::to_string(payload_len) +
        " bytes, envelope carries " +
        std::to_string(bytes.size() - kEnvelopeBytes));
  }
  const std::size_t crc_at = kHeaderBytes + payload_len;
  const std::uint32_t stored_crc = GetU32(bytes.data() + crc_at);
  const std::uint32_t computed_crc = Crc32(bytes.first(crc_at));
  if (stored_crc != computed_crc) {
    return Status::DataLoss("snapshot checksum mismatch (corrupted bytes)");
  }
  return SnapshotReader(bytes.subspan(kHeaderBytes, payload_len), version);
}

const std::uint8_t* SnapshotReader::Take(std::size_t n) {
  if (!status_.ok()) return nullptr;
  if (pos_ + n > payload_.size()) {
    status_ = Status::DataLoss(
        "snapshot read past end of payload (layout mismatch)");
    pos_ = payload_.size();
    return nullptr;
  }
  const std::uint8_t* p = payload_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint8_t SnapshotReader::ReadU8() {
  const std::uint8_t* p = Take(1);
  return p == nullptr ? 0 : *p;
}

std::uint32_t SnapshotReader::ReadU32() {
  const std::uint8_t* p = Take(4);
  return p == nullptr ? 0 : GetU32(p);
}

std::uint64_t SnapshotReader::ReadU64() {
  const std::uint8_t* p = Take(8);
  return p == nullptr ? 0 : GetU64(p);
}

double SnapshotReader::ReadDouble() {
  std::uint64_t bits = ReadU64();
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::vector<std::uint8_t> SnapshotReader::ReadBytesVec() {
  const std::uint64_t n = ReadU64();
  if (n > remaining()) {
    (void)Take(remaining() + 1);  // poison
    return {};
  }
  const std::uint8_t* p = Take(static_cast<std::size_t>(n));
  if (p == nullptr) return {};
  return std::vector<std::uint8_t>(p, p + n);
}

std::string SnapshotReader::ReadString() {
  std::vector<std::uint8_t> bytes = ReadBytesVec();
  return std::string(bytes.begin(), bytes.end());
}

Status SnapshotReader::Final() const {
  if (!status_.ok()) return status_;
  if (remaining() != 0) {
    return Status::DataLoss("snapshot payload has " +
                            std::to_string(remaining()) +
                            " unread bytes (layout mismatch)");
  }
  return Status::Ok();
}

}  // namespace snapshot
}  // namespace cyclestream
