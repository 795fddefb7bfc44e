#pragma once

// Fixed-width little-endian byte codec for checkpoint payloads, plus the
// CRC-32 and FNV-1a digests the checkpoint format is built on. Doubles are
// stored as their IEEE-754 bit pattern, so an encode/decode round trip is
// bit-exact — the property that lets a resumed campaign produce
// byte-identical JSON to an uninterrupted one (docs/ROBUSTNESS.md).

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/runtime/run_error.hpp"

namespace agingsim::runtime {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes`.
/// crc32("123456789") == 0xCBF43926.
std::uint32_t crc32(std::string_view bytes);

/// Incremental FNV-1a 64-bit digest used to fingerprint campaign
/// configurations: a checkpoint written under one configuration must never
/// be restored into a different one.
class Digest {
 public:
  Digest& mix(std::uint64_t v);
  Digest& mix(std::int64_t v) { return mix(static_cast<std::uint64_t>(v)); }
  Digest& mix(int v) { return mix(static_cast<std::int64_t>(v)); }
  Digest& mix(bool v) { return mix(std::uint64_t{v ? 1u : 0u}); }
  Digest& mix(double v) { return mix(std::bit_cast<std::uint64_t>(v)); }
  Digest& mix(std::string_view bytes);

  std::uint64_t value() const noexcept { return state_; }

 private:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t state_ = kOffset;
};

/// Append-only encoder. All integers little-endian, strings length-prefixed.
class ByteWriter {
 public:
  ByteWriter& u8(std::uint8_t v);
  ByteWriter& u32(std::uint32_t v);
  ByteWriter& u64(std::uint64_t v);
  ByteWriter& i64(std::int64_t v) {
    return u64(static_cast<std::uint64_t>(v));
  }
  ByteWriter& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
  ByteWriter& boolean(bool v) { return u8(v ? 1 : 0); }
  ByteWriter& str(std::string_view s);

  const std::string& data() const noexcept { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Decoder over a byte view; any read past the end throws
/// RunError(kCorrupt) so truncated checkpoints surface as a classified,
/// recoverable failure instead of undefined behavior.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }
  std::string str();

  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  bool at_end() const noexcept { return pos_ == bytes_.size(); }
  /// Throws RunError(kCorrupt) unless every byte was consumed.
  void expect_end() const;
  /// Throws RunError(kCorrupt) unless `count` records of `record_bytes`
  /// each fit in the bytes left. Call it before sizing a container by a
  /// decoded count, so a corrupt count cannot drive the allocation.
  void expect_records(std::uint64_t count, std::size_t record_bytes) const;

 private:
  void need(std::size_t n) const;

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace agingsim::runtime
