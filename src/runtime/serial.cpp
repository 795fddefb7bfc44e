#include "src/runtime/serial.hpp"

#include <array>

namespace agingsim::runtime {
namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::string_view bytes) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (char ch : bytes) {
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

Digest& Digest::mix(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (v >> (8 * i)) & 0xFFu;
    state_ *= kPrime;
  }
  return *this;
}

Digest& Digest::mix(std::string_view bytes) {
  // Length first so mix("ab") + mix("c") != mix("a") + mix("bc").
  mix(static_cast<std::uint64_t>(bytes.size()));
  for (char ch : bytes) {
    state_ ^= static_cast<unsigned char>(ch);
    state_ *= kPrime;
  }
  return *this;
}

ByteWriter& ByteWriter::u8(std::uint8_t v) {
  buf_.push_back(static_cast<char>(v));
  return *this;
}

ByteWriter& ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
  return *this;
}

ByteWriter& ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
  return *this;
}

ByteWriter& ByteWriter::str(std::string_view s) {
  u64(s.size());
  buf_.append(s);
  return *this;
}

void ByteReader::need(std::size_t n) const {
  if (bytes_.size() - pos_ < n) {
    throw RunError(ErrorCategory::kCorrupt,
                   "ByteReader: truncated record (need " + std::to_string(n) +
                       " bytes, have " + std::to_string(remaining()) + ")");
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::string ByteReader::str() {
  const std::uint64_t n = u64();
  need(static_cast<std::size_t>(n));
  std::string s(bytes_.substr(pos_, static_cast<std::size_t>(n)));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

void ByteReader::expect_records(std::uint64_t count,
                                std::size_t record_bytes) const {
  if (count > remaining() / record_bytes) {
    throw RunError(ErrorCategory::kCorrupt,
                   "ByteReader: " + std::to_string(count) +
                       " records overrun the " + std::to_string(remaining()) +
                       " bytes left");
  }
}

void ByteReader::expect_end() const {
  if (!at_end()) {
    throw RunError(ErrorCategory::kCorrupt,
                   "ByteReader: " + std::to_string(remaining()) +
                       " trailing bytes after record");
  }
}

}  // namespace agingsim::runtime
