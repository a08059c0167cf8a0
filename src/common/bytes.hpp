// Byte-oriented serialization (little-endian, Bitcoin convention).
//
// Used to serialize block headers and transactions for hashing, and to
// compute realistic wire sizes. Header-only.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace bng {

class ByteWriter {
 public:
  /// Pre-size for `n` bytes, so a writer filled to a known size allocates
  /// once instead of growing as it goes.
  void reserve(std::size_t n) { buf_.reserve(n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) {
    for (int i = 0; i < 2; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  /// Bitcoin CompactSize encoding.
  void varint(std::uint64_t v) {
    if (v < 0xfd) {
      u8(static_cast<std::uint8_t>(v));
    } else if (v <= 0xffff) {
      u8(0xfd);
      u16(static_cast<std::uint16_t>(v));
    } else if (v <= 0xffffffff) {
      u8(0xfe);
      u32(static_cast<std::uint32_t>(v));
    } else {
      u8(0xff);
      u64(v);
    }
  }

  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }

  std::uint16_t u16() {
    auto b = take(2);
    return static_cast<std::uint16_t>(b[0] | b[1] << 8);
  }

  std::uint32_t u32() {
    auto b = take(4);
    return static_cast<std::uint32_t>(b[0]) | static_cast<std::uint32_t>(b[1]) << 8 |
           static_cast<std::uint32_t>(b[2]) << 16 | static_cast<std::uint32_t>(b[3]) << 24;
  }

  std::uint64_t u64() {
    std::uint64_t lo = u32();
    std::uint64_t hi = u32();
    return lo | hi << 32;
  }

  double f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::uint64_t varint() {
    std::uint8_t tag = u8();
    if (tag < 0xfd) return tag;
    if (tag == 0xfd) return u16();
    if (tag == 0xfe) return u32();
    return u64();
  }

  std::span<const std::uint8_t> take(std::size_t n) {
    if (pos_ + n > data_.size()) throw std::out_of_range("ByteReader: read past end");
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace bng
