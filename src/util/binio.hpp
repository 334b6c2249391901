#pragma once
// Little-endian binary serialization helpers shared by the container
// formats (miniBP metadata, darshan logs, PIC checkpoints).

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace bitio {

/// Appending writer over a byte vector.
class BinWriter {
public:
  std::vector<std::uint8_t>& buffer() { return out_; }
  const std::vector<std::uint8_t>& buffer() const { return out_; }
  std::vector<std::uint8_t> take() { return std::move(out_); }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(std::uint8_t(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(std::uint8_t(v >> (8 * i)));
  }
  void f64(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, 8);
    u64(bits);
  }
  void str(const std::string& s) {
    u32(std::uint32_t(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void bytes(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }
  void dims(const std::vector<std::uint64_t>& d) {
    u32(std::uint32_t(d.size()));
    for (auto v : d) u64(v);
  }

private:
  std::vector<std::uint8_t> out_;
};

/// Bounds-checked reader over a byte span.  Throws FormatError past end.
class BinReader {
public:
  explicit BinReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(data_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(data_[pos_++]) << (8 * i);
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double d;
    std::memcpy(&d, &bits, 8);
    return d;
  }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n);
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  std::vector<std::uint64_t> dims() {
    const std::uint32_t n = u32();
    need(std::size_t(n) * 8);  // before allocating for a corrupt rank
    std::vector<std::uint64_t> d(n);
    for (auto& v : d) v = u64();
    return d;
  }

  std::size_t position() const { return pos_; }
  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

private:
  void need(std::size_t n) const {
    if (pos_ + n > data_.size()) throw FormatError("binio: truncated input");
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace bitio
