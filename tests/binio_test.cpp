// Tests for the shared binary serialization helpers used by the BP
// container format, darshan logs, and PIC checkpoints.
#include <gtest/gtest.h>

#include "util/binio.hpp"
#include "util/error.hpp"

namespace bitio {
namespace {

TEST(BinIo, ScalarRoundTrip) {
  BinWriter writer;
  writer.u8(0xAB);
  writer.u32(0xDEADBEEF);
  writer.u64(0x0123456789ABCDEFull);
  writer.f64(-2.5e-7);
  writer.str("openPMD");
  writer.dims({1, 2, 30000000000ull});

  BinReader reader(writer.buffer());
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(reader.f64(), -2.5e-7);
  EXPECT_EQ(reader.str(), "openPMD");
  EXPECT_EQ(reader.dims(), (std::vector<std::uint64_t>{1, 2, 30000000000ull}));
  EXPECT_TRUE(reader.done());
}

TEST(BinIo, EmptyStringAndDims) {
  BinWriter writer;
  writer.str("");
  writer.dims({});
  BinReader reader(writer.buffer());
  EXPECT_EQ(reader.str(), "");
  EXPECT_TRUE(reader.dims().empty());
  EXPECT_TRUE(reader.done());
}

TEST(BinIo, BytesPassThrough) {
  BinWriter writer;
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  writer.u32(5);
  writer.bytes(payload);
  BinReader reader(writer.buffer());
  const auto n = reader.u32();
  const auto span = reader.bytes(n);
  EXPECT_EQ(std::vector<std::uint8_t>(span.begin(), span.end()), payload);
}

TEST(BinIo, TruncationThrows) {
  BinWriter writer;
  writer.u64(42);
  const auto& full = writer.buffer();
  for (std::size_t keep = 0; keep < 8; ++keep) {
    BinReader reader(std::span<const std::uint8_t>(full.data(), keep));
    EXPECT_THROW(reader.u64(), FormatError) << "keep=" << keep;
  }
  BinReader reader(full);
  reader.u64();
  EXPECT_THROW(reader.u8(), FormatError);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(BinIo, StringLengthBeyondBufferThrows) {
  BinWriter writer;
  writer.u32(1000);  // claims 1000 chars, provides none
  BinReader reader(writer.buffer());
  EXPECT_THROW(reader.str(), FormatError);
}

TEST(BinIo, DimsRankBeyondBufferThrows) {
  // A rank of 2^32 - 1 would allocate 32 GiB before the first extent is
  // read: the rank is checked against the bytes left first.
  BinWriter writer;
  writer.u32(0xFFFFFFFFu);
  writer.u64(7);
  BinReader reader(writer.buffer());
  EXPECT_THROW(reader.dims(), FormatError);
}

TEST(BinIo, PositionTracking) {
  BinWriter writer;
  writer.u32(1);
  writer.u32(2);
  BinReader reader(writer.buffer());
  EXPECT_EQ(reader.position(), 0u);
  reader.u32();
  EXPECT_EQ(reader.position(), 4u);
  EXPECT_FALSE(reader.done());
}

}  // namespace
}  // namespace bitio
