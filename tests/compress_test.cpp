// Unit + property tests for the compression stack: shuffle, LZ, Huffman,
// BWT/MTF, and the self-framing blosc-like / bzip2-like codecs.
#include <gtest/gtest.h>

#include <cstring>

#include "compress/bwt.hpp"
#include "compress/codec.hpp"
#include "compress/frame.hpp"
#include "compress/huffman.hpp"
#include "compress/lz.hpp"
#include "compress/parallel.hpp"
#include "compress/reference.hpp"
#include "compress/shuffle.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bitio::cz {
namespace {

Bytes ascii(const char* s) {
  return Bytes(reinterpret_cast<const std::uint8_t*>(s),
               reinterpret_cast<const std::uint8_t*>(s) + std::strlen(s));
}

/// Data classes used across the property tests.
Bytes make_data(const std::string& kind, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  if (kind == "random") {
    for (auto& b : out) b = std::uint8_t(rng.below(256));
  } else if (kind == "zeros") {
    std::fill(out.begin(), out.end(), 0);
  } else if (kind == "text") {
    const char* words[] = {"plasma ", "particle ", "divertor ", "flux ",
                           "tokamak "};
    std::size_t i = 0;
    while (i < n) {
      const char* w = words[rng.below(5)];
      for (const char* p = w; *p && i < n; ++p) out[i++] = std::uint8_t(*p);
    }
  } else if (kind == "floats") {
    // Smooth float series: the realistic PIC particle payload.
    std::size_t i = 0;
    float x = 1.0f;
    while (i + 4 <= n) {
      x += 0.001f * float(rng.normal());
      std::memcpy(&out[i], &x, 4);
      i += 4;
    }
  } else {
    ADD_FAILURE() << "unknown data kind " << kind;
  }
  return out;
}

// -------------------------------------------------------------- shuffle ---

TEST(Shuffle, RoundTripAllTypesizes) {
  Rng rng(1);
  for (std::size_t typesize : {1u, 2u, 4u, 8u, 3u}) {
    for (std::size_t n : {0u, 1u, 5u, 16u, 1000u, 1003u}) {
      Bytes data(n);
      for (auto& b : data) b = std::uint8_t(rng.below(256));
      EXPECT_EQ(unshuffle(shuffle(data, typesize), typesize), data)
          << "typesize=" << typesize << " n=" << n;
    }
  }
}

TEST(Shuffle, TransposesBytes) {
  Bytes data = {0x01, 0x02, 0x03, 0x04, 0x11, 0x12, 0x13, 0x14};
  Bytes s = shuffle(data, 4);
  Bytes expect = {0x01, 0x11, 0x02, 0x12, 0x03, 0x13, 0x04, 0x14};
  EXPECT_EQ(s, expect);
}

TEST(Shuffle, RejectsZeroTypesize) {
  EXPECT_THROW(shuffle(Bytes{1, 2}, 0), UsageError);
  EXPECT_THROW(unshuffle(Bytes{1, 2}, 0), UsageError);
}

// ------------------------------------------------------------------- lz ---

TEST(Lz, RoundTripSimple) {
  for (const char* s :
       {"", "a", "abcd", "aaaaaaaaaaaaaaaaaaaaaaa",
        "abcabcabcabcabcabcabcabc", "the quick brown fox the quick brown"}) {
    Bytes data = ascii(s);
    Bytes packed = lz_compress_block(data);
    EXPECT_EQ(lz_decompress_block(packed, data.size()), data) << s;
  }
}

TEST(Lz, CompressesRepetitiveData) {
  Bytes data = make_data("zeros", 64 * 1024, 0);
  Bytes packed = lz_compress_block(data);
  EXPECT_LT(packed.size(), data.size() / 50);
  EXPECT_EQ(lz_decompress_block(packed, data.size()), data);
}

TEST(Lz, DetectsCorruption) {
  Bytes data = make_data("text", 5000, 2);
  Bytes packed = lz_compress_block(data);
  EXPECT_THROW(lz_decompress_block(packed, data.size() + 1), FormatError);
  Bytes truncated(packed.begin(), packed.begin() + long(packed.size() / 2));
  EXPECT_THROW(lz_decompress_block(truncated, data.size()), FormatError);
}

struct LzCase {
  const char* kind;
  std::size_t size;
};

// gtest_discover_tests puts the printed parameter into each ctest name; the
// default byte dump would embed the address of `kind`, so the names would
// change from one build (and one ASLR load) to the next.
void PrintTo(const LzCase& c, std::ostream* os) {
  *os << "(\"" << c.kind << "\", " << c.size << ")";
}

class LzProperty : public ::testing::TestWithParam<LzCase> {};

TEST_P(LzProperty, RoundTrip) {
  const auto& param = GetParam();
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Bytes data = make_data(param.kind, param.size, seed);
    Bytes packed = lz_compress_block(data);
    EXPECT_EQ(lz_decompress_block(packed, data.size()), data)
        << param.kind << "/" << param.size << "/" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DataClasses, LzProperty,
    ::testing::Values(LzCase{"random", 1}, LzCase{"random", 100},
                      LzCase{"random", 70000}, LzCase{"zeros", 300},
                      LzCase{"zeros", 70000}, LzCase{"text", 10},
                      LzCase{"text", 4096}, LzCase{"text", 300000},
                      LzCase{"floats", 4096}, LzCase{"floats", 200000}),
    [](const auto& info) {
      return std::string(info.param.kind) + "_" +
             std::to_string(info.param.size);
    });

// -------------------------------------------------------------- huffman ---

TEST(Huffman, RoundTripSkewedDistribution) {
  Rng rng(4);
  std::vector<std::uint16_t> symbols;
  for (int i = 0; i < 50000; ++i) {
    // Geometric-ish: small symbols dominate, like post-MTF data.
    std::uint16_t s = 0;
    while (s < 200 && rng.uniform() < 0.6) ++s;
    symbols.push_back(s);
  }
  Bytes enc = huffman_encode(symbols, 257);
  EXPECT_EQ(huffman_decode(enc), symbols);
  // Skewed data must beat the 9.01-bit trivial encoding comfortably.
  EXPECT_LT(enc.size(), symbols.size());
}

TEST(Huffman, DegenerateAlphabets) {
  std::vector<std::uint16_t> empty;
  EXPECT_EQ(huffman_decode(huffman_encode(empty, 257)), empty);

  std::vector<std::uint16_t> single(1000, 42);
  EXPECT_EQ(huffman_decode(huffman_encode(single, 257)), single);

  std::vector<std::uint16_t> two{0, 1, 0, 1, 1, 0};
  EXPECT_EQ(huffman_decode(huffman_encode(two, 2)), two);
}

TEST(Huffman, UniformAlphabetRoundTrip) {
  std::vector<std::uint16_t> symbols;
  for (int rep = 0; rep < 20; ++rep)
    for (std::uint16_t s = 0; s < 256; ++s) symbols.push_back(s);
  Bytes enc = huffman_encode(symbols, 256);
  EXPECT_EQ(huffman_decode(enc), symbols);
}

TEST(Huffman, RejectsBadInput) {
  std::vector<std::uint16_t> bad{300};
  EXPECT_THROW(huffman_encode(bad, 257), UsageError);
  EXPECT_THROW(huffman_decode(Bytes{1, 2}), FormatError);
}

TEST(BitIo, WriterReaderAgree) {
  BitWriter writer;
  writer.put(0b101, 3);
  writer.put(0b1, 1);
  writer.put(0xABCD, 16);
  writer.put(0, 5);
  Bytes bits = writer.finish();
  BitReader reader(bits);
  EXPECT_EQ(reader.get(3), 0b101u);
  EXPECT_EQ(reader.get(1), 0b1u);
  EXPECT_EQ(reader.get(16), 0xABCDu);
  EXPECT_EQ(reader.get(5), 0u);
  EXPECT_THROW(reader.get(8), FormatError);
}

// ------------------------------------------------------------------ bwt ---

TEST(Bwt, KnownTransform) {
  // The canonical "banana" example.
  Bytes data = ascii("banana");
  BwtResult r = bwt_forward(data);
  EXPECT_EQ(bwt_inverse(r.last_column, r.primary_index), data);
}

TEST(Bwt, RoundTripClasses) {
  for (const char* kind : {"random", "zeros", "text", "floats"}) {
    for (std::size_t n : {0u, 1u, 2u, 100u, 5000u}) {
      Bytes data = make_data(kind, n, 7);
      BwtResult r = bwt_forward(data);
      ASSERT_EQ(r.last_column.size(), data.size());
      EXPECT_EQ(bwt_inverse(r.last_column, r.primary_index), data)
          << kind << "/" << n;
    }
  }
}

TEST(Bwt, PeriodicInput) {
  Bytes data = ascii("abababababab");
  BwtResult r = bwt_forward(data);
  EXPECT_EQ(bwt_inverse(r.last_column, r.primary_index), data);
}

TEST(Bwt, InverseRejectsBadPrimary) {
  EXPECT_THROW(bwt_inverse(Bytes{1, 2, 3}, 3), FormatError);
}

TEST(Mtf, RoundTripAndFrontLoading) {
  Bytes data = ascii("aaabbbcccaaa");
  Bytes enc = mtf_encode(data);
  EXPECT_EQ(mtf_decode(enc), data);
  // Runs of a repeated byte become zeros after the first occurrence.
  EXPECT_EQ(enc[1], 0);
  EXPECT_EQ(enc[2], 0);
}

// --------------------------------------------------------------- codecs ---

class CodecProperty
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
protected:
  std::unique_ptr<Codec> codec() const {
    return make_codec(std::get<0>(GetParam()), 4);
  }
};

TEST_P(CodecProperty, RoundTripsEveryDataClass) {
  const std::string kind = std::get<1>(GetParam());
  auto c = codec();
  for (std::size_t n : {0u, 1u, 17u, 4096u, 300000u}) {
    Bytes data = make_data(kind, n, 11);
    Bytes frame = c->compress(data);
    EXPECT_EQ(c->decompress(frame), data)
        << c->name() << "/" << kind << "/" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecProperty,
    ::testing::Combine(::testing::Values("none", "blosc", "bzip2"),
                       ::testing::Values("random", "zeros", "text", "floats")),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

TEST(Codec, BloscShrinksShuffledFloats) {
  Bytes data = make_data("floats", 1 << 20, 3);
  auto blosc = make_blosc_codec(4);
  Bytes frame = blosc->compress(data);
  // The paper's Table II sees ~11% reduction on BIT1 float data at 1 node;
  // smooth synthetic floats shuffle-compress at least that well.
  EXPECT_LT(frame.size(), data.size() * 90 / 100);
}

TEST(Codec, Bzip2BeatsBloscOnText) {
  Bytes data = make_data("text", 1 << 18, 5);
  auto blosc = make_blosc_codec(1);
  auto bz = make_bzip2_codec();
  EXPECT_LT(bz->compress(data).size(), blosc->compress(data).size());
}

TEST(Codec, IncompressibleDataFallsBackToRaw) {
  Bytes data = make_data("random", 100000, 9);
  for (const char* name : {"blosc", "bzip2"}) {
    auto c = make_codec(name);
    Bytes frame = c->compress(data);
    // Raw fallback: bounded overhead even on incompressible input.
    EXPECT_LT(frame.size(), data.size() + 64u) << name;
    EXPECT_EQ(c->decompress(frame), data) << name;
  }
}

TEST(Codec, RegistryNamesAndErrors) {
  EXPECT_EQ(make_codec("none")->name(), "none");
  EXPECT_EQ(make_codec("blosc")->name(), "blosc");
  EXPECT_EQ(make_codec("bzip2")->name(), "bzip2");
  EXPECT_EQ(make_codec("")->name(), "none");
  EXPECT_THROW(make_codec("zstd"), UsageError);
}

TEST(Codec, DecompressRejectsWrongMagic) {
  auto blosc = make_blosc_codec();
  auto bz = make_bzip2_codec();
  Bytes frame = blosc->compress(make_data("text", 100, 1));
  EXPECT_THROW(bz->decompress(frame), FormatError);
  EXPECT_THROW(blosc->decompress(Bytes{}), FormatError);
}

/// A one-block BZL1 frame declaring a `raw_len`-byte block whose Huffman
/// stream holds `runbs` RUNB symbols (zero-run digits) and nothing else.
Bytes bzl1_zero_run_frame(std::size_t runbs, std::uint32_t raw_len = 16) {
  const std::vector<std::uint16_t> symbols(runbs, 1);  // 1 = RUNB
  const Bytes enc = huffman_encode(symbols, 257);
  Bytes frame = {'B', 'Z', 'L', '1'};
  const auto u32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) frame.push_back(std::uint8_t(v >> (8 * i)));
  };
  u32(raw_len);  // orig_size, low half
  u32(0);        // orig_size, high half
  frame.push_back(1);  // mode: compressed
  u32(1);              // nblocks
  u32(raw_len);
  u32(0);  // primary index
  u32(std::uint32_t(enc.size()));
  frame.insert(frame.end(), enc.begin(), enc.end());
  return frame;
}

TEST(Codec, Bzip2ZeroRunPastItsBlockIsFormatError) {
  const auto bz = make_bzip2_codec();
  // 48 RUNB digits encode a run of 2^49 - 2 zeros in a 16-byte block: the
  // decoder must reject it, not try to allocate it.
  EXPECT_THROW(bz->decompress(bzl1_zero_run_frame(48)), FormatError);
  // 70 digits would shift a digit past bit 63 of the run length.
  EXPECT_THROW(bz->decompress(bzl1_zero_run_frame(70)), FormatError);
  // A block longer than the codec ever writes is rejected up front.
  EXPECT_THROW(bz->decompress(bzl1_zero_run_frame(1, 128 * 1024 + 1)),
               FormatError);
}

TEST(Codec, DeclaredSizesTheFrameCannotBackAreFormatError) {
  // Each decoder bounds what it allocates by what the frame's bytes can
  // back, so a forged size or count is a FormatError, never bad_alloc.
  constexpr std::uint64_t kHuge = std::uint64_t(1) << 62;
  constexpr std::uint64_t kTiB = std::uint64_t(1) << 40;
  constexpr std::uint32_t kMaxCount = 0xFFFFFFFFu;
  const auto blosc = make_blosc_codec();
  const auto bz = make_bzip2_codec();

  // BLL1: 2^62 bytes in one (empty, raw) chunk of at most 256 KiB.
  Bytes bll1_size = ascii("BLL1");
  bll1_size.push_back(4);  // typesize
  put_u64(bll1_size, kHuge);
  put_u32(bll1_size, 1);  // nchunks
  put_u32(bll1_size, 0);  // raw_len
  bll1_size.push_back(0);  // mode: raw
  put_u32(bll1_size, 0);  // enc_len
  EXPECT_THROW(blosc->decompress(bll1_size), FormatError);

  // BLL1: 2^32 - 1 chunk headers declared, none present.
  Bytes bll1_count = ascii("BLL1");
  bll1_count.push_back(4);
  put_u64(bll1_count, kTiB);
  put_u32(bll1_count, kMaxCount);
  EXPECT_THROW(blosc->decompress(bll1_count), FormatError);

  // BZL1: 2^62 bytes in one (empty) block of at most 128 KiB.
  Bytes bzl1_size = ascii("BZL1");
  put_u64(bzl1_size, kHuge);
  bzl1_size.push_back(1);  // mode: compressed
  put_u32(bzl1_size, 1);   // nblocks
  put_u32(bzl1_size, 0);   // raw_len
  put_u32(bzl1_size, 0);   // primary index
  put_u32(bzl1_size, 0);   // enc_len
  EXPECT_THROW(bz->decompress(bzl1_size), FormatError);

  // BZL1: 2^32 - 1 block headers declared, none present.
  Bytes bzl1_count = ascii("BZL1");
  put_u64(bzl1_count, kTiB);
  bzl1_count.push_back(1);
  put_u32(bzl1_count, kMaxCount);
  EXPECT_THROW(bz->decompress(bzl1_count), FormatError);

  // CZP1: 1-byte blocks make a consistent 2^32 - 1 entry block table (a
  // 16 GiB allocation), which the frame does not hold.
  Bytes czp1 = ascii("CZP1");
  czp1.push_back(kFrameVersion);
  put_u64(czp1, kMaxCount);  // orig_size
  put_u32(czp1, 1);          // block_size
  put_u32(czp1, kMaxCount);  // nblocks
  EXPECT_THROW(decompress_frame(czp1), FormatError);
}

TEST(Codec, Czp1BlockItsFrameCannotBackIsFormatError) {
  // block_size is a free u32, so one CZP1 block may declare 2^32 - 1
  // bytes.  The decoder checks every inner frame against its block's
  // share before it allocates the output: a 38-byte frame must never cost
  // a 4 GiB allocation.
  constexpr std::uint32_t kMaxCount = 0xFFFFFFFFu;
  const auto czp1_one_block = [&](const Bytes& inner) {
    Bytes frame = ascii("CZP1");
    frame.push_back(kFrameVersion);
    put_u64(frame, kMaxCount);  // orig_size
    put_u32(frame, kMaxCount);  // block_size
    put_u32(frame, 1);          // nblocks
    put_u32(frame, std::uint32_t(inner.size()));
    frame.insert(frame.end(), inner.begin(), inner.end());
    return frame;
  };

  // The inner RAW1 frame declares its 1-byte body, not the block's share.
  Bytes raw_one = ascii("RAW1");
  put_u64(raw_one, 1);
  raw_one.push_back(0x5A);
  const Bytes short_share = czp1_one_block(raw_one);
  EXPECT_EQ(short_share.size(), 38u);
  EXPECT_THROW(decompress_frame(short_share), FormatError);

  // The inner RAW1 frame declares the share, 2^32 - 1 bytes, over a 1-byte
  // body: RAW1's own rule (body length = declared size) rejects it.
  Bytes raw_forged = ascii("RAW1");
  put_u64(raw_forged, kMaxCount);
  raw_forged.push_back(0x5A);
  EXPECT_THROW(decompress_frame(czp1_one_block(raw_forged)), FormatError);
}

TEST(Codec, SpeedModelOrdering) {
  // The storage simulator relies on blosc being modelled much faster than
  // bzip2 (that is the whole Fig 7 / Table II trade-off).
  auto blosc = make_blosc_codec();
  auto bz = make_bzip2_codec();
  EXPECT_GT(blosc->compress_speed_bps(), 10 * bz->compress_speed_bps());
}

// ------------------------------------------------- seed differentials ----
// The optimised kernels must stay stream-compatible with the frozen seed
// kernels: same formats, mutually decodable, identical results.

TEST(SeedDifferential, ShuffleMatchesSeed) {
  for (std::size_t typesize : {1u, 2u, 4u, 8u, 16u, 3u}) {
    // Include sizes with a partial trailing element.
    for (std::size_t n : {0u, 1u, 63u, 4096u, 4098u, 100003u}) {
      Bytes data = make_data("random", n, 21);
      EXPECT_EQ(shuffle(data, typesize), seed_shuffle(data, typesize))
          << typesize << "/" << n;
      Bytes shuf = shuffle(data, typesize);
      EXPECT_EQ(unshuffle(shuf, typesize), seed_unshuffle(shuf, typesize))
          << typesize << "/" << n;
    }
  }
}

TEST(SeedDifferential, LzStreamsInterchangeable) {
  for (const char* kind : {"random", "zeros", "text", "floats"}) {
    Bytes data = make_data(kind, 70000, 23);
    // Seed-compressed decodes with the optimised decoder and vice versa.
    EXPECT_EQ(lz_decompress_block(seed_lz_compress_block(data), data.size()),
              data)
        << kind;
    EXPECT_EQ(seed_lz_decompress_block(lz_compress_block(data), data.size()),
              data)
        << kind;
  }
}

TEST(SeedDifferential, HuffmanDecodersAgree) {
  Rng rng(29);
  std::vector<std::uint16_t> symbols(50000);
  for (auto& s : symbols)
    s = std::uint16_t(rng.below(7) == 0 ? rng.below(257) : rng.below(4));
  const Bytes enc = huffman_encode(symbols, 257);
  EXPECT_EQ(huffman_decode(enc), symbols);
  EXPECT_EQ(seed_huffman_decode(enc), symbols);
}

TEST(SeedDifferential, SeedBloscFramesDecode) {
  Bytes data = make_data("floats", 600000, 31);
  const Bytes seed_frame = seed_blosc_compress(data, 4);
  // Seed frames are standard BLL1: both the codec and the magic-dispatching
  // frame decoder accept them.
  EXPECT_EQ(make_blosc_codec(4)->decompress(seed_frame), data);
  EXPECT_EQ(decompress_frame(seed_frame), data);
}

// ----------------------------------------------------- parallel codec ----

/// (inner codec name, thread count) for the parallel property suite.
class ParallelCodecProperty
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {
protected:
  static constexpr std::size_t kBlock = 4096;  // smallest legal block

  std::unique_ptr<Codec> codec() const {
    return make_parallel_codec(make_codec(std::get<0>(GetParam()), 4),
                               std::get<1>(GetParam()), kBlock);
  }
};

TEST_P(ParallelCodecProperty, RoundTripsEdgeSizes) {
  auto c = codec();
  // Empty, one byte, exact block multiples, straddling sizes, and a size
  // with a partial trailing 4-byte shuffle element (4097, 12289).
  for (std::size_t n : {0u, 1u, 4095u, 4096u, 4097u, 8192u, 12289u, 40000u}) {
    for (const char* kind : {"zeros", "random", "floats"}) {
      Bytes data = make_data(kind, n, 37);
      Bytes frame = c->compress(data);
      EXPECT_EQ(c->decompress(frame), data) << kind << "/" << n;
      EXPECT_EQ(decompress_frame(frame, 4), data) << kind << "/" << n;
    }
  }
}

TEST_P(ParallelCodecProperty, FramesIdenticalAcrossThreadCounts) {
  // The determinism guarantee: bytes depend on (input, inner, block_size)
  // only, never the thread count.
  const std::string inner = std::get<0>(GetParam());
  auto serial = make_parallel_codec(make_codec(inner, 4), 1, kBlock);
  auto c = codec();
  for (std::size_t n : {0u, 4096u, 12289u, 50000u}) {
    Bytes data = make_data("floats", n, 41);
    EXPECT_EQ(c->compress(data), serial->compress(data)) << n;
  }
}

TEST_P(ParallelCodecProperty, DecodesLegacySingleBlockFrames) {
  // Satellite fix: readers of old containers need no migration — the
  // parallel codec (and decompress_frame) accept the seed formats.
  const std::string inner = std::get<0>(GetParam());
  auto legacy = make_codec(inner, 4);
  auto c = codec();
  Bytes data = make_data("floats", 30000, 43);
  EXPECT_EQ(c->decompress(legacy->compress(data)), data);
}

INSTANTIATE_TEST_SUITE_P(
    BothCodecs, ParallelCodecProperty,
    ::testing::Combine(::testing::Values("blosc", "bzip2"),
                       ::testing::Values(1, 4)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ParallelCodec, GoldenFrameBytes) {
  // A fixed input through the raw inner codec, compared byte for byte: a
  // change to the CZP1 framing shows up as a changed golden next to the
  // version constant, which must change with it.
  EXPECT_EQ(kFrameVersion, 1);
  const Bytes input{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const ParallelCodec codec(make_none_codec(), 1, 4096);
  const Bytes frame = codec.compress(input);
  std::string hex;
  for (const std::uint8_t b : frame) {
    hex += "0123456789abcdef"[b >> 4];
    hex += "0123456789abcdef"[b & 15];
  }
  EXPECT_EQ(hex,
            "435a5031010a00000000000000001000000100000016000000524157310a0000"
            "00000000000102030405060708090a");
}

TEST(ParallelCodec, FrameVersionIsChecked) {
  auto c = make_parallel_codec(make_blosc_codec(4), 2, 4096);
  Bytes data = make_data("floats", 20000, 47);
  Bytes frame = c->compress(data);
  ASSERT_GT(frame.size(), 5u);
  frame[4] = 9;  // unsupported version
  EXPECT_THROW(c->decompress(frame), FormatError);
  EXPECT_THROW(decompress_frame(frame), FormatError);
}

TEST(ParallelCodec, RejectsCorruptFrames) {
  auto c = make_parallel_codec(make_blosc_codec(4), 2, 4096);
  Bytes data = make_data("floats", 20000, 53);  // 5 blocks of 4096
  const Bytes frame = c->compress(data);

  // Truncated block table: cut inside the u32 table after the header.
  Bytes truncated(frame.begin(), frame.begin() + 23);
  EXPECT_THROW(c->decompress(truncated), FormatError);

  // Bad block count: nblocks inconsistent with orig_size/block_size.
  Bytes bad_count = frame;
  bad_count[17] = std::uint8_t(bad_count[17] + 1);  // nblocks lo byte
  EXPECT_THROW(c->decompress(bad_count), FormatError);

  // Trailing garbage after the last block body.
  Bytes trailing = frame;
  trailing.push_back(0xAB);
  EXPECT_THROW(c->decompress(trailing), FormatError);

  // Bad magic dispatch.
  EXPECT_THROW(decompress_frame(ascii("XXXXnope")), FormatError);
}

TEST(ParallelCodec, FrameDecodeHoldsEveryFrameToTheExpectedSize) {
  // With raw_size, decompress_frame rejects a frame declaring any other
  // decoded size before decoding it: every frame kind it dispatches to,
  // and every block inside a CZP1 frame.
  const Bytes data = make_data("floats", 20000, 59);
  const std::vector<Bytes> frames{
      make_none_codec()->compress(data), make_blosc_codec(4)->compress(data),
      make_bzip2_codec()->compress(data),
      make_parallel_codec(make_blosc_codec(4), 2, 4096)->compress(data)};
  for (const Bytes& frame : frames) {
    SCOPED_TRACE(std::string(frame.begin(), frame.begin() + 4));
    EXPECT_EQ(decompress_frame(frame, 1, data.size()), data);
    EXPECT_THROW(decompress_frame(frame, 1, data.size() + 1), FormatError);
    EXPECT_THROW(decompress_frame(frame, 1, std::uint64_t(1) << 50),
                 FormatError);
  }
  // The first inner BLL1 frame of the CZP1 frame sits after the 21-byte
  // header and the block table; its declared size is at +5.  Raising the
  // top byte of that size makes the block claim petabytes.
  Bytes czp = frames.back();
  const std::size_t inner = 21 + 4 * ((data.size() + 4095) / 4096);
  czp[inner + 5 + 7] = 0x40;
  EXPECT_THROW(decompress_frame(czp, 1, data.size()), FormatError);
  EXPECT_THROW(decompress_frame(czp), FormatError);
}

}  // namespace
}  // namespace bitio::cz
