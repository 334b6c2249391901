// Fast performance smoke test (labelled `perf`; run with the `perf` test
// preset or `ctest -L perf`).  Guards the headline property of the
// block-parallel pipeline without the full bench sweep: on an 8 MiB
// float-particle workload the optimized pipeline must round-trip exactly
// and beat the frozen seed kernel even at 2 threads.  The full
// threads x block-size report lives in BENCH_codecs.json
// (scripts/bench_report.sh).  The two integrity kernels of the checkpoint
// path are gated the same way against byte- and chain-serial references
// kept here: the XXH64 content hash against FNV-1a, and the three-stream
// CRC32C against one crc32 chain.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>

#include "compress/codec.hpp"
#include "compress/parallel.hpp"
#include "compress/reference.hpp"
#include "util/crc32c.hpp"
#include "util/hash64.hpp"
#include "util/rng.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define BITIO_PERF_SSE42 1
#include <immintrin.h>
#endif

namespace bitio {
namespace {

cz::Bytes particle_floats(std::size_t bytes, std::uint64_t seed) {
  Rng rng(seed);
  cz::Bytes out(bytes);
  float x = 1.0f;
  for (std::size_t i = 0; i + 4 <= bytes; i += 4) {
    x += 0.001f * float(rng.normal());
    std::memcpy(&out[i], &x, 4);
  }
  return out;
}

/// Best-of-N wall seconds: the minimum is the least-disturbed run, which
/// deflakes the comparison on noisy shared boxes.
template <typename Fn>
double best_of(int n, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < n; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

TEST(PerfSmoke, PipelineBeatsSeedKernelAtTwoThreads) {
  constexpr std::size_t kBytes = 8 << 20;
  const cz::Bytes data = particle_floats(kBytes, 42);
  const cz::ByteSpan input(data.data(), data.size());

  cz::Bytes seed_frame;
  const double seed_s =
      best_of(3, [&] { seed_frame = cz::seed_blosc_compress(input, 4); });

  const auto codec =
      cz::make_parallel_codec(cz::make_blosc_codec(4), 2, 1 << 20);
  cz::Bytes frame;
  const double pipe_s = best_of(3, [&] { frame = codec->compress(input); });

  const cz::Bytes back = codec->decompress(frame);
  ASSERT_EQ(back.size(), data.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);

  const double speedup = seed_s / pipe_s;
  EXPECT_GT(speedup, 1.0) << "seed " << seed_s << " s vs pipeline " << pipe_s
                          << " s on " << kBytes << " bytes";
}

/// Byte-serial FNV-1a 64: one dependent multiply per byte.
std::uint64_t fnv1a64(std::span<const std::uint8_t> data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(PerfSmoke, Hash64BeatsByteSerialFnv) {
  constexpr std::size_t kBytes = 8 << 20;
  const cz::Bytes data = particle_floats(kBytes, 7);
  const std::span<const std::uint8_t> input(data.data(), data.size());

  std::uint64_t fnv = 0;
  std::uint64_t xxh = 0;
  const double fnv_s = best_of(5, [&] { fnv = fnv1a64(input); });
  const double xxh_s = best_of(5, [&] { xxh = util::hash64(input); });
  EXPECT_NE(fnv, xxh);  // uses both results, so neither loop is elided

  EXPECT_GE(fnv_s / xxh_s, 3.0) << "FNV-1a " << fnv_s << " s vs hash64 "
                                << xxh_s << " s on " << kBytes << " bytes";
}

#ifdef BITIO_PERF_SSE42
/// One dependent crc32 chain, 8 bytes per instruction, then a bytewise tail.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_one_chain(
    std::span<const std::uint8_t> data) {
  std::uint64_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = std::uint32_t(crc);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
  return crc32 ^ 0xFFFFFFFFu;
}
#endif

TEST(PerfSmoke, Crc32cBeatsOneChainKernel) {
#ifdef BITIO_PERF_SSE42
  if (!__builtin_cpu_supports("sse4.2"))
    GTEST_SKIP() << "no SSE4.2: crc32c runs the table kernel";
  constexpr std::size_t kBytes = 8 << 20;
  const cz::Bytes data = particle_floats(kBytes, 9);
  const std::span<const std::uint8_t> input(data.data(), data.size());

  std::uint32_t chain = 0;
  std::uint32_t streams = 0;
  const double chain_s = best_of(5, [&] { chain = crc32c_one_chain(input); });
  const double streams_s = best_of(5, [&] { streams = crc32c(input); });
  ASSERT_EQ(streams, chain);

  EXPECT_GE(chain_s / streams_s, 1.5)
      << "one chain " << chain_s << " s vs crc32c " << streams_s << " s on "
      << kBytes << " bytes";
#else
  GTEST_SKIP() << "the SSE4.2 kernel is x86-64 only";
#endif
}

}  // namespace
}  // namespace bitio
