// Allocation gate for the synthetic chunk path (labelled `perf`).  The
// binary replaces the global operator new with a counting one, which is
// why it is a test executable of its own.  One synchronous bp4 step of 64
// ranks x 15 particle variables, shaped like the paper workload's
// checkpoint, must make fewer heap allocations than it has chunks: a
// chunk's variable name, shape, offset and count cost none, on the put
// side or in the drain.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bp/writer.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so that GCC does not inline free() into a caller whose
// pointer it saw come from operator new and flag the pair as mismatched.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace bitio::bp {
namespace {

TEST(BpAlloc, SyntheticStepAllocatesLessThanOncePerChunk) {
  constexpr int kRanks = 64;
  constexpr std::uint64_t kPerRank = 1000;
  std::vector<std::string> names;
  for (const char* species : {"e", "D+", "D"})
    for (const char* array : {"position/x", "velocity/x", "velocity/y",
                              "velocity/z", "weighting"})
      names.push_back(std::string("particles/") + species + "/" + array);

  fsim::SharedFs fs(8);
  EngineConfig config;
  config.num_aggregators = 4;
  Writer writer = Writer::open(fs, "alloc.bp4", config, kRanks);

  g_allocations = 0;
  g_counting = true;
  writer.begin_step(0);
  for (const std::string& name : names)
    for (int r = 0; r < kRanks; ++r)
      writer.put_synthetic(r, name, Datatype::float64, {kRanks * kPerRank},
                           {std::uint64_t(r) * kPerRank}, {kPerRank});
  writer.end_step();
  g_counting = false;

  const std::size_t chunks = names.size() * kRanks;
  const std::size_t allocations = g_allocations.load();
  RecordProperty("allocations", std::to_string(allocations));
  EXPECT_LT(allocations, chunks) << allocations << " heap allocations for "
                                 << chunks << " chunks";
  writer.close();
}

}  // namespace
}  // namespace bitio::bp
