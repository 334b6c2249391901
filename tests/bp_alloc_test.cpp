// Allocation gates for the synthetic chunk path (labelled `perf`).  The
// binary replaces the global operator new with a counting one, which is
// why it is a test executable of its own.  One synchronous bp4 step of 64
// ranks x 15 particle variables, shaped like the paper workload's
// checkpoint, must make fewer heap allocations than it has chunks: a
// chunk's variable name, shape, offset and count cost none, on the put
// side or in the drain.  And the same step at 512 ranks may make at most
// 16 more allocations than at 64: nothing is allocated per rank.
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

/// The 15 particle variables of the paper workload's checkpoint.
std::vector<std::string> checkpoint_names() {
  std::vector<std::string> names;
  for (const char* species : {"e", "D+", "D"})
    for (const char* array : {"position/x", "velocity/x", "velocity/y",
                              "velocity/z", "weighting"})
      names.push_back(std::string("particles/") + species + "/" + array);
  return names;
}

/// Heap allocations of a fresh writer's first synthetic step on `ranks`
/// ranks x 15 variables, put variable by variable, from begin_step through
/// end_step.
std::size_t first_step_allocations(int ranks) {
  constexpr std::uint64_t kPerRank = 1000;
  const std::vector<std::string> names = checkpoint_names();
  fsim::SharedFs fs(8);
  EngineConfig config;
  config.num_aggregators = 4;
  Writer writer = Writer::open(fs, "alloc.bp4", config, ranks);

  const std::uint64_t total = std::uint64_t(ranks) * kPerRank;
  g_allocations = 0;
  g_counting = true;
  writer.begin_step(0);
  for (const std::string& name : names)
    for (int r = 0; r < ranks; ++r)
      writer.put_synthetic(r, name, Datatype::float64, {total},
                           {std::uint64_t(r) * kPerRank}, {kPerRank});
  writer.end_step();
  g_counting = false;
  writer.close();
  return g_allocations.load();
}

TEST(BpAlloc, SyntheticStepAllocatesLessThanOncePerChunk) {
  constexpr int kRanks = 64;
  const std::size_t chunks = checkpoint_names().size() * kRanks;
  const std::size_t allocations = first_step_allocations(kRanks);
  RecordProperty("allocations", std::to_string(allocations));
  EXPECT_LT(allocations, chunks) << allocations << " heap allocations for "
                                 << chunks << " chunks";
}

TEST(BpAlloc, SyntheticStepAllocationsDoNotScaleWithRanks) {
  // A step's chunk table is one flat table, not one per rank: eight times
  // the ranks may cost a few more doublings of the table, the rank order
  // and the trace, but no allocation per rank.
  const std::size_t at_64 = first_step_allocations(64);
  const std::size_t at_512 = first_step_allocations(512);
  RecordProperty("allocations_64_ranks", std::to_string(at_64));
  RecordProperty("allocations_512_ranks", std::to_string(at_512));
  EXPECT_LE(at_512, at_64 + 16)
      << at_64 << " heap allocations at 64 ranks, " << at_512 << " at 512";
}

}  // namespace
}  // namespace bitio::bp
