// Allocation gate for the trace replay (labelled `perf`).  The binary
// replaces the global operator new with a counting one, which is why it is
// a test executable of its own.  Replaying a trace of 4,096 clients with
// six ops each must make fewer heap allocations than there are clients:
// a client's sequence costs a slot in the replay's flat tables, not a
// vector or a map node of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "fsim/posix_fs.hpp"
#include "fsim/storage_model.hpp"
#include "fsim/system_profiles.hpp"

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

namespace bitio::fsim {
namespace {

TEST(FsimAlloc, ReplayAllocatesLessThanOncePerClient) {
  constexpr int kClients = 4096;
  const SystemProfile profile = dardel();
  SharedFs fs(profile.ost_count, /*store_data=*/false);
  // Two dumps of open, append, close per client: six ops each, recorded
  // dump by dump like the original-I/O workload.
  for (int dump = 0; dump < 2; ++dump) {
    for (int c = 0; c < kClients; ++c) {
      FsClient client(fs, ClientId(c));
      const int fd =
          client.open("run/f" + std::to_string(c) + ".dat",
                      dump == 0 ? OpenMode::create : OpenMode::append);
      client.write_simulated(fd, 6000, 3);
      client.close(fd);
    }
  }
  ASSERT_EQ(fs.trace().size(), 6u * kClients);

  g_allocations = 0;
  g_counting = true;
  const ReplayReport report =
      replay_trace(profile, fs.store(), fs.trace(), kClients);
  g_counting = false;

  const std::size_t allocations = g_allocations.load();
  RecordProperty("allocations", std::to_string(allocations));
  EXPECT_LT(allocations, std::size_t(kClients))
      << allocations << " heap allocations for " << kClients << " clients";
  EXPECT_GT(report.makespan, 0.0);
}

}  // namespace
}  // namespace bitio::fsim
