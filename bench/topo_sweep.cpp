// Topology sweep: flat vs two-level aggregation at 1K / 10K / 50K simulated
// ranks on the Dardel node hierarchy (128 ranks/node), plus a live-mode
// 50K-rank gather run on the event-driven smpi scheduler's bounded worker
// pool.
//
// Model mode drives core::run_openpmd_epoch — every structural piece of the
// write path (aggregation mapping, gather hops, chunk metadata, file
// population) executes for real with size-only payloads, and the queueing
// replay scores the trace.  Three configurations per scale:
//
//   legacy     topology = "flat"    no gather is modelled — the pre-topology
//                                   baseline (trace and container bytes are
//                                   identical to it by construction)
//   flat       topology = "dardel"  every remote rank sends its chunk to its
//                                   aggregator directly over the NIC
//   two_level  topology = "dardel"  ranks fold into their node leader over
//                                   shm, one NIC transfer per node follows
//
// Live mode runs the same two-level gather shape as 50,000 resumable rank
// tasks (send-to-leader, leader fan-in, global exchange of node sums) on a
// bounded pool and checks the reduction plus the OS thread ceiling.
//
// `topo_sweep --json` emits the whole report as JSON
// (scripts/bench_report.sh captures it as BENCH_topo.json).  The sanity
// gate is in-band: on a multi-node topology with >= 16 ranks/node the
// two-level curve must be at least as fast as flat at >= 10K ranks, and the
// live run must finish on the bounded pool — any violation exits nonzero.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "darshan/darshan.hpp"
#include "smpi/sched.hpp"
#include "topo/topology.hpp"
#include "util/json.hpp"

using namespace bitio;
using namespace bitio::benchkit;

namespace {

constexpr int kRanksPerNode = 128;  // Dardel: 2x AMD EPYC 7742

struct SweepRow {
  std::string label;        // legacy | flat | two_level
  std::string topology;
  std::string aggregation;
  int ranks = 0;
  int nodes = 0;
  int aggregators = 0;
  core::EpochResult result;
};

SweepRow run_epoch(const std::string& label, const std::string& topology,
                   const std::string& aggregation, int nodes,
                   int aggregators) {
  SweepRow row;
  row.label = label;
  row.topology = topology;
  row.aggregation = aggregation;
  row.nodes = nodes;
  row.ranks = nodes * kRanksPerNode;
  row.aggregators = aggregators;

  core::Bit1IoConfig config = openpmd_config(aggregators);
  config.aggregation = aggregation;
  config.topology = topology;

  const auto profile = fsim::dardel();
  const auto spec = core::ScaleSpec::throughput(nodes);
  row.result = core::run_openpmd_epoch(profile, spec, config);
  return row;
}

// --- live mode: the two-level gather as 50K scheduler tasks ----------------

std::vector<std::byte> bytes_of_u64(std::uint64_t value) {
  std::vector<std::byte> out(sizeof(value));
  std::memcpy(out.data(), &value, sizeof(value));
  return out;
}

std::uint64_t u64_of(const std::vector<std::byte>& bytes) {
  std::uint64_t value = 0;
  if (bytes.size() == sizeof(value))
    std::memcpy(&value, bytes.data(), sizeof(value));
  return value;
}

/// One rank of the live gather: non-leaders send their contribution to the
/// node leader; leaders fan in, then every rank joins one exchange where
/// leaders publish the node sums; everyone checks the global reduction.
class GatherRank final : public smpi::sched::RankProgram {
 public:
  GatherRank(int nranks, const topo::Mapper& mapper)
      : nranks_(nranks), mapper_(mapper) {}

  smpi::sched::Action step(smpi::sched::RankCtx& ctx) override {
    using smpi::sched::Action;
    ctx.check();
    const int rank = ctx.rank();
    const int leader = mapper_.leader_of(rank);
    if (rank != leader) {
      switch (state_++) {
        case 0:
          return Action::send(leader, bytes_of_u64(std::uint64_t(rank)));
        case 1:
          return Action::exchange({});
        default:
          ok_ = check_total(ctx);
          return Action::finish();
      }
    }
    const int members = mapper_.ranks_on_node(mapper_.node_of(rank));
    if (state_ == 0) sum_ = std::uint64_t(rank);
    if (state_ < members - 1) {
      // Fan in from the node's other ranks, one mailbox at a time; the
      // payload of the recv the previous step parked on arrives first.
      if (state_ > 0) sum_ += u64_of(ctx.take_recv());
      return Action::recv(leader + 1 + state_++);
    }
    switch (state_++ - (members - 1)) {
      case 0:
        if (members > 1) sum_ += u64_of(ctx.take_recv());
        return Action::exchange(bytes_of_u64(sum_));
      default:
        ok_ = check_total(ctx);
        return Action::finish();
    }
  }

  bool ok() const { return ok_; }

 private:
  bool check_total(smpi::sched::RankCtx& ctx) const {
    std::uint64_t total = 0;
    for (const auto& slot : ctx.exchanged()) total += u64_of(slot);
    const std::uint64_t n = std::uint64_t(nranks_);
    return total == n * (n - 1) / 2;
  }

  const int nranks_;
  const topo::Mapper& mapper_;
  int state_ = 0;
  std::uint64_t sum_ = 0;
  bool ok_ = false;
};

int os_thread_count() {
  // Host-side probe of the bench process itself, not simulated storage
  // (bench/CMakeLists.txt exempts this file from util/no_raw_io.hpp).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0)
      return std::atoi(line.c_str() + 8);
  return -1;
}

struct LiveRun {
  int ranks = 0;
  int workers = 0;
  double seconds = 0.0;
  int threads_before = 0;
  int peak_threads = 0;
  bool reduction_ok = false;
  bool thread_bound_ok = false;
};

LiveRun run_live(int nranks, int workers) {
  LiveRun live;
  live.ranks = nranks;
  live.workers = workers;

  topo::Cluster cluster = topo::Cluster::preset("dardel");
  const topo::Mapper mapper(cluster, nranks);
  std::vector<GatherRank*> programs(std::size_t(nranks), nullptr);
  smpi::sched::Scheduler scheduler(nranks, [&](int rank) {
    auto program = std::make_unique<GatherRank>(nranks, mapper);
    programs[std::size_t(rank)] = program.get();
    return program;
  });

  live.threads_before = os_thread_count();
  // Sample the process thread count while the scheduler runs: the bound
  // we are demonstrating is the *peak*, not the count after the pool has
  // joined its workers.
  std::atomic<bool> done{false};
  std::atomic<int> peak{live.threads_before};
  std::thread monitor([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const int now = os_thread_count();
      int seen = peak.load(std::memory_order_relaxed);
      while (now > seen &&
             !peak.compare_exchange_weak(seen, now,
                                         std::memory_order_relaxed)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  const auto t0 = std::chrono::steady_clock::now();
  scheduler.run(workers);
  const auto t1 = std::chrono::steady_clock::now();
  done.store(true, std::memory_order_relaxed);
  monitor.join();
  live.peak_threads = peak.load();

  live.seconds = std::chrono::duration<double>(t1 - t0).count();
  live.reduction_ok = true;
  for (const auto* program : programs)
    live.reduction_ok = live.reduction_ok && program && program->ok();
  // The pool holds `workers` threads plus a small constant (the monitor,
  // bookkeeping); 50K ranks must never mean 50K threads.
  live.thread_bound_ok =
      live.peak_threads <= live.threads_before + workers + 4;
  return live;
}

// --- report ----------------------------------------------------------------

int run_sweep(bool as_json) {
  const int node_counts[] = {8, 80, 400};  // 1024 / 10240 / 51200 ranks
  struct Mode {
    const char* label;
    const char* topology;
    const char* aggregation;
  };
  const Mode modes[] = {{"legacy", "flat", "flat"},
                        {"flat", "dardel", "flat"},
                        {"two_level", "dardel", "two_level"}};

  std::vector<SweepRow> rows;
  for (int nodes : node_counts)
    for (const Mode& mode : modes)
      rows.push_back(run_epoch(mode.label, mode.topology, mode.aggregation,
                               nodes, 2 * nodes));

  const int live_workers = 16;
  const LiveRun live = run_live(50'000, live_workers);

  // Sanity gate: with >= 16 ranks/node, two-level must not lose to flat
  // aggregation on the same hierarchical topology at >= 10K ranks.
  bool two_level_ok = true;
  for (const SweepRow& two : rows) {
    if (two.label != "two_level" || two.ranks < 10'000 ||
        kRanksPerNode < 16)
      continue;
    for (const SweepRow& flat : rows)
      if (flat.label == "flat" && flat.ranks == two.ranks &&
          flat.aggregators == two.aggregators)
        two_level_ok = two_level_ok &&
                       two.result.write_gibps >= flat.result.write_gibps;
  }
  const bool live_ok = live.reduction_ok && live.thread_bound_ok;
  const bool all_ok = two_level_ok && live_ok;

  if (as_json) {
    Json doc{JsonObject{}};
    doc["bench"] = "topo_sweep";
    doc["profile"] = "dardel";
    doc["ranks_per_node"] = kRanksPerNode;
    JsonArray sweep;
    for (const SweepRow& row : rows) {
      Json entry{JsonObject{}};
      entry["label"] = row.label;
      entry["topology"] = row.topology;
      entry["aggregation"] = row.aggregation;
      entry["aggregation_tag"] = darshan::aggregation_tag(row.aggregation);
      entry["ranks"] = row.ranks;
      entry["nodes"] = row.nodes;
      entry["aggregators"] = row.aggregators;
      entry["write_gibps"] = row.result.write_gibps;
      entry["makespan_s"] = row.result.makespan_s;
      entry["bytes_written"] = row.result.bytes_written;
      entry["bytes_gathered"] = row.result.bytes_gathered;
      entry["total_files"] = row.result.total_files;
      sweep.push_back(std::move(entry));
    }
    doc["sweep"] = std::move(sweep);
    Json live_doc{JsonObject{}};
    live_doc["ranks"] = live.ranks;
    live_doc["workers"] = live.workers;
    live_doc["seconds"] = live.seconds;
    live_doc["threads_before"] = live.threads_before;
    live_doc["peak_threads"] = live.peak_threads;
    live_doc["reduction_ok"] = live.reduction_ok;
    live_doc["thread_bound_ok"] = live.thread_bound_ok;
    doc["live_50k"] = std::move(live_doc);
    doc["two_level_beats_flat_at_10k"] = two_level_ok;
    doc["all_checks_ok"] = all_ok;
    std::printf("%s\n", doc.dump(2).c_str());
  } else {
    print_header(
        "Topology sweep — flat vs two-level aggregation, Dardel hierarchy",
        "one NIC transfer per node beats per-rank NIC messages once nodes "
        "are wide");
    TextTable table;
    table.header({"mode", "ranks", "nodes", "aggr", "GiB/s", "gathered",
                  "files"});
    for (const SweepRow& row : rows) {
      table.row({row.label, std::to_string(row.ranks),
                 std::to_string(row.nodes), std::to_string(row.aggregators),
                 gibps(row.result.write_gibps),
                 strfmt("%.1f GiB",
                        double(row.result.bytes_gathered) / double(GiB)),
                 std::to_string(row.result.total_files)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "live 50K-rank gather on %d workers: %.2f s, peak threads %d, "
        "reduction %s\n",
        live.workers, live.seconds, live.peak_threads,
        live.reduction_ok ? "ok" : "FAIL");
    std::printf(two_level_ok
                    ? "two-level >= flat at >= 10K ranks: ok\n"
                    : "WARNING: two-level lost to flat at >= 10K ranks\n");
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--json") return run_sweep(true);
  return run_sweep(false);
}
