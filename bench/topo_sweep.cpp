// Topology sweep: flat vs two-level aggregation at 1K / 10K / 50K simulated
// ranks on the Dardel node hierarchy (128 ranks/node).
//
// The sweep drives core::run_openpmd_epoch — every structural piece of the
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
// `topo_sweep --json` emits the whole report as JSON
// (scripts/bench_report.sh captures it as BENCH_topo.json).  The sanity
// gate is in-band: on a multi-node topology with >= 16 ranks/node the
// two-level curve must be at least as fast as flat at >= 10K ranks — a
// violation exits nonzero.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "darshan/darshan.hpp"
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
    doc["two_level_beats_flat_at_10k"] = two_level_ok;
    doc["all_checks_ok"] = two_level_ok;
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
    std::printf(two_level_ok
                    ? "two-level >= flat at >= 10K ranks: ok\n"
                    : "WARNING: two-level lost to flat at >= 10K ranks\n");
  }
  return two_level_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--json") return run_sweep(true);
  return run_sweep(false);
}
