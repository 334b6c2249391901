// Table II: file population census on Dardel — total written files, average
// size, and maximum size, for four configurations at 1..200 nodes:
//   BIT1 Original I/O
//   BIT1 openPMD + BP4 (node-level aggregation)
//   BIT1 openPMD + BP4 + 1 AGGR
//   BIT1 openPMD + BP4 + Blosc + 1 AGGR
//
// Paper anchors: original 262 files/1.9MiB avg at 1 node -> 51206/13KiB at
// 200; BP4 node-agg 6 -> 205 files; 1 AGGR fixed at 6 files with avg
// 81MiB -> 326MiB; Blosc shrinks the 1-node average by ~11% and the
// 200-node average by ~3.7% (metadata does not compress).
#include "bench_common.hpp"

using namespace bitio;
using namespace bitio::benchkit;

namespace {

void print_config(const char* title,
                  const std::vector<core::EpochResult>& results,
                  const std::vector<int>& nodes) {
  TextTable table(title);
  std::vector<std::string> header{"Number of Nodes"}, files{"Total Written Files"},
      avg{"Average File Size"}, max{"Max File Size"};
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    header.push_back(std::to_string(nodes[i]));
    files.push_back(std::to_string(results[i].total_files));
    avg.push_back(format_bytes(results[i].avg_file_bytes));
    max.push_back(format_bytes(results[i].max_file_bytes));
  }
  table.header(std::move(header));
  table.row(std::move(files));
  table.row(std::move(avg));
  table.row(std::move(max));
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main() {
  print_header("Table II — BIT1 write-file census on Dardel (full run)",
               "original 262->51206 files, avg 1.9MiB->13KiB; BP4 6->205; "
               "1 AGGR always 6, avg 81->326MiB; Blosc -11%/-3.7%");
  const auto profile = fsim::dardel();

  std::vector<core::EpochResult> original, node_agg, one_agg, blosc_agg;
  for (int nodes : kPaperNodeCounts) {
    const auto spec = core::ScaleSpec::table2(nodes);
    // Census only: no timing replay.  Table II reports sizes, not seconds,
    // and the original-I/O trace of 200 dumps at 200 nodes is 30.8M
    // 48-byte records (1.4 GiB; Fig 5 replays one at a 1.8 GiB peak RSS).
    original.push_back(core::run_original_epoch(profile, spec, false));
    node_agg.push_back(
        core::run_openpmd_epoch(profile, spec, openpmd_config(0), false));
    one_agg.push_back(
        core::run_openpmd_epoch(profile, spec, openpmd_config(1), false));
    blosc_agg.push_back(core::run_openpmd_epoch(
        profile, spec, openpmd_config(1, "blosc"), false));
  }
  print_config("BIT1 Original I/O", original, kPaperNodeCounts);
  print_config("BIT1 openPMD + BP4", node_agg, kPaperNodeCounts);
  print_config("BIT1 openPMD + BP4 + 1 AGGR", one_agg, kPaperNodeCounts);
  print_config("BIT1 openPMD + BP4 + Blosc Compress + 1 AGGR", blosc_agg,
               kPaperNodeCounts);
  return 0;
}
