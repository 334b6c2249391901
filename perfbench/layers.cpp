// The per-layer metric table and the helpers every workload uses to fill it.
#include <stdexcept>

#include "util/crc32c.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace perfbench {

const LayerMetric kLayerMetrics[] = {
    {"bench.unattributed_s", "s"},
    {"bench.trace_overhead_s", "s"},
    {"bp.make_engine_s", "s"},
    {"bp.begin_step_s", "s"},
    {"bp.put_s", "s"},
    {"bp.end_step_s", "s"},
    {"bp.close_s", "s"},
    {"bp.chunks", "count"},
    {"bp.md_bytes", "B"},
    {"bp.close_append_bytes", "B"},
    {"bp.reader_open_s", "s"},
    {"bp.reader_used_footer", "flag"},
    {"bp.verify_s", "s"},
    {"bp.diag_reader_open_s", "s"},
    {"bp.diag_verify_s", "s"},
    {"util.crc32c_gibps", "GiB/s"},
    {"compress.compress_gibps", "GiB/s"},
    {"compress.decompress_gibps", "GiB/s"},
    {"compress.ratio", "ratio"},
    {"fsim.setup_s", "s"},
    {"fsim.posix_s", "s"},
    {"fsim.replay_s", "s"},
    {"fsim.census_s", "s"},
    {"fsim.trace_ops", "count"},
    {"fsim.mds_busy_s", "sim_s"},
    {"fsim.ost_busy_max_s", "sim_s"},
    {"fsim.mean_meta_s", "sim_s"},
    {"fsim.mean_write_s", "sim_s"},
    {"fsim.mean_drain_s", "sim_s"},
    {"fsim.cpu_s.compress", "sim_s"},
    {"fsim.cpu_s.decompress", "sim_s"},
    {"fsim.cpu_s.memcopy", "sim_s"},
    {"fsim.cpu_s.crc32c", "sim_s"},
    {"fsim.cpu_s.backoff", "sim_s"},
    {"fsim.cpu_s.restore_chain", "sim_s"},
    {"fsim.cpu_s.other", "sim_s"},
    {"fsim.write_gibps", "GiB/s"},
    {"picmc.init_s", "s"},
    {"picmc.step_s", "s"},
    {"picmc.sample_s", "s"},
    {"picmc.particles", "count"},
    {"core.open_s", "s"},
    {"core.stage_s", "s"},
    {"core.flush_s", "s"},
    {"core.close_s", "s"},
    {"resil.open_s", "s"},
    {"resil.stage_s", "s"},
    {"resil.commit_s", "s"},
    {"resil.restore_s", "s"},
    {"resil.scrub_s", "s"},
    {"resil.write_retries", "count"},
    {"resil.delta_epochs", "count"},
    {"resil.blocks_restored", "count"},
    {"resil.dedup_ratio", "ratio"},
    {"darshan.capture_s", "s"},
};
void emit_layer_metrics(const std::map<std::string, double>& values,
                        RunResult& result) {
  for (const auto& [name, value] : values) {
    bool declared = false;
    for (const LayerMetric& m : kLayerMetrics) declared |= name == m.name;
    if (!declared)
      throw std::logic_error("undeclared per-layer metric " + name);
  }
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = values.find(m.name);
    result.metrics.add(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
}

void add_cpu_tags(const std::map<std::string, double>& cpu_by_tag,
                  std::map<std::string, double>& values) {
  for (const auto& [tag, seconds] : cpu_by_tag) {
    const std::string name = "fsim.cpu_s." + tag;
    bool declared = false;
    for (const LayerMetric& m : kLayerMetrics) declared |= name == m.name;
    values[declared ? name : "fsim.cpu_s.other"] += seconds;
  }
}

double crc32c_gibps(std::span<const std::uint8_t> bytes, RunResult& result) {
  std::vector<double> rates;
  std::uint32_t first = 0;
  for (int pass = 0; pass < 3; ++pass) {
    std::uint32_t crc = 0;
    const double s = timed([&] { crc = bitio::crc32c(bytes); });
    if (pass == 0) first = crc;
    if (crc != first) result.failures.push_back("crc32c passes disagree");
    rates.push_back(double(bytes.size()) / s / double(bitio::GiB));
  }
  return median(rates);
}

}  // namespace perfbench
