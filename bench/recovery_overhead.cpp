// Recovery overhead: crash step x checkpoint interval.
//
// Each cell runs the ionization use case on 4 simulated ranks with online
// shrink-recovery enabled (resil::run_resilient_spmd) and a rank_crash
// fault scheduled for rank 1 at `crash_step`.  The run detects the
// failure, agrees, shrinks to 3 survivors, restores the newest verifying
// checkpoint epoch, and re-runs to the end.  Reported per cell: how many
// steps of work the crash cost (crash step minus restored step — bounded
// by the checkpoint interval), the wall time spent inside the recovery,
// and the epochs committed.  A machine-readable JSON summary follows the
// table (or is the only output with --json), shaped like
// resilience_sweep's so the two land side by side.
#include <cstring>

#include "bench_common.hpp"
#include "resil/recovery.hpp"

using namespace bitio;
using namespace bitio::benchkit;

namespace {

constexpr std::uint64_t kLastStep = 60;
constexpr int kRanks = 4;

picmc::SimConfig sim_case() {
  auto config = picmc::SimConfig::ionization_case(64, 16);
  config.last_step = kLastStep;
  config.datfile = 20;
  config.dmpstep = kLastStep;
  return config;
}

struct CellResult {
  std::uint64_t crash_step = 0;
  int interval = 0;
  std::uint64_t recoveries = 0;
  int final_size = 0;
  std::uint64_t restored_step = 0;
  std::uint64_t lost_steps = 0;
  double t_recovery_s = 0.0;
  std::uint64_t epochs = 0;
  std::uint64_t final_step = 0;
  bool completed = false;
};

CellResult run_cell(std::uint64_t crash_step, int interval) {
  fsim::SharedFs fs(8);

  core::Bit1IoConfig io;
  io.checkpoint_interval = interval;
  io.checkpoint_retain = 2;
  io.recovery = "shrink";
  io.fault_plan = fsim::FaultPlan(
      7, {{fsim::FaultKind::rank_crash, "", 0, 0.0, 1, 1, crash_step}});

  resil::ResilientRunConfig cfg;
  cfg.sim = sim_case();
  cfg.io = io;
  cfg.run_dir = "run";
  cfg.nranks = kRanks;

  const auto report = resil::run_resilient_spmd(fs, cfg);

  CellResult cell;
  cell.crash_step = crash_step;
  cell.interval = interval;
  cell.recoveries = report.stats.recoveries;
  cell.final_size = report.final_size;
  cell.restored_step = report.restored_step;
  cell.lost_steps = crash_step - report.restored_step;
  cell.t_recovery_s = report.stats.t_recovery_s;
  cell.epochs = report.stats.epochs_written;
  cell.final_step = report.final_step;
  cell.completed = report.final_step == kLastStep &&
                   report.stats.recoveries == 1 &&
                   report.final_size == kRanks - 1;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bool json_only = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0) json_only = true;

  if (!json_only)
    print_header(
        "Recovery overhead — crash step x checkpoint interval",
        "online shrink-recovery restarts the run from the newest verifying "
        "epoch; the work lost to a crash is bounded by the interval");

  TextTable table;
  table.header({"crash@", "interval", "recoveries", "survivors", "restored@",
                "lost_steps", "t_recovery", "epochs", "completed"});
  JsonArray cells;
  bool all_completed = true;
  for (const std::uint64_t crash_step : {20ull, 45ull}) {
    for (const int interval : {2, 5, 10}) {
      const CellResult cell = run_cell(crash_step, interval);
      all_completed = all_completed && cell.completed;
      table.row({strfmt("%llu", (unsigned long long)cell.crash_step),
                 strfmt("%d", cell.interval),
                 strfmt("%llu", (unsigned long long)cell.recoveries),
                 strfmt("%d", cell.final_size),
                 strfmt("%llu", (unsigned long long)cell.restored_step),
                 strfmt("%llu", (unsigned long long)cell.lost_steps),
                 strfmt("%.4fs", cell.t_recovery_s),
                 strfmt("%llu", (unsigned long long)cell.epochs),
                 cell.completed ? "yes" : "NO"});
      JsonObject row;
      row["crash_step"] = Json(cell.crash_step);
      row["checkpoint_interval"] = Json(cell.interval);
      row["recoveries"] = Json(cell.recoveries);
      row["final_size"] = Json(cell.final_size);
      row["restored_step"] = Json(cell.restored_step);
      row["lost_steps"] = Json(cell.lost_steps);
      row["t_recovery_s"] = Json(cell.t_recovery_s);
      row["epochs_written"] = Json(cell.epochs);
      row["final_step"] = Json(cell.final_step);
      row["completed"] = Json(cell.completed);
      cells.emplace_back(std::move(row));
    }
  }
  if (!json_only) std::printf("%s\n", table.render().c_str());

  JsonObject summary;
  summary["bench"] = Json("recovery_overhead");
  summary["nranks"] = Json(kRanks);
  summary["last_step"] = Json(kLastStep);
  summary["all_runs_completed"] = Json(all_completed);
  summary["cells"] = Json(std::move(cells));
  std::printf("%s\n", Json(std::move(summary)).dump(2).c_str());

  if (!json_only)
    std::printf(all_completed
                    ? "every crashed run shrank and completed\n"
                    : "WARNING: some run failed to recover\n");
  return all_completed ? 0 : 1;
}
