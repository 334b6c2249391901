// Tests for the online failure-recovery stack: the full detect -> agree ->
// shrink -> restore -> resume sequence (resil::run_resilient_spmd), the
// shrink-aware checkpoint re-partitioning, the bp drain-lane watchdog
// (wedged lanes are detected, retried, or abandoned with a typed error so
// close() can never hang), and the graceful I/O degradation ladder
// (core::DegradingSink) under ENOSPC pressure.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <numeric>

#include "bp/engine.hpp"
#include "bp/reader.hpp"
#include "bp/writer.hpp"
#include "core/degrade.hpp"
#include "fsim/fault_plan.hpp"
#include "fsim/posix_fs.hpp"
#include "picmc/diagnostics.hpp"
#include "picmc/simulation.hpp"
#include "resil/recovery.hpp"
#include "smpi/comm.hpp"
#include "util/error.hpp"

#include "modelled_cpu.hpp"

namespace bitio::resil {
namespace {

using fsim::FaultKind;
using fsim::FaultPlan;
using fsim::FaultRule;
using fsim::FsClient;
using fsim::SharedFs;
using picmc::SimConfig;
using picmc::Simulation;

SimConfig recovery_case(std::uint64_t last_step) {
  auto config = SimConfig::ionization_case(64, 16);
  config.last_step = last_step;
  config.datfile = 10;
  config.dmpstep = 0;  // checkpoints go through the manager, not the sink
  return config;
}

ResilientRunConfig shrink_config(std::uint64_t last_step, int nranks,
                                 int crash_rank, std::uint64_t crash_step,
                                 int interval) {
  ResilientRunConfig cfg;
  cfg.sim = recovery_case(last_step);
  cfg.io.checkpoint_interval = interval;
  cfg.io.checkpoint_retain = 3;
  cfg.io.recovery = "shrink";
  cfg.io.fault_plan = FaultPlan(
      11, {{FaultKind::rank_crash, "", 0, 0.0, 1, crash_rank, crash_step}});
  cfg.run_dir = "run";
  cfg.nranks = nranks;
  return cfg;
}

/// Committed epoch numbers found on storage (MANIFEST present), ascending.
std::vector<std::uint64_t> epochs_on_disk(SharedFs& fs,
                                          const std::string& run) {
  std::vector<std::uint64_t> epochs;
  for (std::uint64_t e = 1; e <= 64; ++e)
    if (fs.store().file_exists(run + "/resil/epoch_" + std::to_string(e) +
                               "/MANIFEST"))
      epochs.push_back(e);
  return epochs;
}

// ------------------------------------------------- shrink/restart (E2E) ---

TEST(OnlineRecovery, EightRankCrashShrinksRestoresAndCompletes) {
  SharedFs fs(8);
  const auto cfg = shrink_config(/*last_step=*/40, /*nranks=*/8,
                                 /*crash_rank=*/3, /*crash_step=*/30,
                                 /*interval=*/5);
  const auto report = run_resilient_spmd(fs, cfg);

  // Detect -> agree -> shrink: one recovery, 8 -> 7 survivors, rank 3 dead.
  EXPECT_EQ(report.stats.recoveries, 1u);
  EXPECT_EQ(report.final_size, 7);
  EXPECT_EQ(report.crashed_ranks, (std::vector<int>{3}));

  // Restore: the crash at step 30 fires before that step's checkpoint, so
  // the newest verifying epoch is the one committed at step 25.
  EXPECT_FALSE(report.restarted_from_scratch);
  EXPECT_GT(report.last_restored_epoch, 0u);
  EXPECT_EQ(report.restored_step, 25u);

  // Resume: the shrunken run finished the remaining steps.
  EXPECT_EQ(report.final_step, 40u);
  EXPECT_GT(report.stats.epochs_written, 0u);
  EXPECT_GT(report.stats.t_recovery_s, 0.0);

  // Every surviving checkpoint epoch passes a full per-chunk CRC scrub.
  const auto epochs = epochs_on_disk(fs, "run");
  ASSERT_FALSE(epochs.empty());
  for (const std::uint64_t e : epochs) {
    bp::Reader reader = bp::Reader::open(fs, 0,
                      "run/resil/epoch_" + std::to_string(e) + "/dmp_file.bp4");
    const auto verdicts = reader.verify();
    EXPECT_FALSE(verdicts.empty());
    EXPECT_TRUE(bp::Reader::all_ok(verdicts)) << "epoch " << e;
  }

  // So does the post-recovery generation's diagnostics series.
  bp::Reader diag = bp::Reader::open(fs, 0, "run/gen_1/dat_file.bp4");
  EXPECT_TRUE(bp::Reader::all_ok(diag.verify()));

  // resilience.json carries the recovery counters.
  const auto bytes = FsClient(fs, 0).read_all("run/resil/resilience.json");
  const Json stats = Json::parse(
      std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  EXPECT_EQ(stats.at("recoveries").as_uint(), 1u);
  EXPECT_GT(stats.at("t_recovery_s").as_number(), 0.0);
}

TEST(OnlineRecovery, CrashingRunIsDeterministicUnderFixedSeed) {
  // The same seeded config run twice (fresh file systems) must crash,
  // shrink, restore, and finish identically — including the bytes of the
  // final checkpoint epoch.
  auto run_once = [](SharedFs& fs) {
    return run_resilient_spmd(
        fs, shrink_config(/*last_step=*/30, /*nranks=*/4, /*crash_rank=*/1,
                          /*crash_step=*/15, /*interval=*/5));
  };
  SharedFs fs_a(8), fs_b(8);
  const auto a = run_once(fs_a);
  const auto b = run_once(fs_b);
  EXPECT_EQ(a.stats.recoveries, b.stats.recoveries);
  EXPECT_EQ(a.restored_step, b.restored_step);
  EXPECT_EQ(a.final_step, b.final_step);

  const auto epochs_a = epochs_on_disk(fs_a, "run");
  const auto epochs_b = epochs_on_disk(fs_b, "run");
  ASSERT_EQ(epochs_a, epochs_b);
  ASSERT_FALSE(epochs_a.empty());
  const std::string path =
      "run/resil/epoch_" + std::to_string(epochs_a.back()) + "/dmp_file.bp4";
  bp::Reader ra = bp::Reader::open(fs_a, 0, path), rb = bp::Reader::open(fs_b, 0, path);
  const auto vars = ra.variables(0);
  ASSERT_EQ(vars, rb.variables(0));
  ASSERT_FALSE(vars.empty());
  for (const auto& var : vars)
    EXPECT_EQ(ra.read(0, var), rb.read(0, var)) << "variable " << var;
}

TEST(OnlineRecovery, AbortPolicySurfacesTheFailureInstead) {
  SharedFs fs(8);
  auto cfg = shrink_config(/*last_step=*/20, /*nranks=*/4, /*crash_rank=*/2,
                           /*crash_step=*/10, /*interval=*/5);
  cfg.io.recovery = "abort";
  EXPECT_THROW(run_resilient_spmd(fs, cfg), smpi::RankFailedError);
}

// ------------------------------------------- checkpoint re-partitioning ---

TEST(OnlineRecovery, RestoreRepartitionedPreservesThePopulation) {
  // Write a 4-rank checkpoint epoch through the real manager, then restore
  // it onto 3 survivors and check the global population is a contiguous
  // re-slicing with the Monte Carlo counters summed onto the new rank 0.
  SharedFs fs(8);
  const auto sim_config = recovery_case(/*last_step=*/8);
  core::Bit1IoConfig io;
  io.checkpoint_interval = 8;

  std::vector<std::unique_ptr<Simulation>> old_sims;
  CheckpointManager manager(fs, "run", io, 4);
  for (int r = 0; r < 4; ++r) {
    old_sims.push_back(std::make_unique<Simulation>(sim_config, r, 4));
    old_sims.back()->initialize();
    old_sims.back()->run();
    manager.stage(r, *old_sims.back());
  }
  ASSERT_EQ(manager.commit(), 1u);

  std::vector<std::unique_ptr<Simulation>> new_sims;
  for (int r = 0; r < 3; ++r) {
    new_sims.push_back(std::make_unique<Simulation>(sim_config, r, 3));
    manager.restore_epoch(1, *new_sims.back());
    EXPECT_EQ(new_sims.back()->current_step(), 8u);
  }

  const std::size_t n_species = old_sims[0]->species_count();
  ASSERT_EQ(new_sims[0]->species_count(), n_species);
  for (std::size_t s = 0; s < n_species; ++s) {
    // Totals and contiguous order: concatenating the survivors' positions
    // reproduces the old ranks' concatenation exactly.
    std::vector<double> old_x, new_x;
    std::uint64_t old_absorbed = 0, new_absorbed = 0;
    for (const auto& sim : old_sims) {
      const auto& sp = sim->species(s);
      for (std::size_t i = 0; i < sp.particles.size(); ++i)
        old_x.push_back(sp.particles.x()[i]);
      old_absorbed += sp.absorbed_left + sp.absorbed_right;
    }
    for (const auto& sim : new_sims) {
      const auto& sp = sim->species(s);
      for (std::size_t i = 0; i < sp.particles.size(); ++i)
        new_x.push_back(sp.particles.x()[i]);
      new_absorbed += sp.absorbed_left + sp.absorbed_right;
    }
    EXPECT_EQ(old_x, new_x) << "species " << s;
    EXPECT_EQ(old_absorbed, new_absorbed) << "species " << s;
    // Counters live on the new rank 0 only.
    EXPECT_EQ(new_sims[1]->species(s).absorbed_left, 0u);
    EXPECT_EQ(new_sims[2]->species(s).absorbed_right, 0u);

    // Near-even split: every survivor holds total/3 or total/3 + 1.
    const std::size_t total = new_x.size();
    for (const auto& sim : new_sims) {
      const std::size_t mine = sim->species(s).particles.size();
      EXPECT_GE(mine, total / 3);
      EXPECT_LE(mine, total / 3 + 1);
    }
  }

  // Monte Carlo totals: summed onto rank 0, zero elsewhere.
  std::uint64_t old_events = 0;
  for (const auto& sim : old_sims) old_events += sim->ionization_events();
  EXPECT_EQ(new_sims[0]->ionization_events(), old_events);
  EXPECT_EQ(new_sims[1]->ionization_events(), 0u);
}

// ------------------------------------------------- drain-lane watchdog ---

bp::EngineConfig watchdog_engine(int timeout_ms, int retries) {
  bp::EngineConfig config;
  config.num_aggregators = 1;
  config.async_write = true;
  config.drain_timeout_ms = timeout_ms;
  config.max_drain_retries = retries;
  return config;
}

std::vector<float> iota_floats(std::size_t n) {
  std::vector<float> v(n);
  std::iota(v.begin(), v.end(), 0.0f);
  return v;
}

TEST(DrainWatchdog, WedgedLaneIsCancelledAndRetried) {
  // One injected stall wedges the first subfile append; the watchdog
  // cancels it within drain_timeout and the retry lands the step intact.
  SharedFs fs(8);
  fs.set_fault_plan(
      FaultPlan(3, {{FaultKind::stall, "data.", 1, 0.0, 1, -1, 0}}));

  auto writer = bp::make_engine(fs, "w.bp4", watchdog_engine(50, 2), 2);
  const auto data = iota_floats(16);
  writer->begin_step(0);
  writer->put<float>(0, "x", {32}, {0}, {16}, data);
  writer->put<float>(1, "x", {32}, {16}, {16}, data);
  writer->end_step();
  writer->close();  // must neither hang nor throw

  const auto stats = writer->watchdog_stats();
  EXPECT_GE(stats.timeouts, 1u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_EQ(stats.steps_abandoned, 0u);
  EXPECT_EQ(fs.stalled_op_count(), 0);

  bp::Reader reader = bp::Reader::open(fs, 0, "w.bp4");
  EXPECT_EQ(reader.read_as<float>(0, "x").size(), 32u);
  EXPECT_TRUE(bp::Reader::all_ok(reader.verify()));
}

TEST(DrainWatchdog, PermanentlyWedgedStepIsAbandonedAndCloseCannotHang) {
  // An unlimited stall rule re-wedges every retry: past the retry bound the
  // step must be abandoned with a typed error.  close() runs under a hard
  // outer deadline to prove it cannot hang on the wedged lane.
  SharedFs fs(8);
  fs.set_fault_plan(
      FaultPlan(3, {{FaultKind::stall, "data.", 0, 1.0, 0, -1, 0}}));

  auto writer = bp::make_engine(fs, "w.bp4", watchdog_engine(50, 1), 1);
  const auto data = iota_floats(16);
  writer->begin_step(0);
  writer->put<float>(0, "x", {16}, {0}, {16}, data);
  writer->end_step();

  auto closing = std::async(std::launch::async, [&] { writer->close(); });
  ASSERT_EQ(closing.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "close() hung on a wedged drain lane";
  EXPECT_THROW(closing.get(), TimeoutError);
  EXPECT_EQ(writer->watchdog_stats().steps_abandoned, 1u);
  EXPECT_EQ(fs.stalled_op_count(), 0);
}

// ------------------------------------------------- degradation ladder ---

core::Bit1IoConfig ladder_config(bool async, int threshold, int cooldown) {
  core::Bit1IoConfig io;
  io.mode = core::IoMode::openpmd;
  io.async_write = async;
  io.num_aggregators = 1;
  io.degrade_threshold = threshold;
  io.degrade_cooldown = cooldown;
  if (async) {
    io.drain_timeout_ms = 50;
    io.max_drain_retries = 1;
  }
  return io;
}

TEST(DegradationLadder, EnospcPressureStepsDownToSerialAndRunCompletes) {
  // Every append to a bp data subfile fails with ENOSPC; the openPMD levels
  // (async, then sync) keep failing, the ladder steps down to the serial
  // stdio path (whose files never match the rule), and the run finishes
  // with readable output instead of dying.
  SharedFs fs(8);
  fs.set_fault_plan(
      FaultPlan(5, {{FaultKind::enospc, "data.", 0, 1.0, 0, -1, 0}}));

  auto sink = core::make_degrading_sink(
      fs, "run", ladder_config(/*async=*/true, /*threshold=*/2,
                               /*cooldown=*/100),
      1);
  EXPECT_EQ(sink->level(), core::IoServiceLevel::async);

  Simulation sim(recovery_case(/*last_step=*/2));
  sim.initialize();
  sim.run();
  for (std::uint64_t step = 1; step <= 10; ++step) {
    sink->stage_diagnostics(0, sim, picmc::Diagnostics::sample_now(sim));
    sink->flush_diagnostics(step, double(step));
    sink->synchronize();  // surfaces async drain failures deterministically
  }
  EXPECT_NO_THROW(sink->close());

  EXPECT_EQ(sink->level(), core::IoServiceLevel::serial);
  const auto stats = sink->stats();
  EXPECT_EQ(stats.degradations, 2);  // async -> sync -> serial
  EXPECT_EQ(stats.rebuilds, 2);
  EXPECT_GE(stats.failures_absorbed, 4);
  EXPECT_EQ(stats.step_ups, 0);

  // The serial floor produced readable per-rank output.
  EXPECT_EQ(sink->current_dir(), "run/ladder_2_serial");
  EXPECT_TRUE(fs.store().file_exists("run/ladder_2_serial/slow_0.dat"));
  EXPECT_GT(fs.store().file("run/ladder_2_serial/slow_0.dat").size, 0u);
}

TEST(DegradationLadder, StepsBackUpAfterCooldown) {
  // A single transient EIO degrades the sink (threshold 1); once the fault
  // is exhausted, `degrade_cooldown` clean calls step it back up to its
  // initial level.
  SharedFs fs(8);
  fs.set_fault_plan(
      FaultPlan(5, {{FaultKind::eio, "data.", 1, 0.0, 1, -1, 0}}));

  auto sink = core::make_degrading_sink(
      fs, "run", ladder_config(/*async=*/false, /*threshold=*/1,
                               /*cooldown=*/2),
      1);
  EXPECT_EQ(sink->level(), core::IoServiceLevel::sync);

  Simulation sim(recovery_case(/*last_step=*/2));
  sim.initialize();
  sim.run();
  for (std::uint64_t step = 1; step <= 4; ++step) {
    sink->stage_diagnostics(0, sim, picmc::Diagnostics::sample_now(sim));
    sink->flush_diagnostics(step, double(step));
  }
  sink->close();

  const auto stats = sink->stats();
  EXPECT_EQ(stats.degradations, 1);
  EXPECT_EQ(stats.step_ups, 1);
  EXPECT_EQ(sink->level(), core::IoServiceLevel::sync);
}

// -------------------------------------------------- one home per count ---

TEST(OnlineRecovery, RecoveryIsCountedInResilienceStatsNotTheTrace) {
  SharedFs fs(8);
  auto cfg = shrink_config(/*last_step=*/20, /*nranks=*/4, /*crash_rank=*/2,
                           /*crash_step=*/12, /*interval=*/4);
  // Every diagnostics write also fails, so the first failed flush of each
  // generation steps that generation's ladder down from sync to serial,
  // where it stays.
  cfg.sim.datfile = 2;
  cfg.io.degrade_threshold = 1;
  cfg.io.degrade_cooldown = 100;
  cfg.io.fault_plan =
      FaultPlan(11, {{FaultKind::rank_crash, "", 0, 0.0, 1, 2, 12},
                     {FaultKind::enospc, "dat_file.bp4/data.", 0, 1.0, 0, -1, 0}});
  const auto report = run_resilient_spmd(fs, cfg);

  // The shrink recovery is counted once, in the stats resilience.json
  // reports; a ladder step is not a recovery.  The run's degradations are
  // the step-downs of both generations' ladders.
  ASSERT_EQ(report.stats.recoveries, 1u);
  EXPECT_EQ(report.stats.degradations, 2u);
  EXPECT_GT(report.stats.t_recovery_s, 0.0);
  const auto bytes = FsClient(fs, 0).read_all("run/resil/resilience.json");
  const Json stats = Json::parse(
      std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  EXPECT_EQ(stats.at("recoveries").as_uint(), report.stats.recoveries);
  EXPECT_EQ(stats.at("degradations").as_uint(), report.stats.degradations);
  EXPECT_DOUBLE_EQ(stats.at("t_recovery_s").as_number(),
                   report.stats.t_recovery_s);

  // Neither the recovery nor the restore it ran charges host wall time to
  // the simulated clock: every cpu op in the trace is modelled cost.
  EXPECT_EQ(testkit::unmodelled_cpu_tags(fs), std::vector<std::string>{});
}

}  // namespace
}  // namespace bitio::resil
