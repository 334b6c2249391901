#pragma once
// The online-recovery coordinator: ULFM-style shrink/restart for a live
// SPMD PIC run.
//
// run_resilient_spmd() drives the full detect -> agree -> shrink ->
// restore -> resume sequence on top of smpi::run_spmd_supervised:
//
//   detect   a rank whose FaultPlan::rank_crash rule fires throws
//            RankFailure at the step boundary; the survivors' next
//            collective raises RankFailedError instead of hanging
//   agree    the supervised runner runs the fault-tolerant consensus
//   shrink   ... and builds the dense survivor communicator
//   restore  the new rank 0 picks the newest CRC-verifying checkpoint
//            epoch, broadcasts it, and every survivor restores from it —
//            re-partitioning the particle population over the smaller
//            communicator (core::restore_repartitioned); when no epoch
//            verifies the run restarts from scratch
//   resume   the simulation loop continues from the restored step with a
//            fresh diagnostics sink per generation (<run>/gen_<k>)
//
// Diagnostics go through the core::DegradingSink ladder, so backend
// failures during the run degrade service (async -> sync -> serial)
// instead of killing it.  At the end of the run the final generation's
// CheckpointManager adopts the run totals — shrink recoveries, the ladder
// step-downs of every generation, and the host wall time spent recovering
// — and writes the counts to resilience.json (the host time stays in
// ResilienceStats::t_recovery_s).  None of them is charged to the fsim
// trace: simulated seconds come only from modelled I/O and CPU.
//
// The policy knob is Bit1IoConfig::recovery: "shrink" enables the sequence
// above, "abort" keeps the pre-PR behaviour (a rank failure ends the run
// with RankFailedError).

#include <cstdint>
#include <string>
#include <vector>

#include "core/io_config.hpp"
#include "fsim/posix_fs.hpp"
#include "picmc/simulation.hpp"
#include "resil/checkpoint_manager.hpp"

namespace bitio::resil {

struct ResilientRunConfig {
  picmc::SimConfig sim;    // the physics case (datfile/dmpstep cadence)
  core::Bit1IoConfig io;   // engine, checkpoint_interval, fault_plan,
                           // recovery policy, ladder thresholds
  std::string run_dir = "resilient_run";
  int nranks = 4;
  int max_recoveries = 8;  // shrink generations before giving up
};

struct ResilientRunReport {
  int final_size = 0;             // communicator size at the end
  std::vector<int> crashed_ranks;  // original ranks that died
  std::uint64_t final_step = 0;   // simulation step reached
  std::uint64_t last_restored_epoch = 0;  // 0 = no restore happened
  std::uint64_t restored_step = 0;  // step the last restore resumed from
  bool restarted_from_scratch = false;  // a recovery found no valid epoch
  // The final generation's manager stats, run totals included: recoveries,
  // degradations and t_recovery_s are read here.
  ResilienceStats stats;
};

/// Run `cfg.sim` on `cfg.nranks` simulated ranks with online failure
/// recovery.  Installs cfg.io.fault_plan into `fs` when non-empty.  The
/// run survives rank crashes (shrinking), transient and wedged I/O (the
/// drain retries + degradation ladder), and corrupt checkpoints (epoch
/// fallback); it throws only when recovery itself is exhausted or the
/// policy is "abort".
ResilientRunReport run_resilient_spmd(fsim::SharedFs& fs,
                                      const ResilientRunConfig& cfg);

}  // namespace bitio::resil
