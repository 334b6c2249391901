#include "resil/recovery.hpp"

#include <chrono>
#include <map>
#include <memory>
#include <mutex>

#include "core/degrade.hpp"
#include "picmc/diagnostics.hpp"
#include "smpi/comm.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace bitio::resil {

namespace {

/// Per-shrink-generation shared state, created by that generation's rank 0
/// before the entry barrier and read by everyone after it.
struct GenState {
  std::shared_ptr<CheckpointManager> manager;
  std::shared_ptr<core::DegradingSink> sink;
};

}  // namespace

ResilientRunReport run_resilient_spmd(fsim::SharedFs& fs,
                                      const ResilientRunConfig& cfg) {
  cfg.io.validate();
  if (cfg.nranks <= 0)
    throw UsageError("run_resilient_spmd: nranks must be positive");
  if (cfg.max_recoveries < 0)
    throw UsageError("run_resilient_spmd: max_recoveries must be >= 0");
  if (!cfg.io.fault_plan.empty()) fs.set_fault_plan(cfg.io.fault_plan);

  // Shared run state across rank threads and shrink generations.
  std::mutex state_mutex;
  std::map<int, GenState> generations;
  std::shared_ptr<CheckpointManager> final_manager;
  std::uint64_t final_step = 0;
  std::uint64_t last_restored_epoch = 0;
  std::uint64_t last_restored_step = 0;
  bool restarted_from_scratch = false;
  int degradations = 0;
  double t_recovery = 0.0;

  // "abort" keeps the old behaviour: zero re-entries, the survivors'
  // RankFailedError becomes the run error.
  const int max_recoveries =
      core::recovery_policy_of(cfg.io.recovery) ==
              core::RecoveryPolicy::shrink
          ? cfg.max_recoveries
          : 0;

  const auto body = [&](smpi::Comm& comm, smpi::RecoveryContext& ctx) {
    const auto entered = std::chrono::steady_clock::now();

    if (comm.rank() == 0) {
      GenState gen;
      // Same run_dir for every generation's manager: epoch numbering (and
      // retention) resumes over the epochs earlier generations committed.
      gen.manager = std::make_shared<CheckpointManager>(fs, cfg.run_dir,
                                                        cfg.io, comm.size());
      gen.sink = core::make_degrading_sink(
          fs, strfmt("%s/gen_%d", cfg.run_dir.c_str(), ctx.generation),
          cfg.io, comm.size());
      gen.sink->set_transition_callback(
          [&state_mutex, &degradations](core::IoServiceLevel from,
                                        core::IoServiceLevel to,
                                        const std::string&) {
            if (int(to) < int(from)) {
              std::lock_guard<std::mutex> lock(state_mutex);
              ++degradations;
            }
          });
      std::lock_guard<std::mutex> lock(state_mutex);
      generations[ctx.generation] = std::move(gen);
    }
    comm.barrier();
    GenState gen;
    {
      std::lock_guard<std::mutex> lock(state_mutex);
      gen = generations.at(ctx.generation);
    }

    picmc::Simulation sim(cfg.sim, comm.rank(), comm.size());
    if (ctx.recovered) {
      // Restore: rank 0 picks the newest verifying epoch, everyone agrees
      // on it, and the survivors re-partition its particle population.
      std::uint64_t epoch = 0;
      if (comm.rank() == 0)
        epoch = gen.manager->newest_verifying_epoch().value_or(0);
      epoch = comm.bcast(epoch, 0);
      if (epoch > 0)
        gen.manager->restore_epoch(epoch, sim);
      else
        sim.initialize();  // nothing to restore: start over, shrunken
      comm.barrier();
      if (comm.rank() == 0) {
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          entered)
                .count();
        {
          std::lock_guard<std::mutex> lock(state_mutex);
          t_recovery += seconds;
          last_restored_epoch = epoch;
          last_restored_step = sim.current_step();
          if (epoch == 0) restarted_from_scratch = true;
        }
        // Charge the recovery to the trace so Darshan capture counts it.
        fsim::FsClient(fs, 0).charge_cpu(seconds, "recovery");
        gen.manager->record_recovery(seconds);
        log_info(strfmt(
            "recovery %d: %d survivors, %s, resuming at step %llu",
            ctx.generation, comm.size(),
            epoch > 0 ? strfmt("restored epoch %llu",
                               (unsigned long long)epoch)
                          .c_str()
                      : "no verifying epoch (restart from scratch)",
            (unsigned long long)sim.current_step()));
      }
      comm.barrier();
    } else {
      sim.initialize();
    }

    auto reduce = [&](std::span<double> density) {
      for (auto& v : density) v = comm.allreduce(v, smpi::Op::sum);
    };

    sim.run(reduce, [&](picmc::Simulation& s) {
      const std::uint64_t step = s.current_step();

      // Detect: rank_crash rules are keyed by *original* rank so the fault
      // plan keeps naming the same logical rank across shrinks.  The dead
      // rank never re-enters, so a restored run cannot re-crash on the
      // same rule.
      if (fs.should_crash(ctx.original_rank, step)) {
        fsim::FsClient(fs, fsim::ClientId(ctx.original_rank))
            .note_fault(fsim::FaultKind::rank_crash);
        throw smpi::RankFailure(
            comm.rank(),
            strfmt("rank %d (original %d) crashed at step %llu", comm.rank(),
                   ctx.original_rank, (unsigned long long)step));
      }

      if (cfg.sim.datfile > 0 && step % cfg.sim.datfile == 0) {
        const auto snap = picmc::Diagnostics::sample_now(s);
        gen.sink->stage_diagnostics(comm.rank(), s, snap);
        comm.barrier();
        if (comm.rank() == 0)
          gen.sink->flush_diagnostics(step, double(step) * cfg.sim.dt);
        comm.barrier();
      }

      const int interval = cfg.io.checkpoint_interval;
      if (interval > 0 && step % std::uint64_t(interval) == 0) {
        gen.manager->stage(comm.rank(), s);
        comm.barrier();
        if (comm.rank() == 0) {
          try {
            gen.manager->commit();
          } catch (const IoError& e) {
            // An epoch that exhausted its commit retries is a lost restart
            // point, not a lost run; older epochs still cover us.
            log_warn(std::string("resilient run: checkpoint commit "
                                 "failed: ") +
                     e.what());
          }
        }
        comm.barrier();
      }
    });

    comm.barrier();
    if (comm.rank() == 0) {
      try {
        gen.sink->close();
      } catch (const Error& e) {
        log_warn(std::string("resilient run: sink close failed: ") +
                 e.what());
      }
      std::lock_guard<std::mutex> lock(state_mutex);
      final_step = sim.current_step();
      final_manager = gen.manager;
    }
    comm.barrier();
  };

  const auto spmd =
      smpi::run_spmd_supervised(cfg.nranks, body, max_recoveries);

  ResilientRunReport report;
  report.recoveries = spmd.recoveries;
  report.final_size = spmd.final_size;
  report.crashed_ranks = spmd.crashed_ranks;
  report.final_step = final_step;
  report.last_restored_epoch = last_restored_epoch;
  report.restored_step = last_restored_step;
  report.restarted_from_scratch = restarted_from_scratch;
  report.degradations = degradations;
  report.t_recovery_s = t_recovery;
  if (final_manager) {
    final_manager->set_recovery_totals(std::uint64_t(spmd.recoveries),
                                       std::uint64_t(degradations),
                                       t_recovery);
    final_manager->write_stats_json();
    report.stats = final_manager->stats();
  }
  return report;
}

}  // namespace bitio::resil
