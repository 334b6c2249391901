#include "core/degrade.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace bitio::core {

const char* service_level_name(IoServiceLevel level) {
  switch (level) {
    case IoServiceLevel::serial: return "serial";
    case IoServiceLevel::sync: return "sync";
    case IoServiceLevel::async: return "async";
  }
  return "?";
}

DegradingSink::DegradingSink(fsim::SharedFs& fs, std::string run_dir,
                             Bit1IoConfig config, int nranks)
    : fs_(fs),
      run_dir_(std::move(run_dir)),
      config_(std::move(config)),
      nranks_(nranks) {
  config_.validate();
  if (config_.mode == IoMode::original)
    initial_level_ = IoServiceLevel::serial;
  else if (config_.async_write)
    initial_level_ = IoServiceLevel::async;
  else
    initial_level_ = IoServiceLevel::sync;
  level_ = initial_level_;
  stats_.level = level_;
  current_dir_ = run_dir_;
  inner_ = build_inner(initial_level_, run_dir_);
}

std::unique_ptr<DiagnosticsSink> DegradingSink::build_inner(
    IoServiceLevel level, const std::string& dir) {
  Bit1IoConfig cfg = config_;
  switch (level) {
    case IoServiceLevel::async:
      cfg.mode = IoMode::openpmd;
      cfg.async_write = true;
      break;
    case IoServiceLevel::sync:
      cfg.mode = IoMode::openpmd;
      cfg.async_write = false;
      break;
    case IoServiceLevel::serial:
      cfg.mode = IoMode::original;
      break;
  }
  return make_diagnostics_sink(fs_, dir, cfg, nranks_);
}

void DegradingSink::guarded(const char* what,
                            const std::function<void(DiagnosticsSink&)>& op) {
  // The stage/flush protocol serializes flushes behind a barrier, so the
  // lock is uncontended there; holding it across the call also keeps a
  // rebuild from swapping the sink out from under a staging rank.
  util::MutexLock lock(mutex_);
  try {
    op(*inner_);
    note_success_locked();
  } catch (const TimeoutError& e) {
    inner_poisoned_ = true;
    note_failure_locked(what, e.what());
  } catch (const IoError& e) {
    inner_poisoned_ = true;
    note_failure_locked(what, e.what());
  } catch (const Error& e) {
    // Other Error types (e.g. a UsageError about a still-open iteration)
    // only count as backend failures when the inner sink already absorbed
    // one — a failed flush can leave it inconsistent, and the breaker must
    // keep stepping down rather than let the follow-on error kill the run.
    if (!inner_poisoned_) throw;
    note_failure_locked(what, e.what());
  }
}

void DegradingSink::note_failure_locked(const char* what,
                                        const std::string& cause) {
  ++stats_.failures_absorbed;
  consecutive_successes_ = 0;
  ++consecutive_failures_;
  log_warn(strfmt("io ladder: %s failed at level %s (%d/%d before "
                  "step-down): %s",
                  what, service_level_name(level_), consecutive_failures_,
                  config_.degrade_threshold, cause.c_str()));
  if (consecutive_failures_ >= config_.degrade_threshold &&
      level_ != IoServiceLevel::serial) {
    const auto next = IoServiceLevel(int(level_) - 1);
    move_to_locked(next, cause);
    ++stats_.degradations;
  }
}

void DegradingSink::note_success_locked() {
  // A poisoned inner sink stays suspect until it is rebuilt: an op that
  // happens to succeed on it (a no-op synchronize, a buffering stage) must
  // neither reset the breaker nor count toward the cool-down.
  if (inner_poisoned_) return;
  consecutive_failures_ = 0;
  if (level_ == initial_level_) return;
  ++consecutive_successes_;
  if (consecutive_successes_ < config_.degrade_cooldown) return;
  const auto next = IoServiceLevel(int(level_) + 1);
  move_to_locked(next, strfmt("%d clean flushes at level %s",
                              consecutive_successes_,
                              service_level_name(level_)));
  ++stats_.step_ups;
}

void DegradingSink::move_to_locked(IoServiceLevel next,
                                   const std::string& reason) {
  const IoServiceLevel from = level_;
  try {
    inner_->close();
  } catch (const Error&) {
    // The old sink is being abandoned because it is failing; a failed
    // close is expected and carries no information the breaker lacks.
  }
  inner_.reset();
  ++stats_.rebuilds;
  // A fresh subdirectory per rebuild: the openPMD series create-mode
  // errors on existing files, and it keeps each level's output readable
  // on its own.
  current_dir_ = strfmt("%s/ladder_%d_%s", run_dir_.c_str(), stats_.rebuilds,
                        service_level_name(next));
  level_ = next;
  stats_.level = next;
  inner_poisoned_ = false;
  consecutive_failures_ = 0;
  consecutive_successes_ = 0;
  inner_ = build_inner(next, current_dir_);
  const bool down = int(next) < int(from);
  log(down ? LogLevel::warn : LogLevel::info,
      strfmt("io ladder: %s %s -> %s (%s), now writing to %s",
             down ? "degraded" : "recovered", service_level_name(from),
             service_level_name(next), reason.c_str(),
             current_dir_.c_str()));
}

void DegradingSink::stage_diagnostics(
    int rank, const picmc::Simulation& sim,
    const picmc::DiagnosticSnapshot& snapshot) {
  // The serial sink writes on stage (there is no collective tail to fail
  // instead), so staging must run the breaker too.  Failures here do not
  // step the ladder past its floor; they are only absorbed and counted.
  guarded("stage_diagnostics", [&](DiagnosticsSink& sink) {
    sink.stage_diagnostics(rank, sim, snapshot);
  });
}

void DegradingSink::flush_diagnostics(std::uint64_t step, double time) {
  guarded("flush_diagnostics", [&](DiagnosticsSink& sink) {
    sink.flush_diagnostics(step, time);
  });
}

void DegradingSink::stage_checkpoint(int rank, const picmc::Simulation& sim) {
  guarded("stage_checkpoint", [&](DiagnosticsSink& sink) {
    sink.stage_checkpoint(rank, sim);
  });
}

void DegradingSink::flush_checkpoint() {
  guarded("flush_checkpoint",
          [&](DiagnosticsSink& sink) { sink.flush_checkpoint(); });
}

void DegradingSink::synchronize() {
  // An async drain that wedged surfaces its TimeoutError here; that is a
  // failure of the async level like any other.
  guarded("synchronize", [&](DiagnosticsSink& sink) { sink.synchronize(); });
}

void DegradingSink::close() {
  util::MutexLock lock(mutex_);
  if (inner_) inner_->close();
}

IoServiceLevel DegradingSink::level() const {
  util::MutexLock lock(mutex_);
  return level_;
}

std::string DegradingSink::current_dir() const {
  util::MutexLock lock(mutex_);
  return current_dir_;
}

LadderStats DegradingSink::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

std::unique_ptr<DegradingSink> make_degrading_sink(fsim::SharedFs& fs,
                                                   const std::string& run_dir,
                                                   const Bit1IoConfig& config,
                                                   int nranks) {
  return std::make_unique<DegradingSink>(fs, run_dir, config, nranks);
}

}  // namespace bitio::core
