#pragma once
// Graceful I/O degradation ladder: a circuit breaker around the
// DiagnosticsSink that steps the service level down when the backend keeps
// failing and back up once it has been healthy for a while.
//
// Levels, highest first:
//
//   async   openPMD sink with the BP5 asynchronous drain (AsyncWrite)
//   sync    openPMD sink draining on the critical path
//   serial  the original per-rank stdio fallback — it writes tiny
//           record-at-a-time appends and has no aggregation pipeline to
//           wedge, so it is the level of last resort
//
// A flush that throws IoError (the backend failed: ENOSPC pressure, EIO)
// or TimeoutError (a write hit a stalled OST, or the async drain abandoned
// a step after its retries) is absorbed:
// that output event's data is lost but the run keeps going.  After
// `degrade_threshold` consecutive failures the ladder closes the sink
// (best-effort) and rebuilds one level lower in a fresh subdirectory; after
// `degrade_cooldown` consecutive clean flushes it steps back up.  Every
// transition is logged and counted in stats(), the one home of the ladder's
// own counts; the recovery coordinator sums the step-downs of every
// generation's ladder into resilience.json.  Nothing is charged to the
// fsim trace: a transition is an event, not I/O or modelled CPU.

#include <functional>
#include <memory>
#include <string>

#include "core/diagnostics_sink.hpp"
#include "core/io_config.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace bitio::core {

/// The rungs of the ladder, ordered so that a lower value is a lower
/// (more conservative) service level.
enum class IoServiceLevel { serial = 0, sync = 1, async = 2 };

const char* service_level_name(IoServiceLevel level);

struct LadderStats {
  IoServiceLevel level = IoServiceLevel::async;  // current rung
  int degradations = 0;        // step-downs taken
  int step_ups = 0;            // step-ups taken after cool-down
  int failures_absorbed = 0;   // flushes whose failure was swallowed
  int rebuilds = 0;            // sinks constructed after the initial one
};

class DegradingSink final : public DiagnosticsSink {
public:
  /// Builds the initial inner sink at the highest level `config` allows:
  /// async for openpmd + async_write, sync for plain openpmd, serial for
  /// IoMode::original (which then never degrades — it is already the floor).
  DegradingSink(fsim::SharedFs& fs, std::string run_dir, Bit1IoConfig config,
                int nranks);

  std::string sink_name() const override { return "degrading"; }

  void stage_diagnostics(int rank, const picmc::Simulation& sim,
                         const picmc::DiagnosticSnapshot& snapshot) override;
  void flush_diagnostics(std::uint64_t step, double time) override;
  void stage_checkpoint(int rank, const picmc::Simulation& sim) override;
  void flush_checkpoint() override;
  void synchronize() override;
  /// Closes the active inner sink.  Errors propagate — by close time there
  /// is no later flush left to degrade for.
  void close() override;

  IoServiceLevel level() const EXCLUDES(mutex_);
  /// Directory the active inner sink writes to: the run dir for the initial
  /// sink, `<run>/ladder_<k>_<level>` after the k-th rebuild.
  std::string current_dir() const EXCLUDES(mutex_);
  LadderStats stats() const EXCLUDES(mutex_);

private:
  /// Build a fresh inner sink for `level` writing into `dir`.  Takes the
  /// directory as a parameter (rather than reading current_dir_) so it owns
  /// no breaker state and can be called lock-free from the constructor.
  std::unique_ptr<DiagnosticsSink> build_inner(IoServiceLevel level,
                                               const std::string& dir);
  /// Run `op` against the inner sink; absorb IoError / TimeoutError and
  /// drive the breaker.  `what` names the call for logs.
  void guarded(const char* what,
               const std::function<void(DiagnosticsSink&)>& op)
      EXCLUDES(mutex_);
  void note_failure_locked(const char* what, const std::string& cause)
      REQUIRES(mutex_);
  void note_success_locked() REQUIRES(mutex_);
  void move_to_locked(IoServiceLevel next, const std::string& reason)
      REQUIRES(mutex_);

  fsim::SharedFs& fs_;
  std::string run_dir_;
  Bit1IoConfig config_;
  int nranks_;
  IoServiceLevel initial_level_ = IoServiceLevel::async;

  mutable util::Mutex mutex_;
  std::unique_ptr<DiagnosticsSink> inner_ GUARDED_BY(mutex_);
  std::string current_dir_ GUARDED_BY(mutex_);
  IoServiceLevel level_ GUARDED_BY(mutex_) = IoServiceLevel::async;
  // Set when a failure was absorbed since the last rebuild: a sink that
  // failed mid-flush may be left in an inconsistent state, so follow-on
  // errors of any type count as failures instead of escaping the breaker.
  bool inner_poisoned_ GUARDED_BY(mutex_) = false;
  int consecutive_failures_ GUARDED_BY(mutex_) = 0;
  int consecutive_successes_ GUARDED_BY(mutex_) = 0;
  LadderStats stats_ GUARDED_BY(mutex_);
};

/// Convenience: wrap make_diagnostics_sink's choice in the ladder.
std::unique_ptr<DegradingSink> make_degrading_sink(fsim::SharedFs& fs,
                                                   const std::string& run_dir,
                                                   const Bit1IoConfig& config,
                                                   int nranks);

}  // namespace bitio::core
