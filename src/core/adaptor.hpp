#pragma once
// The paper's contribution: the BIT1 -> openPMD I/O adaptor
// (the role of bit1.hpp / writeparallel.cpp in the reference
// implementation [9]).
//
// Write path, following Section III-B's step-by-step procedure:
//   1. the adios2 engine configuration (engine type, NumAgg, compressor) is
//      rendered as TOML and passed to the Series constructor;
//   2. each MPI rank stages its *local vectors* (diagnostic rows, particle
//      arrays) with stage_diagnostics / stage_checkpoint — these are
//      appended to the adaptor's global staging ("local vectors are then
//      appended to global vectors");
//   3. a single flush_* call opens the iteration, computes every rank's
//      offset in the global extent (the exscan the paper obtains from MPI),
//      storeChunk()s all non-empty local vectors, and closes the iteration
//      — one flush per output event for optimal I/O efficiency;
//   4. checkpoints always go to iteration 0, which is re-opened and
//      overwritten each time, and the series keeps the latest state for
//      restart.
//
// Two series are maintained per run, mirroring BIT1's two output streams:
//   <run>/dat_file.<engine>  — diagnostics, `num_aggregators` subfiles
//   <run>/dmp_file.<engine>  — checkpoints, `checkpoint_aggregators`
// which yields Table II's file population (N+2 plus 3, "6 files" at one
// node or with 1 AGGR).

#include <memory>
#include <optional>

#include "core/checkpoint_payload.hpp"
#include "core/diagnostics_sink.hpp"
#include "core/io_config.hpp"
#include "openpmd/series.hpp"
#include "picmc/diagnostics.hpp"
#include "picmc/simulation.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace bitio::core {

class Bit1OpenPmdAdaptor final : public DiagnosticsSink {
public:
  /// Creates both series (and applies Lustre striping to `run_dir` first if
  /// configured).  `nranks` is the size of the writing communicator.
  Bit1OpenPmdAdaptor(fsim::SharedFs& fs, std::string run_dir,
                     Bit1IoConfig config, int nranks);
  ~Bit1OpenPmdAdaptor();

  Bit1OpenPmdAdaptor(const Bit1OpenPmdAdaptor&) = delete;
  Bit1OpenPmdAdaptor& operator=(const Bit1OpenPmdAdaptor&) = delete;

  std::string diag_path() const;
  std::string checkpoint_path() const;

  std::string sink_name() const override { return "openpmd"; }

  // -- diagnostics (the `datfile` event) -------------------------------------
  /// Stage one rank's diagnostic snapshot.  Thread-safe.
  void stage_diagnostics(int rank, const picmc::Simulation& sim,
                         const picmc::DiagnosticSnapshot& snapshot) override
      EXCLUDES(mutex_);
  /// Collective tail: write the staged snapshot as iteration `step`.  With
  /// async_write the call returns once the step is submitted to the drain.
  void flush_diagnostics(std::uint64_t step, double time) override
      EXCLUDES(mutex_);

  // -- checkpointing (the `dmpstep` event) ------------------------------------
  /// Stage one rank's full particle state.  Thread-safe.
  void stage_checkpoint(int rank, const picmc::Simulation& sim) override
      EXCLUDES(mutex_);
  /// Collective tail: rewrite iteration 0 of the checkpoint series.  With
  /// async_write the call returns once the step is submitted to the drain.
  void flush_checkpoint() override EXCLUDES(mutex_);

  /// Join outstanding async drains on both series without closing; after
  /// this every submitted flush has landed (read-after-write safe).
  void synchronize() override EXCLUDES(mutex_);

  /// Restore `sim` (rank sim.rank() of sim.nranks()) from the latest
  /// checkpoint.  The adaptor must be closed first; restart reads the
  /// dmp_file container through a CheckpointSource, touching only this
  /// rank's slice.
  static void restore(fsim::SharedFs& fs, const std::string& run_dir,
                      const Bit1IoConfig& config, picmc::Simulation& sim);

  /// Close both series (joins any outstanding async drains first).
  void close() override EXCLUDES(mutex_);

private:
  struct RankDiag {
    bool present = false;
    // Per species: vdf row, particle count, kinetic energy, total weight.
    std::vector<std::vector<double>> vdf;
    std::vector<std::uint64_t> count;
    std::vector<double> energy;
    std::vector<double> weight;
    std::vector<double> density_rank0;  // species-major, rank 0 only
    std::uint64_t ionization_events = 0;
  };

  void require_species_layout(const picmc::Simulation& sim) REQUIRES(mutex_);

  fsim::SharedFs& fs_;
  std::string run_dir_;
  Bit1IoConfig config_;
  int nranks_;

  // One lock covers the whole adaptor: the staging tables (written from
  // every rank's thread), the lazily-fixed layout, and the series handles
  // the collective flush tail drives.
  util::Mutex mutex_;
  std::vector<std::string> species_names_ GUARDED_BY(mutex_);
  std::size_t nnodes_ GUARDED_BY(mutex_) = 0;
  std::unique_ptr<pmd::Series> diag_series_ GUARDED_BY(mutex_);
  std::unique_ptr<pmd::Series> ckpt_series_ GUARDED_BY(mutex_);
  bool closed_ GUARDED_BY(mutex_) = false;
  std::vector<RankDiag> staged_diag_ GUARDED_BY(mutex_);
  // Checkpoint staging uses the shared payload type (checkpoint_payload.hpp)
  // so the resilience layer writes the exact same schema.
  std::vector<RankCheckpoint> staged_ckpt_ GUARDED_BY(mutex_);
};

}  // namespace bitio::core
