#pragma once
// The resilience layer: versioned checkpoint epochs with atomic commit,
// verification, retention, retry, and epoch-by-epoch restart fallback.
//
// The adaptor's dmp_file series keeps exactly one checkpoint (iteration 0
// is overwritten in place), so a fault during the overwrite can destroy the
// only restart point.  CheckpointManager instead writes each checkpoint as
// its own immutable *epoch*:
//
//   <run>/resil/epoch_<k>/dmp_file.<engine>   openPMD series, same schema
//                                             as the adaptor's checkpoints
//   <run>/resil/epoch_<k>/MANIFEST            JSON {epoch, step, nranks, ...}
//
// Incremental epochs: with checkpoint_full_interval > 1 only every Nth
// epoch is a self-contained *full* dump.  The epochs between are *delta*
// epochs — commit diffs the staged blocks (content hash per (variable,
// rank) chunk, core::checkpoint_blocks) against the last committed epoch,
// writes only the changed blocks, and records the unchanged ones in the
// MANIFEST as references into the epochs that physically store their bytes
// (one hop, never a chain of indirections).  The MANIFEST also lists the
// base epochs the delta depends on; retention never prunes a base epoch a
// retained delta still references, and the full interval bounds how long a
// chain can grow.  Every epoch is read through one core::CheckpointSource
// opened with its MANIFEST references: restore resolves a survivor's
// ranges block by block, reading and CRC-verifying only the blocks under
// them, and verification checks that the blocks of every variable tile it
// and that every reference reads back with its hash.  A broken link
// anywhere in a chain fails that epoch's verification and restart falls
// back chain by chain.
//
// Commit protocol (per epoch): write the series, re-open it with bp::Reader
// and CRC-verify every chunk (end-to-end integrity), then write
// MANIFEST.tmp and rename() it to MANIFEST — the atomic commit point.  An
// epoch without a MANIFEST does not exist.  Transient injected failures
// (EIO/ENOSPC) are retried with bounded exponential backoff (charged to the
// rank's timeline under the "backoff" tag); an epoch that fails CRC
// validation is torn down and rewritten.  After a successful commit, epochs
// beyond the newest `checkpoint_retain` are pruned (MANIFEST first, so a
// crash mid-prune never leaves a committed-but-gutted epoch).
//
// Restart walks committed epochs newest-first, scrubs each with
// bp::Reader::verify(), and restores the simulation bit-exactly from the
// first epoch that verifies — silent corruption of the newest epoch falls
// back to the one before it.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <string>
#include <vector>

#include "core/checkpoint_payload.hpp"
#include "core/diagnostics_sink.hpp"
#include "core/io_config.hpp"
#include "fsim/posix_fs.hpp"
#include "picmc/simulation.hpp"
#include "util/json.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace bitio::resil {

using core::BlockRef;

/// MANIFEST schema version, written as "manifest_version" and required on
/// read.  Bump it whenever to_json gains, drops, or reshapes a field — the
/// golden-bytes test (CkptManifest.GoldenDeltaManifestBytes) pins the
/// serialized text next to this constant, so the two change together.
/// Also bump it when a field's meaning changes: version 3 records XXH64
/// block hashes where version 2 recorded FNV-1a ones, so an old MANIFEST is
/// a FormatError at parse, not a hash mismatch found at restore.
inline constexpr int kManifestVersion = 3;

/// Parsed MANIFEST of a committed epoch.
struct EpochManifest {
  std::uint64_t epoch = 0;
  std::uint64_t step = 0;
  int nranks = 0;
  std::string engine;
  std::string kind = "full";  // "full" | "delta"
  std::vector<std::uint64_t> base_epochs;
  std::vector<BlockRef> refs;  // delta: blocks stored in base epochs

  Json to_json() const;
  /// Throws FormatError unless the manifest carries this version and a kind.
  static EpochManifest from_json(const Json& doc);
};

/// Counters the resilience layer accumulates across commits/restores (the
/// numbers resilience.json and the resilience_sweep bench report).  This is
/// the one home of every checkpoint and recovery count: the fsim trace and
/// the Darshan log carry none of them.  t_recovery_s is host wall seconds,
/// never simulated ones, and stays out of resilience.json, so the file is a
/// function of the run's seed.
struct ResilienceStats {
  std::uint64_t epochs_written = 0;    // committed epochs
  std::uint64_t write_retries = 0;     // commit attempts retried (any cause)
  std::uint64_t transient_faults = 0;  // EIO/ENOSPC caught during commit
  std::uint64_t corrupt_chunks_detected = 0;  // CRC/short-read verdicts
  std::uint64_t restore_fallbacks = 0;        // epochs rejected at restart
  std::uint64_t epochs_pruned = 0;            // retention deletions
  // Online-recovery run totals, installed by set_recovery_totals():
  std::uint64_t recoveries = 0;     // shrink-restarts completed
  std::uint64_t degradations = 0;   // I/O ladder step-downs observed
  double t_recovery_s = 0.0;        // wall seconds spent inside recoveries
  // Incremental-checkpoint counters:
  std::uint64_t delta_epochs = 0;       // committed epochs of kind "delta"
  std::uint64_t dedup_bytes_saved = 0;  // bytes referenced instead of written
  std::uint64_t blocks_restored = 0;    // blocks fetched by chain restores
};

/// Outcome of restore(): which epoch recovered the run, and what was
/// rejected on the way there.
struct RestartReport {
  bool recovered = false;
  std::uint64_t epoch = 0;  // the epoch that restored the simulation
  std::uint64_t step = 0;   // simulation step of that epoch
  int epochs_tried = 0;
  std::vector<std::uint64_t> rejected;  // epochs that failed verification
};

/// Outcome of a scrub() pass over every committed epoch.
struct ScrubReport {
  int epochs_scanned = 0;
  int epochs_ok = 0;
  std::vector<std::uint64_t> corrupt_epochs;
  std::uint64_t corrupt_chunks = 0;  // bad own chunks + broken chain links
  // Uncommitted epoch_<k> directories whose files scrub() removed — the
  // residue of a crash inside the prune window (MANIFEST already gone,
  // data files still there) or of a commit that never reached its rename.
  int orphans_cleaned = 0;
};

class CheckpointManager {
public:
  /// Commit gives up after this many attempts (initial try + retries).
  static constexpr int kMaxCommitAttempts = 5;
  /// Backoff charged before retry i (doubles each time): 2^i * this.
  static constexpr double kBackoffBaseSeconds = 1e-3;

  /// `config` supplies engine/codec/checkpoint_aggregators (series layout),
  /// checkpoint_retain (retention depth), and is validated.  Epoch
  /// numbering resumes after any epochs already committed under `run_dir`.
  CheckpointManager(fsim::SharedFs& fs, std::string run_dir,
                    core::Bit1IoConfig config, int nranks);

  /// Stage one rank's restart state for the next commit().  Thread-safe in
  /// the same sense as the adaptor: call from the rank's own thread.
  void stage(int rank, const picmc::Simulation& sim) EXCLUDES(stage_mutex_);

  /// Write the staged states as a new epoch (write -> verify -> rename
  /// MANIFEST), retrying transient faults, then apply retention.  Returns
  /// the committed epoch number; throws IoError when kMaxCommitAttempts
  /// attempts all failed.  Holds the staging lock for the duration so a
  /// straggler stage() cannot mutate the table mid-write.
  std::uint64_t commit() EXCLUDES(stage_mutex_);

  /// Restore `sim` from the newest epoch that passes verification, falling
  /// back epoch-by-epoch.  report.recovered is false when no epoch
  /// verifies (the simulation is left untouched in that case).
  RestartReport restore(picmc::Simulation& sim);

  /// The newest committed epoch that passes CRC verification (rejected ones
  /// are counted into the stats), or nullopt when none verifies.  This is
  /// the decision half of restore(): the shrink-recovery coordinator calls
  /// it on one rank, agrees on the answer, then has every survivor call
  /// restore_epoch() on the same epoch.
  std::optional<std::uint64_t> newest_verifying_epoch();

  /// Restore `sim` (any communicator size — re-partitions when it differs
  /// from the writer's, see core::restore_repartitioned) from a specific
  /// committed epoch, resolving delta chains block by block.  Safe to call
  /// from every surviving rank concurrently: its only shared write is the
  /// blocks_restored update, taken under stage_mutex_.
  void restore_epoch(std::uint64_t epoch, picmc::Simulation& sim)
      EXCLUDES(stage_mutex_);

  /// Install run-wide online-recovery totals.  The recovery coordinator
  /// builds a fresh manager per shrink generation (the communicator size
  /// changed), so the final generation's manager adopts the totals
  /// accumulated across all of them before writing resilience.json.
  void set_recovery_totals(std::uint64_t recoveries,
                           std::uint64_t degradations, double t_recovery_s);

  /// Re-verify every committed epoch (own chunks CRC-scrubbed, chain
  /// references resolved and content-checked) and clean up uncommitted
  /// epoch directories left behind by a crash.  A startup/idle operation:
  /// never run it concurrently with a commit, whose epoch is uncommitted
  /// (and would read as an orphan) until the MANIFEST rename.
  ScrubReport scrub();

  /// Parse a committed epoch's MANIFEST; nullopt when absent or malformed.
  std::optional<EpochManifest> read_manifest(std::uint64_t epoch) const;

  /// Committed epoch numbers (MANIFEST present), ascending.
  std::vector<std::uint64_t> committed_epochs() const;
  std::string epoch_dir(std::uint64_t epoch) const;
  std::string resil_dir() const { return run_dir_ + "/resil"; }

  const ResilienceStats& stats() const { return stats_; }
  Json stats_json() const;
  /// Write stats_json() to <run>/resil/resilience.json (overwrites).
  void write_stats_json();

private:
  /// A checkpoint block's (variable, rank) address.
  using BlockKey = std::pair<std::string, int>;
  /// CRC32C of every chunk an epoch stores, by block address.
  using ChunkCrcs = std::map<BlockKey, std::uint32_t>;
  /// The last committed copy of one block: the epoch storing it and the
  /// content identity it had (the MANIFEST's BlockRef), plus the CRC32C of
  /// its stored chunk as that epoch's commit-time verify read it.
  struct BaseBlock {
    BlockRef ref;
    std::uint32_t crc = 0;
  };

  std::string series_path(std::uint64_t epoch) const;
  std::string manifest_path(std::uint64_t epoch) const;
  /// One commit attempt: write series (delta epochs skip the blocks in
  /// `refs`) + verify + rename manifest.  Returns the CRC32C of every chunk
  /// the epoch stores, as the verify pass read them; nullopt (after tearing
  /// the epoch down) when verification finds corrupt chunks.  Throws
  /// IoError on transient write failures.  Reads the staging table, so the
  /// caller must hold the staging lock.
  std::optional<ChunkCrcs> try_commit_epoch(std::uint64_t epoch,
                                            std::uint64_t step,
                                            const std::string& kind,
                                            const std::vector<BlockRef>& refs)
      REQUIRES(stage_mutex_);
  /// Dedup plan for the next epoch: the staged blocks whose content hash
  /// (and count) match the last committed copy — after confirming the
  /// stored base chunk still exists and carries the CRC32C pinned when its
  /// epoch committed.
  std::vector<BlockRef> plan_refs(
      const std::vector<core::CheckpointBlock>& blocks) REQUIRES(stage_mutex_);
  /// Full chain verification of one epoch: every reference points into a
  /// committed epoch, the blocks of every variable tile it, own chunks
  /// CRC-verify, and every reference reads back with its content hash.
  /// Returns the number of failures; 1 for an epoch that does not open.
  std::uint64_t chain_bad_chunks(std::uint64_t epoch);
  /// The one read path into a committed epoch: its container plus the
  /// MANIFEST's references into base epochs.
  core::CheckpointSource open_epoch(const EpochManifest& manifest);
  /// Restore through the chain, timing the walk (host wall time) and
  /// counting the blocks it fetched into the stats.
  void restore_via_chain(std::uint64_t epoch, picmc::Simulation& sim,
                         bool repartition) EXCLUDES(stage_mutex_);
  void remove_epoch_files(std::uint64_t epoch, bool manifest_first);
  void apply_retention();

  fsim::SharedFs& fs_;
  std::string run_dir_;
  core::Bit1IoConfig config_;
  int nranks_;
  std::uint64_t next_epoch_ = 1;
  // Last committed copy of every stored checkpoint block, keyed (variable,
  // rank).  A fresh manager starts empty, so the first commit of an
  // incarnation is always a full epoch (no cross-incarnation chain
  // rebuilding).  Only the commit protocol touches it, under the staging
  // lock.
  std::map<BlockKey, BaseBlock> base_map_ GUARDED_BY(stage_mutex_);
  std::uint64_t commits_since_full_ = 0;
  // stage() is called from every rank's own thread; the staging table and
  // the lazily-fixed species layout are the shared state it guards.
  util::Mutex stage_mutex_;
  std::vector<std::string> species_names_ GUARDED_BY(stage_mutex_);
  std::vector<core::RankCheckpoint> staged_ GUARDED_BY(stage_mutex_);
  // Commit/restore/scrub counters.  Written from the single-threaded
  // commit/restore protocol (never from per-rank stage() calls), so it
  // rides outside the staging lock by design — except restore_epoch(),
  // which every surviving rank runs at once: restore_via_chain() takes
  // stage_mutex_ around its two counter updates (and nothing under it).
  ResilienceStats stats_;
};

/// DiagnosticsSink decorator that routes checkpoints through a
/// CheckpointManager (versioned epochs) while diagnostics pass through to
/// the wrapped sink unchanged.  Lets the SPMD loop opt into resilience by
/// swapping one sink for another.
class ResilientSink final : public core::DiagnosticsSink {
public:
  ResilientSink(std::unique_ptr<core::DiagnosticsSink> inner,
                std::shared_ptr<CheckpointManager> manager);

  std::string sink_name() const override { return "resilient+" + inner_->sink_name(); }
  void stage_diagnostics(int rank, const picmc::Simulation& sim,
                         const picmc::DiagnosticSnapshot& snapshot) override;
  void flush_diagnostics(std::uint64_t step, double time) override;
  void stage_checkpoint(int rank, const picmc::Simulation& sim) override;
  void flush_checkpoint() override;
  void synchronize() override;
  void close() override;

private:
  std::unique_ptr<core::DiagnosticsSink> inner_;
  std::shared_ptr<CheckpointManager> manager_;
};

}  // namespace bitio::resil
