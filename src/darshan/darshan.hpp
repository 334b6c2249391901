#pragma once
// Darshan-like I/O characterization.
//
// The real Darshan instruments POSIX/MPI-IO calls at runtime and emits one
// compact log per job at MPI_Finalize; `darshan-parser` then turns the log
// into per-file counter listings, from which the paper extracts write
// throughput (Figs 2-4) and per-process read/metadata/write costs (Fig 5).
//
// Here the instrumentation is the fsim trace: `capture()` folds a SharedFs
// trace plus its timing replay into per-(rank,file) counter records that
// mirror Darshan's POSIX module counters, `DarshanLog` serializes to a
// compact binary log with round-trip parsing, and `text_report()` renders a
// darshan-parser-style listing.  The log has one format version (DRSNLOG9):
// no log outlives the in-process simulator, so there are no older readers.
// Its per-file counters are the rows of file_record_counters().
//
// Like Darshan's, the log holds I/O facts only.  Checkpoint and recovery
// events (delta epochs, dedup, chain restores, shrink recoveries, ladder
// transitions) are counted once, in resil::ResilienceStats and the
// resilience.json it writes; the trace carries none of them.

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "fsim/posix_fs.hpp"
#include "fsim/storage_model.hpp"
#include "util/stats.hpp"

namespace bitio::darshan {

/// Job-wide header, like Darshan's job record.
struct JobInfo {
  std::string exe = "bit1";
  std::uint32_t nprocs = 1;
  double runtime_s = 0.0;           // simulated job I/O makespan
  std::string mount = "/lustre";    // mounted file system the job wrote to

  // Batched queue-pair job counters: histogram of sqes per
  // submit() doorbell across the whole job, derived from the doorbell-
  // tagged OpKind::batch_write records.  Bucket edges: 1, 2-4, 5-16,
  // 17-64, >= 65 sqes.
  static constexpr std::size_t kBatchHistBuckets = 5;
  std::uint64_t ops_per_batch[kBatchHistBuckets] = {0, 0, 0, 0, 0};
};

/// Counters for one (rank, file) pair — the slice of Darshan's POSIX module
/// the paper's analysis uses.  rank == kSharedRank marks a shared record.
struct FileRecord {
  static constexpr std::int32_t kSharedRank = -1;

  std::string path;
  std::int32_t rank = 0;

  std::uint64_t opens = 0;
  std::uint64_t writes = 0;   // individual write calls (pre-coalescing)
  std::uint64_t reads = 0;
  std::uint64_t stats = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t max_byte_written = 0;  // highest offset+len written
  std::uint64_t max_write_size = 0;    // largest single (coalesced) record

  double write_time_s = 0.0;
  double read_time_s = 0.0;
  double meta_time_s = 0.0;
  // Time spent on overlapped drain lanes (TraceOp::lane > 0, the BP5-style
  // AsyncWrite background writer).  Kept separate from write/meta/read time
  // so those remain the rank's critical-path cost.
  double drain_time_s = 0.0;
  // Operations on this (rank, file) that carried an injected fault
  // (TraceOp::fault != none): torn writes, bit flips, transient failures.
  std::uint64_t faults_injected = 0;
  // Per-level gather counters of the two-level aggregation path:
  // OpKind::xfer transfers feeding this file, split by gather level —
  // in-node shared-memory hops (fsim::TraceTag::shm_gather) vs inter-node
  // NIC hops (TraceTag::net_gather).  Zero for flat aggregation.
  std::uint64_t shm_gathers = 0;
  std::uint64_t net_gathers = 0;
  std::uint64_t shm_gather_bytes = 0;
  std::uint64_t net_gather_bytes = 0;
  double gather_time_s = 0.0;
  // Batched queue-pair counters: OpKind::batch_write submissions into this
  // file.  batches_submitted counts doorbells (one per
  // SubmissionQueue::submit), batched_sqes counts the sqes they carried,
  // and coalesced_bytes the bytes that travelled in vectored records
  // merging >= 2 adjacent sqes.  Zero on the posix write path.
  std::uint64_t batches_submitted = 0;
  std::uint64_t batched_sqes = 0;
  std::uint64_t coalesced_bytes = 0;
};

/// One serialized counter of a Record: its name and the member holding it.
/// Exactly one of u64/f64 is set.
template <typename Record>
struct Counter {
  const char* name;
  std::uint64_t Record::*u64 = nullptr;
  double Record::*f64 = nullptr;

  constexpr Counter(const char* n, std::uint64_t Record::*m)
      : name(n), u64(m) {}
  constexpr Counter(const char* n, double Record::*m) : name(n), f64(m) {}
};

/// The per-file counter rows of the log format, in wire order:
/// DarshanLog::serialize() and parse() loop over them after each record's
/// path and rank.  A counter member without a row fails to compile (a
/// sizeof check next to the rows in darshan.cpp).
std::span<const Counter<FileRecord>> file_record_counters();

/// A captured log: job info + records + per-rank roll-ups.
class DarshanLog {
public:
  JobInfo job;
  std::vector<FileRecord> records;

  // Roll-ups across records.
  std::uint64_t total_bytes_written() const;
  std::uint64_t total_bytes_read() const;
  std::uint64_t total_files() const;  // distinct paths
  double total_write_time() const;
  double total_meta_time() const;
  std::uint64_t total_faults_injected() const;

  /// Aggregate write throughput the way the paper reports it: total bytes
  /// written / job I/O runtime.
  double write_throughput_bps() const;

  /// Per-process average costs (Fig 5): {read, meta, write} seconds, plus
  /// the overlapped async-drain component (not on the critical path).
  struct PerProcessCost {
    double read_s = 0.0;
    double meta_s = 0.0;
    double write_s = 0.0;
    double drain_s = 0.0;
  };
  PerProcessCost per_process_cost() const;

  /// File-size statistics over distinct written files (Table II):
  /// count, average size, max size (sizes = max_byte_written per path).
  struct FileSizeStats {
    std::uint64_t count = 0;
    std::uint64_t average = 0;
    std::uint64_t max = 0;
  };
  FileSizeStats file_size_stats() const;

  /// Serialize to the compact binary log format.
  std::vector<std::uint8_t> serialize() const;
  /// Parse a serialized log.  Throws FormatError on corruption.
  static DarshanLog parse(std::span<const std::uint8_t> data);

  /// darshan-parser-style text listing.
  std::string text_report() const;
};

/// Build a log from an fsim trace and its timing replay.  `job.runtime_s`
/// is overwritten with the replay makespan.
DarshanLog capture(const fsim::SharedFs& fs,
                   const fsim::ReplayReport& replay, JobInfo job);

/// Short tag identifying the I/O engine in Darshan-side reports and bench
/// JSON: the uppercased engine name ("BP4", "BP5"), except that the stream
/// engine reports as "SST".  Any name registered via bp::register_engine
/// gets a tag.
std::string engine_tag(const std::string& engine);

/// Short tag identifying the aggregation mode in Darshan-side reports and
/// bench JSON: the uppercased mode name ("FLAT", "TWO_LEVEL").
std::string aggregation_tag(const std::string& aggregation);

}  // namespace bitio::darshan
