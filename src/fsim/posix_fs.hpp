#pragma once
// POSIX-like file API over the simulated object store, with operation
// tracing.
//
// Every rank of the simulated application holds an FsClient bound to its
// client id.  Calls mutate the shared ObjectStore (bit-exact data) and
// append TraceOps to the shared trace; the trace is later replayed against
// a StorageModel to obtain simulated times, and summarized by the
// darshan module into per-file counters.
//
// Sequential writes through the same descriptor are coalesced into one
// TraceOp (op_count counts the calls) so that stdio-style record-at-a-time
// output from 25600 ranks stays tractable to replay.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "fsim/fault_plan.hpp"
#include "fsim/object_store.hpp"
#include "fsim/types.hpp"

namespace bitio::fsim {

/// Open mode for FsClient::open (FsClient::reopen takes write, append and
/// read).
enum class OpenMode {
  create,      // create new file (error if it exists)
  write,       // open existing for write (position 0)
  append,      // open existing, position at end
  read,        // open existing read-only
  create_or_truncate,  // create, or truncate existing to 0 (checkpoint slot)
};

/// Shared state: object store + trace + descriptor table.
class SharedFs {
public:
  explicit SharedFs(int ost_count, bool store_data = true,
                    StripeSettings default_stripe = {});

  [[nodiscard]] ObjectStore& store() { return store_; }
  [[nodiscard]] const ObjectStore& store() const { return store_; }

  [[nodiscard]] const std::vector<TraceOp>& trace() const {
    return trace_;
  }
  void clear_trace() { trace_.clear(); }
  /// Room for `ops` trace records, for a caller that knows its op count:
  /// the trace then never grows by doubling and copying.
  void reserve_trace(std::size_t ops) { trace_.reserve(ops); }

  /// Disable trace recording (layout-census runs that skip timing replay).
  void set_tracing(bool enabled) { tracing_ = enabled; }
  [[nodiscard]] bool tracing() const { return tracing_; }

  /// Total bytes recorded as written / read in the trace.
  [[nodiscard]] std::uint64_t traced_bytes_written() const;
  [[nodiscard]] std::uint64_t traced_bytes_read() const;

  /// Install (or clear) the fault-injection plan consulted on every data
  /// write.  The plan is stateful; installing it hands its counters over.
  void set_fault_plan(FaultPlan plan);
  void clear_fault_plan();
  [[nodiscard]] bool has_fault_plan() const {
    return fault_plan_.has_value();
  }
  /// Faults injected so far (0 without a plan).
  [[nodiscard]] std::uint64_t injected_fault_count() const;
  /// rank_crash rules: should `rank` die at `step`?  False without a plan.
  [[nodiscard]] bool should_crash(int rank, std::uint64_t step) const;

  /// Descriptor-table entry (public so the implementation's helpers can
  /// name the type; not part of the user-facing API).
  struct Descriptor {
    FileId file = kNoFile;
    ClientId client = 0;
    std::uint64_t position = 0;
    bool writable = false;
    bool open = false;
  };

private:
  friend class FsClient;
  friend class SubmissionQueue;
  void append_op(const TraceOp& op);
  /// Consult the fault plan for a data write (mutex must be held).
  [[nodiscard]] FaultKind next_write_fault(const FileNode& node,
                                           ClientId client,
                                           std::uint64_t bytes);

  mutable std::mutex mutex_;
  ObjectStore store_;
  std::vector<TraceOp> trace_;
  // Descriptor table.  open() takes the lowest closed slot, as POSIX does,
  // so the table stays as large as the most descriptors open at once.
  std::vector<Descriptor> fds_;
  std::priority_queue<int, std::vector<int>, std::greater<>> closed_fds_;
  bool tracing_ = true;
  std::optional<FaultPlan> fault_plan_;
};

/// Per-rank POSIX-like handle.  Cheap; copyable.  All methods are
/// thread-safe with respect to other clients of the same SharedFs.
///
/// `lane` selects the client's logical execution lane for every op this
/// handle records: lane 0 (default) is the rank's critical path, lanes > 0
/// replay as overlapped drain lanes (see TraceOp::lane).
class FsClient {
public:
  FsClient(SharedFs& fs, ClientId client, std::uint32_t lane = 0)
      : fs_(&fs), client_(client), lane_(lane) {}

  [[nodiscard]] ClientId client() const { return client_; }
  [[nodiscard]] std::uint32_t lane() const { return lane_; }
  [[nodiscard]] SharedFs& shared() const { return *fs_; }

  // -- namespace ------------------------------------------------------------
  void mkdir(const std::string& path);
  /// `lfs setstripe -c count -S size <dir>`
  void setstripe(const std::string& dir, StripeSettings settings);
  /// `lfs getstripe <file>`: resolved layout of an existing file.
  [[nodiscard]] StripeLayout getstripe(const std::string& file) const;
  /// Human-readable getstripe output in the style of the paper's Listing 1.
  [[nodiscard]] std::string getstripe_text(const std::string& file) const;

  [[nodiscard]] bool exists(const std::string& path) const;
  /// Records a stat op.
  [[nodiscard]] std::uint64_t stat_size(const std::string& path);
  void unlink(const std::string& path);
  /// POSIX rename: atomic namespace swap, replacing `to` if it exists (the
  /// write-tmp-validate-rename commit primitive).
  void rename(const std::string& from, const std::string& to);

  // -- descriptor I/O ---------------------------------------------------------
  [[nodiscard]] int open(const std::string& path, OpenMode mode);
  /// open() of a file already known by id (write, append or read; a create
  /// mode is a UsageError): no path lookup, and the same descriptor and
  /// OpKind::open trace record as opening it by path.  IoError if the file
  /// is no longer linked (unlinked, or renamed over).
  [[nodiscard]] int reopen(FileId file, OpenMode mode);
  void write(int fd, std::span<const std::uint8_t> data);
  void pwrite(int fd, std::uint64_t offset, std::span<const std::uint8_t> data);

  /// Size-only append for modelled large-scale runs: advances the file size
  /// and records a write of `bytes` split over `op_count` calls, without
  /// materializing data (valid on any store; the file then holds zeros when
  /// data retention is on).  Timing replay treats it exactly like write().
  void write_simulated(int fd, std::uint64_t bytes,
                       std::uint32_t op_count = 1);

  /// Size-only read: records a read of min(bytes, file size - position)
  /// without touching data.  Timing replay treats it exactly like read().
  void read_simulated(int fd, std::uint64_t bytes,
                      std::uint32_t op_count = 1);
  [[nodiscard]] std::uint64_t read(int fd, std::span<std::uint8_t> out);
  [[nodiscard]] std::uint64_t pread(int fd, std::uint64_t offset,
                                    std::span<std::uint8_t> out);
  /// Current size of the file open as `fd` (fstat's st_size).  Records no
  /// op: the size rides on the descriptor the open already paid for.
  [[nodiscard]] std::uint64_t fd_size(int fd);
  /// The file open as `fd`.  Records no op.
  [[nodiscard]] FileId fd_file(int fd);
  void seek(int fd, std::uint64_t position);
  void fsync(int fd);
  void close(int fd);

  /// Convenience: whole-file read (records open/read/close).
  [[nodiscard]] std::vector<std::uint8_t> read_all(const std::string& path);
  /// Convenience: create + write + close.
  void write_file(const std::string& path, std::span<const std::uint8_t> data);

  /// Record a rank-to-rank gather transfer of `bytes` from `peer` into
  /// this client (the receiver records the op, so the fan-in gates its
  /// subsequent trace ops in the replay), attributed to the open
  /// descriptor `fd` (the container file the gather feeds, so Darshan can
  /// bucket per-level gather counters by file).  `intra_node` selects the
  /// modeled channel: the node's shared-memory channel (tag
  /// TraceTag::shm_gather) or the inter-node NIC links
  /// (TraceTag::net_gather).
  /// Only the timing model moves bytes — no store data changes hands; the
  /// payload still reaches the OSTs through the aggregator's write.
  void transfer(int fd, ClientId peer, std::uint64_t bytes, bool intra_node,
                std::uint32_t op_count = 1);

  /// Charge modeled client CPU time to this client's timeline; shows up in
  /// replay reports and profiling.json under `tag`.  The trace records only
  /// I/O and modelled CPU: `seconds` must come from a cost model (codec
  /// speed, CRC or memcopy bandwidth, retry backoff), never from the host
  /// clock, and the op is not an event channel — counts of checkpoint and
  /// recovery events live in resil::ResilienceStats.  Negative, NaN or
  /// infinite `seconds` are a UsageError.
  void charge_cpu(double seconds, TraceTag tag);

  /// Record a harness-level fault (e.g. rank_crash) as a zero-cost tagged
  /// TraceOp so Darshan capture attributes it like write-layer injections.
  void note_fault(FaultKind kind);

private:
  /// The descriptor, trace record and fd slot of every open (mutex held).
  int open_node(const FileNode& node, OpenMode mode, OpKind meta);

  SharedFs* fs_;
  ClientId client_;
  std::uint32_t lane_ = 0;
};

// ---------------------------------------------------------------- queue pair

/// One submission-queue entry: a vectored pwritev-shaped write.  The iov
/// segments land contiguously at `offset` of the file behind `fd`.  Spans
/// are *borrowed* — the referenced bytes must stay valid until the sqe's
/// completion is generated by submit() (same deferred-Put contract as
/// bp::ChunkView), which is what lets the writer submit straight out of its
/// pooled aggregation buffer with zero staging copies.
struct Sqe {
  int fd = -1;
  std::uint64_t offset = 0;
  std::vector<std::span<const std::uint8_t>> iov;
  /// Size-only sqe for modelled large-scale runs (the write_simulated
  /// analogue): with an empty iov and simulated_bytes > 0 the op grows the
  /// file and lands in the trace like a payload write, but no bytes are
  /// materialized.  Mixing iov segments and simulated_bytes in one sqe is
  /// rejected at submit().
  std::uint64_t simulated_bytes = 0;
  std::uint64_t user_data = 0;  // opaque cookie echoed in the Cqe

  std::uint64_t bytes() const {
    std::uint64_t sum = simulated_bytes;
    for (const auto& segment : iov) sum += segment.size();
    return sum;
  }
};

/// One completion-queue entry.  `ok` is false only for injected failures
/// (eio/enospc/stall); a torn write reports ok with a short
/// `bytes_persisted` (io_uring-style: the result carries the byte count, so
/// short writes are caller-visible even though the posix write() path hides
/// them).  `fault` records any injection for attribution either way.
struct Cqe {
  std::uint64_t user_data = 0;
  std::uint64_t bytes_requested = 0;
  std::uint64_t bytes_persisted = 0;
  FaultKind fault = FaultKind::none;
  bool ok = true;
  std::string error;  // human-readable reason when !ok

  bool short_write() const { return ok && bytes_persisted < bytes_requested; }
};

/// io_uring-style queue pair over the simulated filesystem: the client
/// enqueues up to `depth` vectored sqes and rings the doorbell with
/// submit(), which returns the batch's Cqes.  One submit() records
/// one doorbell-tagged OpKind::batch_write TraceOp plus one per sqe (or per
/// coalesced run of adjacent sqes when `coalesce` is on), so the timing
/// replay charges batch setup once per doorbell and a tiny per-sqe cost —
/// never the per-record synchronous round trip of the posix write path.
///
/// Faults inject per-sqe: eio/enospc/stall fail only the affected sqe's
/// Cqe, and the rest of the batch proceeds.  submit() holds the fs lock
/// from its first trace record to its last, so one batch's records are
/// contiguous in the trace.  submit() is [[nodiscard]]: the
/// completions are its return value, so a caller cannot drop the per-sqe
/// fault results without an explicit `(void)`.
class SubmissionQueue {
public:
  /// `depth` is the ring size (must be > 0); push() throws when the ring is
  /// full, try_push() returns false.  `coalesce` merges adjacent same-file
  /// sqes into single vectored trace records.
  SubmissionQueue(FsClient client, std::size_t depth, bool coalesce = false);

  std::size_t depth() const { return depth_; }
  std::size_t pending() const { return sqes_.size(); }
  bool coalesce() const { return coalesce_; }

  /// Enqueue without submitting; throws UsageError when the ring is full.
  void push(Sqe sqe);
  /// Enqueue if the ring has room; false (sqe untouched) when full.
  bool try_push(Sqe& sqe);

  /// Ring the doorbell: process every pending sqe in order, append the
  /// batch trace records, and return one Cqe per sqe, in submission order
  /// (empty when nothing was pending).  Never throws on injected faults —
  /// they surface as failed/short Cqes (bad descriptors still throw, before
  /// any sqe is processed).
  [[nodiscard]] std::vector<Cqe> submit();

private:
  FsClient io_;
  std::size_t depth_;
  bool coalesce_;
  std::vector<Sqe> sqes_;
};

}  // namespace bitio::fsim
