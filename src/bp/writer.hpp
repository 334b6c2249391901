#pragma once
// miniBP writer: an ADIOS2-BP4-style container engine over the simulated
// file system.
//
// Layout of `<path>` (a directory, like ADIOS2's <name>.bp4):
//   data.0 .. data.M-1   one subfile per aggregator
//   md.0                 step metadata records (appended per step), then
//                        the footer index (appended at close)
//   md.idx               fixed-size step index (header count patched at close)
//   profiling.json       optional per-rank timing profile (Fig 8)
//   mmd.0                BP5 engines only (second metadata file)
//
// Write path per step (matching the paper's description of BP4):
//   * every rank's put() is deferred into a rank-local pending buffer
//     ("key operations between storeChunk() and flush() must not modify the
//     referenced data");
//   * end_step() applies the configured operator per chunk — with a codec
//     the data is compressed straight into the aggregation buffer (no
//     separate memcopy, which is why Fig 8 shows memcopy time eliminated
//     under compression; without a codec a plain memcopy is charged);
//   * ranks are mapped onto M aggregators in contiguous blocks
//     (OPENPMD_ADIOS2_BP5_NumAgg in the paper); each aggregator leader
//     appends its ranks' chunks to its subfile in one sequential write;
//   * rank 0 appends the step's metadata to md.0 and its index entry to
//     md.idx.
//
// Asynchronous drain (BP5's AsyncWrite): with EngineConfig::async_write,
// end_step() snapshots the pending chunk table into an immutable StepJob
// and returns immediately; a background worker drains jobs FIFO, issuing
// each aggregator's subfile append on that leader's overlapped drain lane
// in buffer_chunk_mb slices.  A bounded queue applies backpressure —
// begin_step() of step N + max_inflight_steps blocks until step N's drain
// has landed — and close()/wait_drains() join outstanding work.  Output is
// byte-identical to the synchronous path.
//
// Thread safety: put() may be called concurrently by SPMD rank threads;
// begin_step/end_step/close are collective-like and must be called by
// exactly one thread at a time (the openPMD layer funnels them through
// rank 0 between barriers).

#include <atomic>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "bp/format.hpp"
#include "bp/types.hpp"
#include "compress/buffer_pool.hpp"
#include "compress/codec.hpp"
#include "fsim/posix_fs.hpp"
#include "topo/topology.hpp"
#include "util/json.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace bitio::bp {

enum class EngineType { bp4, bp5, stream };

inline const char* engine_name(EngineType t) {
  switch (t) {
    case EngineType::bp4: return "bp4";
    case EngineType::bp5: return "bp5";
    case EngineType::stream: return "stream";
  }
  return "?";
}

/// Slow-reader backpressure policy of the stream engine's bounded channel
/// (see src/bp/stream.hpp), parsed from the `stream_policy` config string.
enum class StreamPolicy { block, drop_oldest, disconnect };

/// The `stream_policy` names, indexed by StreamPolicy.  stream_policy_of
/// and EngineConfig::validate() read this list.
inline constexpr const char* kStreamPolicies[] = {"block", "drop_oldest",
                                                  "disconnect"};

StreamPolicy stream_policy_of(const std::string& name);

struct EngineConfig {
  EngineType engine = EngineType::bp4;
  /// Number of subfiles; 0 means one aggregator per node (ADIOS2's default
  /// of node-level aggregation).
  int num_aggregators = 0;
  int ranks_per_node = 128;
  std::string codec = "none";      // operator applied to every chunk
  std::size_t codec_typesize = 4;
  /// Block-parallel compression in compress_block_kb-KiB blocks (see
  /// make_operator); the CPU charge uses fsim::parallel_cpu_seconds.
  int compress_threads = 1;
  std::size_t compress_block_kb = 1024;
  bool profiling = false;          // emit profiling.json
  double mem_bandwidth_bps = 8e9;  // modelled memcopy speed
  /// Stored/raw size ratio applied to put_synthetic() chunks when a codec
  /// is configured (measured once on representative data by the scale
  /// harness; real put() chunks always run the real codec).
  double synthetic_codec_ratio = 1.0;
  /// BP5-style AsyncWrite: end_step() snapshots the pending chunk table
  /// into an immutable step job and returns immediately; a background
  /// worker drains jobs through per-aggregator lanes that overlap with the
  /// callers' compute.  Off by default (BP4 semantics: fully synchronous
  /// end_step, byte-identical output either way).
  bool async_write = false;
  /// Drain append granularity in MiB (BP5's BufferChunkSize): async subfile
  /// appends are issued in slices of at most this size.
  std::size_t buffer_chunk_mb = 16;
  /// io_uring-style queue-pair submission on the drain path: with a depth
  /// > 0 each aggregator's subfile appends and rank 0's md.0/md.idx appends
  /// go through an fsim::SubmissionQueue of that ring size — one doorbell
  /// per submit, OpKind::batch_write trace records — instead of per-op
  /// pwrites.  The per-step metadata records in particular stop paying the
  /// synchronous small-record round trip.  Container bytes are identical
  /// either way; only the trace shape (op kinds, op_count, tags) changes.
  /// 0 selects the per-op posix path.
  int io_batch_depth = 0;
  /// With batching, merge adjacent contiguous same-file sqes into single
  /// vectored records (fewer, larger device ops; Darshan reports the merged
  /// bytes as coalesced_bytes).  Inert when io_batch_depth == 0.
  bool coalesce_writes = false;
  /// Backpressure bound on outstanding drain jobs: begin_step() of step
  /// N + max_inflight_steps blocks until step N's drain has landed.
  int max_inflight_steps = 2;
  /// Drain-lane watchdog (async only): if an in-flight drain job stops
  /// heartbeating for this long (wall-clock), the wedged simulated I/O is
  /// cancelled (SharedFs::cancel_stalls) and the job retried from a rolled-
  /// back state.  0 disables the watchdog.
  int drain_timeout_ms = 0;
  /// Bounded retries of a cancelled/failed drain job before the step is
  /// abandoned with a TimeoutError.  The queue is then poisoned (later jobs
  /// are skipped) so end_step()/close() can never hang on a wedged lane.
  int max_drain_retries = 2;
  /// Stream engine only: bound on buffered published steps in the in-memory
  /// channel (the miniSST window) and the slow-reader policy applied when a
  /// publish finds the channel full.  Ignored by the file engines.
  int stream_max_steps = 4;
  std::string stream_policy = "block";
  /// Topology-modeled gather path (src/topo).  `topology` names a
  /// topo::Cluster preset; `aggregation` selects how marshalled bytes reach
  /// the aggregator leaders on it ("flat" = every rank ships straight to
  /// its aggregator over the NICs; "two_level" = rank -> node-leader over
  /// intra-node shared memory, node-leader -> aggregator over the NICs).
  /// With the "flat" topology every rank sits on one modelled node, no
  /// gather op is ever recorded, and the trace — hence the container bytes
  /// and every replay number — is identical to the pre-topology writer.
  /// numa_per_node / nics_per_node override the preset hierarchy when > 0.
  /// `aggregation` must be one of kAggregationModes (bp/types.hpp).
  std::string aggregation = "flat";
  std::string topology = "flat";
  int numa_per_node = 0;
  int nics_per_node = 0;

  friend bool operator==(const EngineConfig&,
                         const EngineConfig&) = default;

  /// Reject out-of-range knobs and unknown names (codec, stream policy,
  /// aggregation mode, topology) with a UsageError naming the member.
  /// Every engine constructor and core::Bit1IoConfig::validate() call it.
  void validate() const;

  /// Parse the "adios2" section of an openPMD-style JSON/TOML config, e.g.
  /// {engine:{type:"bp4", parameters:{NumAggregators:400, Profile:"On"}},
  ///  dataset:{operators:[{type:"blosc"}]}}, through kEngineParameters
  /// (bp/engine.hpp).  Absent parameters keep their defaults.
  static EngineConfig from_json(const Json& adios2);

  /// Every kEngineParameters row as [adios2] TOML.  Members without a row
  /// (mem_bandwidth_bps, synthetic_codec_ratio, max_inflight_steps) are
  /// set in code.
  std::string adios2_toml() const;
};

/// The operator `config` applies to every chunk (nullptr for "none"); with
/// compress_threads > 1 it is a cz::ParallelCodec whose per-block scratch
/// comes from `pool` (CZP1 frames, byte-identical for any thread count).
std::unique_ptr<cz::Codec> make_operator(const EngineConfig& config,
                                         cz::BufferPool& pool);

/// Drain-watchdog counters (all zero when the watchdog is disabled).
/// Namespace-scoped so the abstract Engine can report them for any engine;
/// Writer::WatchdogStats remains a valid spelling.
struct WatchdogStats {
  std::uint64_t timeouts = 0;         // stalled-lane cancellations issued
  std::uint64_t retries = 0;          // drain attempts retried
  std::uint64_t steps_abandoned = 0;  // jobs given up after max retries
};

class Writer {
public:
  /// Construction path used by the engine factory and Writer::open.  The
  /// once-deprecated raw `Writer(fs, path, config, nranks)` constructor is
  /// gone: application call sites select engines by name through
  /// bp::make_engine (src/bp/engine.hpp) so they stay engine-agnostic
  /// (README "Engines" has the migration note).
  Writer(ForEngineFactory, fsim::SharedFs& fs, std::string path,
         EngineConfig config, int nranks);
  ~Writer();

  /// Preferred named constructor for code that needs the concrete file
  /// writer (format tests, benches); creates the container directory and
  /// all its files.  `nranks` is the size of the writing communicator.
  /// Writer is not movable, but C++17 guaranteed elision makes this
  /// returnable, mirroring Reader::open.
  static Writer open(fsim::SharedFs& fs, std::string path,
                     EngineConfig config, int nranks) {
    return Writer(ForEngineFactory{}, fs, std::move(path), std::move(config),
                  nranks);
  }

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  int aggregator_count() const { return num_aggregators_; }
  int aggregator_of(int rank) const;
  const std::string& path() const { return path_; }

  /// Opens a step.  With async_write, applies backpressure: blocks until
  /// fewer than max_inflight_steps drain jobs are outstanding.
  void begin_step(std::uint64_t step) EXCLUDES(mutex_, drain_mutex_);

  /// Deferred put of one chunk of an n-dimensional variable.  All ranks
  /// putting the same variable in a step must agree on shape and dtype;
  /// the chunk's placement and byte length were validated at ChunkView
  /// construction.
  void put(int rank, const std::string& name, const Dims& shape,
           const ChunkView& chunk) EXCLUDES(mutex_);

  template <typename T>
  void put(int rank, const std::string& name, const Dims& shape,
           const Dims& offset, const Dims& count, std::span<const T> data) {
    put(rank, name, shape, ChunkView::of<T>(data, offset, count));
  }

  /// Zero-copy put: the chunk's bytes are borrowed, not staged.  The span
  /// must stay valid and unmodified until the step's drain completes —
  /// end_step() on the synchronous path, wait_drains()/close() with
  /// async_write — mirroring ADIOS2's deferred Put contract.  Skips put()'s
  /// staging memcpy entirely: marshalling reads the caller's SoA particle
  /// arrays exactly once (a single pass through the SIMD marshal into the
  /// pooled aggregation buffer, or compress_append under an operator), so
  /// bytes flow source arrays -> aggregation buffer -> device with no
  /// intermediate copy.  Output is byte-identical to put() of the same
  /// bytes; only the Fig 8 memcopy accounting changes.
  void put_borrowed(int rank, const std::string& name, const Dims& shape,
                    const ChunkView& chunk) EXCLUDES(mutex_);

  /// Size-only put for modelled large-scale runs: the chunk participates in
  /// aggregation, metadata, and timing exactly like a real one, but no
  /// payload bytes are materialized (subfile writes go through the
  /// simulated-size path).  A step must be all-real or all-synthetic.
  void put_synthetic(int rank, const std::string& name, Datatype dtype,
                     const Dims& shape, const Dims& offset,
                     const Dims& count) EXCLUDES(mutex_);

  /// Step-scoped attribute (recorded in the step's metadata).
  void add_attribute(const std::string& name, AttrValue value)
      EXCLUDES(mutex_);

  /// Aggregate, compress, write data subfiles, append metadata.  With
  /// async_write the pending chunk table is snapshotted into an immutable
  /// step job, handed to the drain worker, and the call returns
  /// immediately; otherwise the drain runs on the caller.
  void end_step() EXCLUDES(mutex_, drain_mutex_);

  /// Join every outstanding drain job (no-op without async_write).
  /// Rethrows the first drain error, if any.  Required before reading the
  /// container back without closing it.
  void wait_drains() EXCLUDES(drain_mutex_);

  /// Highest number of simultaneously outstanding drain jobs observed;
  /// bounded by config.max_inflight_steps (the backpressure guarantee).
  int peak_inflight() const EXCLUDES(drain_mutex_);

  /// Patch the md.idx header with the current step count so a reader can
  /// open the container mid-run (close() writes the same bytes again, so
  /// the final container is unchanged).  Call wait_drains() first; no-op
  /// after close().  The factory's file engines use this for
  /// Engine::attach().
  void publish_index() EXCLUDES(mutex_);

  /// Join outstanding drains, patch the md.idx header, emit
  /// profiling.json / mmd.0, close all files.
  void close() EXCLUDES(mutex_, drain_mutex_);

  std::uint64_t steps_written() const EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return steps_written_;
  }

  /// Buffer-pool counters for the marshalling hot path: staged put()
  /// payloads and per-aggregator aggregation buffers all cycle through the
  /// writer's private pool, so after a one-step warmup every steady-state
  /// acquire is a hit (no per-chunk heap allocation — asserted >= 99% in
  /// tests).
  cz::BufferPool::Stats pool_stats() const { return buffer_pool_.stats(); }

  /// Zero the pool counters (keeps the warm freelists) so steady-state hit
  /// rate can be measured after a warmup step.
  void reset_pool_stats() { buffer_pool_.reset_stats(); }

  /// Drain-watchdog counters (all zero when the watchdog is disabled).
  using WatchdogStats = bitio::bp::WatchdogStats;
  WatchdogStats watchdog_stats() const;

private:
  struct PendingChunk {
    std::string var;
    Datatype dtype;
    Dims shape, offset, count;
    std::vector<std::uint8_t> data;  // empty for synthetic/borrowed chunks
    // Caller-owned bytes of a put_borrowed() chunk (valid until the step's
    // drain completes, per the deferred-Put contract).
    std::span<const std::uint8_t> borrowed;
    bool synthetic = false;

    bool is_borrowed() const { return borrowed.data() != nullptr; }
    /// The chunk's payload wherever it lives (staged or borrowed).
    std::span<const std::uint8_t> payload() const {
      return is_borrowed() ? borrowed
                           : std::span<const std::uint8_t>(data);
    }
  };

  /// Immutable snapshot of one step, handed to the drain worker.
  struct StepJob {
    std::uint64_t step = 0;
    int kind = 0;  // see step_kind_
    std::vector<std::pair<std::string, AttrValue>> attributes;
    std::vector<std::vector<PendingChunk>> chunks;  // per rank
  };

  // Drain-lane ids (TraceOp::lane).  Lane 0 is the caller's critical path;
  // with async_write each aggregator leader drains its subfile on
  // kDataLane (leaders are distinct clients, so this is one logical lane
  // per aggregator) and rank 0 appends metadata on kMetaLane so it
  // overlaps with its own subfile drain.
  static constexpr std::uint32_t kDataLane = 1;
  static constexpr std::uint32_t kMetaLane = 2;

  /// Rollback point for retrying a failed drain attempt: everything
  /// drain_step() mutates.  A retry re-issues the same pwrites at the same
  /// offsets, so a partially landed attempt is simply overwritten.
  struct DrainSnapshot {
    std::vector<std::uint64_t> data_offsets;
    std::uint64_t md_offset = 0;
    std::size_t index_size = 0;
    double memcopy_us = 0.0, compress_us = 0.0, drain_us = 0.0, crc_us = 0.0;
    std::uint64_t raw_bytes = 0, stored_bytes = 0;
    std::uint64_t zero_copy_chunks = 0;
  };

  void validate_put(int rank, const std::string& name, Datatype dtype,
                    const Dims& shape, const Dims& offset, const Dims& count)
      REQUIRES(mutex_);
  /// Resolve the configured topology preset (with the engine's
  /// ranks_per_node and any numa/nic overrides applied) into the writer's
  /// rank placement.  Returns a trivial single-node mapper for inputs the
  /// constructor body is about to reject anyway.
  static topo::Mapper build_mapper(const EngineConfig& config, int nranks);
  static void compute_stats(const PendingChunk& chunk, ChunkRecord& meta);
  int leader_of(int aggregator) const;
  void drain_step(const StepJob& job);
  void drain_job_with_retries(const StepJob& job) EXCLUDES(drain_mutex_);
  /// Return a drained job's chunk buffers to the pool (after the last
  /// retry — a retried attempt re-reads the same buffers).
  void recycle_job(StepJob& job);
  /// CPU seconds charged for compressing `raw_bytes` (parallel wall time
  /// when compress_threads > 1, serial otherwise).
  double compress_cpu_seconds(std::uint64_t raw_bytes) const;
  DrainSnapshot snapshot_drain_state() const;
  void restore_drain_state(const DrainSnapshot& snap);
  void drain_loop() EXCLUDES(drain_mutex_);
  void stop_drain_thread() EXCLUDES(drain_mutex_);
  void watchdog_loop() EXCLUDES(watchdog_mutex_);
  void stop_watchdog_thread() EXCLUDES(watchdog_mutex_);
  void touch_heartbeat() {
    heartbeat_.fetch_add(1, std::memory_order_relaxed);
  }

  fsim::SharedFs& fs_;
  std::string path_;
  EngineConfig config_;
  int nranks_;
  // Rank placement on the modelled cluster (the config.topology preset).
  // On the flat topology every rank shares one node and drain_step records
  // no gather ops at all — the trace stays byte-identical to the
  // pre-topology writer.
  const topo::Mapper mapper_;
  int num_aggregators_;
  // Recycles every hot-path buffer (declared before codec_: a ParallelCodec
  // wrapper keeps a pointer to it).  Thread-safe; shared by rank threads in
  // put() and whichever thread drains.
  cz::BufferPool buffer_pool_;
  std::unique_ptr<cz::Codec> codec_;  // null when config_.codec == "none"

  // Step-state lock.  Taken before drain_mutex_ (begin_step holds it while
  // waiting out the backpressure bound); never the other way around.
  mutable util::Mutex mutex_ ACQUIRED_BEFORE(drain_mutex_);
  bool step_open_ GUARDED_BY(mutex_) = false;
  bool closed_ GUARDED_BY(mutex_) = false;
  // 0 = no puts yet, 1 = real payloads, 2 = synthetic
  int step_kind_ GUARDED_BY(mutex_) = 0;
  std::uint64_t current_step_ GUARDED_BY(mutex_) = 0;
  std::uint64_t steps_written_ GUARDED_BY(mutex_) = 0;
  // Per-rank pending chunk tables of the open step.
  std::vector<std::vector<PendingChunk>> pending_ GUARDED_BY(mutex_);
  std::vector<std::pair<std::string, AttrValue>> attributes_
      GUARDED_BY(mutex_);
  // Shape/dtype seen per variable within the open step (put validation).
  std::map<std::string, std::pair<Datatype, Dims>> step_vars_
      GUARDED_BY(mutex_);

  // Open descriptors, one per subfile plus metadata files (rank-0 client).
  // NOT lock-protected: the descriptor/offset tables, the step index, and
  // the profiling accumulators below are owned by whichever thread is
  // draining — the caller on the synchronous path, the drain worker between
  // submit and join on the async path — and handed back at
  // wait_drains()/close() via the thread join.  The annotations cover the
  // genuinely mutex-protected state only.
  std::vector<int> data_fds_;
  std::vector<std::uint64_t> data_offsets_;
  int md_fd_ = -1;
  std::uint64_t md_offset_ = 0;
  int idx_fd_ = -1;
  std::vector<IndexEntry> index_;

  // profiling.json accumulators (microseconds, like ADIOS2's profiler).
  // With async_write, marshalling/compression time lands in drain_us_total_
  // (the overlapped lane) instead of memcopy/compress (the critical path).
  double memcopy_us_total_ = 0.0;
  double compress_us_total_ = 0.0;
  double drain_us_total_ = 0.0;
  double crc_us_total_ = 0.0;  // per-chunk CRC32C time (both paths)
  std::uint64_t raw_bytes_total_ = 0;
  std::uint64_t stored_bytes_total_ = 0;
  // Zero-copy marshal accounting (the Fig 8 extension): how many chunks
  // paid the put() staging copy vs rode the borrowed-span path.  Emitted in
  // profiling.json only when a borrowed put occurred, so staged-only
  // containers keep the legacy profile byte-for-byte.  stage_copies is
  // put-side (guarded by mutex_); zero_copy_chunks is drain-side state.
  std::uint64_t stage_copies_total_ GUARDED_BY(mutex_) = 0;
  std::uint64_t zero_copy_chunks_total_ = 0;

  // Async drain state.  The worker owns the file-offset tables and
  // profiling accumulators between submit and join; callers only touch
  // them again after wait_drains()/close().
  std::thread drain_thread_;
  mutable util::Mutex drain_mutex_;
  util::CondVar drain_cv_;       // worker wake-ups
  util::CondVar drain_done_cv_;  // backpressure + joins
  std::deque<StepJob> drain_queue_ GUARDED_BY(drain_mutex_);
  // Queued + actively draining jobs.
  int inflight_ GUARDED_BY(drain_mutex_) = 0;
  int peak_inflight_ GUARDED_BY(drain_mutex_) = 0;
  bool drain_stop_ GUARDED_BY(drain_mutex_) = false;
  std::exception_ptr drain_error_ GUARDED_BY(drain_mutex_);

  // Drain-lane watchdog.  The worker bumps heartbeat_ at every unit of
  // progress; the watchdog thread cancels the fs's stalled writes when an
  // active job's heartbeat freezes for longer than drain_timeout_ms.
  std::thread watchdog_thread_;
  util::Mutex watchdog_mutex_;
  util::CondVar watchdog_cv_;
  bool watchdog_stop_ GUARDED_BY(watchdog_mutex_) = false;
  std::atomic<std::uint64_t> heartbeat_{0};
  std::atomic<bool> drain_active_{false};
  std::atomic<std::uint64_t> watchdog_timeouts_{0};
  std::atomic<std::uint64_t> drain_retries_{0};
  std::atomic<std::uint64_t> steps_abandoned_{0};
};

}  // namespace bitio::bp
