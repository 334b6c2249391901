#pragma once
// miniBP writer: the bp4/bp5 file engine behind bp::make_engine — an
// ADIOS2-BP4-style container over the simulated file system.
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
//   * every rank's put() is deferred ("key operations between storeChunk()
//     and flush() must not modify the referenced data") as one row of the
//     step's flat chunk table: variable slot, rank, offset and count, in
//     put order.  Rows own nothing; a real chunk's staged or borrowed bytes
//     sit in a side payload table, and a synthetic chunk has none;
//   * end_step() walks the table rank-major (by rank, then put order)
//     through a stable counting sort by rank, and marshals every real chunk
//     through bp::marshal_chunk (src/bp/format.hpp) — with a codec the
//     data is compressed straight into the aggregation buffer (no separate
//     memcopy, which is why Fig 8 shows memcopy time eliminated under
//     compression; without a codec a plain memcopy is charged);
//   * each chunk's MD07 record is encoded straight into its slot in the
//     step's md.0 block, laid out before the walk: a variable's records
//     all have the rank of its shape, so its put count fixes where they go;
//   * ranks are mapped onto M aggregators in contiguous blocks
//     (OPENPMD_ADIOS2_BP5_NumAgg in the paper); each aggregator leader
//     appends its ranks' chunks to its subfile in one sequential write;
//   * rank 0 seals the step's md.0 block with its CRC, appends it to md.0
//     and its index entry to md.idx.
//
// Asynchronous drain (BP5's AsyncWrite): with EngineConfig::async_write,
// end_step() moves the step's chunk table into an immutable StepJob
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

#ifdef BITIO_BP_SEAM_ONLY
// Outside src/bp, BITIO_BP_SEAM_ONLY is set (src/CMakeLists.txt).
#error "bp-internal header: outside src/bp include bp/engine.hpp instead"
#endif

#include <atomic>
#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <thread>

#include "bp/engine.hpp"
#include "bp/format.hpp"
#include "bp/types.hpp"
#include "compress/buffer_pool.hpp"
#include "compress/codec.hpp"
#include "fsim/posix_fs.hpp"
#include "topo/topology.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace bitio::bp {

class Writer final : public Engine {
public:
  /// Creates the container directory and all its files.  `nranks` is the
  /// size of the writing communicator.  Application call sites build the
  /// writer by name through bp::make_engine so they stay engine-agnostic;
  /// format tests and benches that need the concrete class use open().
  Writer(fsim::SharedFs& fs, std::string path, EngineConfig config,
         int nranks);
  ~Writer() override;

  /// Named constructor for code that needs the concrete file writer.
  /// Writer is not movable, but C++17 guaranteed elision makes this
  /// returnable, mirroring Reader::open.
  static Writer open(fsim::SharedFs& fs, std::string path,
                     EngineConfig config, int nranks) {
    return Writer(fs, std::move(path), std::move(config), nranks);
  }

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  std::string engine_name() const override {
    return bp::engine_name(config_.engine);
  }
  int aggregator_count() const { return num_aggregators_; }
  int aggregator_of(int rank) const;
  const std::string& path() const override { return path_; }

  /// Opens a step.  With async_write, applies backpressure: blocks until
  /// fewer than max_inflight_steps drain jobs are outstanding.
  void begin_step(std::uint64_t step) override EXCLUDES(mutex_, drain_mutex_);

  /// Deferred put of one chunk of an n-dimensional variable.  All ranks
  /// putting the same variable in a step must agree on shape and dtype;
  /// the chunk must lie inside the shape (check_put, src/bp/format.hpp).
  void put(int rank, const std::string& name, const Dims& shape,
           const ChunkView& chunk) override EXCLUDES(mutex_);
  using Engine::put;

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
                     const Dims& count) override EXCLUDES(mutex_);

  /// Step-scoped attribute (recorded in the step's metadata).
  void add_attribute(const std::string& name, AttrValue value) override
      EXCLUDES(mutex_);

  /// Aggregate, compress, write data subfiles, append metadata.  With
  /// async_write the step's chunk table is moved into an immutable
  /// step job, handed to the drain worker, and the call returns
  /// immediately; otherwise the drain runs on the caller.
  void end_step() override EXCLUDES(mutex_, drain_mutex_);

  /// Join every outstanding drain job (no-op without async_write).
  /// Rethrows the first drain error, if any.  Required before reading the
  /// container back without closing it.
  void wait_drains() EXCLUDES(drain_mutex_);
  void flush() override EXCLUDES(drain_mutex_) { wait_drains(); }

  /// Highest number of simultaneously outstanding drain jobs observed;
  /// bounded by config.max_inflight_steps (the backpressure guarantee).
  int peak_inflight() const override EXCLUDES(drain_mutex_);

  /// Patch the md.idx header with the current step count so a reader can
  /// open the container mid-run (close() writes the same bytes again, so
  /// the final container is unchanged).  Call wait_drains() first; no-op
  /// after close().
  void publish_index() EXCLUDES(mutex_);

  /// Join outstanding drains, patch the md.idx header, emit
  /// profiling.json / mmd.0, close all files.
  void close() override EXCLUDES(mutex_, drain_mutex_);

  std::uint64_t steps_written() const override EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return steps_written_;
  }

  /// Buffer-pool counters for the marshalling hot path: staged put()
  /// payloads and per-aggregator aggregation buffers all cycle through the
  /// writer's private pool, so after a one-step warmup every steady-state
  /// acquire is a hit (no per-chunk heap allocation — asserted >= 99% in
  /// tests).
  cz::BufferPool::Stats pool_stats() const override {
    return buffer_pool_.stats();
  }

  /// Zero the pool counters (keeps the warm freelists) so steady-state hit
  /// rate can be measured after a warmup step.
  void reset_pool_stats() override { buffer_pool_.reset_stats(); }

  /// Failed drain attempts, retries and abandoned steps (async only).
  DrainStats drain_stats() const override;

private:
  /// One variable of the open step: what every put of it must agree on,
  /// and how many chunks it has (drain_step sizes its MD07 records from
  /// it).
  struct StepVar {
    std::string name;
    Datatype dtype;
    Dims shape;
    std::size_t puts = 0;
  };

  /// One chunk of the open step, in put order: 24 bytes that own nothing.
  /// A step is all real or all synthetic, and a real step's row i has its
  /// bytes in payload i of the step's payload table.  The placement of a
  /// rank-1 chunk (every chunk of the paper's workloads) is inline; a
  /// chunk of rank 2 or 3 keeps its offset then its count in the step's
  /// extent table, from index `at[0]` on.  The rank is its variable's.
  struct StepChunk {
    std::uint32_t var = 0;  // index into the step's variable table
    std::uint32_t rank = 0;
    std::uint64_t at[2] = {};  // offset and count, or the extent index
  };

  /// The bytes of one real chunk: staged in a pool buffer by put(), or
  /// borrowed from the caller by put_borrowed() (valid until the step's
  /// drain completes, per the deferred-Put contract).
  struct Payload {
    cz::PooledBuffer staged;
    std::span<const std::uint8_t> borrowed;

    bool is_borrowed() const { return borrowed.data() != nullptr; }
    std::span<const std::uint8_t> bytes() const {
      return is_borrowed() ? borrowed : std::span<const std::uint8_t>(*staged);
    }
  };

  /// Immutable snapshot of one step, handed to the drain worker.
  struct StepJob {
    std::uint64_t step = 0;
    int kind = 0;  // see step_kind_
    std::vector<std::pair<std::string, AttrValue>> attributes;
    std::vector<StepVar> vars;            // in first-put order
    std::vector<StepChunk> chunks;        // in put order
    std::vector<std::uint64_t> extents;   // of chunks above rank 1
    std::vector<Payload> payloads;        // one per chunk of a real step
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

  /// check_put, shape/dtype agreement with the step's earlier puts of
  /// `name`, and no mixing of real (kind 1) and synthetic (kind 2) puts in
  /// one step.  Counts the put and returns its variable's table index.
  std::uint32_t validate_put(int rank, const std::string& name,
                             Datatype dtype, const Dims& shape,
                             const Dims& offset, const Dims& count, int kind)
      REQUIRES(mutex_);
  /// Appends a validated chunk's row (and, above rank 1, its extents).
  void add_chunk(std::uint32_t var, int rank, const Dims& offset,
                 const Dims& count) REQUIRES(mutex_);
  /// Resolve the configured topology preset (with the engine's
  /// ranks_per_node and any numa/nic overrides applied) into the writer's
  /// rank placement.  Returns a trivial single-node mapper for inputs the
  /// constructor body is about to reject anyway.
  static topo::Mapper build_mapper(const EngineConfig& config, int nranks);
  int leader_of(int aggregator) const;
  void drain_step(const StepJob& job);
  void drain_job_with_retries(const StepJob& job) EXCLUDES(drain_mutex_);
  DrainSnapshot snapshot_drain_state() const;
  void restore_drain_state(const DrainSnapshot& snap);
  void drain_loop() EXCLUDES(drain_mutex_);
  void stop_drain_thread() EXCLUDES(drain_mutex_);

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
  // Recycles every hot-path buffer.  Declared before codec_ (a
  // ParallelCodec wrapper keeps a pointer to it) and before payloads_ and
  // drain_queue_, whose PooledBuffers return to it when destroyed.
  // Thread-safe; shared by rank threads in put() and whichever thread
  // drains.
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
  // The open step's chunk table, in put order, the extents of its chunks
  // above rank 1, and the payloads of its real chunks.
  std::vector<StepChunk> chunks_ GUARDED_BY(mutex_);
  std::vector<std::uint64_t> extents_ GUARDED_BY(mutex_);
  std::vector<Payload> payloads_ GUARDED_BY(mutex_);
  std::vector<std::pair<std::string, AttrValue>> attributes_
      GUARDED_BY(mutex_);
  // The open step's variable table, in first-put order, and the slot of
  // the last put's variable: puts come variable-major or rank-major, so
  // the name lookup starting there hits at once or one slot on.
  std::vector<StepVar> step_vars_ GUARDED_BY(mutex_);
  std::size_t last_var_ GUARDED_BY(mutex_) = 0;

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
  // The md.0 block drain_step encodes, kept across steps so a step's
  // block reuses the last one's pages.
  std::vector<std::uint8_t> md_block_;

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

  // DrainStats, bumped by the drain worker and read from any thread.
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> drain_retries_{0};
  std::atomic<std::uint64_t> steps_abandoned_{0};
};

}  // namespace bitio::bp
