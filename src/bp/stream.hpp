#pragma once
// miniSST: the in-memory streaming engine behind bp::make_engine("stream").
//
// ADIOS2's SST engine moves steps from a writer to concurrently attached
// readers without touching the file system; the queue between them is
// bounded and a QueueFullPolicy decides what happens when readers fall
// behind.  This is that shape over the simulated cluster: StreamEngine
// implements the bp::Engine write surface, marshals each chunk through the
// file engine's own bp::marshal_chunk (src/bp/format.hpp) — same sizes,
// CRC32C and statistics, so its ChunkRecords equal bp4's but for
// subfile/file_offset, and its variables name the same operator — and at
// end_step() publishes the completed,
// CRC-verified step into a bounded StreamChannel.  Consumers
// attach/detach mid-run; each one holds a cursor into the shared window and
// receives every step published after its attach (never a partial step).
//
// Backpressure (EngineConfig::stream_max_steps / stream_policy): when a
// publish finds the window full and the oldest buffered step is still
// unread by some attached consumer,
//   block        the producer waits until the slowest consumer advances;
//   drop_oldest  the oldest step is evicted and lagging consumers' cursors
//                jump forward, counting the miss in steps_dropped();
//   disconnect   the oldest step is evicted and every consumer still
//                needing it is cut off (disconnected() turns true, its
//                next_step() returns nullopt).
// A step already read by every attached consumer is always evicted freely —
// with zero consumers the producer never blocks.
//
// Steps are published as shared_ptr<const StreamStep>, so a consumer can
// keep its current step alive after the window evicted it and after the
// engine itself is destroyed.

#ifdef BITIO_BP_SEAM_ONLY
// Outside src/bp, BITIO_BP_SEAM_ONLY is set (src/CMakeLists.txt).
#error "bp-internal header: outside src/bp include bp/engine.hpp instead"
#endif

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bp/engine.hpp"
#include "bp/types.hpp"
#include "compress/buffer_pool.hpp"
#include "compress/codec.hpp"
#include "fsim/posix_fs.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace bitio::bp {

/// One published step: the metadata record (same StepRecord the file
/// engines persist to md.0) plus the stored bytes of every chunk —
/// compressed if an operator is configured, CRC32C-stamped either way.
/// payload[v][c] holds chunk c of record.variables[v]; synthetic chunks
/// have an empty payload and decode to zeroes.
struct StreamStep {
  std::uint64_t seq = 0;  // channel sequence number, monotonic from 0
  StepRecord record;
  std::vector<std::vector<std::vector<std::uint8_t>>> payload;
};

/// Decode one variable of a published step into its full global array:
/// decode_chunk and scatter_chunk per chunk, exactly as bp::Reader::read.
/// Throws FormatError on CRC mismatch or a payload/extent disagreement;
/// UsageError if the variable is absent.
std::vector<std::uint8_t> decode_stream_variable(const StreamStep& step,
                                                 const std::string& name);

/// Bounded single-producer / multi-consumer step window.  All methods are
/// thread-safe; next() blocks until a step is available for that consumer,
/// the stream closes, or the consumer is detached/disconnected.
class StreamChannel {
 public:
  using ConsumerId = std::uint64_t;

  StreamChannel(int max_steps, StreamPolicy policy);

  /// Subscribe a consumer starting at the next published step (steps
  /// already in the window predate the attach and are not replayed).
  ConsumerId attach() EXCLUDES(mutex_);

  /// Unsubscribe (idempotent).  The producer stops waiting for this
  /// consumer; a concurrent next() on it returns nullptr.
  void detach(ConsumerId id) EXCLUDES(mutex_);

  /// Publish the next step (producer side).  Applies the slow-reader
  /// policy when the window is full; with `block` this waits until the
  /// oldest still-needed step has been read by every attached consumer.
  void publish(std::shared_ptr<const StreamStep> step) EXCLUDES(mutex_);

  /// End of stream: consumers drain what is buffered, then next() returns
  /// nullptr.  Publishing after close is a UsageError.
  void close() EXCLUDES(mutex_);

  /// Next step for `id`, blocking.  nullptr at end of stream, after
  /// detach(id), or once the disconnect policy cut this consumer off.
  std::shared_ptr<const StreamStep> next(ConsumerId id) EXCLUDES(mutex_);

  std::uint64_t dropped(ConsumerId id) const EXCLUDES(mutex_);
  bool disconnected(ConsumerId id) const EXCLUDES(mutex_);

  // Window diagnostics.
  /// Steps evicted before some attached consumer could read them (the sum
  /// of all consumers' losses is >= this; 0 under the block policy).
  std::uint64_t steps_lost() const EXCLUDES(mutex_);
  int peak_depth() const EXCLUDES(mutex_);

 private:
  struct Cursor {
    std::uint64_t next_seq = 0;
    std::uint64_t dropped = 0;
    bool disconnected = false;
    bool detached = false;
  };

  /// Smallest next_seq over live (attached, connected) cursors, or nullopt
  /// when no consumer is live.
  std::optional<std::uint64_t> oldest_needed() const REQUIRES(mutex_);
  void evict_front() REQUIRES(mutex_);

  const std::size_t max_steps_;
  const StreamPolicy policy_;

  mutable util::Mutex mutex_;
  util::CondVar data_cv_;   // consumers: a step landed / stream closed
  util::CondVar space_cv_;  // producer: a slow consumer advanced
  std::deque<std::shared_ptr<const StreamStep>> window_ GUARDED_BY(mutex_);
  std::uint64_t base_seq_ GUARDED_BY(mutex_) = 0;  // seq of window_.front()
  std::uint64_t next_seq_ GUARDED_BY(mutex_) = 0;  // seq of the next publish
  std::map<ConsumerId, Cursor> cursors_ GUARDED_BY(mutex_);
  ConsumerId next_id_ GUARDED_BY(mutex_) = 0;
  bool closed_ GUARDED_BY(mutex_) = false;
  std::uint64_t lost_ GUARDED_BY(mutex_) = 0;
  int peak_depth_ GUARDED_BY(mutex_) = 0;
};

/// The `stream` engine.  Same step/put surface and put checks (check_put)
/// as bp::Writer, but end_step() publishes into the channel instead of
/// draining to subfiles.  `path` is kept as a label only — nothing is
/// written to the file system.  put() may be called concurrently by rank
/// threads; begin_step/end_step/close are single-threaded, like Writer.
class StreamEngine final : public Engine {
 public:
  StreamEngine(fsim::SharedFs& fs, std::string path, EngineConfig config,
               int nranks);
  ~StreamEngine() override;

  std::string engine_name() const override { return "stream"; }
  const std::string& path() const override { return path_; }

  void begin_step(std::uint64_t step) override EXCLUDES(mutex_);
  void put(int rank, const std::string& name, const Dims& shape,
           const ChunkView& chunk) override EXCLUDES(mutex_);
  void put_synthetic(int rank, const std::string& name, Datatype dtype,
                     const Dims& shape, const Dims& offset,
                     const Dims& count) override EXCLUDES(mutex_);
  void add_attribute(const std::string& name, AttrValue value) override
      EXCLUDES(mutex_);
  void end_step() override EXCLUDES(mutex_);
  void flush() override {}  // publishing completes inside end_step
  void close() override EXCLUDES(mutex_);

  std::uint64_t steps_written() const override EXCLUDES(mutex_);
  /// Peak buffered steps in the channel window (bounded by
  /// config.stream_max_steps — the backpressure guarantee).
  int peak_inflight() const override;
  cz::BufferPool::Stats pool_stats() const override {
    return buffer_pool_.stats();
  }
  void reset_pool_stats() override { buffer_pool_.reset_stats(); }

  std::unique_ptr<EngineReader> attach(fsim::ClientId client) override;

  /// The shared channel (outlives the engine via shared_ptr; consumers
  /// keep it alive).
  const StreamChannel& channel() const { return *channel_; }

 private:
  struct PendingVar {
    VarRecord record;
    std::vector<std::vector<std::uint8_t>> payload;
  };

  /// The open step's entry for `name`, appended on its first put.  Throws
  /// UsageError when an earlier put gave it another shape or dtype.
  PendingVar& pending_var(const std::string& name, Datatype dtype,
                          const Dims& shape) REQUIRES(mutex_);

  fsim::SharedFs& fs_;
  std::string path_;
  EngineConfig config_;
  int nranks_;
  StreamPolicy policy_;
  // Codec scratch only (declared before codec_, which keeps a pointer to
  // it); published payloads are plain vectors that readers own.
  cz::BufferPool buffer_pool_;
  std::unique_ptr<cz::Codec> codec_;  // null when config_.codec == "none"
  std::shared_ptr<StreamChannel> channel_;

  mutable util::Mutex mutex_;
  bool step_open_ GUARDED_BY(mutex_) = false;
  bool closed_ GUARDED_BY(mutex_) = false;
  int step_kind_ GUARDED_BY(mutex_) = 0;  // 0 none, 1 real, 2 synthetic
  std::uint64_t current_step_ GUARDED_BY(mutex_) = 0;
  std::uint64_t steps_written_ GUARDED_BY(mutex_) = 0;
  std::vector<PendingVar> pending_ GUARDED_BY(mutex_);
  std::vector<std::pair<std::string, AttrValue>> attributes_
      GUARDED_BY(mutex_);
};

/// Read-side session over a live stream, behind the EngineReader
/// interface.  Owns a channel cursor.
class StreamConsumer final : public EngineReader {
 public:
  /// `fs` must outlive the consumer (decoding charges CPU to `client`,
  /// like bp::Reader charges its reads).
  StreamConsumer(std::shared_ptr<StreamChannel> channel, fsim::SharedFs& fs,
                 fsim::ClientId client);
  ~StreamConsumer() override;

  std::optional<std::uint64_t> next_step() override;
  std::uint64_t current_step() const override;
  std::vector<std::string> variables() const override;
  const VarRecord* find_variable(const std::string& name) const override;
  std::vector<std::uint8_t> get(const std::string& name) override;
  std::optional<AttrValue> attribute(const std::string& name) const override;

  std::uint64_t steps_dropped() const override;
  bool disconnected() const override;
  void detach() override;

 private:
  std::shared_ptr<StreamChannel> channel_;
  StreamChannel::ConsumerId id_;
  fsim::SharedFs& fs_;
  fsim::ClientId client_;
  std::shared_ptr<const StreamStep> step_;
  bool detached_ = false;
};

}  // namespace bitio::bp
