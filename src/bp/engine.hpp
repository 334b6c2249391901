#pragma once
// The pluggable engine seam of the miniBP layer.
//
// ADIOS2 separates "what the application stores" (steps of variables and
// attributes) from "how the bytes move" (the engine: BP4, BP5, SST, ...),
// selected by a string through the runtime config.  This header is that
// seam for bitio: the engine settings (EngineConfig), an abstract
// write-side Engine plus a read-side EngineReader session, and a
// string-keyed factory that maps engine names onto concrete engines.  The
// built-ins come from one table in engine.cpp:
//
//   bp4     bp::Writer, the synchronous file engine (BP4 semantics)
//   bp5     bp::Writer with the BP5 AsyncWrite background drain
//   stream  miniSST: completed CRC-verified steps are published into a
//           bounded in-memory channel; consumers attach/detach mid-run
//           (src/bp/stream.hpp)
//
// Both kinds of engine marshal a chunk through the same bp::marshal_chunk
// (src/bp/format.hpp), so a chunk's record — operator, sizes, CRC32C,
// statistics, content hash — is the same whichever engine stored it; only
// where the bytes go differs.  Call sites (the openPMD backend, the scale
// workload, the benches) select an engine purely via Bit1IoConfig::engine,
// so swapping BP4 for the stream engine touches a TOML line, not code.
// Bit1IoConfig::validate() accepts exactly the registered names
// (engine_registered / registered_engines below).
//
// kEngineParameters below owns the adios2 parameter names (NumAggregators,
// Profile, ...); EngineConfig's adios2 parser and emitter loop over it.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "bp/types.hpp"
#include "compress/buffer_pool.hpp"
#include "compress/codec.hpp"
#include "fsim/posix_fs.hpp"
#include "util/json.hpp"

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
  /// (below).  Absent parameters keep their defaults.
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
/// Namespace-scoped so the abstract Engine can report them for any engine.
struct WatchdogStats {
  std::uint64_t timeouts = 0;         // stalled-lane cancellations issued
  std::uint64_t retries = 0;          // drain attempts retried
  std::uint64_t steps_abandoned = 0;  // jobs given up after max retries
};

/// Read-side session obtained from Engine::attach() (or attach_reader() for
/// an on-disk container).  next_step() advances a cursor: for file engines
/// it walks the steps already landed in the container; for the stream
/// engine it blocks until the producer publishes the next step (or the
/// stream ends).  The current-step accessors throw UsageError before the
/// first successful next_step().
class EngineReader {
 public:
  virtual ~EngineReader() = default;

  /// Advance to the next step.  Returns its id, or nullopt at the end of
  /// the stream (container exhausted, engine closed, or this consumer
  /// disconnected by the slow-reader policy).
  virtual std::optional<std::uint64_t> next_step() = 0;

  virtual std::uint64_t current_step() const = 0;
  virtual std::vector<std::string> variables() const = 0;
  virtual const VarRecord* find_variable(const std::string& name) const = 0;

  /// Decoded global array of a current-step variable (CRC-verified,
  /// decompressed, chunks scattered into place).  Synthetic chunks
  /// contribute zeroes.
  virtual std::vector<std::uint8_t> get(const std::string& name) = 0;

  virtual std::optional<AttrValue> attribute(const std::string& name) const = 0;

  // Slow-reader diagnostics; inert for file engines.
  /// Steps this consumer missed (evicted by the drop_oldest policy before
  /// it could read them).
  virtual std::uint64_t steps_dropped() const { return 0; }
  /// True once the disconnect policy cut this consumer off.
  virtual bool disconnected() const { return false; }
  /// Detach from a live stream (idempotent; next_step() then returns
  /// nullopt and the producer stops waiting for this consumer).
  virtual void detach() {}
};

/// Abstract write-side engine, implemented by bp::Writer (the bp4/bp5 file
/// engine, src/bp/writer.hpp) and bp::StreamEngine (src/bp/stream.hpp).
/// put() may be called concurrently by rank threads;
/// begin_step/end_step/flush/close are collective-like, one thread at a
/// time.
class Engine {
 public:
  virtual ~Engine() = default;

  virtual std::string engine_name() const = 0;
  virtual const std::string& path() const = 0;

  virtual void begin_step(std::uint64_t step) = 0;
  virtual void put(int rank, const std::string& name, const Dims& shape,
                   const ChunkView& chunk) = 0;

  template <typename T>
  void put(int rank, const std::string& name, const Dims& shape,
           const Dims& offset, const Dims& count, std::span<const T> data) {
    put(rank, name, shape, ChunkView::of<T>(data, offset, count));
  }

  /// Size-only put for modelled large-scale runs (see Writer::put_synthetic).
  virtual void put_synthetic(int rank, const std::string& name, Datatype dtype,
                             const Dims& shape, const Dims& offset,
                             const Dims& count) = 0;
  virtual void add_attribute(const std::string& name, AttrValue value) = 0;
  virtual void end_step() = 0;

  /// Join outstanding background work (the async drain; a no-op for
  /// engines that complete at end_step).  Required before attaching a
  /// reader to a file engine mid-run.
  virtual void flush() = 0;
  virtual void close() = 0;

  virtual std::uint64_t steps_written() const = 0;

  // Optional diagnostics; engines without the notion return zeroes.
  /// Peak simultaneously outstanding units of backpressure: drain jobs for
  /// the file engines, buffered channel steps for the stream engine.
  virtual int peak_inflight() const { return 0; }
  virtual cz::BufferPool::Stats pool_stats() const { return {}; }
  virtual void reset_pool_stats() {}
  virtual WatchdogStats watchdog_stats() const { return {}; }

  /// Attach a read-side consumer charged to `client`.  File engines flush
  /// outstanding drains and return a cursor over the steps landed so far;
  /// the stream engine subscribes the consumer to steps published from now
  /// on (mid-run attach/detach is the point).
  virtual std::unique_ptr<EngineReader> attach(fsim::ClientId client) = 0;
};

// --- adios2 parameters ------------------------------------------------------

/// Where an adios2 parameter sits in the openPMD-style config.
enum class AdiosSection {
  engine,      // [adios2.engine]
  parameters,  // [adios2.engine.parameters]
  op,          // the one entry of [adios2.dataset] operators
};

/// One adios2 parameter and the EngineConfig member it sets.
struct EngineParameter {
  const char* name;
  std::variant<EngineType EngineConfig::*, int EngineConfig::*,
               std::size_t EngineConfig::*, bool EngineConfig::*,
               std::string EngineConfig::*>
      member;
  AdiosSection section = AdiosSection::parameters;
  /// A second spelling from_json accepts (and prefers) for this row.
  const char* alias = nullptr;
};

/// Every adios2 parameter, in emission order: EngineConfig::from_json and
/// EngineConfig::adios2_toml loop over this table.  Booleans are written
/// "On"/"Off", ADIOS2's spelling.
inline constexpr EngineParameter kEngineParameters[] = {
    {"type", &EngineConfig::engine, AdiosSection::engine},
    // The paper sets OPENPMD_ADIOS2_BP5_NumAgg.
    {"NumAggregators", &EngineConfig::num_aggregators,
     AdiosSection::parameters, "NumAgg"},
    {"RanksPerNode", &EngineConfig::ranks_per_node},
    {"Profile", &EngineConfig::profiling},
    {"AsyncWrite", &EngineConfig::async_write},
    {"BufferChunkSize", &EngineConfig::buffer_chunk_mb},
    {"IoBatchDepth", &EngineConfig::io_batch_depth},
    {"CoalesceWrites", &EngineConfig::coalesce_writes},
    {"DrainTimeoutMs", &EngineConfig::drain_timeout_ms},
    {"MaxDrainRetries", &EngineConfig::max_drain_retries},
    {"StreamMaxSteps", &EngineConfig::stream_max_steps},
    {"StreamPolicy", &EngineConfig::stream_policy},
    {"Aggregation", &EngineConfig::aggregation},
    {"Topology", &EngineConfig::topology},
    {"NumaPerNode", &EngineConfig::numa_per_node},
    {"NicsPerNode", &EngineConfig::nics_per_node},
    {"type", &EngineConfig::codec, AdiosSection::op},
    {"typesize", &EngineConfig::codec_typesize, AdiosSection::op},
    {"threads", &EngineConfig::compress_threads, AdiosSection::op},
    {"block_kb", &EngineConfig::compress_block_kb, AdiosSection::op},
};

// --- factory ---------------------------------------------------------------

using EngineFactory = std::function<std::unique_ptr<Engine>(
    fsim::SharedFs& fs, std::string path, EngineConfig config, int nranks)>;

/// Register (or override) an engine under `name`.  The built-ins ("bp4",
/// "bp5", "stream") are registered on first use; tests may add their own.
void register_engine(const std::string& name, EngineFactory factory);

bool engine_registered(const std::string& name);

/// Registered engine names, sorted.
std::vector<std::string> registered_engines();

/// The EngineType of a built-in engine name; nullopt for engines
/// registered by tests (their factories read config.engine as they like).
std::optional<EngineType> engine_type_of(const std::string& name);

/// Construct the engine registered under `name`.  `config.engine` is
/// overridden to match `name` (the string is the source of truth — call
/// sites select it from Bit1IoConfig::engine).  Throws UsageError for an
/// unregistered name, listing the registered ones.
std::unique_ptr<Engine> make_engine(const std::string& name,
                                    fsim::SharedFs& fs, std::string path,
                                    EngineConfig config, int nranks);

/// Convenience: engine name taken from `config.engine`.
std::unique_ptr<Engine> make_engine(fsim::SharedFs& fs, std::string path,
                                    EngineConfig config, int nranks);

/// Open an on-disk BP4/BP5 container for sequential consumption without a
/// live engine (the offline analogue of Engine::attach).
std::unique_ptr<EngineReader> attach_reader(fsim::SharedFs& fs,
                                            fsim::ClientId client,
                                            std::string path);

}  // namespace bitio::bp
