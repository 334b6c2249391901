#pragma once
// The engine seam of the miniBP layer.
//
// ADIOS2 separates "what the application stores" (steps of variables and
// attributes) from "how the bytes move" (the engine: BP4, BP5, ...),
// selected by a string through the runtime config.  This header is that
// seam for bitio: the engine settings (EngineConfig), the abstract
// write-side Engine, and make_engine, which maps an engine name onto it.
// Both names build the one file engine, bp::Writer (src/bp/writer.hpp):
//
//   bp4     the BP4-style container
//   bp5     the same container plus BP5's second metadata file, mmd.0
//
// (BP5's AsyncWrite background drain is EngineConfig::async_write, on
// either.)
//
// Call sites (pmd::Series, the scale workload, the benches) select
// an engine purely via Bit1IoConfig::engine, which validate() checks
// against kEngineNames.  A container is read back through bp::Reader::open
// (src/bp/reader.hpp), closed or, after Writer::publish_index, mid-run.
//
// kEngineParameters below owns the adios2 parameter names (NumAggregators,
// Profile, ...); EngineConfig's adios2 parser and emitter loop over it.

#include <memory>
#include <optional>
#include <string>
#include <variant>

#include "bp/types.hpp"
#include "compress/buffer_pool.hpp"
#include "compress/codec.hpp"
#include "fsim/posix_fs.hpp"
#include "util/json.hpp"

namespace bitio::bp {

enum class EngineType { bp4, bp5 };

/// The engine names, indexed by EngineType.  make_engine, engine_type_of
/// and core::Bit1IoConfig::validate() read this list.
inline constexpr const char* kEngineNames[] = {"bp4", "bp5"};

inline const char* engine_name(EngineType t) { return kEngineNames[int(t)]; }

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
  /// Bounded retries of a failed drain job (async only; an injected stall
  /// fails its write at once with TimeoutError) before the step is
  /// abandoned with a TimeoutError.  The queue is then poisoned (later jobs
  /// are skipped) so end_step()/close() can never hang on a wedged lane.
  int max_drain_retries = 2;
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

  /// Reject out-of-range knobs and unknown names (codec, aggregation mode,
  /// topology) with a UsageError naming the member.
  /// The Writer constructor and core::Bit1IoConfig::validate() call it.
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

/// Async drain counters (all zero on the synchronous path).
/// Namespace-scoped so the abstract Engine can report them.
struct DrainStats {
  std::uint64_t timeouts = 0;         // attempts failed with TimeoutError
  std::uint64_t retries = 0;          // drain attempts retried
  std::uint64_t steps_abandoned = 0;  // jobs given up after max retries
};

/// Abstract write-side engine, implemented by bp::Writer (the bp4/bp5 file
/// engine, src/bp/writer.hpp).  put() may be called concurrently by rank
/// threads; begin_step/end_step/flush/close are collective-like, one thread
/// at a time.
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

  /// Join outstanding background work (the async drain; a no-op when
  /// end_step completes the step).  Required before reading the container
  /// back mid-run.
  virtual void flush() = 0;
  virtual void close() = 0;

  virtual std::uint64_t steps_written() const = 0;

  /// Peak simultaneously outstanding drain jobs (the backpressure bound).
  virtual int peak_inflight() const = 0;
  virtual cz::BufferPool::Stats pool_stats() const = 0;
  virtual void reset_pool_stats() = 0;
  virtual DrainStats drain_stats() const = 0;
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
    {"MaxDrainRetries", &EngineConfig::max_drain_retries},
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

/// The EngineType of an engine name; nullopt for a name outside
/// kEngineNames.
std::optional<EngineType> engine_type_of(const std::string& name);

/// Construct the engine named `name`, one of kEngineNames.  `config.engine`
/// is overridden to match `name` (the string is the source of truth — call
/// sites select it from Bit1IoConfig::engine).  Throws UsageError for any
/// other name, listing kEngineNames.
std::unique_ptr<Engine> make_engine(const std::string& name,
                                    fsim::SharedFs& fs, std::string path,
                                    EngineConfig config, int nranks);

}  // namespace bitio::bp
