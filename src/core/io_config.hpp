#pragma once
// The tunable I/O configuration of a BIT1 run — the knobs the paper sweeps:
// original serial I/O vs openPMD, engine (BP4/BP5), number of aggregators
// (OPENPMD_ADIOS2_BP5_NumAgg), compressor (Blosc / bzip2), Lustre striping
// (stripe count / stripe size), and the BP5 asynchronous write pipeline
// (AsyncWrite / BufferChunkSize).  Loadable from TOML ("TOML-based dynamic
// configuration"), renderable back to TOML losslessly, and renderable to the
// adios2 config string the openPMD layer consumes.
//
// The scalar [io] keys live in one table, kBit1IoConfigKeys: from_toml and
// to_toml loop over it, and a default-constructed Bit1IoConfig supplies
// every default.  A new knob is one member plus one row.  The names an
// engine, aggregation or topology knob accepts belong to their owners
// (bp::registered_engines(), bp::kAggregationModes, topo::preset_names()),
// which validate() asks directly.

#include <string>
#include <variant>

#include "fsim/fault_plan.hpp"
#include "fsim/types.hpp"

namespace bitio::core {

enum class IoMode { original, openpmd };

struct Bit1IoConfig {
  IoMode mode = IoMode::openpmd;

  // openPMD / ADIOS2 engine settings.
  std::string engine = "bp4";         // a bp::registered_engines() name
  int num_aggregators = 0;            // diagnostics series; 0 = per node
  int checkpoint_aggregators = 1;     // checkpoint series (shared-file)
  std::string codec = "none";         // "none" | "blosc" | "bzip2"
  // Block-parallel compression pipeline: with compress_threads > 1 each
  // chunk is split into compress_block_kb-KiB blocks compressed
  // concurrently (cz::ParallelCodec); frames stay byte-identical for any
  // thread count, and the storage model charges parallel wall time
  // (fsim::parallel_cpu_seconds) instead of the serial figure.
  int compress_threads = 1;
  int compress_block_kb = 1024;
  bool profiling = false;             // emit profiling.json

  // Asynchronous aggregation drain (BP5 AsyncWrite): end_step snapshots the
  // staged chunks and a background lane drains them to the subfiles while
  // the ranks compute the next step.  `buffer_chunk_mb` mirrors
  // BufferChunkSize: the MiB granularity the drain appends in.
  bool async_write = false;
  int buffer_chunk_mb = 16;

  // Batched queue-pair submission (fsim::SubmissionQueue): with
  // io_batch_depth > 0 the BP drain path issues its subfile and metadata
  // appends as sqe batches behind one doorbell per lane instead of per-op
  // pwrites, and coalesce_writes additionally merges adjacent contiguous
  // sqes into vectored records.  Container bytes are identical either way —
  // only the trace shape (and hence the timing replay) changes.
  // coalesce_writes is inert when io_batch_depth == 0.
  int io_batch_depth = 0;
  bool coalesce_writes = false;

  // Lustre striping applied to the output directory (lfs setstripe).
  bool use_striping = false;
  fsim::StripeSettings striping{1, 1 << 20};

  int ranks_per_node = 128;

  // Resilience: periodic checkpoint epochs (resil::CheckpointManager) and
  // deterministic fault injection into the simulated file system.
  int checkpoint_interval = 0;   // steps between epochs; 0 = disabled
  int checkpoint_retain = 2;     // keep the newest K committed epochs
  // Incremental checkpointing: every Nth epoch is a self-contained *full*
  // epoch; the epochs between are *delta* epochs that store only the blocks
  // whose content changed since the last committed epoch and reference the
  // rest by (base epoch, block).  1 (the default) keeps every epoch full —
  // byte-identical to the pre-delta behaviour.
  int checkpoint_full_interval = 1;
  fsim::FaultPlan fault_plan;    // empty = no injection

  // Online-recovery knobs (see README "Online recovery"):
  //   drain_timeout_ms    bp drain-lane watchdog: a step job whose lane
  //                       stops heartbeating for this long is cancelled and
  //                       retried; 0 disables the watchdog
  //   max_drain_retries   bounded retries before the watchdog abandons a
  //                       wedged step with TimeoutError
  //   degrade_threshold   consecutive flush failures before the degradation
  //                       ladder steps the sink down (async -> sync -> serial)
  //   degrade_cooldown    consecutive clean flushes before stepping back up
  //   recovery            rank-failure policy: "abort" (rethrow, the old
  //                       behaviour) or "shrink" (agree -> shrink -> restore
  //                       from the newest verifying epoch -> resume)
  int drain_timeout_ms = 0;
  int max_drain_retries = 2;
  int degrade_threshold = 3;
  int degrade_cooldown = 8;
  std::string recovery = "abort";

  // Topology-aware aggregation (src/topo): `topology` names a
  // topo::Cluster preset ("flat" keeps the historical flat-pool model;
  // "dardel" is node-hierarchical), `aggregation` selects the gather
  // strategy the BP engine models on it ("flat" = every rank ships
  // straight to its aggregator; "two_level" = rank -> node-leader over
  // shared memory, node-leader -> aggregator over the NICs).  With
  // topology = "flat" no gather is ever modeled, so the trace — and hence
  // the container bytes and every calibrated replay number — is identical
  // to the pre-topology behavior regardless of `aggregation`.
  // numa_per_node / nics_per_node override the preset's hierarchy when
  // > 0; 0 keeps the preset values.
  std::string aggregation = "flat";   // one of bp::kAggregationModes
  std::string topology = "flat";      // one of topo::preset_names()
  int numa_per_node = 0;
  int nics_per_node = 0;

  // Stream engine (engine = "stream") only: bound on buffered published
  // steps in the in-memory channel, and the slow-reader policy applied when
  // a publish finds the window full ("block" | "drop_oldest" |
  // "disconnect").  Ignored by the file engines.
  int stream_max_steps = 4;
  std::string stream_policy = "block";

  friend bool operator==(const Bit1IoConfig&, const Bit1IoConfig&) = default;

  /// Reject inconsistent configurations: unknown engine or codec, negative
  /// aggregator counts, non-positive buffer chunk / ranks-per-node, or a
  /// stripe size that is zero or not a power of two.  Throws UsageError.
  /// Called by from_toml after parsing; call it directly after building a
  /// config in code.
  void validate() const;

  /// Parse from TOML (validated), e.g.
  ///   [io]
  ///   mode = "openpmd"
  ///   engine = "bp5"
  ///   aggregators = 400
  ///   codec = "blosc"
  ///   async_write = true
  ///   buffer_chunk_mb = 16
  ///   [io.striping]
  ///   count = 8
  ///   size = "16M"
  /// Absent keys keep their defaults; a key under [io] or [io.striping]
  /// that the config does not know throws UsageError naming it.  Other
  /// top-level tables are ignored.
  static Bit1IoConfig from_toml(const std::string& text);

  /// Render back to the [io] TOML accepted by from_toml.  Lossless:
  /// from_toml(to_toml()) reproduces the config exactly.
  std::string to_toml() const;

  /// Render the [adios2] config TOML the miniPMD Series consumes.
  std::string adios2_toml() const;

  /// Human-readable label for tables ("openPMD + BP4 + Blosc + 1 AGGR").
  std::string label() const;
};

/// One scalar TOML knob under [io]: its key and the Bit1IoConfig member it
/// populates.  Hand-written instead: `mode` (an enum), [io.striping] and
/// [io.fault_plan] (sub-tables).
struct IoConfigKey {
  const char* key;
  std::variant<int Bit1IoConfig::*, bool Bit1IoConfig::*,
               std::string Bit1IoConfig::*>
      member;
};

/// Every scalar [io] knob, in to_toml order.  from_toml rejects any [io]
/// key that is neither listed here nor hand-written.
inline constexpr IoConfigKey kBit1IoConfigKeys[] = {
    {"engine", &Bit1IoConfig::engine},
    {"aggregators", &Bit1IoConfig::num_aggregators},
    {"checkpoint_aggregators", &Bit1IoConfig::checkpoint_aggregators},
    {"codec", &Bit1IoConfig::codec},
    {"compress_threads", &Bit1IoConfig::compress_threads},
    {"compress_block_kb", &Bit1IoConfig::compress_block_kb},
    {"profiling", &Bit1IoConfig::profiling},
    {"async_write", &Bit1IoConfig::async_write},
    {"buffer_chunk_mb", &Bit1IoConfig::buffer_chunk_mb},
    {"io_batch_depth", &Bit1IoConfig::io_batch_depth},
    {"coalesce_writes", &Bit1IoConfig::coalesce_writes},
    {"ranks_per_node", &Bit1IoConfig::ranks_per_node},
    {"checkpoint_interval", &Bit1IoConfig::checkpoint_interval},
    {"checkpoint_retain", &Bit1IoConfig::checkpoint_retain},
    {"checkpoint_full_interval", &Bit1IoConfig::checkpoint_full_interval},
    {"drain_timeout_ms", &Bit1IoConfig::drain_timeout_ms},
    {"max_drain_retries", &Bit1IoConfig::max_drain_retries},
    {"degrade_threshold", &Bit1IoConfig::degrade_threshold},
    {"degrade_cooldown", &Bit1IoConfig::degrade_cooldown},
    {"recovery", &Bit1IoConfig::recovery},
    {"stream_max_steps", &Bit1IoConfig::stream_max_steps},
    {"stream_policy", &Bit1IoConfig::stream_policy},
    {"aggregation", &Bit1IoConfig::aggregation},
    {"topology", &Bit1IoConfig::topology},
    {"numa_per_node", &Bit1IoConfig::numa_per_node},
    {"nics_per_node", &Bit1IoConfig::nics_per_node},
};

}  // namespace bitio::core
