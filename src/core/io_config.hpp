#pragma once
// The tunable I/O configuration of a BIT1 run — the knobs the paper sweeps:
// original serial I/O vs openPMD, engine (BP4/BP5), number of aggregators
// (OPENPMD_ADIOS2_BP5_NumAgg), compressor (Blosc / bzip2), Lustre striping
// (stripe count / stripe size), and the BP5 asynchronous write pipeline
// (AsyncWrite / BufferChunkSize).  Loadable from TOML ("TOML-based dynamic
// configuration"), renderable back to TOML losslessly, and mapped onto the
// bp::EngineConfig the BP engines run with.
//
// The scalar [io] keys live in one table, kBit1IoConfigKeys: from_toml and
// to_toml loop over it, a default-constructed Bit1IoConfig supplies every
// default, and engine_config() — the only place [io] knobs become engine
// settings — loops over the rows that name an EngineConfig member.  A new
// knob is one member plus one row; a member with neither a row nor a
// place in kHandWrittenMembers does not compile.  Accepted names belong
// to their owners (bp::kEngineNames, cz::kCodecNames, ...), which the
// validators ask directly.

#include <cstddef>
#include <string>
#include <tuple>
#include <variant>

#include "bp/engine.hpp"
#include "fsim/fault_plan.hpp"
#include "fsim/types.hpp"
#include "util/member_count.hpp"

namespace bitio::core {

enum class IoMode { original, openpmd };

/// Rank-failure policy of a resilient run (Bit1IoConfig::recovery, read by
/// resil::run_resilient): `abort` rethrows the failure, `shrink` agrees,
/// shrinks the communicator, restores from the newest verifying epoch and
/// resumes.
enum class RecoveryPolicy { abort, shrink };

/// The `recovery` names, indexed by RecoveryPolicy.  recovery_policy_of
/// and Bit1IoConfig::validate() read this list.
inline constexpr const char* kRecoveryPolicies[] = {"abort", "shrink"};

RecoveryPolicy recovery_policy_of(const std::string& name);

struct Bit1IoConfig {
  IoMode mode = IoMode::openpmd;

  // openPMD / ADIOS2 engine settings.  A knob whose kBit1IoConfigKeys row
  // feeds a bp::EngineConfig member is documented on that member.
  std::string engine = "bp4";         // one of bp::kEngineNames
  int num_aggregators = 0;            // diagnostics series; 0 = per node
  int checkpoint_aggregators = 1;     // checkpoint series (shared-file)
  std::string codec = "none";         // one of cz::kCodecNames
  int compress_threads = 1;           // block-parallel compression
  int compress_block_kb = 1024;
  bool profiling = false;             // emit profiling.json
  bool async_write = false;           // BP5 AsyncWrite
  int buffer_chunk_mb = 16;           // BP5 BufferChunkSize
  int io_batch_depth = 0;             // queue-pair submission; 0 = per-op
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
  //   max_drain_retries   async drain retries of a failed step (an
  //                       injected stall fails at once) before abandoning it
  //   degrade_threshold   consecutive flush failures before the degradation
  //                       ladder steps the sink down (async -> sync -> serial)
  //   degrade_cooldown    consecutive clean flushes before stepping back up
  //   recovery            rank-failure policy, one of kRecoveryPolicies
  int max_drain_retries = 2;
  int degrade_threshold = 3;
  int degrade_cooldown = 8;
  std::string recovery = "abort";

  // Topology-aware aggregation (src/topo): the gather strategy and the
  // topo::Cluster preset it is modelled on; numa_per_node / nics_per_node
  // override the preset's hierarchy when > 0.
  std::string aggregation = "flat";   // one of bp::kAggregationModes
  std::string topology = "flat";      // one of topo::preset_names()
  int numa_per_node = 0;
  int nics_per_node = 0;

  friend bool operator==(const Bit1IoConfig&, const Bit1IoConfig&) = default;

  /// Reject an unknown engine, anything engine_config().validate()
  /// rejects, out-of-range checkpoint/degrade/recovery settings, or a
  /// stripe size that is zero or not a power of two.  Throws UsageError.
  /// Called by from_toml after parsing; call it directly after building a
  /// config in code.
  void validate() const;

  /// The engine settings of one series: the engine type, every knob whose
  /// row feeds an EngineConfig member, and the series' aggregator count and
  /// profiling switch (diagnostics: num_aggregators / profiling;
  /// checkpoints: checkpoint_aggregators / false).
  bp::EngineConfig engine_config(int aggregators, bool profiling) const;

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

  /// The [adios2] config TOML of the diagnostics series:
  /// engine_config(num_aggregators, profiling).adios2_toml().
  std::string adios2_toml() const;

  /// Human-readable label for tables ("openPMD + BP4 + Blosc + 1 AGGR").
  std::string label() const;
};

/// One scalar TOML knob under [io]: its key, the Bit1IoConfig member it
/// populates, and the bp::EngineConfig member that member feeds, if any
/// (of the same type, or std::size_t for an int knob).  Hand-written
/// instead: `mode` (an enum), [io.striping] and [io.fault_plan]
/// (sub-tables).
struct IoConfigKey {
  const char* key;
  std::variant<int Bit1IoConfig::*, bool Bit1IoConfig::*,
               std::string Bit1IoConfig::*>
      member;
  std::variant<std::monostate, int bp::EngineConfig::*,
               std::size_t bp::EngineConfig::*, bool bp::EngineConfig::*,
               std::string bp::EngineConfig::*>
      feeds = {};
};

/// Every scalar [io] knob, in to_toml order.  from_toml rejects any [io]
/// key that is neither listed here nor hand-written.  `engine`,
/// `aggregators` and `profiling` reach the engine through engine_config().
inline constexpr IoConfigKey kBit1IoConfigKeys[] = {
    {"engine", &Bit1IoConfig::engine},
    {"aggregators", &Bit1IoConfig::num_aggregators},
    {"checkpoint_aggregators", &Bit1IoConfig::checkpoint_aggregators},
    {"codec", &Bit1IoConfig::codec, &bp::EngineConfig::codec},
    {"compress_threads", &Bit1IoConfig::compress_threads,
     &bp::EngineConfig::compress_threads},
    {"compress_block_kb", &Bit1IoConfig::compress_block_kb,
     &bp::EngineConfig::compress_block_kb},
    {"profiling", &Bit1IoConfig::profiling},
    {"async_write", &Bit1IoConfig::async_write,
     &bp::EngineConfig::async_write},
    {"buffer_chunk_mb", &Bit1IoConfig::buffer_chunk_mb,
     &bp::EngineConfig::buffer_chunk_mb},
    {"io_batch_depth", &Bit1IoConfig::io_batch_depth,
     &bp::EngineConfig::io_batch_depth},
    {"coalesce_writes", &Bit1IoConfig::coalesce_writes,
     &bp::EngineConfig::coalesce_writes},
    {"ranks_per_node", &Bit1IoConfig::ranks_per_node,
     &bp::EngineConfig::ranks_per_node},
    {"checkpoint_interval", &Bit1IoConfig::checkpoint_interval},
    {"checkpoint_retain", &Bit1IoConfig::checkpoint_retain},
    {"checkpoint_full_interval", &Bit1IoConfig::checkpoint_full_interval},
    {"max_drain_retries", &Bit1IoConfig::max_drain_retries,
     &bp::EngineConfig::max_drain_retries},
    {"degrade_threshold", &Bit1IoConfig::degrade_threshold},
    {"degrade_cooldown", &Bit1IoConfig::degrade_cooldown},
    {"recovery", &Bit1IoConfig::recovery},
    {"aggregation", &Bit1IoConfig::aggregation,
     &bp::EngineConfig::aggregation},
    {"topology", &Bit1IoConfig::topology, &bp::EngineConfig::topology},
    {"numa_per_node", &Bit1IoConfig::numa_per_node,
     &bp::EngineConfig::numa_per_node},
    {"nics_per_node", &Bit1IoConfig::nics_per_node,
     &bp::EngineConfig::nics_per_node},
};

/// The members from_toml and to_toml handle by hand rather than through a
/// kBit1IoConfigKeys row.
inline constexpr std::tuple kHandWrittenMembers{
    &Bit1IoConfig::mode, &Bit1IoConfig::use_striping, &Bit1IoConfig::striping,
    &Bit1IoConfig::fault_plan};

static_assert(member_count<Bit1IoConfig>() ==
                  std::size(kBit1IoConfigKeys) +
                      std::tuple_size_v<decltype(kHandWrittenMembers)>,
              "a Bit1IoConfig member has no row and is not hand-written");

}  // namespace bitio::core
