#include "core/io_config.hpp"

#include <algorithm>
#include <cctype>
#include <iterator>

#include "bp/engine.hpp"
#include "bp/types.hpp"
#include "compress/buffer_pool.hpp"
#include "topo/topology.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "util/toml.hpp"
#include "util/units.hpp"

namespace bitio::core {

namespace {

template <typename Names>
bool is_one_of(const Names& names, const std::string& value) {
  return std::find(std::begin(names), std::end(names), value) !=
         std::end(names);
}

void read_value(const Json& value, int& out) { out = int(value.as_int()); }
void read_value(const Json& value, bool& out) { out = value.as_bool(); }
void read_value(const Json& value, std::string& out) {
  out = value.as_string();
}

std::string toml_value(int value) { return std::to_string(value); }
std::string toml_value(bool value) { return value ? "true" : "false"; }
std::string toml_value(const std::string& value) {
  return "\"" + value + "\"";
}

}  // namespace

void Bit1IoConfig::validate() const {
  if (!bp::engine_registered(engine))
    throw UsageError("io config: unknown engine '" + engine +
                     "' (expected one of " +
                     quoted_list(bp::registered_engines()) + ")");
  if (codec != "none" && codec != "blosc" && codec != "bzip2")
    throw UsageError("io config: unknown codec '" + codec + "'");
  if (compress_threads < 1)
    throw UsageError("io config: compress_threads must be >= 1, got " +
                     std::to_string(compress_threads));
  if (std::size_t(compress_threads) > cz::BufferPool::kDefaultMaxPerClass)
    throw UsageError(
        "io config: compress_threads = " + std::to_string(compress_threads) +
        " exceeds the buffer-pool per-class depth (" +
        std::to_string(cz::BufferPool::kDefaultMaxPerClass) +
        "); threads beyond the pool depth thrash the freelists instead of "
        "recycling — lower compress_threads");
  if (stream_max_steps < 1)
    throw UsageError("io config: stream_max_steps must be >= 1, got " +
                     std::to_string(stream_max_steps));
  if (stream_policy != "block" && stream_policy != "drop_oldest" &&
      stream_policy != "disconnect")
    throw UsageError(
        "io config: stream_policy must be \"block\", \"drop_oldest\", or "
        "\"disconnect\", got '" + stream_policy + "'");
  if (engine == "stream") {
    // The stream engine has no file container: knobs that only make sense
    // for on-disk output are a configuration error, not a silent no-op.
    if (checkpoint_interval > 0)
      throw UsageError(
          "io config: engine \"stream\" cannot take checkpoints "
          "(checkpoint_interval = " + std::to_string(checkpoint_interval) +
          ") — checkpoint epochs need a file container; use engine \"bp4\" "
          "or \"bp5\", or set checkpoint_interval = 0");
    if (use_striping)
      throw UsageError(
          "io config: engine \"stream\" writes no files, so [io.striping] "
          "has nothing to stripe — remove the striping table or pick a "
          "file engine");
    if (async_write)
      throw UsageError(
          "io config: engine \"stream\" publishes at end_step; there is no "
          "subfile drain for async_write to move off the critical path — "
          "drop async_write or pick engine \"bp5\"");
  }
  if (compress_block_kb < 1)
    throw UsageError("io config: compress_block_kb must be >= 1, got " +
                     std::to_string(compress_block_kb));
  if (num_aggregators < 0)
    throw UsageError("io config: aggregators must be >= 0, got " +
                     std::to_string(num_aggregators));
  if (checkpoint_aggregators < 1)
    throw UsageError("io config: checkpoint_aggregators must be >= 1, got " +
                     std::to_string(checkpoint_aggregators));
  if (buffer_chunk_mb < 1)
    throw UsageError("io config: buffer_chunk_mb must be >= 1, got " +
                     std::to_string(buffer_chunk_mb));
  if (io_batch_depth < 0)
    throw UsageError("io config: io_batch_depth must be >= 0, got " +
                     std::to_string(io_batch_depth));
  if (ranks_per_node < 1)
    throw UsageError("io config: ranks_per_node must be >= 1, got " +
                     std::to_string(ranks_per_node));
  if (checkpoint_interval < 0)
    throw UsageError("io config: checkpoint_interval must be >= 0, got " +
                     std::to_string(checkpoint_interval));
  if (checkpoint_retain < 1)
    throw UsageError("io config: checkpoint_retain must be >= 1, got " +
                     std::to_string(checkpoint_retain));
  if (checkpoint_full_interval < 1)
    throw UsageError("io config: checkpoint_full_interval must be >= 1, got " +
                     std::to_string(checkpoint_full_interval));
  if (drain_timeout_ms < 0)
    throw UsageError("io config: drain_timeout_ms must be >= 0, got " +
                     std::to_string(drain_timeout_ms));
  if (max_drain_retries < 0)
    throw UsageError("io config: max_drain_retries must be >= 0, got " +
                     std::to_string(max_drain_retries));
  if (degrade_threshold < 1)
    throw UsageError("io config: degrade_threshold must be >= 1, got " +
                     std::to_string(degrade_threshold));
  if (degrade_cooldown < 1)
    throw UsageError("io config: degrade_cooldown must be >= 1, got " +
                     std::to_string(degrade_cooldown));
  if (recovery != "abort" && recovery != "shrink")
    throw UsageError("io config: recovery must be \"abort\" or \"shrink\", "
                     "got '" + recovery + "'");
  if (!is_one_of(bp::kAggregationModes, aggregation))
    throw UsageError("io config: unknown aggregation '" + aggregation +
                     "' (expected one of " +
                     quoted_list(bp::kAggregationModes) + ")");
  if (!is_one_of(topo::preset_names(), topology))
    throw UsageError("io config: unknown topology '" + topology +
                     "' (expected one of " +
                     quoted_list(topo::preset_names()) + ")");
  if (numa_per_node < 0)
    throw UsageError("io config: numa_per_node must be >= 0, got " +
                     std::to_string(numa_per_node));
  if (nics_per_node < 0)
    throw UsageError("io config: nics_per_node must be >= 0, got " +
                     std::to_string(nics_per_node));
  if (engine == "stream" && aggregation == "two_level" && topology == "flat")
    throw UsageError(
        "io config: aggregation \"two_level\" with engine \"stream\" needs "
        "a multi-node topology, and topology \"flat\" places every rank on "
        "one node — pick a hierarchical topology (e.g. \"dardel\") or one "
        "of the aggregation modes " + quoted_list(bp::kAggregationModes));
  fault_plan.validate();
  if (use_striping) {
    if (striping.stripe_count < 1)
      throw UsageError("io config: stripe count must be >= 1, got " +
                       std::to_string(striping.stripe_count));
    const std::uint64_t size = striping.stripe_size;
    if (size == 0 || (size & (size - 1)) != 0)
      throw UsageError("io config: stripe size must be a power of two, got " +
                       std::to_string(size));
  }
}

Bit1IoConfig Bit1IoConfig::from_toml(const std::string& text) {
  Bit1IoConfig config;
  const Json doc = parse_toml(text);
  if (!doc.contains("io")) return config;
  for (const auto& [key, value] : doc.at("io").as_object()) {
    if (key == "mode") {
      const std::string& mode = value.as_string();
      if (mode == "original") config.mode = IoMode::original;
      else if (mode == "openpmd") config.mode = IoMode::openpmd;
      else throw UsageError("io config: unknown mode '" + mode + "'");
    } else if (key == "striping") {
      config.use_striping = true;
      for (const auto& [skey, svalue] : value.as_object()) {
        if (skey == "count")
          config.striping.stripe_count = int(svalue.as_int());
        else if (skey == "size")
          config.striping.stripe_size = svalue.is_string()
                                            ? parse_size(svalue.as_string())
                                            : svalue.as_uint();
        else
          throw UsageError("io config: unknown key '" + skey +
                           "' under [io.striping]");
      }
    } else if (key == "fault_plan") {
      config.fault_plan = fsim::FaultPlan::from_json(value);
    } else {
      const auto row = std::find_if(
          std::begin(kBit1IoConfigKeys), std::end(kBit1IoConfigKeys),
          [&](const IoConfigKey& r) { return key == r.key; });
      if (row == std::end(kBit1IoConfigKeys))
        throw UsageError("io config: unknown key '" + key + "' under [io]");
      std::visit([&](auto member) { read_value(value, config.*member); },
                 row->member);
    }
  }
  config.validate();
  return config;
}

std::string Bit1IoConfig::to_toml() const {
  std::string out = "[io]\n";
  out += std::string("mode = \"") +
         (mode == IoMode::original ? "original" : "openpmd") + "\"\n";
  for (const IoConfigKey& row : kBit1IoConfigKeys)
    std::visit(
        [&](auto member) {
          out += std::string(row.key) + " = " + toml_value(this->*member) +
                 "\n";
        },
        row.member);
  if (use_striping) {
    out += "[io.striping]\n";
    out += strfmt("count = %d\n", striping.stripe_count);
    out += strfmt("size = %llu\n",
                  static_cast<unsigned long long>(striping.stripe_size));
  }
  if (!fault_plan.empty()) {
    out += "[io.fault_plan]\n";
    out += fault_plan.to_toml();
  }
  return out;
}

std::string Bit1IoConfig::adios2_toml() const {
  std::string out;
  out += "[adios2.engine]\n";
  out += "type = \"" + engine + "\"\n";
  out += "[adios2.engine.parameters]\n";
  if (num_aggregators > 0)
    out += strfmt("NumAggregators = %d\n", num_aggregators);
  out += std::string("Profile = \"") + (profiling ? "On" : "Off") + "\"\n";
  if (aggregation != "flat" || topology != "flat") {
    // Topology-aware gather path; bp::EngineConfig::from_json picks these
    // up (flat-on-flat stays implicit so pre-topology configs render
    // byte-identically).
    out += "Aggregation = \"" + aggregation + "\"\n";
    out += "Topology = \"" + topology + "\"\n";
    if (numa_per_node > 0) out += strfmt("NumaPerNode = %d\n", numa_per_node);
    if (nics_per_node > 0) out += strfmt("NicsPerNode = %d\n", nics_per_node);
  }
  if (engine == "stream") {
    // Streaming window bound and slow-reader policy (SST QueueLimit /
    // QueueFullPolicy analogue); bp::EngineConfig::from_json picks them up.
    out += strfmt("StreamMaxSteps = %d\n", stream_max_steps);
    out += "StreamPolicy = \"" + stream_policy + "\"\n";
  }
  if (io_batch_depth > 0) {
    // Batched queue-pair submission on the drain path; gated so configs
    // that never set the knobs render byte-identically to before.
    out += strfmt("IoBatchDepth = %d\n", io_batch_depth);
    if (coalesce_writes) out += "CoalesceWrites = \"On\"\n";
  }
  if (async_write) {
    // BP5's asynchronous drain: AsyncWrite moves the subfile appends off the
    // critical path; BufferChunkSize bounds the slice each append moves.
    out += "AsyncWrite = \"On\"\n";
    out += strfmt("BufferChunkSize = %d\n", buffer_chunk_mb);
    if (drain_timeout_ms > 0) {
      // Drain-lane watchdog: cancel + retry a wedged step job, abandon with
      // TimeoutError after the retry budget so close() can never hang.
      out += strfmt("DrainTimeoutMs = %d\n", drain_timeout_ms);
      out += strfmt("MaxDrainRetries = %d\n", max_drain_retries);
    }
  }
  if (codec != "none" && !codec.empty()) {
    out += "[adios2.dataset]\n";
    if (compress_threads > 1) {
      // Block-parallel operator: thread count and block size ride on the
      // operator entry (bp::EngineConfig::from_json picks them up).
      out += strfmt(
          "operators = [ { type = \"%s\", threads = %d, block_kb = %d } ]\n",
          codec.c_str(), compress_threads, compress_block_kb);
    } else {
      out += "operators = [ { type = \"" + codec + "\" } ]\n";
    }
  }
  return out;
}

std::string Bit1IoConfig::label() const {
  if (mode == IoMode::original) return "BIT1 Original I/O";
  std::string out = "BIT1 openPMD + ";
  for (const char c : engine)
    out += char(std::toupper(static_cast<unsigned char>(c)));
  if (codec == "blosc") out += " + Blosc";
  if (codec == "bzip2") out += " + bzip2";
  if (num_aggregators == 1) out += " + 1 AGGR";
  else if (num_aggregators > 1)
    out += " + " + std::to_string(num_aggregators) + " AGGR";
  if (async_write) out += " + async";
  if (use_striping)
    out += strfmt(" [stripe -c %d -S %s]", striping.stripe_count,
                  format_bytes(striping.stripe_size).c_str());
  return out;
}

}  // namespace bitio::core
