// Exhaustive Bit1IoConfig round-trip, driven off core::kBit1IoConfigKeys —
// the table from_toml and to_toml loop over — plus the keys from_toml
// handles by hand.  For every key the suite mutates exactly the field that
// key populates (its own, independent knowledge of the knobs), checks the
// table row points at that field, and checks from_toml(to_toml(config))
// reproduces the config bit-for-bit, and that the engine settings it maps
// to survive the adios2 rendering.  An unrecognized key fails the suite:
// adding a row forces this file to learn the new knob's mutation.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/io_config.hpp"
#include "fsim/fault_plan.hpp"
#include "util/error.hpp"
#include "util/toml.hpp"

using bitio::core::Bit1IoConfig;
using bitio::core::IoMode;
using bitio::core::kBit1IoConfigKeys;

namespace {

/// Flip `config`'s field for registry key `key` to a non-default value.
/// Returns false when the key is unknown — the exhaustiveness tripwire.
bool mutate_for_key(const std::string& key, Bit1IoConfig& config) {
  if (key == "mode") {
    config.mode = IoMode::original;
  } else if (key == "engine") {
    config.engine = "bp5";
  } else if (key == "aggregators") {
    config.num_aggregators = 7;
  } else if (key == "checkpoint_aggregators") {
    config.checkpoint_aggregators = 3;
  } else if (key == "codec") {
    config.codec = "blosc";
  } else if (key == "compress_threads") {
    config.compress_threads = 4;
  } else if (key == "compress_block_kb") {
    config.compress_block_kb = 256;
  } else if (key == "profiling") {
    config.profiling = true;
  } else if (key == "async_write") {
    config.async_write = true;
  } else if (key == "buffer_chunk_mb") {
    config.buffer_chunk_mb = 32;
  } else if (key == "io_batch_depth") {
    config.io_batch_depth = 64;
  } else if (key == "coalesce_writes") {
    config.coalesce_writes = true;
  } else if (key == "ranks_per_node") {
    config.ranks_per_node = 64;
  } else if (key == "checkpoint_interval") {
    config.checkpoint_interval = 5;
  } else if (key == "checkpoint_retain") {
    config.checkpoint_retain = 4;
  } else if (key == "checkpoint_full_interval") {
    config.checkpoint_full_interval = 3;
  } else if (key == "drain_timeout_ms") {
    config.drain_timeout_ms = 150;
  } else if (key == "max_drain_retries") {
    config.max_drain_retries = 5;
  } else if (key == "degrade_threshold") {
    config.degrade_threshold = 2;
  } else if (key == "degrade_cooldown") {
    config.degrade_cooldown = 3;
  } else if (key == "recovery") {
    config.recovery = "shrink";
  } else if (key == "striping") {
    config.use_striping = true;
  } else if (key == "count") {
    config.use_striping = true;
    config.striping.stripe_count = 8;
  } else if (key == "size") {
    config.use_striping = true;
    config.striping.stripe_size = 16ull << 20;
  } else if (key == "stream_max_steps") {
    config.stream_max_steps = 9;
  } else if (key == "stream_policy") {
    config.stream_policy = "drop_oldest";
  } else if (key == "aggregation") {
    config.aggregation = "two_level";
    config.topology = "dardel";  // two_level needs a hierarchical topology
  } else if (key == "topology") {
    config.topology = "dardel";
  } else if (key == "numa_per_node") {
    config.numa_per_node = 4;
  } else if (key == "nics_per_node") {
    config.nics_per_node = 2;
  } else if (key == "fault_plan") {
    bitio::fsim::FaultRule rule;
    rule.kind = bitio::fsim::FaultKind::eio;
    rule.nth = 1;
    config.fault_plan = bitio::fsim::FaultPlan(42, {rule});
  } else {
    return false;
  }
  return true;
}

/// Keys from_toml parses by hand rather than through the table.
const char* const kHandWrittenKeys[] = {"mode", "striping", "count", "size",
                                        "fault_plan"};

std::vector<std::string> all_keys() {
  std::vector<std::string> keys(std::begin(kHandWrittenKeys),
                                std::end(kHandWrittenKeys));
  for (const auto& row : kBit1IoConfigKeys) keys.emplace_back(row.key);
  return keys;
}

/// Every key's field flipped at once — the maximal configuration.
Bit1IoConfig maximal_config() {
  Bit1IoConfig config;
  for (const auto& key : all_keys())
    EXPECT_TRUE(mutate_for_key(key, config)) << key;
  // mode=original plus async knobs is legal for the config type itself.
  return config;
}

}  // namespace

TEST(ConfigRegistry, RegistryHasNoDuplicateKeysOrFields) {
  std::set<std::string> keys;
  for (const auto& key : all_keys())
    EXPECT_TRUE(keys.insert(key).second) << "duplicate key " << key;
  for (const auto& a : kBit1IoConfigKeys) {
    for (const auto& b : kBit1IoConfigKeys) {
      if (&a != &b) {
        EXPECT_NE(a.member, b.member)
            << "keys '" << a.key << "' and '" << b.key << "' share a member";
      }
    }
  }
}

TEST(ConfigRegistry, EveryKeyRoundTripsIndividually) {
  for (const auto& key : all_keys()) {
    Bit1IoConfig mutated;
    ASSERT_TRUE(mutate_for_key(key, mutated))
        << "key '" << key
        << "' has no mutation in this suite — teach mutate_for_key about "
           "the new knob";
    mutated.validate();
    const Bit1IoConfig parsed = Bit1IoConfig::from_toml(mutated.to_toml());
    EXPECT_EQ(parsed, mutated) << "key '" << key
                               << "' does not survive to_toml/from_toml";
  }
}

TEST(ConfigRegistry, EveryRowPointsAtTheFieldItsKeyNames) {
  const Bit1IoConfig defaults;
  for (const auto& row : kBit1IoConfigKeys) {
    Bit1IoConfig mutated;
    ASSERT_TRUE(mutate_for_key(row.key, mutated)) << row.key;
    const bool moved = std::visit(
        [&](auto member) { return mutated.*member != defaults.*member; },
        row.member);
    EXPECT_TRUE(moved) << "row '" << row.key
                       << "' points at a member its mutation leaves alone";
  }
}

TEST(ConfigRegistry, EveryKeyReachesTheEngineThroughAdios2Toml) {
  // What the openPMD path parses out of adios2_toml() is exactly what
  // engine_config() maps the knobs to.
  for (const auto& key : all_keys()) {
    Bit1IoConfig c;
    ASSERT_TRUE(mutate_for_key(key, c)) << key;
    const auto parsed = bitio::bp::EngineConfig::from_json(
        bitio::parse_toml(c.adios2_toml()).at("adios2"));
    EXPECT_EQ(parsed, c.engine_config(c.num_aggregators, c.profiling))
        << "key '" << key << "' is lost between adios2_toml and from_json";
  }
}

TEST(ConfigRegistry, EveryEngineRowFeedsTheEngine) {
  const auto defaults = Bit1IoConfig{}.engine_config(0, false);
  for (const auto& row : kBit1IoConfigKeys) {
    if (std::holds_alternative<std::monostate>(row.feeds)) continue;
    Bit1IoConfig mutated;
    ASSERT_TRUE(mutate_for_key(row.key, mutated)) << row.key;
    EXPECT_NE(mutated.engine_config(0, false), defaults)
        << "row '" << row.key << "' names a feed its knob never reaches";
  }
}

TEST(ConfigRegistry, MaximalConfigRoundTrips) {
  const Bit1IoConfig config = maximal_config();
  config.validate();
  const Bit1IoConfig parsed = Bit1IoConfig::from_toml(config.to_toml());
  EXPECT_EQ(parsed, config);
}

TEST(ConfigRegistry, ToTomlRendersEveryRegisteredKey) {
  const std::string toml = maximal_config().to_toml();
  for (const auto& key : all_keys())
    EXPECT_NE(toml.find(key), std::string::npos)
        << "key '" << key << "' missing from to_toml output";
}

TEST(ConfigRegistry, DefaultConfigRoundTripsToo) {
  const Bit1IoConfig config;
  const Bit1IoConfig parsed = Bit1IoConfig::from_toml(config.to_toml());
  EXPECT_EQ(parsed, config);
}

TEST(ConfigRegistry, UnknownKeysAreRejectedByName) {
  // A typo must not silently run with the default (0 aggregators here).
  const std::pair<const char*, const char*> cases[] = {
      {"[io]\nagregators = 400\n", "'agregators' under [io]"},
      {"[io]\n[io.striping]\ncont = 8\n", "'cont' under [io.striping]"},
  };
  for (const auto& [toml, hint] : cases) {
    try {
      (void)Bit1IoConfig::from_toml(toml);
      FAIL() << "unknown key accepted in:\n" << toml;
    } catch (const bitio::UsageError& e) {
      EXPECT_NE(std::string(e.what()).find(hint), std::string::npos)
          << e.what();
    }
  }
  // Other top-level tables are not the [io] surface and stay allowed.
  EXPECT_EQ(Bit1IoConfig::from_toml("[adios2]\nengine = 1\n"),
            Bit1IoConfig{});
}

namespace {

/// validate() must throw, and the message must carry `hint` so the error
/// is actionable, not just "invalid config".
void expect_rejected(const Bit1IoConfig& config, const std::string& hint) {
  try {
    config.validate();
    FAIL() << "config validated but should be rejected (" << hint << ")";
  } catch (const bitio::UsageError& e) {
    EXPECT_NE(std::string(e.what()).find(hint), std::string::npos)
        << "message '" << e.what() << "' lacks hint '" << hint << "'";
  }
}

}  // namespace

TEST(ConfigValidation, UnknownEngineListsTheRegisteredNames) {
  Bit1IoConfig config;
  config.engine = "hdf5";
  // The message lists bp::registered_engines() so the fix is in the error.
  expect_rejected(config, "\"stream\"");
}

TEST(ConfigValidation, StreamRejectsFileOnlyKnobs) {
  Bit1IoConfig stream;
  stream.engine = "stream";
  stream.validate();  // the engine itself is fine

  Bit1IoConfig ckpt = stream;
  ckpt.checkpoint_interval = 10;
  expect_rejected(ckpt, "cannot take checkpoints");

  Bit1IoConfig striped = stream;
  striped.use_striping = true;
  expect_rejected(striped, "nothing to stripe");

  Bit1IoConfig async = stream;
  async.async_write = true;
  expect_rejected(async, "async_write");
}

TEST(ConfigValidation, StreamKnobsAreRangeChecked) {
  Bit1IoConfig config;
  config.stream_max_steps = 0;
  expect_rejected(config, "stream_max_steps");

  Bit1IoConfig policy;
  policy.stream_policy = "banana";
  expect_rejected(policy, "stream_policy");
}

TEST(ConfigValidation, CompressThreadsBoundedByBufferPoolDepth) {
  Bit1IoConfig config;
  config.compress_threads = 17;  // cz::BufferPool::kDefaultMaxPerClass is 16
  expect_rejected(config, "buffer-pool per-class depth");
  config.compress_threads = 16;
  config.validate();
}

TEST(ConfigValidation, UnknownAggregationListsTheModes) {
  Bit1IoConfig config;
  config.aggregation = "tree";
  // The message lists bp::kAggregationModes so the fix is in the error,
  // mirroring the unknown-engine diagnostics.
  expect_rejected(config, "\"two_level\"");
}

TEST(ConfigValidation, UnknownTopologyListsThePresets) {
  Bit1IoConfig config;
  config.topology = "summit";
  expect_rejected(config, "\"dardel\"");
}

TEST(ConfigValidation, StreamTwoLevelNeedsMultiNodeTopology) {
  Bit1IoConfig config;
  config.engine = "stream";
  config.aggregation = "two_level";
  // topology = "flat" puts every rank on one node: nothing to gather
  // across.  The error lists the valid aggregation modes.
  expect_rejected(config, "\"flat\", \"two_level\"");
  config.topology = "dardel";
  config.validate();
}

TEST(ConfigValidation, ValidStreamConfigRoundTrips) {
  Bit1IoConfig config;
  config.engine = "stream";
  config.stream_max_steps = 8;
  config.stream_policy = "disconnect";
  config.codec = "blosc";
  config.validate();
  const Bit1IoConfig parsed = Bit1IoConfig::from_toml(config.to_toml());
  EXPECT_EQ(parsed, config);
  // The adios2 rendering carries the window knobs to the bp layer.
  const std::string adios2 = config.adios2_toml();
  EXPECT_NE(adios2.find("StreamMaxSteps = 8"), std::string::npos) << adios2;
  EXPECT_NE(adios2.find("StreamPolicy = \"disconnect\""), std::string::npos)
      << adios2;
}
