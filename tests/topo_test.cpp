// Tests for the topology subsystem: the declarative Cluster/Mapper model,
// the two-level gather path in the BP engine (flat-topology byte-identity
// and the flat-vs-two-level differential), and the per-level gather
// counters that land in the Darshan log.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bp/engine.hpp"
#include "bp/reader.hpp"
#include "core/io_config.hpp"
#include "darshan/darshan.hpp"
#include "fsim/posix_fs.hpp"
#include "fsim/storage_model.hpp"
#include "fsim/system_profiles.hpp"
#include "topo/topology.hpp"
#include "util/error.hpp"
#include "util/toml.hpp"

namespace bitio {
namespace {

using topo::Cluster;
using topo::Mapper;

// --------------------------------------------------------------- cluster ---

TEST(TopoCluster, FlatPresetPutsEveryRankOnOneNode) {
  const Cluster flat = Cluster::flat();
  EXPECT_FALSE(flat.multi_node());
  flat.validate();

  const Mapper mapper(flat, 1000);
  EXPECT_EQ(mapper.nodes(), 1);
  EXPECT_FALSE(mapper.multi_node());
  EXPECT_TRUE(mapper.same_node(0, 999));
  EXPECT_EQ(mapper.node_leader(0), 0);
  EXPECT_EQ(mapper.leader_of(999), 0);
}

TEST(TopoCluster, DardelPresetMatchesTheMachine) {
  const Cluster dardel = Cluster::dardel_like();
  EXPECT_TRUE(dardel.multi_node());
  EXPECT_EQ(dardel.ranks_per_node, 128);
  EXPECT_EQ(dardel.numa_per_node, 8);
  EXPECT_EQ(dardel.nics_per_node, 1);
  dardel.validate();
}

TEST(TopoCluster, EveryPresetNameBuildsAValidCluster) {
  // preset_names() is also the list Bit1IoConfig::validate() accepts, so
  // every name must build a coherent cluster that carries that name.
  const auto names = topo::preset_names();
  ASSERT_FALSE(names.empty());
  for (const auto& name : names) {
    const Cluster cluster = Cluster::preset(name);
    EXPECT_EQ(cluster.name, name);
    EXPECT_NO_THROW(cluster.validate()) << name;
    core::Bit1IoConfig config;
    config.topology = name;
    EXPECT_NO_THROW(config.validate()) << name;
  }
}

TEST(TopoCluster, UnknownPresetListsTheNames) {
  try {
    Cluster::preset("summit");
    FAIL() << "unknown preset accepted";
  } catch (const UsageError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\"flat\""), std::string::npos) << what;
    EXPECT_NE(what.find("\"dardel\""), std::string::npos) << what;
  }
}

TEST(TopoCluster, ValidateRejectsIncoherentShapes) {
  Cluster c = Cluster::dardel_like();
  c.numa_per_node = 0;
  EXPECT_THROW(c.validate(), UsageError);

  Cluster uneven = Cluster::dardel_like();
  uneven.ranks_per_node = 10;
  uneven.numa_per_node = 4;  // 10 % 4 != 0
  EXPECT_THROW(uneven.validate(), UsageError);
}

// ---------------------------------------------------------------- mapper ---

TEST(TopoMapper, BlockPlacementMathMatchesFsim) {
  Cluster c;
  c.name = "test";
  c.ranks_per_node = 4;
  c.numa_per_node = 2;
  c.nics_per_node = 2;
  const Mapper mapper(c, 10);

  EXPECT_EQ(mapper.nodes(), 3);  // ceil(10 / 4): the last node is partial
  EXPECT_TRUE(mapper.multi_node());
  // Block placement, the same client -> node math as the fsim replay.
  EXPECT_EQ(mapper.node_of(0), 0);
  EXPECT_EQ(mapper.node_of(3), 0);
  EXPECT_EQ(mapper.node_of(4), 1);
  EXPECT_EQ(mapper.node_of(9), 2);
  EXPECT_EQ(mapper.ranks_on_node(0), 4);
  EXPECT_EQ(mapper.ranks_on_node(2), 2);
  // Leaders are the lowest rank on each node.
  EXPECT_EQ(mapper.node_leader(1), 4);
  EXPECT_EQ(mapper.leader_of(7), 4);
  EXPECT_EQ(mapper.leader_of(9), 8);
  // NUMA domains split the node evenly; NICs interleave.
  EXPECT_EQ(mapper.numa_of(0), mapper.numa_of(1));
  EXPECT_NE(mapper.numa_of(0), mapper.numa_of(2));
  EXPECT_TRUE(mapper.same_numa(0, 1));
  EXPECT_FALSE(mapper.same_numa(0, 2));
  EXPECT_FALSE(mapper.same_numa(0, 4));  // different node, same in-node slot
  EXPECT_TRUE(mapper.same_node(4, 7));
  EXPECT_FALSE(mapper.same_node(3, 4));
  EXPECT_NE(mapper.nic_of(0), mapper.nic_of(1));
}

TEST(TopoMapper, RangeChecksThrow) {
  const Mapper mapper(Cluster::dardel_like(), 256);
  EXPECT_THROW(mapper.node_of(-1), UsageError);
  EXPECT_THROW(mapper.node_of(256), UsageError);
  EXPECT_THROW(mapper.node_leader(2), UsageError);
}

// ---------------------------------------------------------------- config ---

TEST(TopoConfig, Adios2TomlCarriesTopologyToTheEngine) {
  core::Bit1IoConfig config;
  config.aggregation = "two_level";
  config.topology = "dardel";
  config.numa_per_node = 4;
  config.nics_per_node = 2;
  config.validate();

  const Json cfg = parse_toml(config.adios2_toml());
  const bp::EngineConfig engine = bp::EngineConfig::from_json(cfg.at("adios2"));
  EXPECT_EQ(engine.aggregation, "two_level");
  EXPECT_EQ(engine.topology, "dardel");
  EXPECT_EQ(engine.numa_per_node, 4);
  EXPECT_EQ(engine.nics_per_node, 2);
}

TEST(TopoConfig, FlatConfigReachesTheEngineAsFlat) {
  // A flat-on-flat config parses into the engine a pre-topology config
  // built: flat gather on the flat topology, no NUMA/NIC overrides.
  const core::Bit1IoConfig config;
  const Json cfg = parse_toml(config.adios2_toml());
  const bp::EngineConfig engine = bp::EngineConfig::from_json(cfg.at("adios2"));
  EXPECT_EQ(engine.aggregation, "flat");
  EXPECT_EQ(engine.topology, "flat");
  EXPECT_EQ(engine.numa_per_node, 0);
  EXPECT_EQ(engine.nics_per_node, 0);
  EXPECT_EQ(engine, bp::EngineConfig{});
}

TEST(TopoConfig, WriterRejectsUnknownAggregation) {
  fsim::SharedFs fs(2);
  bp::EngineConfig config;
  config.aggregation = "tree";
  try {
    bp::make_engine(fs, "x.bp4", config, 2);
    FAIL() << "unknown aggregation accepted";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("two_level"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------- engine ---

bp::EngineConfig topo_config(const std::string& aggregation,
                             const std::string& topology, int ranks_per_node,
                             int aggregators = 1) {
  bp::EngineConfig config;
  config.aggregation = aggregation;
  config.topology = topology;
  config.ranks_per_node = ranks_per_node;
  config.num_aggregators = aggregators;
  return config;
}

/// Write the same deterministic little series through the factory and
/// return the fs for inspection.
void write_series(fsim::SharedFs& fs, const bp::EngineConfig& config,
                  int nranks, const std::string& path = "out/series.bp4") {
  auto engine = bp::make_engine(fs, path, config, nranks);
  for (std::uint64_t step = 0; step < 2; ++step) {
    engine->begin_step(step);
    for (int r = 0; r < nranks; ++r) {
      std::vector<float> local(64);
      std::iota(local.begin(), local.end(), float(r * 64));
      engine->put<float>(r, "density", {std::uint64_t(nranks) * 64},
                         {std::uint64_t(r) * 64}, {64}, local);
    }
    engine->end_step();
  }
  engine->close();
}

/// Map path -> stored bytes for every file under `dir`.
std::map<std::string, std::vector<std::uint8_t>> container_bytes(
    const fsim::SharedFs& fs, const std::string& dir) {
  std::map<std::string, std::vector<std::uint8_t>> bytes;
  for (const fsim::FileNode* node : fs.store().list_recursive(dir))
    bytes[node->path] = node->data;
  return bytes;
}

int count_xfer(const fsim::SharedFs& fs, fsim::TraceTag tag) {
  int n = 0;
  for (const auto& op : fs.trace())
    if (op.kind == fsim::OpKind::xfer && op.tag == tag) ++n;
  return n;
}

TEST(TopoEngine, FlatTopologyRecordsNoGatherOps) {
  // topology = "flat" puts every rank on one node: even with two_level
  // requested there is nothing to gather across, so the trace — hence the
  // container and every calibrated replay number — is byte-identical to
  // the pre-topology writer.
  fsim::SharedFs fs(8);
  write_series(fs, topo_config("two_level", "flat", 4), 8);
  for (const auto& op : fs.trace())
    EXPECT_NE(op.kind, fsim::OpKind::xfer);
}

TEST(TopoEngine, FlatModeContainerIsByteIdenticalToLegacy) {
  // The differential the issue demands: the gather path only adds timing
  // ops, never changes what lands in the container.  Legacy (default
  // config) vs flat-aggregation-on-dardel vs two-level-on-dardel must all
  // store the same bytes.
  fsim::SharedFs legacy_fs(8), flat_fs(8), two_fs(8);
  bp::EngineConfig legacy;
  legacy.ranks_per_node = 4;
  legacy.num_aggregators = 1;
  write_series(legacy_fs, legacy, 8);
  write_series(flat_fs, topo_config("flat", "dardel", 4), 8);
  write_series(two_fs, topo_config("two_level", "dardel", 4), 8);

  const auto legacy_bytes = container_bytes(legacy_fs, "out/series.bp4");
  ASSERT_FALSE(legacy_bytes.empty());
  EXPECT_EQ(container_bytes(flat_fs, "out/series.bp4"), legacy_bytes);
  EXPECT_EQ(container_bytes(two_fs, "out/series.bp4"), legacy_bytes);

  // The legacy trace has no gather ops; the topology-modeled ones do.
  EXPECT_EQ(count_xfer(legacy_fs, fsim::TraceTag::shm_gather) +
                count_xfer(legacy_fs, fsim::TraceTag::net_gather),
            0);
  // Flat aggregation on a multi-node topology: every non-leader rank ships
  // to the single aggregator leader; the leader's node-mates go over shm.
  EXPECT_GT(count_xfer(flat_fs, fsim::TraceTag::net_gather), 0);
  // Two-level: ranks gather to their node leader over shm, node leaders
  // forward one combined transfer each over the NIC.
  EXPECT_GT(count_xfer(two_fs, fsim::TraceTag::shm_gather), 0);
  EXPECT_GT(count_xfer(two_fs, fsim::TraceTag::net_gather), 0);
  EXPECT_LT(count_xfer(two_fs, fsim::TraceTag::net_gather),
            count_xfer(flat_fs, fsim::TraceTag::net_gather));

  // And the data still reads back.
  bp::Reader reader = bp::Reader::open(two_fs, 0, "out/series.bp4");
  const auto data = reader.read_as<float>(1, "density");
  ASSERT_EQ(data.size(), 512u);
  EXPECT_FLOAT_EQ(data[100], 100.f);
}

TEST(TopoEngine, TwoLevelBeatsFlatOnAHierarchicalTopology) {
  // The mechanism behind the bench's headline curve, at test scale:
  // 64 ranks on 4 nodes, one aggregator.  Flat aggregation pays the NIC
  // per-message latency for every remote rank; two-level folds each node
  // into one NIC transfer and does the fan-in over shared memory.
  const int nranks = 64, rpn = 16;
  fsim::SharedFs flat_fs(nranks), two_fs(nranks);
  write_series(flat_fs, topo_config("flat", "dardel", rpn), nranks);
  write_series(two_fs, topo_config("two_level", "dardel", rpn), nranks);

  fsim::SystemProfile profile = fsim::dardel();
  profile.ranks_per_node = rpn;
  profile.noise_amplitude = 0.0;  // deterministic differential
  const auto flat = fsim::replay_trace(profile, flat_fs.store(),
                                       flat_fs.trace(), nranks);
  const auto two = fsim::replay_trace(profile, two_fs.store(), two_fs.trace(),
                                      nranks);
  EXPECT_LT(two.makespan, flat.makespan)
      << "two_level=" << two.makespan << " flat=" << flat.makespan;
}

// --------------------------------------------------------------- darshan ---

TEST(TopoDarshan, GatherCountersLandInTheLog) {
  const int nranks = 8, rpn = 4;
  fsim::SharedFs fs(nranks);
  write_series(fs, topo_config("two_level", "dardel", rpn), nranks);

  fsim::SystemProfile profile = fsim::dardel();
  profile.ranks_per_node = rpn;
  const auto replay =
      fsim::replay_trace(profile, fs.store(), fs.trace(), nranks);

  darshan::JobInfo job;
  job.nprocs = nranks;
  const darshan::DarshanLog log = darshan::capture(fs, replay, job);

  std::uint64_t shm = 0, net = 0, shm_bytes = 0, net_bytes = 0;
  double gather_s = 0.0;
  for (const auto& record : log.records) {
    shm += record.shm_gathers;
    net += record.net_gathers;
    shm_bytes += record.shm_gather_bytes;
    net_bytes += record.net_gather_bytes;
    gather_s += record.gather_time_s;
  }
  EXPECT_GT(shm, 0u);
  EXPECT_GT(net, 0u);
  EXPECT_GT(shm_bytes, 0u);
  EXPECT_GT(net_bytes, 0u);
  EXPECT_GT(gather_s, 0.0);

  // The counters survive the v5 log format round trip.
  const darshan::DarshanLog parsed = darshan::DarshanLog::parse(log.serialize());
  std::uint64_t shm_back = 0, net_back = 0;
  for (const auto& record : parsed.records) {
    shm_back += record.shm_gathers;
    net_back += record.net_gathers;
  }
  EXPECT_EQ(shm_back, shm);
  EXPECT_EQ(net_back, net);
}

TEST(TopoDarshan, AggregationTags) {
  EXPECT_EQ(darshan::aggregation_tag("flat"), "FLAT");
  EXPECT_EQ(darshan::aggregation_tag("two_level"), "TWO_LEVEL");
  EXPECT_EQ(darshan::aggregation_tag("exotic"), "EXOTIC");
}

// --------------------------------------------------------------- factory ---

TEST(TopoFactory, RegistryCoversEveryBuiltinEngineName) {
  // With the deprecated raw-ctor shims gone, the factory registry is the
  // only construction seam — so prove directly that every built-in engine
  // name resolves: registered, listed, and constructible by make_engine.
  const auto names = bp::registered_engines();
  for (bp::EngineType type :
       {bp::EngineType::bp4, bp::EngineType::bp5, bp::EngineType::stream}) {
    const std::string name{bp::engine_name(type)};
    EXPECT_TRUE(bp::engine_registered(name)) << name;
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end());
    fsim::SharedFs fs(4);
    auto engine = bp::make_engine(name, fs, "reg." + name, {}, 1);
    ASSERT_NE(engine, nullptr) << name;
    EXPECT_EQ(engine->engine_name(), name);
    engine->close();
  }
  EXPECT_THROW(
      {
        fsim::SharedFs fs(4);
        bp::make_engine("hdf5", fs, "reg.hdf5", {}, 1);
      },
      UsageError);
}

}  // namespace
}  // namespace bitio
