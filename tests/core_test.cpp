// Tests for the contribution layer: I/O config parsing, the BIT1->openPMD
// adaptor (staging pattern, Table II file population, checkpoint/restart),
// the scale workload generators, and the tuning advisor.
#include <gtest/gtest.h>

#include <cmath>

#include "bp/reader.hpp"
#include "bp/writer.hpp"
#include "core/adaptor.hpp"
#include "core/diagnostics_sink.hpp"
#include "core/tuning.hpp"
#include "core/workload.hpp"
#include "fsim/system_profiles.hpp"
#include "picmc/checkpoint.hpp"
#include "picmc/diagnostics.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace bitio::core {
namespace {

// ---------------------------------------------------------------- config ---

TEST(IoConfig, FromTomlFullySpecified) {
  const auto config = Bit1IoConfig::from_toml(R"(
[io]
mode = "openpmd"
engine = "bp5"
aggregators = 400
checkpoint_aggregators = 2
codec = "bzip2"
profiling = true
ranks_per_node = 64

[io.striping]
count = 8
size = "16M"
)");
  EXPECT_EQ(config.mode, IoMode::openpmd);
  EXPECT_EQ(config.engine, "bp5");
  EXPECT_EQ(config.num_aggregators, 400);
  EXPECT_EQ(config.checkpoint_aggregators, 2);
  EXPECT_EQ(config.codec, "bzip2");
  EXPECT_TRUE(config.profiling);
  EXPECT_EQ(config.ranks_per_node, 64);
  EXPECT_TRUE(config.use_striping);
  EXPECT_EQ(config.striping.stripe_count, 8);
  EXPECT_EQ(config.striping.stripe_size, 16 * MiB);
}

TEST(IoConfig, DefaultsAndValidation) {
  const auto config = Bit1IoConfig::from_toml("[io]\nmode = \"original\"\n");
  EXPECT_EQ(config.mode, IoMode::original);
  EXPECT_FALSE(config.use_striping);
  EXPECT_THROW(Bit1IoConfig::from_toml("[io]\nmode = \"hdf5\"\n"),
               UsageError);
  EXPECT_THROW(Bit1IoConfig::from_toml("[io]\ncodec = \"zstd\"\n"),
               UsageError);
  EXPECT_THROW(Bit1IoConfig::from_toml("[io]\nengine = \"bp3\"\n"),
               UsageError);
}

TEST(IoConfig, Adios2TomlRendersAndParses) {
  Bit1IoConfig config;
  config.num_aggregators = 7;
  config.codec = "blosc";
  config.profiling = true;
  const Json parsed = parse_toml(config.adios2_toml());
  EXPECT_EQ(parsed.at("adios2")
                .at("engine")
                .at("parameters")
                .at("NumAggregators")
                .as_int(),
            7);
  EXPECT_EQ(parsed.at("adios2")
                .at("dataset")
                .at("operators")
                .at(0)
                .at("type")
                .as_string(),
            "blosc");
}

TEST(IoConfig, Labels) {
  Bit1IoConfig config;
  config.mode = IoMode::original;
  EXPECT_EQ(config.label(), "BIT1 Original I/O");
  config.mode = IoMode::openpmd;
  config.codec = "blosc";
  config.num_aggregators = 1;
  EXPECT_EQ(config.label(), "BIT1 openPMD + BP4 + Blosc + 1 AGGR");
}

TEST(IoConfig, StrictValidation) {
  Bit1IoConfig config;
  config.validate();  // defaults are consistent

  auto expect_invalid = [](Bit1IoConfig broken) {
    EXPECT_THROW(broken.validate(), UsageError);
  };
  { auto c = config; c.engine = "hdf5"; expect_invalid(c); }
  { auto c = config; c.codec = "zstd"; expect_invalid(c); }
  { auto c = config; c.num_aggregators = -1; expect_invalid(c); }
  { auto c = config; c.checkpoint_aggregators = 0; expect_invalid(c); }
  { auto c = config; c.checkpoint_aggregators = -3; expect_invalid(c); }
  { auto c = config; c.buffer_chunk_mb = 0; expect_invalid(c); }
  { auto c = config; c.ranks_per_node = 0; expect_invalid(c); }
  {
    auto c = config;
    c.use_striping = true;
    c.striping.stripe_size = 3 * MiB;  // not a power of two
    expect_invalid(c);
  }
  {
    auto c = config;
    c.use_striping = true;
    c.striping.stripe_count = 0;
    expect_invalid(c);
  }
  // A non-power-of-two stripe size without use_striping is ignored.
  { auto c = config; c.striping.stripe_size = 3 * MiB; c.validate(); }

  // from_toml validates too.
  EXPECT_THROW(Bit1IoConfig::from_toml("[io]\naggregators = -4\n"),
               UsageError);
  EXPECT_THROW(Bit1IoConfig::from_toml("[io]\nbuffer_chunk_mb = 0\n"),
               UsageError);
  EXPECT_THROW(Bit1IoConfig::from_toml(
                   "[io]\n[io.striping]\ncount = 2\nsize = \"3M\"\n"),
               UsageError);
}

TEST(IoConfig, TomlRoundTripIsLossless) {
  // Defaults survive the render -> parse cycle.
  const Bit1IoConfig defaults;
  EXPECT_EQ(Bit1IoConfig::from_toml(defaults.to_toml()), defaults);

  // So does a config with every field off its default.
  Bit1IoConfig config;
  config.mode = IoMode::openpmd;
  config.engine = "bp5";
  config.num_aggregators = 400;
  config.checkpoint_aggregators = 2;
  config.codec = "blosc";
  config.profiling = true;
  config.async_write = true;
  config.buffer_chunk_mb = 8;
  config.use_striping = true;
  config.striping.stripe_count = 8;
  config.striping.stripe_size = 16 * MiB;
  config.ranks_per_node = 64;
  EXPECT_EQ(Bit1IoConfig::from_toml(config.to_toml()), config);

  // Resilience keys round-trip too, including the fault plan's rules.
  config.checkpoint_interval = 5;
  config.checkpoint_retain = 3;
  config.fault_plan = fsim::FaultPlan(
      42, {{fsim::FaultKind::bit_flip, "epoch_1", 1, 0.0, 1, -1, 0},
           {fsim::FaultKind::eio, "data.0", 0, 0.25, 0, 2, 0},
           {fsim::FaultKind::rank_crash, "", 0, 0.0, 1, 3, 70}});
  EXPECT_EQ(Bit1IoConfig::from_toml(config.to_toml()), config);

  // ... and the online-recovery keys (drain retries, ladder, policy).
  config.max_drain_retries = 4;
  config.degrade_threshold = 2;
  config.degrade_cooldown = 16;
  config.recovery = "shrink";
  EXPECT_EQ(Bit1IoConfig::from_toml(config.to_toml()), config);

  Bit1IoConfig original;
  original.mode = IoMode::original;
  EXPECT_EQ(Bit1IoConfig::from_toml(original.to_toml()), original);
}

TEST(IoConfig, ResilienceKeysParseAndValidate) {
  const auto config = Bit1IoConfig::from_toml(R"(
[io]
checkpoint_interval = 10
checkpoint_retain = 4

[io.fault_plan]
seed = 7
rules = [ { kind = "torn_write", path = "md.0", nth = 2 } ]
)");
  EXPECT_EQ(config.checkpoint_interval, 10);
  EXPECT_EQ(config.checkpoint_retain, 4);
  EXPECT_EQ(config.fault_plan.seed(), 7u);
  ASSERT_EQ(config.fault_plan.rules().size(), 1u);
  EXPECT_EQ(config.fault_plan.rules()[0].kind, fsim::FaultKind::torn_write);
  EXPECT_EQ(config.fault_plan.rules()[0].path, "md.0");
  EXPECT_EQ(config.fault_plan.rules()[0].nth, 2u);

  Bit1IoConfig bad;
  bad.checkpoint_interval = -1;
  EXPECT_THROW(bad.validate(), UsageError);
  bad = Bit1IoConfig{};
  bad.checkpoint_retain = 0;
  EXPECT_THROW(bad.validate(), UsageError);
  // An inconsistent fault rule is rejected through the config too.
  bad = Bit1IoConfig{};
  bad.fault_plan = fsim::FaultPlan(
      1, {{fsim::FaultKind::bit_flip, "", 0, 0.0, 1, -1, 0}});
  EXPECT_THROW(bad.validate(), UsageError);
  EXPECT_THROW(
      Bit1IoConfig::from_toml("[io]\ncheckpoint_retain = 0\n"), UsageError);
}

TEST(IoConfig, RecoveryKeysParseAndValidate) {
  const auto config = Bit1IoConfig::from_toml(R"(
[io]
max_drain_retries = 3
degrade_threshold = 2
degrade_cooldown = 4
recovery = "shrink"
)");
  EXPECT_EQ(config.max_drain_retries, 3);
  EXPECT_EQ(config.degrade_threshold, 2);
  EXPECT_EQ(config.degrade_cooldown, 4);
  EXPECT_EQ(config.recovery, "shrink");

  Bit1IoConfig bad;
  bad.max_drain_retries = -1;
  EXPECT_THROW(bad.validate(), UsageError);
  bad = Bit1IoConfig{};
  bad.degrade_threshold = 0;
  EXPECT_THROW(bad.validate(), UsageError);
  bad = Bit1IoConfig{};
  bad.degrade_cooldown = 0;
  EXPECT_THROW(bad.validate(), UsageError);
  bad = Bit1IoConfig{};
  bad.recovery = "retry";  // only "abort" and "shrink" are policies
  EXPECT_THROW(bad.validate(), UsageError);

  // The retry bound reaches the engine parameters.
  Bit1IoConfig async;
  async.async_write = true;
  async.max_drain_retries = 3;
  const Json parsed = parse_toml(async.adios2_toml());
  const Json& params = parsed.at("adios2").at("engine").at("parameters");
  EXPECT_EQ(params.at("MaxDrainRetries").as_int(), 3);
  const auto engine = bp::EngineConfig::from_json(parsed.at("adios2"));
  EXPECT_EQ(engine.max_drain_retries, 3);

  // A sync config carries the bound too, but the engine it parses into
  // stays synchronous, and only the async drain retries.
  Bit1IoConfig sync;
  sync.max_drain_retries = 3;
  const auto sync_engine = bp::EngineConfig::from_json(
      parse_toml(sync.adios2_toml()).at("adios2"));
  EXPECT_FALSE(sync_engine.async_write);
  EXPECT_EQ(sync_engine, sync.engine_config(0, false));
}

TEST(IoConfig, RecoveryPolicyNamesHaveOneOwner) {
  // validate() and recovery_policy_of read the same list, in enum order.
  for (std::size_t i = 0; i < std::size(kRecoveryPolicies); ++i) {
    EXPECT_EQ(recovery_policy_of(kRecoveryPolicies[i]), RecoveryPolicy(i));
    Bit1IoConfig config;
    config.recovery = kRecoveryPolicies[i];
    EXPECT_NO_THROW(config.validate()) << kRecoveryPolicies[i];
  }
  EXPECT_THROW(recovery_policy_of("retry"), UsageError);
}

TEST(IoConfig, AsyncKeysReachTheEngineConfig) {
  Bit1IoConfig config;
  config.async_write = true;
  config.buffer_chunk_mb = 4;
  const Json parsed = parse_toml(config.adios2_toml());
  const Json& params = parsed.at("adios2").at("engine").at("parameters");
  EXPECT_EQ(params.at("AsyncWrite").as_string(), "On");
  EXPECT_EQ(params.at("BufferChunkSize").as_int(), 4);

  // And the miniBP engine parses them back (BP5 AsyncWrite semantics).
  const auto engine = bp::EngineConfig::from_json(parsed.at("adios2"));
  EXPECT_TRUE(engine.async_write);
  EXPECT_EQ(engine.buffer_chunk_mb, 4u);

  // A default config parses into the default engine: synchronous, with
  // the same settings as an EngineConfig built in code.
  const Bit1IoConfig sync;
  EXPECT_EQ(bp::EngineConfig::from_json(
                parse_toml(sync.adios2_toml()).at("adios2")),
            bp::EngineConfig{});
}

// --------------------------------------------------------------- adaptor ---

picmc::SimConfig small_case() {
  auto config = picmc::SimConfig::ionization_case(32, 8);
  config.last_step = 20;
  return config;
}

TEST(Adaptor, Table2FilePopulation) {
  // One node / one aggregator: exactly 6 files — dat series (data.0, md.0,
  // md.idx) + dmp series (same three).
  fsim::SharedFs fs(8);
  Bit1IoConfig io;
  io.ranks_per_node = 4;
  {
    Bit1OpenPmdAdaptor adaptor(fs, "run", io, 4);
    auto config = small_case();
    for (int rank = 0; rank < 4; ++rank) {
      picmc::Simulation sim(config, rank, 4);
      sim.initialize();
      sim.run();
      adaptor.stage_diagnostics(rank, sim,
                                picmc::Diagnostics::sample_now(sim));
      adaptor.stage_checkpoint(rank, sim);
    }
    adaptor.flush_diagnostics(20, 2.0);
    adaptor.flush_checkpoint();
    adaptor.close();
  }
  EXPECT_EQ(fs.store().list_recursive("run").size(), 6u);
}

TEST(Adaptor, RanksPerNodeSetsTheNodeLevelAggregatorCount) {
  // aggregators = 0 is "one per node": 4 ranks at 2 per node are two nodes,
  // so the diagnostics series gets two subfiles; the checkpoint series
  // keeps its one shared file (checkpoint_aggregators = 1).
  fsim::SharedFs fs(8);
  Bit1IoConfig io;
  io.num_aggregators = 0;
  io.checkpoint_aggregators = 1;
  io.ranks_per_node = 2;
  {
    Bit1OpenPmdAdaptor adaptor(fs, "run", io, 4);
    auto config = small_case();
    for (int rank = 0; rank < 4; ++rank) {
      picmc::Simulation sim(config, rank, 4);
      sim.initialize();
      adaptor.stage_diagnostics(rank, sim,
                                picmc::Diagnostics::sample_now(sim));
      adaptor.stage_checkpoint(rank, sim);
    }
    adaptor.flush_diagnostics(0, 0.0);
    adaptor.flush_checkpoint();
    adaptor.close();
  }
  const auto& store = fs.store();
  EXPECT_TRUE(store.file_exists("run/dat_file.bp4/data.0"));
  EXPECT_TRUE(store.file_exists("run/dat_file.bp4/data.1"));
  EXPECT_FALSE(store.file_exists("run/dat_file.bp4/data.2"));
  EXPECT_TRUE(store.file_exists("run/dmp_file.bp4/data.0"));
  EXPECT_FALSE(store.file_exists("run/dmp_file.bp4/data.1"));
}

TEST(Adaptor, DiagnosticsRoundTripThroughOpenPmd) {
  fsim::SharedFs fs(8);
  Bit1IoConfig io;
  io.ranks_per_node = 2;
  auto config = small_case();
  std::vector<double> expected_weights;
  {
    Bit1OpenPmdAdaptor adaptor(fs, "run", io, 2);
    for (int rank = 0; rank < 2; ++rank) {
      picmc::Simulation sim(config, rank, 2);
      sim.initialize();
      sim.run();
      const auto snap = picmc::Diagnostics::sample_now(sim);
      expected_weights.push_back(snap.species[0].total_weight);
      adaptor.stage_diagnostics(rank, sim, snap);
    }
    adaptor.flush_diagnostics(20, 2.0);
    adaptor.close();
  }
  pmd::Series series(fs, "run/dat_file.bp4", pmd::Access::read_only);
  auto& it = series.read_iteration(20);
  EXPECT_DOUBLE_EQ(it.time(), 2.0);
  const auto weights = it.mesh("weight_e").component().load<double>();
  ASSERT_EQ(weights.size(), 2u);
  EXPECT_DOUBLE_EQ(weights[0], expected_weights[0]);
  EXPECT_DOUBLE_EQ(weights[1], expected_weights[1]);
  // Rank-0 density profile present with the grid's node count.
  const auto density = it.mesh("density_e").component().load<double>();
  EXPECT_EQ(density.size(), 33u);  // 32 cells -> 33 nodes
}

TEST(Adaptor, MultiRankCheckpointRestartIsExact) {
  fsim::SharedFs fs(8);
  Bit1IoConfig io;
  io.ranks_per_node = 3;
  auto config = small_case();
  std::vector<std::vector<double>> positions(3);
  {
    Bit1OpenPmdAdaptor adaptor(fs, "run", io, 3);
    for (int rank = 0; rank < 3; ++rank) {
      picmc::Simulation sim(config, rank, 3);
      sim.initialize();
      sim.run();
      positions[std::size_t(rank)] = sim.species(0).particles.x();
      adaptor.stage_checkpoint(rank, sim);
    }
    adaptor.flush_checkpoint();
    adaptor.close();
  }
  // What each rank may read of the data subfiles: its own chunks, plus the
  // per-species rank_count table every rank reads to place its slice.
  std::vector<std::uint64_t> allowed(3, 0);
  {
    bp::Reader reader = bp::Reader::open(fs, 0, "run/dmp_file.bp4");
    for (const auto& var : reader.step(0).variables)
      for (const auto& chunk : var.chunks)
        for (std::uint32_t rank = 0; rank < 3; ++rank)
          if (chunk.writer_rank == rank ||
              var.name.rfind("meshes/rank_count_", 0) == 0)
            allowed[rank] += chunk.stored_bytes;
  }
  for (int rank = 0; rank < 3; ++rank) {
    picmc::Simulation restored(config, rank, 3);
    fs.clear_trace();
    Bit1OpenPmdAdaptor::restore(fs, "run", io, restored);
    EXPECT_EQ(restored.current_step(), 20u);
    EXPECT_EQ(restored.species(0).particles.x(), positions[std::size_t(rank)])
        << "rank " << rank;
    std::uint64_t data_read = 0;
    for (const auto& op : fs.trace())
      if (op.kind == fsim::OpKind::read && op.file != fsim::kNoFile &&
          fs.store().file_by_id(op.file).path.find("/data.") !=
              std::string::npos)
        data_read += op.bytes;
    EXPECT_GT(data_read, 0u) << "rank " << rank;
    EXPECT_LE(data_read, allowed[std::size_t(rank)]) << "rank " << rank;
  }
}

TEST(Adaptor, CheckpointSlotIsRewritten) {
  fsim::SharedFs fs(8);
  Bit1IoConfig io;
  io.ranks_per_node = 1;
  auto config = small_case();
  picmc::Simulation sim(config);
  sim.initialize();
  Bit1OpenPmdAdaptor adaptor(fs, "run", io, 1);
  // Checkpoint twice at different steps; restore must see the second.
  while (sim.current_step() < 10) sim.step();
  adaptor.stage_checkpoint(0, sim);
  adaptor.flush_checkpoint();
  while (sim.current_step() < 20) sim.step();
  adaptor.stage_checkpoint(0, sim);
  adaptor.flush_checkpoint();
  adaptor.close();

  picmc::Simulation restored(config);
  Bit1OpenPmdAdaptor::restore(fs, "run", io, restored);
  EXPECT_EQ(restored.current_step(), 20u);
}

TEST(Adaptor, AppliesStripingToRunDirectory) {
  fsim::SharedFs fs(48);
  Bit1IoConfig io;
  io.ranks_per_node = 1;
  io.use_striping = true;
  io.striping = {8, 16 * MiB};
  Bit1OpenPmdAdaptor adaptor(fs, "striped", io, 1);
  const auto layout = fs.store().file("striped/dat_file.bp4/data.0").layout;
  EXPECT_EQ(layout.settings.stripe_count, 8);
  EXPECT_EQ(layout.settings.stripe_size, 16 * MiB);
  adaptor.close();
}

TEST(Adaptor, UsageErrors) {
  fsim::SharedFs fs(4);
  Bit1IoConfig io;
  EXPECT_THROW(Bit1OpenPmdAdaptor(fs, "x", io, 0), UsageError);
  Bit1IoConfig original;
  original.mode = IoMode::original;
  EXPECT_THROW(Bit1OpenPmdAdaptor(fs, "x", original, 1), UsageError);

  Bit1OpenPmdAdaptor adaptor(fs, "y", io, 2);
  EXPECT_THROW(adaptor.flush_diagnostics(0, 0.0), UsageError);  // nothing staged
  EXPECT_THROW(adaptor.flush_checkpoint(), UsageError);
  auto config = small_case();
  picmc::Simulation sim(config);
  sim.initialize();
  EXPECT_THROW(
      adaptor.stage_diagnostics(5, sim, picmc::Diagnostics::sample_now(sim)),
      UsageError);
}

// -------------------------------------------------------------- workload ---

TEST(Workload, VolumeModelIsExactAcrossRanks) {
  const auto spec = ScaleSpec::throughput(2);
  std::uint64_t ckpt_total = 0;
  for (int r = 0; r < spec.ranks(); ++r)
    ckpt_total += spec.ckpt_bytes_for_rank(r);
  EXPECT_EQ(ckpt_total, spec.checkpoint_bytes);
  // Rank 0 writes more diagnostics than anyone else.
  EXPECT_GT(spec.diag_bytes_for_rank(0), spec.diag_bytes_for_rank(1));
  EXPECT_EQ(spec.diag_bytes_for_rank(1), spec.diag_bytes_for_rank(100));
}

TEST(Workload, OriginalEpochFilePopulation) {
  // 2 files per rank + 6 globals (Table II's 256N + 6 at production scale).
  const auto spec = ScaleSpec::table2(1);
  const auto result =
      run_original_epoch(fsim::dardel(), spec, /*timing=*/false);
  EXPECT_EQ(result.total_files, 2u * 128 + 5);  // +5: 4 histories + bit1.dmp
  EXPECT_EQ(result.write_gibps, 0.0);           // census only
}

TEST(Workload, OpenPmdEpochFilePopulation) {
  const auto spec = ScaleSpec::table2(1);
  Bit1IoConfig config;
  config.num_aggregators = 1;
  const auto result =
      run_openpmd_epoch(fsim::dardel(), spec, config, /*timing=*/false);
  EXPECT_EQ(result.total_files, 6u);
  Bit1IoConfig node_agg;  // default: per-node aggregation
  const auto spec4 = ScaleSpec::table2(4);
  const auto result4 =
      run_openpmd_epoch(fsim::dardel(), spec4, node_agg, /*timing=*/false);
  EXPECT_EQ(result4.total_files, 4u + 5u);
}

TEST(Workload, BloscShrinksFilesBzip2DoesNot) {
  const auto spec = ScaleSpec::table2(1);
  Bit1IoConfig plain, blosc, bzip2;
  plain.num_aggregators = blosc.num_aggregators = bzip2.num_aggregators = 1;
  blosc.codec = "blosc";
  bzip2.codec = "bzip2";
  const auto p = run_openpmd_epoch(fsim::dardel(), spec, plain, false);
  const auto b = run_openpmd_epoch(fsim::dardel(), spec, blosc, false);
  const auto z = run_openpmd_epoch(fsim::dardel(), spec, bzip2, false);
  // Table II: Blosc ~11% smaller at one node; bzip2 ~unchanged.
  EXPECT_NEAR(double(b.avg_file_bytes) / double(p.avg_file_bytes), 0.89,
              0.03);
  EXPECT_NEAR(double(z.avg_file_bytes) / double(p.avg_file_bytes), 1.0,
              0.01);
}

TEST(Workload, OpenPmdBeatsOriginalAtScale) {
  // The paper's headline: at 200 nodes the openPMD path is an order of
  // magnitude faster than original I/O.
  const auto profile = fsim::dardel();
  const auto spec = ScaleSpec::throughput(20);  // cheaper than 200 in a test
  const auto original = run_original_epoch(profile, spec);
  Bit1IoConfig config;
  const auto openpmd = run_openpmd_epoch(profile, spec, config);
  EXPECT_GT(openpmd.write_gibps, 5.0 * original.write_gibps);
  EXPECT_LT(openpmd.mean_meta_s, original.mean_meta_s / 10.0);
}

TEST(Workload, AggregatorSweepShape) {
  // Fig 6's shape: 1 aggregator is slow and a moderate count is much
  // faster (tested at small scale); the collapse under extreme aggregation
  // needs tiny per-subfile chunks plus a create storm, so it is checked at
  // 100 nodes where those regimes exist.
  const auto profile = fsim::dardel();
  {
    const auto spec = ScaleSpec::throughput(10);
    Bit1IoConfig one, twenty;
    one.num_aggregators = 1;
    twenty.num_aggregators = 20;
    EXPECT_GT(run_openpmd_epoch(profile, spec, twenty).write_gibps,
              2.0 * run_openpmd_epoch(profile, spec, one).write_gibps);
  }
  {
    const auto spec = ScaleSpec::throughput(100);
    Bit1IoConfig peak, extreme;
    peak.num_aggregators = 200;             // ~2 per node
    extreme.num_aggregators = spec.ranks(); // one subfile per rank
    const double at_peak = run_openpmd_epoch(profile, spec, peak).write_gibps;
    const double at_extreme =
        run_openpmd_epoch(profile, spec, extreme).write_gibps;
    EXPECT_GT(at_peak, at_extreme);
    EXPECT_GT(at_extreme, 0.0);
  }
}

TEST(Workload, StripingChangesLayout) {
  const auto spec = ScaleSpec::table2(1);
  Bit1IoConfig config;
  config.num_aggregators = 1;
  config.use_striping = true;
  config.striping = {8, 4 * MiB};
  const auto result =
      run_openpmd_epoch(fsim::dardel(), spec, config, /*timing=*/false);
  EXPECT_EQ(result.total_files, 6u);  // striping does not change counts
}

// ---------------------------------------------------------------- tuning ---

TEST(Tuning, FindsAggregationOverSharedFile) {
  const auto profile = fsim::dardel();
  const auto spec = ScaleSpec::throughput(4);
  Bit1IoConfig base;
  TuningSpace space;
  space.aggregators = {1, 8};
  space.stripe_counts = {1};
  space.stripe_sizes = {1 * MiB};
  space.codecs = {"none"};
  const auto report = tune_io(profile, spec, base, space);
  EXPECT_EQ(report.explored.size(), 2u);
  EXPECT_EQ(report.best.config.num_aggregators, 8);
  EXPECT_GE(report.explored[0].result.write_gibps,
            report.explored[1].result.write_gibps);
}

TEST(Tuning, RejectsEmptySpace) {
  const auto profile = fsim::dardel();
  const auto spec = ScaleSpec::throughput(1);
  Bit1IoConfig base;
  TuningSpace space;
  space.aggregators = {-1};  // filtered out -> empty
  space.stripe_counts = {1};
  space.stripe_sizes = {MiB};
  space.codecs = {"none"};
  EXPECT_THROW(tune_io(profile, spec, base, space), UsageError);
}

// ------------------------------------------------------- diagnostics sink ---

TEST(DiagnosticsSink, FactorySelectsByModeAndValidates) {
  fsim::SharedFs fs(8);
  Bit1IoConfig io;
  io.ranks_per_node = 1;
  EXPECT_EQ(make_diagnostics_sink(fs, "p", io, 1)->sink_name(), "openpmd");
  io.mode = IoMode::original;
  EXPECT_EQ(make_diagnostics_sink(fs, "o", io, 1)->sink_name(), "original");
  io.num_aggregators = -1;
  EXPECT_THROW(make_diagnostics_sink(fs, "x", io, 1), UsageError);
}

TEST(DiagnosticsSink, SerialSinkWritesOriginalLayout) {
  fsim::SharedFs fs(8);
  const auto config = small_case();
  picmc::Simulation sim(config);
  sim.initialize();
  while (sim.current_step() < 10) sim.step();

  Bit1IoConfig io;
  io.mode = IoMode::original;
  io.ranks_per_node = 1;
  auto sink = make_diagnostics_sink(fs, "orig", io, 1);
  sink->stage_diagnostics(0, sim, picmc::Diagnostics::sample_now(sim));
  sink->flush_diagnostics(sim.current_step(), 1.0);
  sink->stage_checkpoint(0, sim);
  sink->flush_checkpoint();
  sink->synchronize();  // no-op for the serial path
  sink->close();

  for (const char* path : {"orig/slow_0.dat", "orig/slow1_0.dat",
                           "orig/history.dat", "orig/energy.dat",
                           "orig/bit1.dmp"})
    EXPECT_TRUE(fs.store().file_exists(path)) << path;

  // Double flush without staging is a usage error.
  auto again = make_diagnostics_sink(fs, "orig2", io, 1);
  EXPECT_THROW(again->flush_diagnostics(0, 0.0), UsageError);
  EXPECT_THROW(again->flush_checkpoint(), UsageError);

  // The serial dmp restores the staged state exactly.
  picmc::Simulation restored(config);
  picmc::Bit1SerialWriter reader(fs, "orig", 0, 1);
  picmc::load_checkpoint(restored, reader.read_checkpoint()[0]);
  EXPECT_EQ(restored.local_particles(), sim.local_particles());
}

TEST(DiagnosticsSink, AsyncOpenPmdSinkSynchronizesForReadAfterWrite) {
  // async_write through the whole seam: sink -> series -> staged engine.
  fsim::SharedFs fs(8);
  const auto config = small_case();
  picmc::Simulation sim(config);
  sim.initialize();
  while (sim.current_step() < 10) sim.step();

  Bit1IoConfig io;
  io.engine = "bp5";
  io.async_write = true;
  io.buffer_chunk_mb = 1;
  io.ranks_per_node = 1;
  auto sink = make_diagnostics_sink(fs, "pmd", io, 1);
  sink->stage_diagnostics(0, sim, picmc::Diagnostics::sample_now(sim));
  sink->flush_diagnostics(10, 1.0);
  sink->stage_checkpoint(0, sim);
  sink->flush_checkpoint();
  // flush_* returned at submit; synchronize joins the drains, so the data
  // subfiles are populated while both series are still open.
  sink->synchronize();
  EXPECT_GT(fs.store().file("pmd/dat_file.bp5/data.0").size, 0u);
  EXPECT_GT(fs.store().file("pmd/dmp_file.bp5/data.0").size, 0u);
  sink->close();

  picmc::Simulation restored(config, 0, 1);
  Bit1OpenPmdAdaptor::restore(fs, "pmd", io, restored);
  EXPECT_EQ(restored.local_particles(), sim.local_particles());
  EXPECT_EQ(restored.current_step(), 10u);
}

TEST(Workload, AsyncEpochKeepsLayoutAndMovesTimeToDrain) {
  const auto profile = fsim::dardel();
  const auto spec = ScaleSpec::throughput(1);
  Bit1IoConfig sync_io;
  sync_io.num_aggregators = 2;
  Bit1IoConfig async_io = sync_io;
  async_io.async_write = true;

  const auto sync_result = run_openpmd_epoch(profile, spec, sync_io);
  const auto async_result = run_openpmd_epoch(profile, spec, async_io);

  // Same container layout and byte volume either way.
  EXPECT_EQ(async_result.total_files, sync_result.total_files);
  EXPECT_EQ(async_result.bytes_written, sync_result.bytes_written);

  // Sync attributes subfile time to the write path; async moves it to the
  // overlapped drain lane.
  EXPECT_DOUBLE_EQ(sync_result.mean_drain_s, 0.0);
  EXPECT_GT(async_result.mean_drain_s, 0.0);
  EXPECT_LT(async_result.mean_write_s, sync_result.mean_write_s);
}

}  // namespace
}  // namespace bitio::core
