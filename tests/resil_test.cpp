// Tests for the resilience subsystem: deterministic fault injection in the
// simulated file system, end-to-end CRC detection of injected corruption,
// and CheckpointManager's commit/retry/retention/scrub/restart-fallback
// behaviour — including the full injected-fault recovery scenario (corrupt
// the newest epoch, recover from the previous one, re-run to a bit-identical
// final state).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>

#include "bp/engine.hpp"
#include "bp/reader.hpp"
#include "bp/writer.hpp"
#include "darshan/darshan.hpp"
#include "fsim/fault_plan.hpp"
#include "fsim/posix_fs.hpp"
#include "fsim/storage_model.hpp"
#include "fsim/system_profiles.hpp"
#include "picmc/simulation.hpp"
#include "resil/checkpoint_manager.hpp"
#include "util/error.hpp"

namespace bitio::resil {
namespace {

using fsim::FaultKind;
using fsim::FaultPlan;
using fsim::FaultRule;
using fsim::FsClient;
using fsim::SharedFs;
using picmc::SimConfig;
using picmc::Simulation;

std::vector<std::uint8_t> pattern_bytes(std::size_t n) {
  std::vector<std::uint8_t> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = std::uint8_t(i * 37 + 11);
  return data;
}

// ------------------------------------------------------------ fault plan ---

TEST(FaultPlan, ValidatesRules) {
  EXPECT_NO_THROW(
      FaultPlan(1, {{FaultKind::bit_flip, "f", 1, 0.0, 1, -1, 0}}).validate());
  // Probability outside [0, 1].
  EXPECT_THROW(
      FaultPlan(1, {{FaultKind::eio, "", 0, 1.5, 1, -1, 0}}).validate(),
      UsageError);
  // Neither nth nor probability selects a firing write.
  EXPECT_THROW(
      FaultPlan(1, {{FaultKind::bit_flip, "", 0, 0.0, 1, -1, 0}}).validate(),
      UsageError);
  // rank_crash needs a rank.
  EXPECT_THROW(
      FaultPlan(1, {{FaultKind::rank_crash, "", 0, 0.0, 1, -1, 5}}).validate(),
      UsageError);
  // Negative firing bound.
  EXPECT_THROW(
      FaultPlan(1, {{FaultKind::eio, "", 1, 0.0, -2, -1, 0}}).validate(),
      UsageError);
  // Both nth and probability on one rule is ambiguous; the error names the
  // offending rule's index.
  try {
    FaultPlan(1, {{FaultKind::bit_flip, "f", 1, 0.0, 1, -1, 0},
                  {FaultKind::eio, "", 2, 0.5, 1, -1, 0}})
        .validate();
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("rule 1"), std::string::npos);
  }
  // Two rank_crash rules scheduling the same rank cannot both fire.
  try {
    FaultPlan(1, {{FaultKind::rank_crash, "", 0, 0.0, 1, 2, 5},
                  {FaultKind::rank_crash, "", 0, 0.0, 1, 2, 9}})
        .validate();
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("rule 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("rank 2"), std::string::npos);
  }
  // Distinct ranks are fine.
  EXPECT_NO_THROW(
      FaultPlan(1, {{FaultKind::rank_crash, "", 0, 0.0, 1, 2, 5},
                    {FaultKind::rank_crash, "", 0, 0.0, 1, 3, 9}})
          .validate());
}

TEST(FaultPlan, ProbabilisticDrawsAreSeedDeterministic) {
  // Two file systems with the same plan and the same write sequence must
  // inject the same faults at the same ordinals.
  auto fault_sequence = [](std::uint64_t seed) {
    SharedFs fs(4);
    fs.set_fault_plan(
        FaultPlan(seed, {{FaultKind::bit_flip, "", 0, 0.4, 0, -1, 0}}));
    FsClient io(fs, 0);
    for (int f = 0; f < 32; ++f) {
      const int fd = io.open("d/f" + std::to_string(f), fsim::OpenMode::create);
      io.write(fd, pattern_bytes(64));
      io.close(fd);
    }
    std::vector<FaultKind> kinds;
    for (const auto& op : fs.trace())
      if (op.kind == fsim::OpKind::write) kinds.push_back(op.fault);
    return kinds;
  };
  const auto a = fault_sequence(99);
  EXPECT_EQ(a, fault_sequence(99));
  // Some writes fault, some don't (p = 0.4 over 32 writes).
  EXPECT_NE(std::count(a.begin(), a.end(), FaultKind::bit_flip), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), FaultKind::none), 0);
  // A different seed picks a different subset.
  EXPECT_NE(a, fault_sequence(100));
}

TEST(FaultPlan, TornWritePersistsStrictPrefix) {
  SharedFs fs(4);
  fs.set_fault_plan(
      FaultPlan(7, {{FaultKind::torn_write, "victim", 1, 0.0, 1, -1, 0}}));
  FsClient io(fs, 0);
  const auto data = pattern_bytes(256);
  const int fd = io.open("victim", fsim::OpenMode::create);
  io.write(fd, data);  // the caller sees success (classic lost tail)
  io.close(fd);
  EXPECT_EQ(fs.injected_fault_count(), 1u);
  const auto stored = io.read_all("victim");
  ASSERT_LT(stored.size(), data.size());
  // What did land is the unaltered prefix.
  EXPECT_TRUE(std::equal(stored.begin(), stored.end(), data.begin()));
  // The trace records the injection with the persisted byte count.
  bool traced = false;
  for (const auto& op : fs.trace())
    if (op.fault == FaultKind::torn_write) {
      traced = true;
      EXPECT_EQ(op.bytes, stored.size());
    }
  EXPECT_TRUE(traced);
}

TEST(FaultPlan, BitFlipFlipsExactlyOneBit) {
  SharedFs fs(4);
  fs.set_fault_plan(
      FaultPlan(7, {{FaultKind::bit_flip, "victim", 1, 0.0, 1, -1, 0}}));
  FsClient io(fs, 0);
  const auto data = pattern_bytes(128);
  io.write_file("victim", data);
  const auto stored = io.read_all("victim");
  ASSERT_EQ(stored.size(), data.size());
  int flipped_bits = 0;
  for (std::size_t i = 0; i < data.size(); ++i)
    flipped_bits += std::popcount(std::uint8_t(stored[i] ^ data[i]));
  EXPECT_EQ(flipped_bits, 1);
}

TEST(FaultPlan, TransientEioThrowsOnceThenSucceeds) {
  SharedFs fs(4);
  fs.set_fault_plan(
      FaultPlan(7, {{FaultKind::eio, "victim", 1, 0.0, 1, -1, 0}}));
  FsClient io(fs, 0);
  const auto data = pattern_bytes(64);
  const int fd = io.open("victim", fsim::OpenMode::create);
  EXPECT_THROW(io.write(fd, data), IoError);
  io.write(fd, data);  // rule exhausted (times = 1): the retry lands
  io.close(fd);
  EXPECT_EQ(io.read_all("victim").size(), data.size());
}

TEST(FaultPlan, RankCrashIsConsultedAtStepBoundaries) {
  SharedFs fs(4);
  fs.set_fault_plan(
      FaultPlan(7, {{FaultKind::rank_crash, "", 0, 0.0, 1, 2, 5}}));
  EXPECT_TRUE(fs.should_crash(2, 5));
  EXPECT_FALSE(fs.should_crash(2, 4));
  EXPECT_FALSE(fs.should_crash(1, 5));
}

TEST(FaultPlan, DarshanAttributesInjectedFaults) {
  SharedFs fs(4);
  fs.set_fault_plan(
      FaultPlan(7, {{FaultKind::bit_flip, "victim", 1, 0.0, 1, -1, 0}}));
  FsClient io(fs, 0);
  io.write_file("victim", pattern_bytes(64));
  io.write_file("clean", pattern_bytes(64));

  const auto replay = fsim::replay_trace(fsim::dardel(), fs.store(),
                                         fs.trace(), 1);
  const auto log = darshan::capture(fs, replay, {});
  EXPECT_EQ(log.total_faults_injected(), 1u);
  for (const auto& r : log.records)
    EXPECT_EQ(r.faults_injected, r.path == "victim" ? 1u : 0u);
  // Counter survives the binary log round trip (format version 3).
  const auto parsed = darshan::DarshanLog::parse(log.serialize());
  EXPECT_EQ(parsed.total_faults_injected(), 1u);
}

// --------------------------------------------- injected faults vs bp CRCs ---

// Write a small real-payload container with a fault armed against the nth
// write to `target`, then return true iff the reader detects the corruption
// end to end.
bool detection_round(FaultKind kind, const std::string& target,
                     std::uint64_t nth = 1) {
  SharedFs fs(4);
  fs.set_fault_plan(FaultPlan(11, {{kind, target, nth, 0.0, 1, -1, 0}}));
  {
    bp::EngineConfig config;
    config.num_aggregators = 1;
    auto writer = bp::make_engine("bp4", fs, "out/c.bp4", config, 1);
    writer->begin_step(0);
    std::vector<float> v(32);
    std::iota(v.begin(), v.end(), 0.f);
    writer->put<float>(0, "x", {32}, {0}, {32},
                       std::span<const float>(v.data(), v.size()));
    writer->end_step();
    writer->close();
  }
  if (fs.injected_fault_count() == 0) return false;  // fault never armed
  // Zap the footer trailer: an intact footer carries its own CRC-protected
  // copy of the index entries, so a torn md.idx entry would never be read.
  // This matrix is about the md.idx path's cross-checks.
  auto& md = fs.store().file("out/c.bp4/md.0");
  if (!md.data.empty()) md.data.back() ^= 0xFF;
  try {
    bp::Reader reader = bp::Reader::open(fs, 0, "out/c.bp4");
    if (!bp::Reader::all_ok(reader.verify())) return true;
    for (const std::uint64_t step : reader.steps())
      for (const auto& name : reader.variables(step))
        (void)reader.read(step, name);
  } catch (const FormatError&) {
    return true;
  }
  return false;
}

TEST(InjectedFaults, CrcCatchesEveryInjectedCorruption) {
  // The detection matrix: silent flips and torn writes against the data
  // subfile and both metadata surfaces must all be caught (the paper's
  // integrity claim for format v5: no undetected corruption).
  EXPECT_TRUE(detection_round(FaultKind::bit_flip, "data.0"));
  EXPECT_TRUE(detection_round(FaultKind::torn_write, "data.0"));
  EXPECT_TRUE(detection_round(FaultKind::bit_flip, "md.0"));
  EXPECT_TRUE(detection_round(FaultKind::torn_write, "md.0"));
  // md.idx write 1 is the reserved header (re-patched at close, so tearing
  // it is harmless by design); write 2 is the step's index entry, whose
  // loss after a committed step must be caught.
  EXPECT_TRUE(detection_round(FaultKind::torn_write, "md.idx", 2));
}

// ------------------------------------------------------ checkpoint manager ---

core::Bit1IoConfig resil_config(int retain = 2) {
  core::Bit1IoConfig config;
  config.checkpoint_interval = 4;
  config.checkpoint_retain = retain;
  return config;
}

SimConfig small_case() {
  auto config = SimConfig::ionization_case(32, 16);
  config.last_step = 10;
  return config;
}

void run_until(Simulation& sim, std::uint64_t step) {
  while (sim.current_step() < step) sim.step();
}

// Flip one bit inside the epoch's data payload without going through the
// write path — corruption that happens *after* commit validation, like
// media decay between checkpoint and restart.
void silently_corrupt_epoch(SharedFs& fs, const CheckpointManager& manager,
                            std::uint64_t epoch) {
  for (const auto* node :
       fs.store().list_recursive(manager.epoch_dir(epoch))) {
    if (node->path.find("/data.") == std::string::npos || node->size == 0)
      continue;
    fs.store().file(node->path).data[0] ^= 0x10;
    return;
  }
  FAIL() << "no data subfile found in epoch " << epoch;
}

TEST(CheckpointManager, CommitWritesManifestAtomically) {
  SharedFs fs(8);
  Simulation sim(small_case());
  sim.initialize();
  CheckpointManager manager(fs, "run", resil_config(), 1);
  manager.stage(0, sim);
  const std::uint64_t epoch = manager.commit();
  EXPECT_EQ(epoch, 1u);
  EXPECT_TRUE(fs.store().file_exists("run/resil/epoch_1/MANIFEST"));
  EXPECT_FALSE(fs.store().file_exists("run/resil/epoch_1/MANIFEST.tmp"));
  FsClient io(fs, 0);
  const auto bytes = io.read_all("run/resil/epoch_1/MANIFEST");
  const Json manifest = Json::parse(
      std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  EXPECT_EQ(manifest.at("epoch").as_uint(), 1u);
  EXPECT_EQ(manifest.at("step").as_uint(), sim.current_step());
  EXPECT_EQ(manifest.at("nranks").as_int(), 1);
  EXPECT_EQ(manager.stats().epochs_written, 1u);
}

TEST(CheckpointManager, RetentionKeepsNewestKEpochs) {
  SharedFs fs(8);
  auto config = small_case();
  config.last_step = 100;
  Simulation sim(config);
  sim.initialize();
  CheckpointManager manager(fs, "run", resil_config(/*retain=*/2), 1);
  for (int i = 0; i < 4; ++i) {
    run_until(sim, std::uint64_t(4 * (i + 1)));
    manager.stage(0, sim);
    manager.commit();
  }
  EXPECT_EQ(manager.committed_epochs(),
            (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(manager.stats().epochs_pruned, 2u);
  // Pruned epochs are gone wholesale, not just de-committed.
  EXPECT_TRUE(fs.store().list_recursive("run/resil/epoch_1").empty());
}

TEST(CheckpointManager, CommitRetriesThroughTransientFaults) {
  SharedFs fs(8);
  // The first write under the epoch tree fails with EIO; the retry runs
  // against an exhausted rule and succeeds.
  fs.set_fault_plan(
      FaultPlan(3, {{FaultKind::eio, "resil/epoch_", 1, 0.0, 1, -1, 0}}));
  Simulation sim(small_case());
  sim.initialize();
  CheckpointManager manager(fs, "run", resil_config(), 1);
  manager.stage(0, sim);
  EXPECT_EQ(manager.commit(), 1u);
  EXPECT_EQ(manager.stats().write_retries, 1u);
  EXPECT_EQ(manager.stats().transient_faults, 1u);
  // The exponential backoff shows up on the rank's timeline.
  bool backoff = false;
  for (const auto& op : fs.trace())
    if (op.kind == fsim::OpKind::cpu && op.tag == fsim::TraceTag::backoff)
      backoff = true;
  EXPECT_TRUE(backoff);
  // And the epoch that finally landed verifies clean.
  EXPECT_EQ(manager.scrub().corrupt_chunks, 0u);
}

TEST(CheckpointManager, CommitRewritesEpochCorruptedDuringWrite) {
  SharedFs fs(8);
  // A silent bit flip lands in the epoch's data subfile as it is written:
  // commit's validation pass must catch it and rewrite the epoch.
  fs.set_fault_plan(FaultPlan(
      5, {{FaultKind::bit_flip, "resil/epoch_1/dmp_file.bp4/data.", 1, 0.0,
           1, -1, 0}}));
  Simulation sim(small_case());
  sim.initialize();
  CheckpointManager manager(fs, "run", resil_config(), 1);
  manager.stage(0, sim);
  EXPECT_EQ(manager.commit(), 1u);
  EXPECT_GE(manager.stats().corrupt_chunks_detected, 1u);
  EXPECT_EQ(manager.stats().write_retries, 1u);
  EXPECT_EQ(manager.scrub().corrupt_chunks, 0u);
}

TEST(CheckpointManager, CommitGivesUpAfterBoundedRetries) {
  SharedFs fs(8);
  // Every write under the epoch tree fails: commit must stop after
  // kMaxCommitAttempts, not spin forever.
  fs.set_fault_plan(
      FaultPlan(3, {{FaultKind::eio, "resil/epoch_", 0, 1.0, 0, -1, 0}}));
  Simulation sim(small_case());
  sim.initialize();
  CheckpointManager manager(fs, "run", resil_config(), 1);
  manager.stage(0, sim);
  EXPECT_THROW(manager.commit(), IoError);
  EXPECT_EQ(manager.stats().write_retries,
            std::uint64_t(CheckpointManager::kMaxCommitAttempts - 1));
  EXPECT_TRUE(manager.committed_epochs().empty());
}

TEST(CheckpointManager, ScrubReportsCorruptEpochs) {
  SharedFs fs(8);
  auto config = small_case();
  config.last_step = 100;
  Simulation sim(config);
  sim.initialize();
  CheckpointManager manager(fs, "run", resil_config(), 1);
  for (int i = 0; i < 2; ++i) {
    run_until(sim, std::uint64_t(4 * (i + 1)));
    manager.stage(0, sim);
    manager.commit();
  }
  EXPECT_EQ(manager.scrub().epochs_ok, 2);

  silently_corrupt_epoch(fs, manager, 2);
  const ScrubReport report = manager.scrub();
  EXPECT_EQ(report.epochs_scanned, 2);
  EXPECT_EQ(report.epochs_ok, 1);
  EXPECT_EQ(report.corrupt_epochs, (std::vector<std::uint64_t>{2}));
  EXPECT_GE(report.corrupt_chunks, 1u);
}

TEST(CheckpointManager, StatsJsonIsWrittenAndParses) {
  SharedFs fs(8);
  Simulation sim(small_case());
  sim.initialize();
  CheckpointManager manager(fs, "run", resil_config(), 1);
  manager.stage(0, sim);
  manager.commit();
  manager.write_stats_json();
  FsClient io(fs, 0);
  const auto bytes = io.read_all("run/resil/resilience.json");
  const Json stats = Json::parse(
      std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  EXPECT_EQ(stats.at("epochs_written").as_uint(), 1u);
  EXPECT_EQ(stats.at("retained_epochs").as_uint(), 1u);
  EXPECT_EQ(stats.at("write_retries").as_uint(), 0u);
}

// The acceptance scenario: the newest epoch is silently corrupted after a
// validated commit; restart detects it, falls back to the previous epoch,
// and re-running from there reproduces the unfaulted reference bit for bit.
TEST(CheckpointManager, RestartFallsBackPastCorruptEpochBitExactly) {
  const auto config = small_case();

  // Unfaulted reference: one continuous 0 -> 10 run.
  Simulation reference(config);
  reference.initialize();
  run_until(reference, 10);

  // Checkpointed run: epochs at steps 4 and 8.
  SharedFs fs(8);
  CheckpointManager manager(fs, "run", resil_config(), 1);
  {
    Simulation sim(config);
    sim.initialize();
    run_until(sim, 4);
    manager.stage(0, sim);
    manager.commit();  // epoch 1 @ step 4
    run_until(sim, 8);
    manager.stage(0, sim);
    manager.commit();  // epoch 2 @ step 8
    // The rank "crashes" here; afterwards the newest epoch rots on disk.
  }
  silently_corrupt_epoch(fs, manager, 2);

  // Restart: a fresh simulation recovered from the newest *verifying*
  // epoch, which is epoch 1 at step 4.
  Simulation restarted(config);
  restarted.initialize();
  const RestartReport report = manager.restore(restarted);
  ASSERT_TRUE(report.recovered);
  EXPECT_EQ(report.epoch, 1u);
  EXPECT_EQ(report.step, 4u);
  EXPECT_EQ(report.epochs_tried, 2);
  EXPECT_EQ(report.rejected, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(manager.stats().restore_fallbacks, 1u);
  EXPECT_GE(manager.stats().corrupt_chunks_detected, 1u);

  run_until(restarted, 10);
  EXPECT_EQ(restarted.current_step(), reference.current_step());
  EXPECT_EQ(restarted.rng().state(), reference.rng().state());
  EXPECT_EQ(restarted.ionization_events(), reference.ionization_events());
  EXPECT_EQ(restarted.ionized_weight(), reference.ionized_weight());
  for (std::size_t s = 0; s < reference.species_count(); ++s) {
    const auto& a = reference.species(s).particles;
    const auto& b = restarted.species(s).particles;
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.x(), b.x());
    EXPECT_EQ(a.vx(), b.vx());
    EXPECT_EQ(a.vy(), b.vy());
    EXPECT_EQ(a.vz(), b.vz());
    EXPECT_EQ(a.w(), b.w());
  }
}

TEST(CheckpointManager, RestoreReportsUnrecoverableWhenAllEpochsCorrupt) {
  SharedFs fs(8);
  Simulation sim(small_case());
  sim.initialize();
  CheckpointManager manager(fs, "run", resil_config(), 1);
  manager.stage(0, sim);
  manager.commit();
  silently_corrupt_epoch(fs, manager, 1);

  Simulation restarted(small_case());
  restarted.initialize();
  const RestartReport report = manager.restore(restarted);
  EXPECT_FALSE(report.recovered);
  EXPECT_EQ(report.epochs_tried, 1);
  EXPECT_EQ(report.rejected, (std::vector<std::uint64_t>{1}));
}

TEST(ResilientSink, RoutesCheckpointsThroughEpochs) {
  SharedFs fs(8);
  auto io_config = resil_config();
  auto manager =
      std::make_shared<CheckpointManager>(fs, "run", io_config, 1);
  auto inner = core::make_diagnostics_sink(fs, "run", io_config, 1);
  ResilientSink sink(std::move(inner), manager);
  EXPECT_EQ(sink.sink_name(), "resilient+openpmd");

  Simulation sim(small_case());
  sim.initialize();
  run_until(sim, 4);
  sink.stage_checkpoint(0, sim);
  sink.flush_checkpoint();
  EXPECT_EQ(manager->committed_epochs(), (std::vector<std::uint64_t>{1}));
  sink.close();
  EXPECT_TRUE(fs.store().file_exists("run/resil/resilience.json"));
}

}  // namespace
}  // namespace bitio::resil
