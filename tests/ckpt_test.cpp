// Tests for incremental checkpoint epochs: the full/delta cadence of
// checkpoint_full_interval, content-hash dedup against the last committed
// epoch (checked against the CRC each base chunk had at commit), random-access chain restore (bit-exact, shrink-tolerant, reading
// only the referenced blocks, rejecting blocks that do not tile their
// variable), one MANIFEST version, chain-aware retention and restart fallback,
// crash-during-prune orphan cleanup, and the rule that the machinery's
// counts live in ResilienceStats while the simulated clock sees only
// modelled cost.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <optional>

#include "fsim/posix_fs.hpp"
#include "fsim/storage_model.hpp"
#include "fsim/system_profiles.hpp"
#include "picmc/simulation.hpp"
#include "resil/checkpoint_manager.hpp"
#include "util/error.hpp"

#include "modelled_cpu.hpp"

namespace bitio::resil {
namespace {

using fsim::FsClient;
using fsim::SharedFs;
using picmc::SimConfig;
using picmc::Simulation;

core::Bit1IoConfig delta_config(int full_interval, int retain = 8) {
  core::Bit1IoConfig config;
  config.checkpoint_interval = 4;
  config.checkpoint_retain = retain;
  config.checkpoint_full_interval = full_interval;
  return config;
}

SimConfig small_case() {
  auto config = SimConfig::ionization_case(32, 16);
  config.last_step = 12;
  return config;
}

void run_until(Simulation& sim, std::uint64_t step) {
  while (sim.current_step() < step) sim.step();
}

/// Total bytes of the epoch's data subfiles — the physically stored
/// checkpoint payload.
std::uint64_t epoch_payload_bytes(SharedFs& fs,
                                  const CheckpointManager& manager,
                                  std::uint64_t epoch) {
  std::uint64_t total = 0;
  for (const auto* node : fs.store().list_recursive(manager.epoch_dir(epoch)))
    if (node->path.find("/data.") != std::string::npos) total += node->size;
  return total;
}

// ------------------------------------------------------------- cadence ---

TEST(CkptDelta, FullIntervalControlsEpochKinds) {
  SharedFs fs(8);
  auto config = small_case();
  config.last_step = 100;
  Simulation sim(config);
  sim.initialize();
  CheckpointManager manager(fs, "run", delta_config(/*full_interval=*/3), 1);
  for (int i = 0; i < 5; ++i) {
    run_until(sim, std::uint64_t(2 * (i + 1)));
    manager.stage(0, sim);
    manager.commit();
  }
  // Interval 3: full, delta, delta, full, delta.
  const std::vector<std::string> expect{"full", "delta", "delta", "full",
                                        "delta"};
  for (std::uint64_t epoch = 1; epoch <= 5; ++epoch) {
    const auto manifest = manager.read_manifest(epoch);
    ASSERT_TRUE(manifest.has_value()) << "epoch " << epoch;
    EXPECT_EQ(manifest->kind, expect[epoch - 1]) << "epoch " << epoch;
    if (manifest->kind == "full") {
      EXPECT_TRUE(manifest->refs.empty()) << "epoch " << epoch;
      EXPECT_TRUE(manifest->base_epochs.empty()) << "epoch " << epoch;
    }
  }
  EXPECT_EQ(manager.stats().delta_epochs, 3u);
}

TEST(CkptDelta, IntervalOneWritesOnlyFullEpochs) {
  SharedFs fs(8);
  Simulation sim(small_case());
  sim.initialize();
  CheckpointManager manager(fs, "run", delta_config(/*full_interval=*/1), 1);
  for (int i = 0; i < 3; ++i) {
    manager.stage(0, sim);
    manager.commit();
  }
  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch)
    EXPECT_EQ(manager.read_manifest(epoch)->kind, "full");
  EXPECT_EQ(manager.stats().delta_epochs, 0u);
  EXPECT_EQ(manager.stats().dedup_bytes_saved, 0u);
}

// --------------------------------------------------------------- dedup ---

TEST(CkptDelta, DeltaDedupsUnchangedBlocks) {
  SharedFs fs(8);
  Simulation sim(small_case());
  sim.initialize();
  run_until(sim, 4);
  CheckpointManager manager(fs, "run", delta_config(/*full_interval=*/4), 1);
  manager.stage(0, sim);
  manager.commit();  // epoch 1: full
  manager.stage(0, sim);
  manager.commit();  // epoch 2: same state — every block dedups

  const auto manifest = manager.read_manifest(2);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->kind, "delta");
  EXPECT_FALSE(manifest->refs.empty());
  for (const BlockRef& ref : manifest->refs) EXPECT_EQ(ref.epoch, 1u);
  EXPECT_EQ(manifest->base_epochs, (std::vector<std::uint64_t>{1}));

  // The saved bytes are real: the delta container stores (near) nothing,
  // and the stat matches the referenced payload.
  const std::uint64_t full_payload = epoch_payload_bytes(fs, manager, 1);
  const std::uint64_t delta_payload = epoch_payload_bytes(fs, manager, 2);
  EXPECT_GT(full_payload, 0u);
  EXPECT_EQ(delta_payload, 0u);
  std::uint64_t ref_bytes = 0;
  for (const BlockRef& ref : manifest->refs) ref_bytes += ref.bytes;
  EXPECT_EQ(manager.stats().dedup_bytes_saved, ref_bytes);
  EXPECT_EQ(ref_bytes, full_payload);
}

TEST(CkptDelta, ChangedBlocksAreWrittenNotReferenced) {
  SharedFs fs(8);
  auto config = small_case();
  Simulation sim(config);
  sim.initialize();
  run_until(sim, 4);
  CheckpointManager manager(fs, "run", delta_config(/*full_interval=*/4), 1);
  manager.stage(0, sim);
  manager.commit();  // epoch 1: full @ step 4
  run_until(sim, 8);
  manager.stage(0, sim);
  manager.commit();  // epoch 2: delta @ step 8 — the state moved

  const auto manifest = manager.read_manifest(2);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->kind, "delta");
  // Particles moved and the RNG advanced, so the delta must physically
  // store payload of its own.
  EXPECT_GT(epoch_payload_bytes(fs, manager, 2), 0u);
}

TEST(CkptDelta, ReplacedBaseChunksAreWrittenNotReferenced) {
  // Commit pins each stored chunk's CRC32C; a delta references a base
  // block only while the base container still holds that chunk.  Replace
  // epoch 1's container with a valid one whose every block has the same
  // shape but other values: a delta of the unchanged state must then write
  // every block whose bytes differ, and restore bit-exactly.
  SharedFs fs(8);
  const auto config = small_case();
  const auto io = delta_config(/*full_interval=*/4);
  Simulation sim(config);
  sim.initialize();
  run_until(sim, 4);
  CheckpointManager manager(fs, "run", io, 1);
  manager.stage(0, sim);
  manager.commit();  // epoch 1: full @ 4

  Simulation other(config);
  other.initialize();
  run_until(other, 4);
  std::vector<std::string> species;
  for (std::size_t s = 0; s < other.species_count(); ++s) {
    picmc::Species& sp = other.species(s);
    species.push_back(sp.config.name);
    for (auto* values : {&sp.particles.x(), &sp.particles.vx(),
                         &sp.particles.vy(), &sp.particles.vz(),
                         &sp.particles.w()})
      for (double& v : *values) v += 0.5;
    sp.absorbed_left += 1;
    sp.absorbed_right += 1;
    sp.absorbed_weight += 1.0;
  }
  auto rng = other.rng().state();
  rng[0] ^= 1;
  other.rng().set_state(rng);
  other.set_ionization_totals(other.ionization_events() + 1,
                              other.ionized_weight() + 1.0);
  const std::string path = manager.epoch_dir(1) + "/dmp_file." + io.engine;
  FsClient root(fs, 0);
  for (const auto* node : fs.store().list_recursive(path))
    root.unlink(node->path);
  {
    pmd::Series series(fs, path, pmd::Access::create, 1,
                       io.engine_config(io.checkpoint_aggregators, false)
                           .adios2_toml());
    core::write_checkpoint_iteration(series,
                                     {core::capture_rank_state(other)},
                                     species, 1);
    series.close();
  }
  ASSERT_EQ(manager.scrub().corrupt_epochs, std::vector<std::uint64_t>{});

  manager.stage(0, sim);
  manager.commit();  // epoch 2: delta of the unchanged state
  const auto manifest = manager.read_manifest(2);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->kind, "delta");
  // Only the per-rank particle counts kept their bytes, so only they may
  // still be referenced.
  for (const BlockRef& ref : manifest->refs)
    EXPECT_NE(ref.var.find("rank_count"), std::string::npos) << ref.var;
  EXPECT_GT(epoch_payload_bytes(fs, manager, 2), 0u);

  Simulation restored(config);
  restored.initialize();
  manager.restore_epoch(2, restored);
  EXPECT_EQ(restored.current_step(), 4u);
  EXPECT_EQ(restored.rng().state(), sim.rng().state());
  EXPECT_EQ(restored.ionization_events(), sim.ionization_events());
  EXPECT_EQ(restored.ionized_weight(), sim.ionized_weight());
  for (std::size_t s = 0; s < sim.species_count(); ++s) {
    const auto& a = restored.species(s);
    const auto& b = sim.species(s);
    EXPECT_EQ(a.particles.x(), b.particles.x()) << "species " << s;
    EXPECT_EQ(a.particles.vx(), b.particles.vx()) << "species " << s;
    EXPECT_EQ(a.particles.vy(), b.particles.vy()) << "species " << s;
    EXPECT_EQ(a.particles.vz(), b.particles.vz()) << "species " << s;
    EXPECT_EQ(a.particles.w(), b.particles.w()) << "species " << s;
    EXPECT_EQ(a.absorbed_left, b.absorbed_left) << "species " << s;
    EXPECT_EQ(a.absorbed_right, b.absorbed_right) << "species " << s;
    EXPECT_EQ(a.absorbed_weight, b.absorbed_weight) << "species " << s;
  }
}

// ------------------------------------------------------- chain restore ---

TEST(CkptDelta, ChainRestoreIsBitExactAndResumable) {
  const auto config = small_case();

  // Unfaulted reference: one continuous 0 -> 12 run.
  Simulation reference(config);
  reference.initialize();
  run_until(reference, 12);

  SharedFs fs(8);
  CheckpointManager manager(fs, "run", delta_config(/*full_interval=*/4), 1);
  {
    Simulation sim(config);
    sim.initialize();
    run_until(sim, 4);
    manager.stage(0, sim);
    manager.commit();  // epoch 1: full @ 4
    run_until(sim, 8);
    manager.stage(0, sim);
    manager.commit();  // epoch 2: delta @ 8
  }
  ASSERT_EQ(manager.read_manifest(2)->kind, "delta");

  Simulation restarted(config);
  restarted.initialize();
  const RestartReport report = manager.restore(restarted);
  ASSERT_TRUE(report.recovered);
  EXPECT_EQ(report.epoch, 2u);
  EXPECT_EQ(report.step, 8u);

  run_until(restarted, 12);
  EXPECT_EQ(restarted.current_step(), reference.current_step());
  EXPECT_EQ(restarted.rng().state(), reference.rng().state());
  EXPECT_EQ(restarted.ionization_events(), reference.ionization_events());
  EXPECT_EQ(restarted.ionized_weight(), reference.ionized_weight());
  ASSERT_EQ(restarted.species_count(), reference.species_count());
  for (std::size_t s = 0; s < reference.species_count(); ++s) {
    const auto& a = restarted.species(s).particles;
    const auto& b = reference.species(s).particles;
    ASSERT_EQ(a.size(), b.size()) << "species " << s;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.x()[i], b.x()[i]);
      EXPECT_EQ(a.vx()[i], b.vx()[i]);
      EXPECT_EQ(a.w()[i], b.w()[i]);
    }
  }
}

TEST(CkptDelta, ShrinkRestoreFromDeltaChainPreservesPopulation) {
  SharedFs fs(8);
  const auto config = small_case();
  CheckpointManager manager(fs, "run", delta_config(/*full_interval=*/4), 4);

  std::vector<std::unique_ptr<Simulation>> old_sims;
  for (int r = 0; r < 4; ++r) {
    old_sims.push_back(std::make_unique<Simulation>(config, r, 4));
    old_sims.back()->initialize();
    run_until(*old_sims.back(), 8);
    manager.stage(r, *old_sims.back());
  }
  ASSERT_EQ(manager.commit(), 1u);  // full
  for (int r = 0; r < 4; ++r) manager.stage(r, *old_sims[r]);
  ASSERT_EQ(manager.commit(), 2u);  // delta: all blocks reference epoch 1
  ASSERT_EQ(manager.read_manifest(2)->kind, "delta");

  // Restore the delta epoch onto 3 survivors: the chain walk re-slices the
  // concatenated population contiguously.
  std::vector<std::unique_ptr<Simulation>> new_sims;
  for (int r = 0; r < 3; ++r) {
    new_sims.push_back(std::make_unique<Simulation>(config, r, 3));
    manager.restore_epoch(2, *new_sims.back());
    EXPECT_EQ(new_sims.back()->current_step(), 8u);
  }

  const std::size_t n_species = old_sims[0]->species_count();
  ASSERT_EQ(new_sims[0]->species_count(), n_species);
  for (std::size_t s = 0; s < n_species; ++s) {
    std::vector<double> old_x, new_x;
    for (const auto& sim : old_sims) {
      const auto& sp = sim->species(s);
      for (std::size_t i = 0; i < sp.particles.size(); ++i)
        old_x.push_back(sp.particles.x()[i]);
    }
    for (const auto& sim : new_sims) {
      const auto& sp = sim->species(s);
      for (std::size_t i = 0; i < sp.particles.size(); ++i)
        new_x.push_back(sp.particles.x()[i]);
    }
    EXPECT_EQ(old_x, new_x) << "species " << s;
  }
}

TEST(CkptDelta, RestoreReadsEachReferencedBlockExactlyOnce) {
  SharedFs fs(8);
  Simulation sim(small_case());
  sim.initialize();
  run_until(sim, 4);
  CheckpointManager manager(fs, "run", delta_config(/*full_interval=*/4), 1);
  manager.stage(0, sim);
  manager.commit();  // epoch 1: full
  manager.stage(0, sim);
  manager.commit();  // epoch 2: delta, all blocks in epoch 1

  const auto manifest = manager.read_manifest(2);
  ASSERT_TRUE(manifest.has_value());
  std::uint64_t nonempty_refs = 0;
  for (const BlockRef& ref : manifest->refs)
    if (ref.count > 0) ++nonempty_refs;
  ASSERT_GT(nonempty_refs, 0u);

  fs.clear_trace();
  Simulation restored(small_case());
  restored.initialize();
  manager.restore_epoch(2, restored);

  // Every fetched block is counted, and each referenced block is fetched
  // exactly once — the restore never re-reads or over-reads the chain.
  EXPECT_EQ(manager.stats().blocks_restored, nonempty_refs);

  // fsim read-byte accounting: per base-epoch data subfile, the bytes read
  // never exceed the file's size (each stored block is pread once), and
  // the payload read comes from the base epoch, not a full-container copy.
  std::map<std::string, std::uint64_t> read_by_file;
  for (const auto& op : fs.trace())
    if (op.kind == fsim::OpKind::read && op.file != fsim::kNoFile)
      read_by_file[fs.store().file_by_id(op.file).path] += op.bytes;
  std::uint64_t base_payload_read = 0;
  for (const auto& [path, bytes] : read_by_file) {
    if (path.find("epoch_1") == std::string::npos ||
        path.find("/data.") == std::string::npos)
      continue;
    EXPECT_LE(bytes, fs.store().file(path).size) << path;
    base_payload_read += bytes;
  }
  EXPECT_GT(base_payload_read, 0u);
  EXPECT_LE(base_payload_read, epoch_payload_bytes(fs, manager, 1));
}

// ---------------------------------------------------- retention & scrub ---

TEST(CkptManifest, GoldenDeltaManifestBytes) {
  // A fixed delta manifest, serialized as the manager writes MANIFEST
  // (to_json().dump(2)), compared byte for byte: a schema change shows up
  // as a changed golden next to the version constant, which must change
  // with it.
  EXPECT_EQ(kManifestVersion, 3);
  EpochManifest manifest;
  manifest.epoch = 3;
  manifest.step = 40;
  manifest.nranks = 2;
  manifest.engine = "bp4";
  manifest.kind = "delta";
  manifest.base_epochs = {1};
  manifest.refs.push_back({"ions/x", 1, 64, 64, 512, 0x0123456789ABCDEF, 1});
  EXPECT_EQ(manifest.to_json().dump(2), R"({
  "base_epochs": [
    1
  ],
  "engine": "bp4",
  "epoch": 3,
  "kind": "delta",
  "manifest_version": 3,
  "nranks": 2,
  "refs": [
    {
      "bytes": 512,
      "count": 64,
      "epoch": 1,
      "hash": "0x0123456789abcdef",
      "offset": 64,
      "rank": 1,
      "var": "ions/x"
    }
  ],
  "step": 40
})");
}

TEST(CkptManifest, OnlyTheCurrentVersionParses) {
  // One MANIFEST version: a manifest without "manifest_version" (or with
  // another one), or without a kind, is rejected rather than guessed at.
  const std::string fields =
      R"("epoch": 1, "step": 4, "engine": "bp4", "nranks": 1)";
  EXPECT_NO_THROW(EpochManifest::from_json(Json::parse(
      "{" + fields + R"(, "manifest_version": 3, "kind": "full"})")));
  EXPECT_THROW(EpochManifest::from_json(
                   Json::parse("{" + fields + R"(, "kind": "full"})")),
               FormatError);
  EXPECT_THROW(
      EpochManifest::from_json(Json::parse(
          "{" + fields + R"(, "manifest_version": 1, "kind": "full"})")),
      FormatError);
  EXPECT_THROW(
      EpochManifest::from_json(Json::parse(
          "{" + fields + R"(, "manifest_version": 2, "kind": "full"})")),
      FormatError);
  EXPECT_THROW(EpochManifest::from_json(
                   Json::parse("{" + fields + R"(, "manifest_version": 3})")),
               FormatError);
}

TEST(CkptManifest, NumbersAndHashesParseExactly) {
  // A MANIFEST field is read only when it spells its value exactly: a hash
  // is "0x" and sixteen hex digits, a count or rank a whole number inside
  // its field's range.  Each row swaps one field of a valid delta manifest.
  EpochManifest manifest;
  manifest.epoch = 3;
  manifest.step = 40;
  manifest.nranks = 2;
  manifest.kind = "delta";
  manifest.base_epochs = {1};
  manifest.refs.push_back({"ions/x", 1, 64, 64, 512, 0x0123456789ABCDEF, 1});
  const Json valid = manifest.to_json();
  ASSERT_EQ(EpochManifest::from_json(valid).refs.at(0).hash,
            0x0123456789ABCDEFull);

  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    const char* field;
    Json value;
  } rows[] = {
      {"hash", Json("0x12zz")},
      {"hash", Json("-1")},
      {"hash", Json(" 0x1")},
      {"hash", Json("0x")},
      {"hash", Json("123")},
      {"hash", Json(" 0x0123456789abcdef")},
      {"hash", Json("0x0123456789abcdef0")},
      {"hash", Json("0x-123456789abcdef")},
      {"count", Json(1.5)},
      {"count", Json(1e30)},
      {"count", Json(18446744073709551616.0)},  // 2^64
      {"count", Json(-1)},
      {"count", Json(inf)},
      {"count", Json(std::numeric_limits<double>::quiet_NaN())},
      {"rank", Json(9.3e18)},  // past INT64_MAX, read through as_int
      {"rank", Json(4294967297.0)},  // 2^32 + 1: an int64 but not an int
      {"rank", Json(-inf)},
      {"rank", Json(0.5)},
  };
  for (const auto& row : rows) {
    Json doc = valid;
    doc["refs"][std::size_t{0}][row.field] = row.value;
    EXPECT_THROW(EpochManifest::from_json(doc), Error)
        << row.field << " = " << row.value.dump();
  }
}

TEST(CkptRobust, PruneKeepsBaseEpochsOfRetainedDeltas) {
  SharedFs fs(8);
  auto config = small_case();
  config.last_step = 100;
  Simulation sim(config);
  sim.initialize();
  run_until(sim, 4);
  CheckpointManager manager(fs, "run",
                            delta_config(/*full_interval=*/3, /*retain=*/1),
                            1);
  manager.stage(0, sim);
  manager.commit();  // epoch 1: full
  manager.stage(0, sim);
  manager.commit();  // epoch 2: delta -> base 1
  manager.stage(0, sim);
  manager.commit();  // epoch 3: delta -> base 1

  // retain=1 keeps epoch 3, whose chain pins base epoch 1; epoch 2 is
  // prunable.  The base epoch outlives the retention window because a
  // retained delta still references it.
  EXPECT_EQ(manager.committed_epochs(), (std::vector<std::uint64_t>{1, 3}));
  EXPECT_GE(manager.stats().epochs_pruned, 1u);

  // The retained chain is intact and restorable.
  Simulation restored(config);
  restored.initialize();
  manager.restore_epoch(3, restored);
  EXPECT_EQ(restored.current_step(), 4u);
  EXPECT_EQ(restored.rng().state(), sim.rng().state());

  // The next commit is a full epoch (interval 3), which unpins the old
  // base: everything but the new epoch is pruned.
  run_until(sim, 8);
  manager.stage(0, sim);
  manager.commit();  // epoch 4: full
  EXPECT_EQ(manager.committed_epochs(), (std::vector<std::uint64_t>{4}));
}

TEST(CkptRobust, RestartFallsBackChainByChain) {
  SharedFs fs(8);
  const auto config = small_case();
  Simulation sim(config);
  sim.initialize();
  run_until(sim, 4);
  CheckpointManager manager(fs, "run",
                            delta_config(/*full_interval=*/4, /*retain=*/8),
                            1);
  manager.stage(0, sim);
  manager.commit();  // epoch 1: full @ 4
  manager.stage(0, sim);
  manager.commit();  // epoch 2: delta @ 4 -> base 1
  run_until(sim, 8);
  manager.stage(0, sim);
  manager.commit();  // epoch 3: delta @ 8 (own blocks + refs into 1)

  // Rot epoch 3's own payload after its validated commit: the newest chain
  // fails verification, epoch 2's chain (entirely epoch 1's bytes) still
  // verifies, and restart lands on it.
  bool corrupted = false;
  for (const auto* node :
       fs.store().list_recursive(manager.epoch_dir(3))) {
    if (node->path.find("/data.") == std::string::npos || node->size == 0)
      continue;
    fs.store().file(node->path).data[0] ^= 0x10;
    corrupted = true;
    break;
  }
  ASSERT_TRUE(corrupted);

  Simulation restarted(config);
  restarted.initialize();
  const RestartReport report = manager.restore(restarted);
  ASSERT_TRUE(report.recovered);
  EXPECT_EQ(report.epoch, 2u);
  EXPECT_EQ(report.step, 4u);
  EXPECT_EQ(report.rejected, (std::vector<std::uint64_t>{3}));
  // The fallback epoch is sim@4; advancing it replays the same trajectory.
  run_until(restarted, 8);
  EXPECT_EQ(restarted.rng().state(), sim.rng().state());
  EXPECT_EQ(restarted.ionization_events(), sim.ionization_events());
}

TEST(CkptRobust, CorruptBaseBlockBreaksEveryDependentChain) {
  SharedFs fs(8);
  const auto config = small_case();
  Simulation sim(config);
  sim.initialize();
  run_until(sim, 4);
  CheckpointManager manager(fs, "run",
                            delta_config(/*full_interval=*/4, /*retain=*/8),
                            1);
  manager.stage(0, sim);
  manager.commit();  // epoch 1: full
  manager.stage(0, sim);
  manager.commit();  // epoch 2: delta -> base 1

  // Rot the BASE payload: epoch 2's own container is pristine, but its
  // chain resolves through epoch 1, so verification of BOTH must fail.
  bool corrupted = false;
  for (const auto* node :
       fs.store().list_recursive(manager.epoch_dir(1))) {
    if (node->path.find("/data.") == std::string::npos || node->size == 0)
      continue;
    fs.store().file(node->path).data[0] ^= 0x10;
    corrupted = true;
    break;
  }
  ASSERT_TRUE(corrupted);

  const ScrubReport scrubbed = manager.scrub();
  EXPECT_EQ(scrubbed.corrupt_epochs, (std::vector<std::uint64_t>{1, 2}));

  Simulation restarted(config);
  restarted.initialize();
  const RestartReport report = manager.restore(restarted);
  EXPECT_FALSE(report.recovered);
  EXPECT_EQ(report.rejected, (std::vector<std::uint64_t>{2, 1}));
}

TEST(CkptRobust, ReferencesThatDoNotTileAVariableAreRejected) {
  // Two ranks, a full epoch and a delta epoch of the same state: every
  // block of epoch 2 is a reference into epoch 1.  Moving rank 1's
  // position/x reference onto rank 0's range keeps the element total (an
  // overlap and a gap of equal size) but leaves half the array unstored.
  SharedFs fs(8);
  const auto config = small_case();
  CheckpointManager manager(fs, "run", delta_config(/*full_interval=*/4), 2);
  std::vector<std::unique_ptr<Simulation>> sims;
  for (int r = 0; r < 2; ++r) {
    sims.push_back(std::make_unique<Simulation>(config, r, 2));
    sims.back()->initialize();
    run_until(*sims.back(), 4);
  }
  for (int epoch = 1; epoch <= 2; ++epoch) {
    for (int r = 0; r < 2; ++r) manager.stage(r, *sims[std::size_t(r)]);
    manager.commit();
  }
  auto manifest = manager.read_manifest(2);
  ASSERT_TRUE(manifest.has_value());
  ASSERT_EQ(manifest->kind, "delta");
  bool moved = false;
  for (BlockRef& ref : manifest->refs) {
    if (ref.var != "particles/e/position/x" || ref.rank != 1) continue;
    ASSERT_GT(ref.offset, 0u);
    ref.offset = 0;
    moved = true;
  }
  ASSERT_TRUE(moved);
  const std::string path = manager.epoch_dir(2) + "/MANIFEST";
  const std::string text = manifest->to_json().dump(2) + "\n";
  FsClient io(fs, 0);
  io.unlink(path);
  io.write_file(path, std::span<const std::uint8_t>(
                          reinterpret_cast<const std::uint8_t*>(text.data()),
                          text.size()));

  const ScrubReport scrubbed = manager.scrub();
  EXPECT_EQ(scrubbed.corrupt_epochs, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(manager.newest_verifying_epoch(), std::optional<std::uint64_t>(1));
  Simulation restored(config);
  EXPECT_THROW(manager.restore_epoch(2, restored), FormatError);
}

TEST(CkptRobust, CrashDuringPruneLeavesRestorableStateAndScrubCleans) {
  SharedFs fs(8);
  const auto config = small_case();
  Simulation sim(config);
  sim.initialize();
  run_until(sim, 4);
  {
    CheckpointManager manager(fs, "run", delta_config(1, /*retain=*/8), 1);
    manager.stage(0, sim);
    manager.commit();  // epoch 1
    run_until(sim, 8);
    manager.stage(0, sim);
    manager.commit();  // epoch 2
  }
  // Simulate a crash inside the prune window: remove_epoch_files unlinks
  // the MANIFEST first, so the on-disk residue of the crash is an epoch
  // directory with data files but no MANIFEST.
  FsClient io(fs, 0);
  io.unlink("run/resil/epoch_1/MANIFEST");
  ASSERT_FALSE(fs.store().list_recursive("run/resil/epoch_1").empty());

  // A fresh manager sees only the committed epoch, resumes numbering after
  // it, and restores from it.
  CheckpointManager manager(fs, "run", delta_config(1, /*retain=*/8), 1);
  EXPECT_EQ(manager.committed_epochs(), (std::vector<std::uint64_t>{2}));
  Simulation restored(config);
  restored.initialize();
  const RestartReport report = manager.restore(restored);
  ASSERT_TRUE(report.recovered);
  EXPECT_EQ(report.epoch, 2u);
  EXPECT_EQ(report.step, 8u);

  // scrub() clears the orphaned files of the half-pruned epoch.
  const ScrubReport scrubbed = manager.scrub();
  EXPECT_EQ(scrubbed.orphans_cleaned, 1);
  EXPECT_TRUE(fs.store().list_recursive("run/resil/epoch_1").empty());
  EXPECT_EQ(scrubbed.corrupt_epochs.size(), 0u);

  // The next commit does not collide with the cleaned epoch.
  manager.stage(0, restored);
  EXPECT_EQ(manager.commit(), 3u);
}

// --------------------------------------------------------------- clock ---

/// What one full -> delta -> chain restore -> scrub cycle leaves behind on a
/// fresh file system.
struct CheckpointCycle {
  ResilienceStats stats;
  std::string resilience_text;  // resilience.json as written
  Json resilience_json;
  std::vector<std::string> unmodelled_cpu_tags;
  double makespan = 0.0;  // simulated seconds of the trace's replay
};

CheckpointCycle run_checkpoint_cycle() {
  SharedFs fs(8);
  Simulation sim(small_case());
  sim.initialize();
  run_until(sim, 4);
  CheckpointManager manager(fs, "run", delta_config(/*full_interval=*/4), 1);
  manager.stage(0, sim);
  EXPECT_EQ(manager.commit(), 1u);  // full
  manager.stage(0, sim);
  EXPECT_EQ(manager.commit(), 2u);  // delta
  Simulation restored(small_case());
  restored.initialize();
  EXPECT_EQ(manager.restore(restored).epoch, 2u);  // through the chain
  EXPECT_TRUE(manager.scrub().corrupt_epochs.empty());

  // Written before the replay: resilience.json holds counts only, so its
  // bytes, and the trace that writes them, are a function of the seed.
  manager.write_stats_json();
  CheckpointCycle cycle;
  cycle.stats = manager.stats();
  const auto bytes = FsClient(fs, 0).read_all("run/resil/resilience.json");
  cycle.resilience_text.assign(reinterpret_cast<const char*>(bytes.data()),
                               bytes.size());
  cycle.resilience_json = Json::parse(cycle.resilience_text);
  cycle.unmodelled_cpu_tags = testkit::unmodelled_cpu_tags(fs);
  auto profile = fsim::dardel();
  profile.ranks_per_node = 4;
  cycle.makespan =
      fsim::replay_trace(profile, fs.store(), fs.trace(), 1).makespan;
  return cycle;
}

TEST(CkptClock, CountsLiveInStatsAndReplayIgnoresTheHostClock) {
  const CheckpointCycle a = run_checkpoint_cycle();

  // The delta epoch, its dedup and the chain restore are counted once, in
  // the manager's stats, and resilience.json reports those same numbers.
  EXPECT_EQ(a.stats.delta_epochs, 1u);
  EXPECT_GT(a.stats.dedup_bytes_saved, 0u);
  EXPECT_GT(a.stats.blocks_restored, 0u);
  EXPECT_EQ(a.resilience_json.at("delta_epochs").as_uint(),
            a.stats.delta_epochs);
  EXPECT_EQ(a.resilience_json.at("dedup_bytes_saved").as_uint(),
            a.stats.dedup_bytes_saved);
  EXPECT_EQ(a.resilience_json.at("blocks_restored").as_uint(),
            a.stats.blocks_restored);

  // None of them rides the trace: every cpu op is modelled cost.
  EXPECT_EQ(a.unmodelled_cpu_tags, std::vector<std::string>{});

  // So neither the simulated clock nor resilience.json depends on how fast
  // the host restored.
  const CheckpointCycle b = run_checkpoint_cycle();
  EXPECT_GT(a.makespan, 0.0);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.resilience_text, b.resilience_text);
}

}  // namespace
}  // namespace bitio::resil
