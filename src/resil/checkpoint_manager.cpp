#include "resil/checkpoint_manager.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <limits>
#include <set>

#include "bp/reader.hpp"
#include "util/error.hpp"

namespace bitio::resil {

using core::RankCheckpoint;

namespace {

/// Content hashes are 64-bit; JSON numbers are doubles.  Hex strings keep
/// every bit through the manifest round trip.
std::string hash_hex(std::uint64_t hash) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

/// The exact inverse of hash_hex: "0x" and sixteen hex digits, nothing
/// else (no sign, no space, no shorter or longer spelling).
std::uint64_t hash_from_hex(const std::string& text) {
  std::uint64_t hash = 0;
  if (text.size() == 18 && text.compare(0, 2, "0x") == 0) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data() + 2, end, hash, 16);
    if (ec == std::errc() && ptr == end) return hash;
  }
  throw FormatError("MANIFEST: bad block hash '" + text + "'");
}

/// A rank or rank count: an integer that fits an int, not one truncated
/// into it.
int int_from_json(const Json& value, const char* field) {
  const std::int64_t n = value.as_int();
  if (n < std::numeric_limits<int>::min() ||
      n > std::numeric_limits<int>::max())
    throw FormatError(std::string("MANIFEST: ") + field + " out of range");
  return int(n);
}

/// Parse the epoch number out of ".../epoch_<k>/MANIFEST"; nullopt for
/// paths that are not committed-epoch manifests.
std::optional<std::uint64_t> manifest_epoch(const std::string& path) {
  const std::string tail = "/MANIFEST";
  if (path.size() <= tail.size() ||
      path.compare(path.size() - tail.size(), tail.size(), tail) != 0)
    return std::nullopt;
  const std::string dir = fsim::base_name(path.substr(0, path.size() - tail.size()));
  const std::string prefix = "epoch_";
  if (dir.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  std::uint64_t epoch = 0;
  for (std::size_t i = prefix.size(); i < dir.size(); ++i) {
    if (dir[i] < '0' || dir[i] > '9') return std::nullopt;
    epoch = epoch * 10 + std::uint64_t(dir[i] - '0');
  }
  return epoch;
}

}  // namespace

// GCC 12's -Wmaybe-uninitialized misfires on the Json variant move inside
// vector growth below (the value is fully constructed); scoped so the
// strict -Werror build stays clean without losing the warning elsewhere.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

Json EpochManifest::to_json() const {
  JsonObject o;
  o["manifest_version"] = Json(std::uint64_t(kManifestVersion));
  o["epoch"] = Json(epoch);
  o["step"] = Json(step);
  o["engine"] = Json(engine);
  o["nranks"] = Json(nranks);
  o["kind"] = Json(kind);
  if (!base_epochs.empty()) {
    JsonArray bases;
    for (const std::uint64_t base : base_epochs) bases.push_back(Json(base));
    o["base_epochs"] = Json(std::move(bases));
  }
  if (!refs.empty()) {
    JsonArray array;
    for (const BlockRef& ref : refs) {
      JsonObject r;
      r["var"] = Json(ref.var);
      r["rank"] = Json(ref.rank);
      r["offset"] = Json(ref.offset);
      r["count"] = Json(ref.count);
      r["bytes"] = Json(ref.bytes);
      r["hash"] = Json(hash_hex(ref.hash));
      r["epoch"] = Json(ref.epoch);
      array.push_back(Json(std::move(r)));
    }
    o["refs"] = Json(std::move(array));
  }
  return Json(std::move(o));
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

EpochManifest EpochManifest::from_json(const Json& doc) {
  EpochManifest m;
  // One MANIFEST version: an older or newer one may differ in fields that
  // are load-bearing, so neither is guessed at.
  if (!doc.contains("manifest_version") ||
      doc.at("manifest_version").as_uint() != std::uint64_t(kManifestVersion))
    throw FormatError("MANIFEST: manifest_version is not " +
                      std::to_string(kManifestVersion));
  if (!doc.contains("kind"))
    throw FormatError("MANIFEST: no epoch kind");
  m.epoch = doc.at("epoch").as_uint();
  m.step = doc.at("step").as_uint();
  m.engine = doc.at("engine").as_string();
  m.nranks = int_from_json(doc.at("nranks"), "nranks");
  m.kind = doc.at("kind").as_string();
  if (m.kind != "full" && m.kind != "delta")
    throw FormatError("MANIFEST: unknown epoch kind '" + m.kind + "'");
  if (doc.contains("base_epochs"))
    for (const Json& base : doc.at("base_epochs").as_array())
      m.base_epochs.push_back(base.as_uint());
  if (doc.contains("refs")) {
    for (const Json& entry : doc.at("refs").as_array()) {
      BlockRef ref;
      ref.var = entry.at("var").as_string();
      ref.rank = int_from_json(entry.at("rank"), "rank");
      ref.offset = entry.at("offset").as_uint();
      ref.count = entry.at("count").as_uint();
      ref.bytes = entry.at("bytes").as_uint();
      ref.hash = hash_from_hex(entry.at("hash").as_string());
      ref.epoch = entry.at("epoch").as_uint();
      m.refs.push_back(std::move(ref));
    }
  }
  return m;
}

CheckpointManager::CheckpointManager(fsim::SharedFs& fs, std::string run_dir,
                                     core::Bit1IoConfig config, int nranks)
    : fs_(fs),
      run_dir_(std::move(run_dir)),
      config_(std::move(config)),
      nranks_(nranks) {
  if (nranks_ <= 0)
    throw UsageError("CheckpointManager: nranks must be positive");
  config_.validate();
  fsim::FsClient root(fs_, 0);
  root.mkdir(resil_dir());
  staged_.resize(std::size_t(nranks_));
  // Resume epoch numbering after whatever a previous incarnation committed.
  const auto epochs = committed_epochs();
  if (!epochs.empty()) next_epoch_ = epochs.back() + 1;
}

std::string CheckpointManager::epoch_dir(std::uint64_t epoch) const {
  return resil_dir() + "/epoch_" + std::to_string(epoch);
}

std::string CheckpointManager::series_path(std::uint64_t epoch) const {
  return epoch_dir(epoch) + "/dmp_file." + config_.engine;
}

std::string CheckpointManager::manifest_path(std::uint64_t epoch) const {
  return epoch_dir(epoch) + "/MANIFEST";
}

void CheckpointManager::stage(int rank, const picmc::Simulation& sim) {
  if (rank < 0 || rank >= nranks_)
    throw UsageError("CheckpointManager: rank out of range");
  // First staging call fixes the species layout; later calls must agree.
  std::vector<std::string> names;
  for (std::size_t s = 0; s < sim.species_count(); ++s)
    names.push_back(sim.species(s).config.name);
  auto staged = core::capture_rank_state(sim);
  util::MutexLock lock(stage_mutex_);
  if (species_names_.empty())
    species_names_ = names;
  else if (names != species_names_)
    throw UsageError("CheckpointManager: inconsistent species layout");
  staged_[std::size_t(rank)] = std::move(staged);
}

std::uint64_t CheckpointManager::commit() {
  // Held across the whole commit: try_commit_epoch reads the staging table
  // and a straggler stage() must not rewrite a slot mid-epoch.
  util::MutexLock lock(stage_mutex_);
  bool any = false;
  std::uint64_t step = 0;
  for (const auto& staged : staged_) {
    any |= staged.present;
    step = std::max(step, staged.step);
  }
  if (!any) throw UsageError("CheckpointManager: no staged checkpoint");

  // Full or delta?  A delta needs a committed base to diff against and is
  // bounded by checkpoint_full_interval: a fresh incarnation and every Nth
  // epoch write self-contained full dumps.
  const auto blocks = core::checkpoint_blocks(staged_, species_names_,
                                              nranks_);
  const bool want_delta =
      config_.checkpoint_full_interval > 1 && !base_map_.empty() &&
      commits_since_full_ + 1 < std::uint64_t(config_.checkpoint_full_interval);
  const std::vector<BlockRef> refs =
      want_delta ? plan_refs(blocks) : std::vector<BlockRef>{};
  const std::string kind = want_delta ? "delta" : "full";

  const std::uint64_t epoch = next_epoch_++;
  std::optional<ChunkCrcs> committed;
  for (int attempt = 0; attempt < kMaxCommitAttempts && !committed;
       ++attempt) {
    if (attempt > 0) {
      // Bounded exponential backoff before the retry, charged to rank 0's
      // timeline so the cost shows up in the replay like a real sleep.
      stats_.write_retries += 1;
      fsim::FsClient(fs_, 0).charge_cpu(
          kBackoffBaseSeconds * double(1ull << (attempt - 1)),
          fsim::TraceTag::backoff);
    }
    try {
      committed = try_commit_epoch(epoch, step, kind, refs);
    } catch (const IoError&) {
      // Transient injected failure (EIO/ENOSPC) mid-write: tear the partial
      // epoch down and go around again.
      stats_.transient_faults += 1;
      remove_epoch_files(epoch, false);
    }
  }
  if (!committed)
    throw IoError("CheckpointManager: epoch " + std::to_string(epoch) +
                  " failed to commit after " +
                  std::to_string(kMaxCommitAttempts) + " attempts");

  stats_.epochs_written += 1;
  if (want_delta) {
    stats_.delta_epochs += 1;
    for (const BlockRef& ref : refs) stats_.dedup_bytes_saved += ref.bytes;
  }
  commits_since_full_ = want_delta ? commits_since_full_ + 1 : 0;

  // The committed epoch becomes the new base for every block it stored,
  // pinned with the CRC its verify pass read; referenced blocks keep
  // pointing at the epoch that stores their bytes.  An empty block stores
  // no chunk, so it has no base to reference.
  std::set<BlockKey> skipped;
  for (const BlockRef& ref : refs) skipped.insert({ref.var, ref.rank});
  std::map<BlockKey, BaseBlock> next_map;
  for (const auto& block : blocks) {
    const BlockKey key{block.var, block.rank};
    if (skipped.count(key)) {
      next_map[key] = base_map_.at(key);
    } else if (const auto crc = committed->find(key);
               crc != committed->end()) {
      next_map[key] = BaseBlock{BlockRef{block, epoch}, crc->second};
    }
  }
  base_map_ = std::move(next_map);

  for (auto& staged : staged_) staged = RankCheckpoint{};
  apply_retention();
  return epoch;
}

std::vector<BlockRef> CheckpointManager::plan_refs(
    const std::vector<core::CheckpointBlock>& blocks) {
  // A block dedups when its content hash and count match the last
  // committed copy AND that copy is still committed and its stored chunk
  // still carries the CRC pinned at commit — a ref the chain could not
  // resolve must be written instead, never committed.
  std::vector<BlockRef> refs;
  std::set<std::uint64_t> live;
  for (const std::uint64_t epoch : committed_epochs()) live.insert(epoch);
  std::map<std::uint64_t, std::unique_ptr<bp::Reader>> readers;
  for (const auto& block : blocks) {
    const auto it = base_map_.find({block.var, block.rank});
    if (it == base_map_.end()) continue;
    const BlockRef& base = it->second.ref;
    if (base.hash != block.hash || base.count != block.count) continue;
    if (!live.count(base.epoch)) continue;
    auto reader_it = readers.find(base.epoch);
    if (reader_it == readers.end()) {
      try {
        reader_it = readers
                        .emplace(base.epoch,
                                 std::make_unique<bp::Reader>(bp::Reader::open(
                                     fs_, 0, series_path(base.epoch))))
                        .first;
      } catch (const Error&) {
        continue;  // base container unreadable: write the block
      }
    }
    const bp::ChunkRecord* chunk = reader_it->second->find_chunk(
        0, block.var, std::uint32_t(block.rank));
    if (!chunk || !chunk->has_crc || chunk->crc32c != it->second.crc)
      continue;
    refs.push_back(BlockRef{block, base.epoch});
  }
  return refs;
}

std::optional<CheckpointManager::ChunkCrcs>
CheckpointManager::try_commit_epoch(std::uint64_t epoch, std::uint64_t step,
                                    const std::string& kind,
                                    const std::vector<BlockRef>& refs) {
  fsim::FsClient root(fs_, 0);
  root.mkdir(epoch_dir(epoch));
  std::set<std::pair<std::string, int>> skip;
  for (const BlockRef& ref : refs) skip.insert({ref.var, ref.rank});
  {
    // Shared-file aggregation, no profiling: the epochs are many
    // short-lived containers, so profiling stays on the diagnostics series.
    pmd::Series series(
        fs_, series_path(epoch), pmd::Access::create, nranks_,
        config_.engine_config(config_.checkpoint_aggregators, false)
            .adios2_toml());
    core::write_checkpoint_iteration(
        series, staged_, species_names_, nranks_,
        [&skip](const std::string& var, int rank) {
          return skip.count({var, rank}) == 0;
        });
    series.close();
  }

  // Validate before committing: re-open the container and CRC-verify every
  // chunk (catches silent bit flips and torn writes the write path did not
  // observe).  A corrupt epoch is torn down and rewritten by the caller.
  // The CRCs just verified are what later delta commits check a base
  // chunk against.
  std::uint64_t bad = 0;
  ChunkCrcs crcs;
  try {
    bp::Reader reader = bp::Reader::open(fs_, 0, series_path(epoch));
    for (const auto& verdict : reader.verify())
      if (verdict.status == bp::Reader::ChunkVerdict::Status::short_read ||
          verdict.status == bp::Reader::ChunkVerdict::Status::crc_mismatch)
        bad += 1;
    if (reader.has_step(0))
      for (const auto& var : reader.step(0).variables)
        for (const auto& chunk : var.chunks)
          if (chunk.has_crc)
            crcs[{var.name, int(chunk.writer_rank)}] = chunk.crc32c;
  } catch (const FormatError&) {
    bad += 1;  // corrupt metadata: the container does not even open
  }
  if (bad > 0) {
    stats_.corrupt_chunks_detected += bad;
    remove_epoch_files(epoch, false);
    return std::nullopt;
  }

  // Atomic commit point: MANIFEST appears fully written or not at all.
  // For a delta epoch it also IS the chain: the references into base
  // epochs commit together with the epoch, in the same rename.
  EpochManifest manifest;
  manifest.epoch = epoch;
  manifest.step = step;
  manifest.engine = config_.engine;
  manifest.nranks = nranks_;
  manifest.kind = kind;
  manifest.refs = refs;
  std::set<std::uint64_t> bases;
  for (const BlockRef& ref : refs) bases.insert(ref.epoch);
  manifest.base_epochs.assign(bases.begin(), bases.end());
  const std::string text = manifest.to_json().dump(2) + "\n";
  const std::string tmp = manifest_path(epoch) + ".tmp";
  root.write_file(tmp, std::span<const std::uint8_t>(
                           reinterpret_cast<const std::uint8_t*>(text.data()),
                           text.size()));
  root.rename(tmp, manifest_path(epoch));
  return crcs;
}

void CheckpointManager::remove_epoch_files(std::uint64_t epoch,
                                           bool manifest_first) {
  fsim::FsClient root(fs_, 0);
  const std::string dir = epoch_dir(epoch);
  if (!fs_.store().dir_exists(dir)) return;
  // Un-commit first: once MANIFEST is gone a crash mid-removal leaves an
  // uncommitted (ignored) epoch instead of a committed-but-gutted one.
  if (manifest_first && fs_.store().file_exists(manifest_path(epoch)))
    root.unlink(manifest_path(epoch));
  std::vector<std::string> paths;
  for (const auto* node : fs_.store().list_recursive(dir))
    paths.push_back(node->path);
  for (const auto& path : paths)
    if (fs_.store().file_exists(path)) root.unlink(path);
}

void CheckpointManager::apply_retention() {
  const auto epochs = committed_epochs();
  const std::size_t retain = std::size_t(config_.checkpoint_retain);
  if (epochs.size() <= retain) return;
  // Keep the newest `retain` epochs — and every base epoch a kept delta
  // still references: pruning a base would break a retained chain.  Refs
  // point one hop at the storing epoch, but the closure runs to a fixpoint
  // anyway; the full interval bounds how many extra epochs survive.
  std::set<std::uint64_t> keep(epochs.end() - std::ptrdiff_t(retain),
                               epochs.end());
  bool grew = true;
  while (grew) {
    grew = false;
    for (const std::uint64_t epoch : std::vector<std::uint64_t>(keep.begin(),
                                                                keep.end())) {
      const auto manifest = read_manifest(epoch);
      if (!manifest) continue;
      for (const std::uint64_t base : manifest->base_epochs)
        grew |= keep.insert(base).second;
    }
  }
  for (const std::uint64_t epoch : epochs) {
    if (keep.count(epoch)) continue;
    remove_epoch_files(epoch, true);
    stats_.epochs_pruned += 1;
  }
}

std::vector<std::uint64_t> CheckpointManager::committed_epochs() const {
  std::vector<std::uint64_t> epochs;
  if (!fs_.store().dir_exists(resil_dir())) return epochs;
  for (const auto* node : fs_.store().list_recursive(resil_dir()))
    if (const auto epoch = manifest_epoch(node->path))
      epochs.push_back(*epoch);
  std::sort(epochs.begin(), epochs.end());
  return epochs;
}

std::optional<EpochManifest> CheckpointManager::read_manifest(
    std::uint64_t epoch) const {
  if (!fs_.store().file_exists(manifest_path(epoch))) return std::nullopt;
  try {
    fsim::FsClient root(fs_, 0);
    const auto bytes = root.read_all(manifest_path(epoch));
    const std::string text(reinterpret_cast<const char*>(bytes.data()),
                           bytes.size());
    return EpochManifest::from_json(Json::parse(text));
  } catch (const Error&) {
    return std::nullopt;  // torn or malformed: the epoch does not verify
  }
}

std::uint64_t CheckpointManager::chain_bad_chunks(std::uint64_t epoch) {
  const auto manifest = read_manifest(epoch);
  if (!manifest) return 1;
  // A reference into an epoch that is not committed (pruned, or never
  // renamed) is a broken link whatever its bytes say: scrub reclaims such
  // residue.
  std::uint64_t broken = 0;
  for (const BlockRef& ref : manifest->refs)
    if (!fs_.store().file_exists(manifest_path(ref.epoch))) broken += 1;
  if (broken > 0) return broken;
  try {
    return open_epoch(*manifest).verify();
  } catch (const Error&) {
    return 1;  // the container does not open, or its blocks do not tile
  }
}

core::CheckpointSource CheckpointManager::open_epoch(
    const EpochManifest& manifest) {
  return core::CheckpointSource(
      fs_, series_path(manifest.epoch), manifest.refs,
      [this](std::uint64_t base) { return series_path(base); });
}

void CheckpointManager::restore_via_chain(std::uint64_t epoch,
                                          picmc::Simulation& sim,
                                          bool repartition) {
  const auto manifest = read_manifest(epoch);
  if (!manifest)
    throw UsageError("CheckpointManager: epoch " + std::to_string(epoch) +
                     " is not committed");
  core::CheckpointSource source = open_epoch(*manifest);
  if (repartition)
    core::restore_repartitioned(source, sim);
  else
    core::restore_from_source(source, sim);
  util::MutexLock lock(stage_mutex_);
  stats_.blocks_restored += source.blocks_read();
}

RestartReport CheckpointManager::restore(picmc::Simulation& sim) {
  RestartReport report;
  auto epochs = committed_epochs();
  for (auto it = epochs.rbegin(); it != epochs.rend(); ++it) {
    const std::uint64_t epoch = *it;
    report.epochs_tried += 1;
    const std::uint64_t bad = chain_bad_chunks(epoch);
    if (bad > 0) {
      stats_.corrupt_chunks_detected += bad;
      stats_.restore_fallbacks += 1;
      report.rejected.push_back(epoch);
      continue;
    }
    try {
      restore_via_chain(epoch, sim, /*repartition=*/false);
    } catch (const Error&) {
      // Every chunk verified, so this is a schema-level problem (e.g. a
      // checkpoint from a different communicator size); fall back anyway.
      stats_.restore_fallbacks += 1;
      report.rejected.push_back(epoch);
      continue;
    }
    report.recovered = true;
    report.epoch = epoch;
    report.step = sim.current_step();
    break;
  }
  return report;
}

std::optional<std::uint64_t> CheckpointManager::newest_verifying_epoch() {
  auto epochs = committed_epochs();
  for (auto it = epochs.rbegin(); it != epochs.rend(); ++it) {
    const std::uint64_t epoch = *it;
    const std::uint64_t bad = chain_bad_chunks(epoch);
    if (bad > 0) {
      stats_.corrupt_chunks_detected += bad;
      stats_.restore_fallbacks += 1;
      continue;
    }
    return epoch;
  }
  return std::nullopt;
}

void CheckpointManager::restore_epoch(std::uint64_t epoch,
                                      picmc::Simulation& sim) {
  restore_via_chain(epoch, sim, /*repartition=*/true);
}

void CheckpointManager::set_recovery_totals(std::uint64_t recoveries,
                                            std::uint64_t degradations,
                                            double t_recovery_s) {
  stats_.recoveries = recoveries;
  stats_.degradations = degradations;
  stats_.t_recovery_s = t_recovery_s;
}

ScrubReport CheckpointManager::scrub() {
  ScrubReport report;
  std::set<std::uint64_t> committed;
  for (const std::uint64_t epoch : committed_epochs()) {
    committed.insert(epoch);
    report.epochs_scanned += 1;
    const std::uint64_t bad = chain_bad_chunks(epoch);
    if (bad > 0) {
      report.corrupt_epochs.push_back(epoch);
      report.corrupt_chunks += bad;
      stats_.corrupt_chunks_detected += bad;
    } else {
      report.epochs_ok += 1;
    }
  }

  // Orphan cleanup: an epoch_<k> directory holding files but no MANIFEST
  // is dead weight — the residue of a crash between the prune's MANIFEST
  // unlink and its file unlinks, or of a commit that never renamed.  Both
  // are invisible to restore (no MANIFEST, no epoch); reclaim the bytes.
  if (fs_.store().dir_exists(resil_dir())) {
    std::set<std::uint64_t> orphans;
    const std::string prefix = resil_dir() + "/epoch_";
    for (const auto* node : fs_.store().list_recursive(resil_dir())) {
      if (node->path.compare(0, prefix.size(), prefix) != 0) continue;
      std::uint64_t epoch = 0;
      std::size_t i = prefix.size();
      for (; i < node->path.size() && node->path[i] >= '0' &&
             node->path[i] <= '9';
           ++i)
        epoch = epoch * 10 + std::uint64_t(node->path[i] - '0');
      if (i == prefix.size() || i == node->path.size() ||
          node->path[i] != '/')
        continue;
      if (!committed.count(epoch)) orphans.insert(epoch);
    }
    for (const std::uint64_t epoch : orphans) {
      remove_epoch_files(epoch, true);
      report.orphans_cleaned += 1;
    }
  }
  return report;
}

Json CheckpointManager::stats_json() const {
  JsonObject o;
  o["epochs_written"] = Json(stats_.epochs_written);
  o["write_retries"] = Json(stats_.write_retries);
  o["transient_faults"] = Json(stats_.transient_faults);
  o["corrupt_chunks_detected"] = Json(stats_.corrupt_chunks_detected);
  o["restore_fallbacks"] = Json(stats_.restore_fallbacks);
  o["epochs_pruned"] = Json(stats_.epochs_pruned);
  o["recoveries"] = Json(stats_.recoveries);
  o["degradations"] = Json(stats_.degradations);
  o["delta_epochs"] = Json(stats_.delta_epochs);
  o["dedup_bytes_saved"] = Json(stats_.dedup_bytes_saved);
  o["blocks_restored"] = Json(stats_.blocks_restored);
  o["faults_injected_total"] = Json(fs_.injected_fault_count());
  o["retained_epochs"] = Json(std::uint64_t(committed_epochs().size()));
  return Json(std::move(o));
}

void CheckpointManager::write_stats_json() {
  const std::string text = stats_json().dump(2) + "\n";
  fsim::FsClient root(fs_, 0);
  const int fd = root.open(resil_dir() + "/resilience.json",
                           fsim::OpenMode::create_or_truncate);
  root.write(fd, std::span<const std::uint8_t>(
                     reinterpret_cast<const std::uint8_t*>(text.data()),
                     text.size()));
  root.close(fd);
}

// -- ResilientSink -----------------------------------------------------------

ResilientSink::ResilientSink(std::unique_ptr<core::DiagnosticsSink> inner,
                             std::shared_ptr<CheckpointManager> manager)
    : inner_(std::move(inner)), manager_(std::move(manager)) {
  if (!inner_ || !manager_)
    throw UsageError("ResilientSink: inner sink and manager required");
}

void ResilientSink::stage_diagnostics(int rank, const picmc::Simulation& sim,
                                      const picmc::DiagnosticSnapshot& snap) {
  inner_->stage_diagnostics(rank, sim, snap);
}

void ResilientSink::flush_diagnostics(std::uint64_t step, double time) {
  inner_->flush_diagnostics(step, time);
}

void ResilientSink::stage_checkpoint(int rank, const picmc::Simulation& sim) {
  manager_->stage(rank, sim);
}

void ResilientSink::flush_checkpoint() { manager_->commit(); }

void ResilientSink::synchronize() { inner_->synchronize(); }

void ResilientSink::close() {
  inner_->close();
  manager_->write_stats_json();
}

}  // namespace bitio::resil
