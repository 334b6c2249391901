#include "core/adaptor.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace bitio::core {

using picmc::DiagnosticSnapshot;
using picmc::Simulation;
using pmd::Access;
using pmd::Datatype;

namespace {

std::string series_file(const std::string& run_dir, const char* stem,
                        const std::string& engine) {
  return run_dir + "/" + stem + "." + engine;
}

}  // namespace

Bit1OpenPmdAdaptor::Bit1OpenPmdAdaptor(fsim::SharedFs& fs,
                                       std::string run_dir,
                                       Bit1IoConfig config, int nranks)
    : fs_(fs),
      run_dir_(std::move(run_dir)),
      config_(std::move(config)),
      nranks_(nranks) {
  if (nranks_ <= 0)
    throw UsageError("Bit1OpenPmdAdaptor: nranks must be positive");
  if (config_.mode != IoMode::openpmd)
    throw UsageError("Bit1OpenPmdAdaptor: config.mode must be openpmd");
  config_.validate();

  fsim::FsClient root(fs_, 0);
  if (config_.use_striping) {
    // Table III: lfs setstripe -c <count> -S <size> <run dir>; all series
    // files created inside inherit the layout.
    root.setstripe(run_dir_, config_.striping);
  } else {
    root.mkdir(run_dir_);
  }

  diag_series_ = std::make_unique<pmd::Series>(
      fs_, series_file(run_dir_, "dat_file", config_.engine), Access::create,
      nranks_, config_.adios2_toml());
  // The checkpoint series is shared-file (checkpoint_aggregators) and
  // unprofiled: profiling.json is counted once, on the diagnostics series.
  ckpt_series_ = std::make_unique<pmd::Series>(
      fs_, series_file(run_dir_, "dmp_file", config_.engine), Access::create,
      nranks_,
      config_.engine_config(config_.checkpoint_aggregators, false)
          .adios2_toml());

  staged_diag_.resize(std::size_t(nranks_));
  staged_ckpt_.resize(std::size_t(nranks_));
}

Bit1OpenPmdAdaptor::~Bit1OpenPmdAdaptor() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw.
  }
}

std::string Bit1OpenPmdAdaptor::diag_path() const {
  return series_file(run_dir_, "dat_file", config_.engine);
}

std::string Bit1OpenPmdAdaptor::checkpoint_path() const {
  return series_file(run_dir_, "dmp_file", config_.engine);
}

void Bit1OpenPmdAdaptor::require_species_layout(const Simulation& sim) {
  // First staging call fixes the species layout; later calls must agree.
  std::vector<std::string> names;
  for (std::size_t s = 0; s < sim.species_count(); ++s)
    names.push_back(sim.species(s).config.name);
  if (species_names_.empty()) {
    species_names_ = std::move(names);
    nnodes_ = sim.grid().nnodes();
    return;
  }
  if (names != species_names_ || nnodes_ != sim.grid().nnodes())
    throw UsageError("Bit1OpenPmdAdaptor: inconsistent simulation layout");
}

void Bit1OpenPmdAdaptor::stage_diagnostics(int rank, const Simulation& sim,
                                           const DiagnosticSnapshot& snap) {
  util::MutexLock lock(mutex_);
  if (rank < 0 || rank >= nranks_)
    throw UsageError("Bit1OpenPmdAdaptor: rank out of range");
  require_species_layout(sim);
  if (snap.species.size() != species_names_.size())
    throw UsageError("Bit1OpenPmdAdaptor: snapshot species mismatch");

  RankDiag staged;
  staged.present = true;
  staged.ionization_events = snap.ionization_events;
  for (const auto& sp : snap.species) {
    staged.vdf.push_back(sp.vdf_vx);
    staged.count.push_back(sp.particle_count);
    staged.energy.push_back(sp.kinetic_energy);
    staged.weight.push_back(sp.total_weight);
    if (rank == 0)
      staged.density_rank0.insert(staged.density_rank0.end(),
                                  sp.density.begin(), sp.density.end());
  }
  staged_diag_[std::size_t(rank)] = std::move(staged);
}

void Bit1OpenPmdAdaptor::flush_diagnostics(std::uint64_t step, double time) {
  util::MutexLock lock(mutex_);
  std::size_t bins = 0;
  for (const auto& staged : staged_diag_)
    if (staged.present && !staged.vdf.empty()) bins = staged.vdf[0].size();
  if (bins == 0)
    throw UsageError("Bit1OpenPmdAdaptor: no staged diagnostics to flush");

  auto& iteration = diag_series_->write_iteration(step);
  iteration.set_time(time);

  const std::uint64_t ranks = std::uint64_t(nranks_);
  for (std::size_t s = 0; s < species_names_.size(); ++s) {
    const std::string& name = species_names_[s];
    // Flattened [nranks * bins] velocity distribution, one row per rank.
    auto& vdf = iteration.mesh("vdf_" + name).component();
    vdf.reset_dataset(Datatype::float64, {ranks * bins});
    auto& count = iteration.mesh("particle_count_" + name).component();
    count.reset_dataset(Datatype::uint64, {ranks});
    auto& energy = iteration.mesh("energy_" + name).component();
    energy.reset_dataset(Datatype::float64, {ranks});
    auto& weight = iteration.mesh("weight_" + name).component();
    weight.reset_dataset(Datatype::float64, {ranks});

    for (int r = 0; r < nranks_; ++r) {
      const RankDiag& staged = staged_diag_[std::size_t(r)];
      if (!staged.present) continue;
      const std::uint64_t rr = std::uint64_t(r);
      vdf.store_chunk<double>(r, staged.vdf[s], {rr * bins}, {bins});
      count.store_chunk<std::uint64_t>(
          r, std::span<const std::uint64_t>(&staged.count[s], 1), {rr}, {1});
      energy.store_chunk<double>(
          r, std::span<const double>(&staged.energy[s], 1), {rr}, {1});
      weight.store_chunk<double>(
          r, std::span<const double>(&staged.weight[s], 1), {rr}, {1});
    }

    // The globally reduced density profile, written by rank 0 only.
    const RankDiag& root = staged_diag_[0];
    if (root.present && root.density_rank0.size() ==
                            species_names_.size() * nnodes_) {
      auto& density = iteration.mesh("density_" + name).component();
      density.reset_dataset(Datatype::float64, {nnodes_});
      density.store_chunk<double>(
          0,
          std::span<const double>(root.density_rank0.data() + s * nnodes_,
                                  nnodes_),
          {0}, {nnodes_});
    }
  }
  iteration.close();
  for (auto& staged : staged_diag_) staged = RankDiag{};
}

void Bit1OpenPmdAdaptor::stage_checkpoint(int rank, const Simulation& sim) {
  util::MutexLock lock(mutex_);
  if (rank < 0 || rank >= nranks_)
    throw UsageError("Bit1OpenPmdAdaptor: rank out of range");
  require_species_layout(sim);
  staged_ckpt_[std::size_t(rank)] = capture_rank_state(sim);
}

void Bit1OpenPmdAdaptor::flush_checkpoint() {
  util::MutexLock lock(mutex_);
  write_checkpoint_iteration(*ckpt_series_, staged_ckpt_, species_names_,
                             nranks_);
  for (auto& staged : staged_ckpt_) staged = RankCheckpoint{};
}

void Bit1OpenPmdAdaptor::restore(fsim::SharedFs& fs,
                                 const std::string& run_dir,
                                 const Bit1IoConfig& config,
                                 picmc::Simulation& sim) {
  CheckpointSource source(fs, series_file(run_dir, "dmp_file", config.engine));
  restore_from_source(source, sim);
}

void Bit1OpenPmdAdaptor::synchronize() {
  util::MutexLock lock(mutex_);
  if (closed_) return;
  if (diag_series_) diag_series_->flush();
  if (ckpt_series_) ckpt_series_->flush();
}

void Bit1OpenPmdAdaptor::close() {
  // Under the lock: a close racing a synchronize() (which checks closed_)
  // must not let the flush observe half-closed series.
  util::MutexLock lock(mutex_);
  if (closed_) return;
  closed_ = true;
  if (diag_series_) diag_series_->close();
  if (ckpt_series_) ckpt_series_->close();
}

}  // namespace bitio::core
