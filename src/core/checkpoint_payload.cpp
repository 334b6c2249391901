#include "core/checkpoint_payload.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>

#include "util/error.hpp"
#include "util/hash64.hpp"

namespace bitio::core {

using picmc::Simulation;
using pmd::Datatype;

namespace {

using Words = std::vector<std::uint64_t>;

/// Index of each row of kFields.  Every species stores the fields before
/// kRngState; each rank then stores the rest once.
enum Field : std::size_t {
  kPositionX, kVelocityX, kVelocityY, kVelocityZ, kWeighting,
  kRankCount, kAbsorbed, kAbsorbedWeight,
  kRngState, kIonizationEvents, kIonizedWeight,
  kFieldCount
};
constexpr std::size_t kSpeciesFields = kRngState;

/// One bp variable of the checkpoint schema.  Every variable is 1-D and
/// 64-bit.  Writer rank r stores `per_rank` elements at r * per_rank or,
/// when per_rank is 0, its particles at the exscan of the particle counts.
struct CheckpointField {
  Field id;
  const char* var;  // bp variable path; '%' stands for the species name
  Datatype dtype;
  std::uint64_t per_rank;
};

constexpr Datatype f64 = Datatype::float64;
constexpr Datatype u64 = Datatype::uint64;

/// The checkpoint schema, in store order.
constexpr CheckpointField kFields[] = {
    {kPositionX, "particles/%/position/x", f64, 0},
    {kVelocityX, "particles/%/velocity/x", f64, 0},
    {kVelocityY, "particles/%/velocity/y", f64, 0},
    {kVelocityZ, "particles/%/velocity/z", f64, 0},
    {kWeighting, "particles/%/weighting/SCALAR", f64, 0},
    {kRankCount, "meshes/rank_count_%/SCALAR", u64, 1},
    {kAbsorbed, "meshes/absorbed_%/SCALAR", u64, 2},
    {kAbsorbedWeight, "meshes/absorbed_weight_%/SCALAR", f64, 1},
    {kRngState, "meshes/rng_state/SCALAR", u64, 4},
    {kIonizationEvents, "meshes/ionization_events/SCALAR", u64, 1},
    {kIonizedWeight, "meshes/ionized_weight/SCALAR", f64, 1},
};
static_assert(std::size(kFields) == kFieldCount);
constexpr bool rows_follow_field_order() {
  for (std::size_t f = 0; f < kFieldCount; ++f)
    if (kFields[f].id != f) return false;
  return true;
}
static_assert(rows_follow_field_order());

/// The bp variable path of `field` for `species`.
std::string field_var(const CheckpointField& field,
                      const std::string& species) {
  std::string var = field.var;
  if (const auto at = var.find('%'); at != std::string::npos)
    var.replace(at, 1, species);
  return var;
}

/// Where field `f` of species `s` sits in RankCheckpoint::fields.
std::size_t slot(std::size_t nspecies, std::size_t s, std::size_t f) {
  return f < kSpeciesFields ? s * kSpeciesFields + f
                            : nspecies * kSpeciesFields + f - kSpeciesFields;
}

std::size_t slot_count(std::size_t nspecies) {
  return slot(nspecies, 0, kFieldCount);
}

// Bit-exact conversions: a word is the object representation of its double.
Words words_of(const std::vector<double>& values) {
  Words words(values.size());
  if (!values.empty())
    std::memcpy(words.data(), values.data(), values.size() * 8);
  return words;
}

std::vector<double> doubles_of(const Words& words) {
  std::vector<double> values(words.size());
  if (!words.empty())
    std::memcpy(values.data(), words.data(), words.size() * 8);
  return values;
}

/// The iteration's record component behind bp variable path `var`:
/// "particles/<species>/<record>/<component>" or "meshes/<mesh>/<component>".
pmd::RecordComponent& component(pmd::Iteration& iteration,
                                const std::string& var) {
  std::vector<std::string> parts;
  for (std::size_t begin = 0;;) {
    const std::size_t slash = var.find('/', begin);
    parts.push_back(var.substr(begin, slash - begin));
    if (slash == std::string::npos) break;
    begin = slash + 1;
  }
  if (parts[0] == "particles")
    return iteration.particles(parts[1])[parts[2]][parts[3]];
  return iteration.mesh(parts[1])[parts[2]];
}

/// Visit every block a checkpoint of `staged` stores, in store order: per
/// species, per present rank, the species fields; then per present rank the
/// rank fields.  visit(field, var, rank, offset, extent, words).
template <typename Visit>
void for_each_block(const std::vector<RankCheckpoint>& staged,
                    const std::vector<std::string>& species, int nranks,
                    Visit&& visit) {
  const std::size_t nspecies = species.size();
  auto visit_rank = [&](int r, std::size_t s, std::size_t first,
                        std::size_t last, std::uint64_t particle_offset,
                        std::uint64_t particle_total) {
    const RankCheckpoint& state = staged[std::size_t(r)];
    for (std::size_t f = first; f < last; ++f) {
      const CheckpointField& field = kFields[f];
      const bool particles = field.per_rank == 0;
      visit(field, field_var(field, s < nspecies ? species[s] : ""), r,
            particles ? particle_offset : std::uint64_t(r) * field.per_rank,
            particles ? std::max<std::uint64_t>(particle_total, 1)
                      : std::uint64_t(nranks) * field.per_rank,
            state.fields[slot(nspecies, s, f)]);
    }
  };
  for (std::size_t s = 0; s < nspecies; ++s) {
    // Offsets: exclusive scan over per-rank particle counts (what the real
    // adaptor obtains with MPI_Exscan).
    std::vector<std::uint64_t> offsets(std::size_t(nranks), 0);
    std::uint64_t total = 0;
    for (int r = 0; r < nranks; ++r) {
      offsets[std::size_t(r)] = total;
      const RankCheckpoint& state = staged[std::size_t(r)];
      if (state.present)
        total += state.fields[slot(nspecies, s, kRankCount)][0];
    }
    for (int r = 0; r < nranks; ++r)
      if (staged[std::size_t(r)].present)
        visit_rank(r, s, 0, kSpeciesFields, offsets[std::size_t(r)], total);
  }
  for (int r = 0; r < nranks; ++r)
    if (staged[std::size_t(r)].present)
      visit_rank(r, nspecies, kSpeciesFields, kFieldCount, 0, 0);
}

/// Install a restored state into `sim`: the inverse of capture_rank_state.
void apply_rank_state(const RankCheckpoint& state, Simulation& sim) {
  const std::size_t nspecies = sim.species_count();
  auto at = [&](std::size_t s, Field f) -> const Words& {
    return state.fields[slot(nspecies, s, f)];
  };
  for (std::size_t s = 0; s < nspecies; ++s) {
    picmc::Species& sp = sim.species(s);
    sp.particles.x() = doubles_of(at(s, kPositionX));
    sp.particles.vx() = doubles_of(at(s, kVelocityX));
    sp.particles.vy() = doubles_of(at(s, kVelocityY));
    sp.particles.vz() = doubles_of(at(s, kVelocityZ));
    sp.particles.w() = doubles_of(at(s, kWeighting));
    sp.absorbed_left = at(s, kAbsorbed)[0];
    sp.absorbed_right = at(s, kAbsorbed)[1];
    sp.absorbed_weight = std::bit_cast<double>(at(s, kAbsorbedWeight)[0]);
  }
  const Words& rng = at(0, kRngState);
  sim.rng().set_state({rng[0], rng[1], rng[2], rng[3]});
  sim.set_ionization_totals(at(0, kIonizationEvents)[0],
                            std::bit_cast<double>(at(0, kIonizedWeight)[0]));
  sim.set_current_step(state.step);
}

/// splitmix64 finalizer: the deterministic mixer behind the re-derived
/// per-rank RNG streams of a reshaped restart.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The old per-rank RNG streams cannot be split across a different rank
/// count; a reshaped restart derives fresh, deterministic ones instead.
Words derived_rng(std::uint64_t step, std::uint64_t nranks,
                  std::uint64_t rank) {
  const std::uint64_t tag = mix64(step) ^ mix64(nranks * 0x51ed2701u) ^
                            mix64(rank + 0xb5ull);
  Words state(4);
  for (std::size_t i = 0; i < 4; ++i) state[i] = mix64(tag + i);
  state[0] |= 1;  // never the all-zero state
  return state;
}

/// Communicator size that wrote the checkpoint: the extent of the
/// ionization-events field, one element per writer rank.
std::uint64_t writer_ranks(const CheckpointSource& source) {
  const CheckpointField& events = kFields[kIonizationEvents];
  return source.extent(field_var(events, "")) / events.per_rank;
}

}  // namespace

RankCheckpoint capture_rank_state(const Simulation& sim) {
  const std::size_t nspecies = sim.species_count();
  RankCheckpoint staged{true, sim.current_step(),
                        std::vector<Words>(slot_count(nspecies))};
  auto at = [&](std::size_t s, Field f) -> Words& {
    return staged.fields[slot(nspecies, s, f)];
  };
  for (std::size_t s = 0; s < nspecies; ++s) {
    const picmc::Species& sp = sim.species(s);
    at(s, kPositionX) = words_of(sp.particles.x());
    at(s, kVelocityX) = words_of(sp.particles.vx());
    at(s, kVelocityY) = words_of(sp.particles.vy());
    at(s, kVelocityZ) = words_of(sp.particles.vz());
    at(s, kWeighting) = words_of(sp.particles.w());
    at(s, kRankCount) = {sp.particles.size()};
    at(s, kAbsorbed) = {sp.absorbed_left, sp.absorbed_right};
    at(s, kAbsorbedWeight) = {std::bit_cast<std::uint64_t>(sp.absorbed_weight)};
  }
  const auto rng = const_cast<Simulation&>(sim).rng().state();
  at(0, kRngState) = Words(rng.begin(), rng.end());
  at(0, kIonizationEvents) = {sim.ionization_events()};
  at(0, kIonizedWeight) = {std::bit_cast<std::uint64_t>(sim.ionized_weight())};
  return staged;
}

std::vector<CheckpointBlock> checkpoint_blocks(
    const std::vector<RankCheckpoint>& staged,
    const std::vector<std::string>& species_names, int nranks) {
  std::vector<CheckpointBlock> blocks;
  for_each_block(staged, species_names, nranks,
                 [&blocks](const CheckpointField&, const std::string& var,
                           int rank, std::uint64_t offset, std::uint64_t,
                           const Words& words) {
                   blocks.push_back(CheckpointBlock{
                       var, rank, offset, words.size(), words.size() * 8,
                       util::hash64_of<std::uint64_t>(words)});
                 });
  return blocks;
}

void write_checkpoint_iteration(pmd::Series& series,
                                const std::vector<RankCheckpoint>& staged,
                                const std::vector<std::string>& species_names,
                                int nranks) {
  write_checkpoint_iteration(series, staged, species_names, nranks,
                             [](const std::string&, int) { return true; });
}

void write_checkpoint_iteration(pmd::Series& series,
                                const std::vector<RankCheckpoint>& staged,
                                const std::vector<std::string>& species_names,
                                int nranks, const BlockKeep& keep) {
  if (staged.size() != std::size_t(nranks))
    throw UsageError("write_checkpoint_iteration: staged size != nranks");
  bool any = false;
  std::uint64_t step = 0;
  for (const auto& state : staged) {
    any |= state.present;
    if (state.present) step = std::max(step, state.step);
  }
  if (!any)
    throw UsageError("write_checkpoint_iteration: no staged checkpoint");

  // Iteration 0 is the (re-opened, overwritten) checkpoint slot.  Every
  // dataset keeps its full extent, whichever blocks `keep` lets through.
  auto& iteration = series.write_iteration(0);
  for_each_block(
      staged, species_names, nranks,
      [&](const CheckpointField& field, const std::string& var, int rank,
          std::uint64_t offset, std::uint64_t extent, const Words& words) {
        pmd::RecordComponent& comp = component(iteration, var);
        comp.reset_dataset(field.dtype, {extent});
        const auto* bytes = reinterpret_cast<const std::uint8_t*>(words.data());
        if (keep(var, rank))
          comp.store_chunk(rank, bp::ChunkView(field.dtype,
                                               {bytes, words.size() * 8},
                                               {offset}, {words.size()}));
      });
  iteration.set_time(double(step));
  iteration.close();
}

void restore_from_source(CheckpointSource& source, Simulation& sim) {
  const std::uint64_t writers = writer_ranks(source);
  if (writers != std::uint64_t(sim.nranks()))
    throw UsageError("restore: checkpoint was written with " +
                     std::to_string(writers) + " ranks");
  restore_repartitioned(source, sim);
}

void restore_repartitioned(CheckpointSource& source, Simulation& sim) {
  const std::uint64_t writers = writer_ranks(source);
  const std::uint64_t nranks = std::uint64_t(sim.nranks());
  const std::uint64_t rank = std::uint64_t(sim.rank());
  const bool reshaped = writers != nranks;
  const std::size_t nspecies = sim.species_count();
  RankCheckpoint state{true, source.step(),
                       std::vector<Words>(slot_count(nspecies))};

  // A per-rank field: this rank's own elements or, reshaped, every writer
  // rank's elements summed onto the new rank 0 (the counters are whole-run
  // tallies, not per-particle state).
  auto own_or_summed = [&](const CheckpointField& field,
                           const std::string& var) {
    const std::uint64_t k = field.per_rank;
    if (!reshaped) return source.read(var, rank * k, k);
    Words sum(k, 0);  // all-zero words: 0 and +0.0
    if (rank != 0) return sum;
    const Words all = source.read(var, 0, writers * k);
    for (std::uint64_t r = 0; r < writers; ++r)
      for (std::uint64_t j = 0; j < k; ++j)
        sum[j] = field.dtype == f64
                     ? std::bit_cast<std::uint64_t>(
                           std::bit_cast<double>(sum[j]) +
                           std::bit_cast<double>(all[r * k + j]))
                     : sum[j] + all[r * k + j];
    return sum;
  };

  for (std::size_t s = 0; s < nspecies; ++s) {
    const std::string& name = sim.species(s).config.name;
    const Words counts =
        source.read(field_var(kFields[kRankCount], name), 0, writers);
    std::uint64_t offset = 0, count = 0;
    if (!reshaped) {
      // The rank's own exscan slice.
      for (std::uint64_t r = 0; r < rank; ++r) offset += counts[r];
      count = counts[rank];
    } else {
      // Contiguous equal slices over the concatenated global arrays.
      std::uint64_t total = 0;
      for (const std::uint64_t c : counts) total += c;
      const std::uint64_t base = total / nranks;
      const std::uint64_t extra = total % nranks;
      count = base + (rank < extra ? 1 : 0);
      offset = rank * base + std::min(rank, extra);
    }
    for (std::size_t f = 0; f < kSpeciesFields; ++f) {
      const CheckpointField& field = kFields[f];
      Words& words = state.fields[slot(nspecies, s, f)];
      if (f == kRankCount)
        words = {count};
      else if (field.per_rank == 0)
        words = source.read(field_var(field, name), offset, count);
      else
        words = own_or_summed(field, field_var(field, name));
    }
  }
  for (std::size_t f = kSpeciesFields; f < kFieldCount; ++f) {
    Words& words = state.fields[slot(nspecies, 0, f)];
    if (f == kRngState && reshaped)
      words = derived_rng(state.step, nranks, rank);
    else
      words = own_or_summed(kFields[f], field_var(kFields[f], ""));
  }
  apply_rank_state(state, sim);
}

}  // namespace bitio::core
