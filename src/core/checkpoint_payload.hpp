#pragma once
// The checkpoint payload: what one rank contributes to a restart dump, how
// the staged per-rank states become an openPMD iteration, and how a rank
// comes back from one.
//
// The schema is spelled once, as the field table in checkpoint_payload.cpp:
// per species the particle arrays and the absorption counters, then per
// rank the RNG state and the Monte Carlo totals, each row a bp variable
// path with its dtype and elements per rank.  checkpoint_blocks,
// write_checkpoint_iteration and the restore all loop over that table, so
// the adaptor's dmp_file and every resil epoch share one schema, with
// iteration time() carrying the simulation step.  Every restore reads
// through a CheckpointSource (checkpoint_source.hpp) and is bit-exact:
// particle arrays, per-rank RNG state, Monte Carlo totals and absorption
// counters all round-trip unchanged.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/checkpoint_source.hpp"
#include "openpmd/series.hpp"
#include "picmc/simulation.hpp"

namespace bitio::core {

/// One rank's full restart state.
struct RankCheckpoint {
  bool present = false;
  std::uint64_t step = 0;
  /// The rank's elements of every schema field as raw 64-bit words, in
  /// store order: each species' fields in turn, then the rank's own.
  std::vector<std::vector<std::uint64_t>> fields;
};

/// Snapshot `sim`'s restart state (rank-local; cheap copies of the particle
/// arrays plus RNG/MC scalars).
RankCheckpoint capture_rank_state(const picmc::Simulation& sim);

/// Enumerate every block write_checkpoint_iteration stores for this
/// staging table — same variables, same ranks, same exscan offsets, in the
/// same order.  The delta-epoch layer diffs this list against the last
/// committed epoch to decide which blocks actually need writing.
std::vector<CheckpointBlock> checkpoint_blocks(
    const std::vector<RankCheckpoint>& staged,
    const std::vector<std::string>& species_names, int nranks);

/// Predicate selecting which (variable, rank) blocks a checkpoint write
/// stores; blocks it rejects are expected to be referenced from an earlier
/// epoch by the caller's manifest.
using BlockKeep = std::function<bool(const std::string& var, int rank)>;

/// Write the staged per-rank states (indexed by rank, size `nranks`) as
/// iteration 0 of `series` — the exscan over per-rank particle counts, the
/// storeChunk calls, and the RNG/MC meshes.  Closes the iteration.
void write_checkpoint_iteration(pmd::Series& series,
                                const std::vector<RankCheckpoint>& staged,
                                const std::vector<std::string>& species_names,
                                int nranks);

/// Filtered variant for delta epochs: datasets keep their full global
/// extents, but store_chunk runs only for blocks `keep` accepts.  With an
/// always-true predicate this is byte-identical to the plain overload.
void write_checkpoint_iteration(pmd::Series& series,
                                const std::vector<RankCheckpoint>& staged,
                                const std::vector<std::string>& species_names,
                                int nranks, const BlockKeep& keep);

/// Bit-exact restore of rank sim.rank() (RNG and MC totals included),
/// reading only the ranges that rank needs — its own slice of each particle
/// array, its own counters, and the per-rank counts that place the slice.
/// Throws UsageError when the checkpoint was written with a different
/// communicator size.
void restore_from_source(CheckpointSource& source, picmc::Simulation& sim);

/// Restore `sim` from a checkpoint written by *any* communicator size (the
/// shrink-recovery path: a dump from N ranks restored onto the N-1
/// survivors).  When the sizes match this is restore_from_source.
/// Otherwise the global particle population is re-partitioned into
/// contiguous equal slices (rank r takes total/n plus one extra when
/// r < total%n), the absorption counters and Monte Carlo totals are summed
/// onto the new rank 0 (they are global diagnostics, not per-particle
/// state), and each rank's RNG is re-seeded deterministically from
/// (step, new size, rank) so reshaped restarts stay reproducible.  Each
/// survivor reads only its own slice of the particle arrays.
void restore_repartitioned(CheckpointSource& source, picmc::Simulation& sim);

}  // namespace bitio::core
