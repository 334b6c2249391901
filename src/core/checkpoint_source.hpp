#pragma once
// Where restart bytes come from: one checkpoint container, plus — for a
// delta epoch — the blocks its MANIFEST references in earlier epochs'
// containers.
//
// The restore (checkpoint_payload.cpp) needs three things from a
// checkpoint: the step it froze, how many ranks wrote it, and ranged reads
// of the flat 1-D global arrays behind the schema's bp variable paths.
// CheckpointSource merges the container's own chunks (its bp::Reader
// metadata) with the references into one block table per variable and
// requires the non-empty blocks of each variable to tile it: disjoint and
// contiguous from element 0, else FormatError — an overlap and a gap of
// equal size never pass for full coverage.  A range is then served by
// fetching exactly the blocks it overlaps: one random-access read_chunk per
// block, CRC-verified by the bp layer, and for a referenced block
// content-hash-checked against the reference.  Blocks outside the range are
// never read, so a restore costs one seek per block no matter how long the
// chain or how large the untouched remainder of the arrays.
//
// The adaptor's dmp_file is a source with no references; the resilience
// layer opens each epoch with its MANIFEST references.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bp/reader.hpp"
#include "fsim/posix_fs.hpp"

namespace bitio::core {

/// One dedup unit of a checkpoint: the chunk a specific writer rank stores
/// for one bp variable of the schema.  `hash` is FNV-1a 64 over the raw
/// payload bytes (util::hash64), the content identity the
/// incremental-checkpoint layer compares across epochs.
struct CheckpointBlock {
  std::string var;           // bp variable path of a schema field
  int rank = 0;              // writer rank (the chunk's address in the var)
  std::uint64_t offset = 0;  // element offset in the global array
  std::uint64_t count = 0;   // element count
  std::uint64_t bytes = 0;   // raw payload bytes (count * 8: all vars are 64-bit)
  std::uint64_t hash = 0;    // FNV-1a 64 of the raw payload bytes
};

/// A block of this checkpoint whose bytes live in an earlier epoch's
/// container: placed at this checkpoint's offset, stored as `rank`'s chunk
/// of the same variable in `epoch`, and required to hash to `hash`.
struct BlockRef : CheckpointBlock {
  std::uint64_t epoch = 0;  // the epoch physically storing the bytes
};

class CheckpointSource {
public:
  /// Container path of a committed epoch, for resolving references.
  using EpochPath = std::function<std::string(std::uint64_t epoch)>;

  /// Open the checkpoint stored as step 0 of the bp container at `path`.
  /// `refs` add blocks whose bytes live in the containers `epoch_path`
  /// names (opened lazily and cached).  Throws FormatError when the blocks
  /// of a variable do not tile it, and whatever bp::Reader::open throws.
  CheckpointSource(fsim::SharedFs& fs, const std::string& path,
                   std::vector<BlockRef> refs = {}, EpochPath epoch_path = {});
  // Blocks point into refs_.
  CheckpointSource(const CheckpointSource&) = delete;
  CheckpointSource& operator=(const CheckpointSource&) = delete;

  /// Simulation step the checkpoint froze: the iteration's time attribute.
  std::uint64_t step() const { return step_; }

  /// Global extent of `var`: the container's record of it, or — for a
  /// variable whose every block is referenced — the extent its blocks tile.
  /// Throws UsageError when the checkpoint has no such variable.
  std::uint64_t extent(const std::string& var) const;

  /// `count` elements at `elem_offset` of the global array behind `var`,
  /// as raw 64-bit words.  Throws UsageError when the variable is absent;
  /// FormatError when a block fails its CRC or content hash, or the blocks
  /// do not cover the range.
  std::vector<std::uint64_t> read(const std::string& var,
                                  std::uint64_t elem_offset,
                                  std::uint64_t count);

  /// Chain verification: own chunks the CRC scrub rejects, plus references
  /// that do not read back with their content hash.  0 means every byte a
  /// restore could fetch is intact.
  std::uint64_t verify();

  /// Blocks fetched by read() so far (the restore-cost counter
  /// resil::ResilienceStats reports as blocks_restored).
  std::uint64_t blocks_read() const { return blocks_read_; }

private:
  /// One non-empty block of a variable and where its bytes live.
  struct Block {
    std::uint64_t offset = 0;
    std::uint64_t count = 0;
    int rank = 0;
    const BlockRef* ref = nullptr;  // nullptr: stored in this container
  };
  struct Variable {
    std::uint64_t extent = 0;
    std::vector<Block> blocks;  // sorted by offset, contiguous from 0
  };

  /// The block's raw bytes, size- and (for a reference) hash-checked.
  std::vector<std::uint8_t> fetch(const std::string& var, const Block& block);

  fsim::SharedFs& fs_;
  bp::Reader own_;
  std::vector<BlockRef> refs_;
  EpochPath epoch_path_;
  std::map<std::string, Variable> vars_;
  std::map<std::uint64_t, std::unique_ptr<bp::Reader>> bases_;
  std::uint64_t step_ = 0;
  std::uint64_t blocks_read_ = 0;
};

}  // namespace bitio::core
