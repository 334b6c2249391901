#pragma once
// CheckpointSource over a delta-epoch chain: resolves each requested range
// of a checkpoint variable through the footer indexes of the epoch
// containers that physically store its blocks.
//
// A delta epoch's container holds only the blocks whose content changed
// since the previous epoch; its MANIFEST lists the rest as references
// {var, rank, offset, count, hash, epoch} into earlier *base* epochs.
// ChainCheckpointSource merges the target epoch's own chunks (from its
// bp::Reader metadata) with those references into one block table per
// variable, then serves ranged reads by fetching exactly the blocks the
// range overlaps — one random-access read_chunk per block, CRC-verified by
// the bp layer and content-hash-checked against the manifest reference.
// Blocks outside the range are never read: an O(1)-seek restore no matter
// how long the chain or how large the untouched remainder of the arrays.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bp/reader.hpp"
#include "core/checkpoint_source.hpp"
#include "fsim/posix_fs.hpp"
#include "util/json.hpp"

namespace bitio::resil {

/// One manifest reference: a block of this epoch whose bytes live in an
/// earlier epoch's container.
struct BlockRef {
  std::string var;
  int rank = 0;
  std::uint64_t offset = 0;  // element offset in *this* epoch's global array
  std::uint64_t count = 0;   // element count
  std::uint64_t bytes = 0;   // raw payload bytes
  std::uint64_t hash = 0;    // FNV-1a 64 the stored chunk must match
  std::uint64_t epoch = 0;   // the epoch physically storing the bytes
};

/// MANIFEST schema version, written as "manifest_version".  Bump it
/// whenever to_json gains, drops, or reshapes a field — the golden-bytes
/// test (CkptManifest.GoldenDeltaManifestBytes) pins the serialized text
/// next to this constant, so the two change together.  Version history:
/// 1 = flat full-epoch manifest (no chain fields, implied by absence),
/// 2 = delta chains (kind/base_epochs/refs) + explicit version field.
inline constexpr int kManifestVersion = 2;

/// Parsed MANIFEST of a committed epoch.  Pre-delta manifests (no "kind")
/// parse as kind "full" with no refs.
struct EpochManifest {
  std::uint64_t epoch = 0;
  std::uint64_t step = 0;
  int nranks = 0;
  std::string engine;
  std::string kind = "full";  // "full" | "delta"
  std::vector<std::uint64_t> base_epochs;
  std::vector<BlockRef> refs;

  Json to_json() const;
  static EpochManifest from_json(const Json& doc);
};

class ChainCheckpointSource final : public core::CheckpointSource {
public:
  /// `series_path(epoch)` must return the container path of any committed
  /// epoch the chain touches; the manifest supplies the chain membership.
  /// Readers for base epochs are opened lazily and cached.
  ChainCheckpointSource(fsim::SharedFs& fs, EpochManifest manifest,
                        std::function<std::string(std::uint64_t)> series_path);

  std::uint64_t step() override { return manifest_.step; }
  std::uint64_t writer_ranks() override {
    return std::uint64_t(manifest_.nranks);
  }
  std::vector<std::uint64_t> read_u64(const std::string& var,
                                      std::uint64_t elem_offset,
                                      std::uint64_t count) override;
  std::vector<double> read_f64(const std::string& var,
                               std::uint64_t elem_offset,
                               std::uint64_t count) override;

  /// Blocks fetched by ranged reads so far (the restore-cost counter the
  /// Darshan log reports as blocks_restored).
  std::uint64_t blocks_read() const { return blocks_read_; }

private:
  /// Where one block of a variable lives: which epoch's container, which
  /// writer rank's chunk, and the content hash it must carry (0 = own
  /// block, hash enforced only when the chunk records one).
  struct BlockHome {
    std::uint64_t offset = 0;
    std::uint64_t count = 0;
    std::uint64_t epoch = 0;
    int rank = 0;
    std::uint64_t hash = 0;
    bool check_hash = false;
  };

  bp::Reader& reader_for(std::uint64_t epoch);
  /// Raw bytes of the variable's global array over [elem_offset,
  /// elem_offset + count), fetched block by block (8-byte elements).
  std::vector<std::uint8_t> read_range(const std::string& var,
                                       std::uint64_t elem_offset,
                                       std::uint64_t count);

  fsim::SharedFs& fs_;
  EpochManifest manifest_;
  std::function<std::string(std::uint64_t)> series_path_;
  std::map<std::string, std::vector<BlockHome>> blocks_;  // per variable
  std::map<std::uint64_t, std::unique_ptr<bp::Reader>> readers_;
  std::uint64_t blocks_read_ = 0;
};

}  // namespace bitio::resil
