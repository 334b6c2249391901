#pragma once
// Core vocabulary of the miniBP engine: datatypes, extents, variable and
// chunk descriptors.  Mirrors the slice of ADIOS2's data model the paper's
// workflow needs: n-dimensional variables with global shape, per-rank
// (offset, count) chunks, steps, and attributes.  A variable has rank at
// most kMaxRank = 3 (every shape in the paper's workflow is 1-D to 3-D):
// Dims keeps its extents inline, so a chunk's placement costs no heap
// allocation.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "util/error.hpp"

namespace bitio::bp {

/// Highest rank of a variable, its chunks and an openPMD extent.  A higher
/// rank is rejected where it enters: UsageError when a Dims is built (so
/// at every put), FormatError when md.0 or an openPMD extent
/// attribute declares one.
inline constexpr std::size_t kMaxRank = 3;

/// Extents of an array of rank <= kMaxRank, held inline: a trivially
/// copyable 32-byte value with the slice of std::vector's surface the
/// callers use (braced init, size, empty, [], begin/end, back, ==,
/// push_back).
class Dims {
public:
  constexpr Dims() = default;
  constexpr Dims(std::initializer_list<std::uint64_t> extents) {
    if (extents.size() > kMaxRank) throw_rank();
    for (const std::uint64_t extent : extents) extents_[rank_++] = extent;
  }

  constexpr void push_back(std::uint64_t extent) {
    if (rank_ == kMaxRank) throw_rank();
    extents_[rank_++] = extent;
  }

  constexpr std::size_t size() const { return rank_; }
  constexpr bool empty() const { return rank_ == 0; }
  constexpr std::uint64_t operator[](std::size_t d) const {
    return extents_[d];
  }
  constexpr std::uint64_t back() const { return extents_[rank_ - 1]; }
  constexpr const std::uint64_t* begin() const { return extents_; }
  constexpr const std::uint64_t* end() const { return extents_ + rank_; }

  friend constexpr bool operator==(const Dims& a, const Dims& b) {
    if (a.rank_ != b.rank_) return false;
    for (std::size_t d = 0; d < a.rank_; ++d)
      if (a.extents_[d] != b.extents_[d]) return false;
    return true;
  }

private:
  [[noreturn]] static void throw_rank() {
    throw UsageError("bp: rank above kMaxRank (3)");
  }

  std::uint64_t extents_[kMaxRank] = {};
  std::uint32_t rank_ = 0;
};
static_assert(sizeof(Dims) == 32 && std::is_trivially_copyable_v<Dims>);

/// Gather strategies of the writer's aggregation path
/// (EngineConfig::aggregation): "flat" ships every rank's bytes straight to
/// its aggregator, "two_level" folds them through the node leader over
/// shared memory first.  EngineConfig::validate() accepts exactly this
/// list.
inline constexpr const char* kAggregationModes[] = {"flat", "two_level"};

enum class Datatype : std::uint8_t {
  uint8 = 0,
  int32 = 1,
  uint64 = 2,
  float32 = 3,
  float64 = 4,
};

inline std::size_t dtype_size(Datatype t) {
  switch (t) {
    case Datatype::uint8: return 1;
    case Datatype::int32: return 4;
    case Datatype::uint64: return 8;
    case Datatype::float32: return 4;
    case Datatype::float64: return 8;
  }
  throw UsageError("bp: unknown datatype");
}

inline const char* dtype_name(Datatype t) {
  switch (t) {
    case Datatype::uint8: return "uint8";
    case Datatype::int32: return "int32";
    case Datatype::uint64: return "uint64";
    case Datatype::float32: return "float";
    case Datatype::float64: return "double";
  }
  return "?";
}

/// Map C++ element types to Datatype tags.
template <typename T> struct datatype_of;
template <> struct datatype_of<std::uint8_t> {
  static constexpr Datatype value = Datatype::uint8;
};
template <> struct datatype_of<std::int32_t> {
  static constexpr Datatype value = Datatype::int32;
};
template <> struct datatype_of<std::uint64_t> {
  static constexpr Datatype value = Datatype::uint64;
};
template <> struct datatype_of<float> {
  static constexpr Datatype value = Datatype::float32;
};
template <> struct datatype_of<double> {
  static constexpr Datatype value = Datatype::float64;
};

inline std::uint64_t element_count(const Dims& dims) {
  return std::accumulate(dims.begin(), dims.end(), std::uint64_t(1),
                         std::multiplies<>());
}

/// The one placement check: true when a chunk of `count` elements at
/// `offset` lies inside `shape` — same rank, and no dimension overruns the
/// extent.  Written so that offset + count cannot wrap.  The writer's
/// put() (check_put) and decode_step apply it.
inline bool chunk_in_shape(const Dims& shape, const Dims& offset,
                           const Dims& count) {
  if (offset.size() != shape.size() || count.size() != shape.size())
    return false;
  for (std::size_t d = 0; d < shape.size(); ++d)
    if (count[d] > shape[d] || offset[d] > shape[d] - count[d]) return false;
  return true;
}

/// A validated view of one rank-local chunk: element type, raw bytes, and
/// placement in the global array.  This is the argument object the write
/// path passes around instead of loose (dtype, span, offset, count) packs;
/// the constructor is the single point that checks byte length against
/// count * dtype, and ChunkView::of is the one reinterpret_cast site.
/// The view does not own the bytes — like ADIOS2's deferred Put, the
/// referenced data must stay valid until the put is consumed.
class ChunkView {
public:
  ChunkView(Datatype dtype, std::span<const std::uint8_t> bytes, Dims offset,
            Dims count)
      : dtype_(dtype),
        bytes_(bytes),
        offset_(std::move(offset)),
        count_(std::move(count)) {
    if (offset_.size() != count_.size())
      throw UsageError("bp::ChunkView: offset/count dimension mismatch");
    if (bytes_.size() != element_count(count_) * dtype_size(dtype_))
      throw UsageError(
          "bp::ChunkView: byte size does not match count * sizeof(dtype)");
  }

  template <typename T>
  static ChunkView of(std::span<const T> data, Dims offset, Dims count) {
    return ChunkView(datatype_of<T>::value,
                     std::span<const std::uint8_t>(
                         reinterpret_cast<const std::uint8_t*>(data.data()),
                         data.size_bytes()),
                     std::move(offset), std::move(count));
  }

  Datatype dtype() const { return dtype_; }
  std::span<const std::uint8_t> bytes() const { return bytes_; }
  const Dims& offset() const { return offset_; }
  const Dims& count() const { return count_; }

private:
  Datatype dtype_;
  std::span<const std::uint8_t> bytes_;
  Dims offset_;
  Dims count_;
};

/// One stored block of a variable: where it sits in the global array and
/// where its (possibly compressed) bytes live inside a subfile.  It keeps
/// only what the chunk alone knows — its placement and its integrity; the
/// operator that encoded it is its variable's (VarRecord::operator_name).
struct ChunkRecord {
  Dims offset;                 // position in the global array
  Dims count;                  // elements per dimension
  std::uint32_t writer_rank = 0;
  std::uint32_t subfile = 0;   // data.<subfile>
  std::uint64_t file_offset = 0;
  std::uint64_t stored_bytes = 0;  // bytes on disk (after operator)
  std::uint64_t raw_bytes = 0;     // bytes before operator
  // Per-chunk value statistics (ADIOS2 keeps these in the metadata for
  // query/selection support — "rapid metadata extraction").  Zero for
  // non-numeric or synthetic chunks.
  double stat_min = 0.0;
  double stat_max = 0.0;
  // End-to-end integrity: CRC32C of the *stored* bytes, computed at write
  // time and re-checked on read.  has_crc is false for synthetic
  // (size-only) chunks, which have no bytes to check.
  std::uint32_t crc32c = 0;
  bool has_crc = false;
};

/// Per-step record of one variable.  The writer applies one codec to
/// everything it writes, so the operator is recorded once here, not per
/// chunk.
struct VarRecord {
  std::string name;
  Datatype dtype = Datatype::uint8;
  Dims shape;                  // global extent
  std::string operator_name;   // "" = none; else one of cz::kCodecNames
  std::vector<ChunkRecord> chunks;
};

/// Attribute value: ADIOS2 supports more, we need these three.
using AttrValue = std::variant<std::string, double, std::uint64_t>;

/// Everything recorded for one step in md.0.  bp::Reader indexes the
/// names once per step; find_variable here is a scan, for a lone record.
struct StepRecord {
  std::uint64_t step = 0;
  std::vector<VarRecord> variables;
  std::vector<std::pair<std::string, AttrValue>> attributes;

  /// The variable named `name`; nullptr if absent.
  const VarRecord* find_variable(const std::string& name) const {
    for (const auto& var : variables)
      if (var.name == name) return &var;
    return nullptr;
  }

  /// Variable names in record order.
  std::vector<std::string> variable_names() const {
    std::vector<std::string> out;
    out.reserve(variables.size());
    for (const auto& var : variables) out.push_back(var.name);
    return out;
  }
};

/// md.idx (and footer) entry: where a step's metadata lives inside md.0,
/// and the CRC32C of that whole metadata block.
struct IndexEntry {
  std::uint64_t step = 0;
  std::uint64_t md_offset = 0;
  std::uint64_t md_length = 0;
  std::uint32_t md_crc = 0;
};

}  // namespace bitio::bp
