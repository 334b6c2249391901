#pragma once
// miniBP reader: opens a BP4/BP5 container, parses md.idx and md.0, and
// reassembles global arrays from the per-rank chunks (decompressing where
// an operator was recorded).
//
// "Rapid metadata extraction in BP4 format" (the paper's phrase): opening a
// container touches only the two small metadata files, never the data
// subfiles; chunk data is read on demand with exact offsets.
//
// Steps may be appended more than once under the same step id (the
// checkpoint pattern: iteration 0 is periodically overwritten) — the reader
// exposes the *latest* record for each id, like BP4 readers see the final
// state.
//
// Open path: one read of md.0.  A closed container ends md.0 with a footer
// — the index entry of every step plus a fixed trailer — so open() needs
// no second file.  A container still being written (attached mid-run via
// publish_index) or one whose footer is torn or corrupt takes its entries
// from md.idx instead.  Either way the same CRC-checked decode of the md.0
// step blocks follows; used_footer_index() reports which index served.

#include <cstring>
#include <map>
#include <optional>

#include "bp/types.hpp"
#include "fsim/posix_fs.hpp"

namespace bitio::bp {

class Reader {
public:
  /// Open a container (Reader holds a SharedFs reference, so it is not
  /// assignable; C++17 guaranteed elision makes this returnable).  Engine
  /// call sites use bp::attach_reader (src/bp/engine.hpp) instead.
  [[nodiscard]] static Reader open(fsim::SharedFs& fs, fsim::ClientId client,
                                   std::string path) {
    return Reader(fs, client, std::move(path));
  }

  /// Distinct step ids, ascending.
  [[nodiscard]] std::vector<std::uint64_t> steps() const;
  [[nodiscard]] bool has_step(std::uint64_t step) const;

  /// Latest metadata record for a step.  Throws UsageError if absent.
  [[nodiscard]] const StepRecord& step(std::uint64_t step) const;

  /// Variable names in a step.
  [[nodiscard]] std::vector<std::string> variables(std::uint64_t step) const;

  /// Find a variable's record in a step; nullptr if absent.
  [[nodiscard]] const VarRecord* find_variable(std::uint64_t step,
                                               const std::string& name) const;

  /// Find the chunk a specific writer rank stored for a variable in a step;
  /// nullptr if absent.  The (step, var, writer_rank) triple is the block
  /// address the incremental-checkpoint layer deduplicates on.
  [[nodiscard]] const ChunkRecord* find_chunk(std::uint64_t step,
                                              const std::string& name,
                                              std::uint32_t writer_rank) const;

  /// True when open() took its index from the md.0 footer rather than
  /// from md.idx.
  [[nodiscard]] bool used_footer_index() const { return footer_used_; }

  /// Read and reassemble the full global array of a variable.  Every chunk
  /// with stored bytes carries a CRC, verified here; a mismatch raises
  /// FormatError.  Use verify() for a non-throwing per-chunk report.
  [[nodiscard]] std::vector<std::uint8_t> read(std::uint64_t step,
                                               const std::string& name);

  /// Read one writer rank's chunk of a variable: exactly one data-subfile
  /// pread of the stored bytes, CRC-verified and decompressed.  Throws
  /// UsageError when the chunk is absent, FormatError on corruption.  This
  /// is the random-access primitive of chain restore: only the referenced
  /// block's bytes are read, never the rest of the container.
  [[nodiscard]] std::vector<std::uint8_t> read_chunk(
      std::uint64_t step, const std::string& name, std::uint32_t writer_rank);

  /// Read `elem_count` elements starting at `elem_offset` of a 1-D
  /// variable's global array, touching only the chunks that overlap the
  /// slice (each fetched once, CRC-verified, decompressed).  Throws
  /// UsageError for non-1-D variables or an out-of-extent slice.
  [[nodiscard]] std::vector<std::uint8_t> read_slice(std::uint64_t step,
                                                     const std::string& name,
                                                     std::uint64_t elem_offset,
                                                     std::uint64_t elem_count);

  /// Per-chunk integrity verdict from a verify() scrub.
  struct ChunkVerdict {
    enum class Status {
      ok,            // CRC present and matching
      no_crc,        // synthetic chunk: no stored bytes to check
      short_read,    // stored extent missing bytes (torn write)
      crc_mismatch,  // bytes present but corrupt (bit flip)
    };
    std::uint64_t step = 0;
    std::string var;
    std::uint32_t writer_rank = 0;
    std::uint32_t subfile = 0;
    std::uint64_t file_offset = 0;
    Status status = Status::ok;
  };

  /// Re-read and re-checksum every chunk of every step, reporting a verdict
  /// per chunk instead of throwing on the first error (the scrub pass the
  /// resilience layer runs over checkpoint epochs).  Metadata was already
  /// CRC-verified at open.
  [[nodiscard]] std::vector<ChunkVerdict> verify();

  /// True iff every verdict in `verify()` is ok or no_crc.
  [[nodiscard]] static bool all_ok(const std::vector<ChunkVerdict>& verdicts);

  template <typename T>
  [[nodiscard]] std::vector<T> read_as(std::uint64_t step,
                                       const std::string& name) {
    const VarRecord* var = find_variable(step, name);
    if (!var) throw UsageError("bp::Reader: no variable '" + name + "'");
    if (var->dtype != datatype_of<T>::value)
      throw UsageError("bp::Reader: datatype mismatch for '" + name + "'");
    const auto bytes = read(step, name);
    std::vector<T> out(bytes.size() / sizeof(T));
    std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  }

  /// Step attribute lookup; nullopt if absent.
  [[nodiscard]] std::optional<AttrValue> attribute(
      std::uint64_t step, const std::string& name) const;

private:
  Reader(fsim::SharedFs& fs, fsim::ClientId client, std::string path);

  /// data.<subfile> of `chunk` inside this container.
  [[nodiscard]] std::string subfile_path(const ChunkRecord& chunk) const;

  /// pread one chunk's stored extent; nullopt when the extent runs past
  /// the end of its subfile (checked before anything is allocated) or the
  /// read comes back short.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> read_stored(
      fsim::FsClient& io, const ChunkRecord& chunk);

  /// Fetch one chunk of `var`: read_stored, then decode_chunk (CRC,
  /// operator, size), charging the decode at `decode_bps` (the variable's
  /// decompress_speed_bps, 0 = no operator).  Throws FormatError on a
  /// short read or any decode_chunk failure.
  [[nodiscard]] std::vector<std::uint8_t> fetch_chunk(
      fsim::FsClient& io, const VarRecord& var, const ChunkRecord& chunk,
      double decode_bps);

  fsim::SharedFs& fs_;
  fsim::ClientId client_;
  std::string path_;
  std::map<std::uint64_t, StepRecord> steps_;  // latest record per id
  bool footer_used_ = false;
};

}  // namespace bitio::bp
