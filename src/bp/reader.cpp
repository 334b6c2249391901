#include "bp/reader.hpp"

#include <cstring>

#include "bp/format.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"

namespace bitio::bp {

Reader::Reader(fsim::SharedFs& fs, fsim::ClientId client, std::string path)
    : fs_(fs), client_(client), path_(std::move(path)) {
  fsim::FsClient io(fs_, client_);
  const auto md_bytes = io.read_all(path_ + "/md.0");
  // A closed container carries its index in the md.0 footer; without an
  // intact one (still being written, torn or corrupt tail) md.idx serves.
  // Either way the same entries drive the one decode loop below.
  std::optional<std::vector<IndexEntry>> index = decode_footer(md_bytes);
  footer_used_ = index.has_value();
  if (!footer_used_) index = decode_index(io.read_all(path_ + "/md.idx"));
  for (const auto& entry : *index) {
    if (entry.md_offset > md_bytes.size() ||
        entry.md_length > md_bytes.size() - entry.md_offset)
      throw FormatError("bp::Reader: index points past md.0");
    const std::span<const std::uint8_t> block(
        md_bytes.data() + entry.md_offset, entry.md_length);
    StepRecord record = decode_step(block);
    // The index repeats each block's CRC: cross-check that the index and
    // md.0 agree on which bytes hold the step.
    if (step_block_crc(block) != entry.md_crc)
      throw FormatError(
          "bp::Reader: step metadata CRC mismatch between the index and md.0");
    if (record.step != entry.step)
      throw FormatError(
          "bp::Reader: step id mismatch between the index and md.0");
    steps_[record.step].record = std::move(record);  // later entries win
  }
  for (auto& [id, step] : steps_) {
    (void)id;
    for (const VarRecord& var : step.record.variables)
      step.variables.try_emplace(var.name, &var);
    for (const auto& [name, value] : step.record.attributes)
      step.attributes.try_emplace(name, &value);
  }
}

std::vector<std::uint64_t> Reader::steps() const {
  std::vector<std::uint64_t> out;
  out.reserve(steps_.size());
  for (const auto& [id, step] : steps_) {
    (void)step;
    out.push_back(id);
  }
  return out;
}

bool Reader::has_step(std::uint64_t step) const {
  return steps_.count(step) > 0;
}

const StepRecord& Reader::step(std::uint64_t step) const {
  auto it = steps_.find(step);
  if (it == steps_.end())
    throw UsageError("bp::Reader: no step " + std::to_string(step));
  return it->second.record;
}

std::vector<std::string> Reader::variables(std::uint64_t step) const {
  return this->step(step).variable_names();
}

const VarRecord* Reader::find_variable(std::uint64_t step,
                                       const std::string& name) const {
  const auto it = steps_.find(step);
  if (it == steps_.end()) return nullptr;
  const auto var = it->second.variables.find(name);
  return var == it->second.variables.end() ? nullptr : var->second;
}

const ChunkRecord* Reader::find_chunk(std::uint64_t step,
                                      const std::string& name,
                                      std::uint32_t writer_rank) const {
  const VarRecord* var = find_variable(step, name);
  if (!var) return nullptr;
  for (const auto& chunk : var->chunks)
    if (chunk.writer_rank == writer_rank) return &chunk;
  return nullptr;
}

std::vector<std::uint8_t> Reader::read_chunk(std::uint64_t step,
                                             const std::string& name,
                                             std::uint32_t writer_rank) {
  const VarRecord* var = find_variable(step, name);
  const ChunkRecord* chunk =
      var ? find_chunk(step, name, writer_rank) : nullptr;
  if (!chunk)
    throw UsageError("bp::Reader: no chunk of '" + name + "' by rank " +
                     std::to_string(writer_rank) + " in step " +
                     std::to_string(step));
  fsim::FsClient io(fs_, client_);
  return fetch_chunk(io, *var, *chunk, decompress_speed_bps(*var));
}

std::vector<std::uint8_t> Reader::read_slice(std::uint64_t step,
                                             const std::string& name,
                                             std::uint64_t elem_offset,
                                             std::uint64_t elem_count) {
  const VarRecord* var = find_variable(step, name);
  if (!var)
    throw UsageError("bp::Reader: no variable '" + name + "' in step " +
                     std::to_string(step));
  if (var->shape.size() != 1)
    throw UsageError("bp::Reader: read_slice requires a 1-D variable");
  if (!chunk_in_shape(var->shape, {elem_offset}, {elem_count}))
    throw UsageError("bp::Reader: slice of '" + name +
                     "' exceeds the global extent");
  const std::size_t elem = dtype_size(var->dtype);
  std::vector<std::uint8_t> out(elem_count * elem, 0);

  fsim::FsClient io(fs_, client_);
  const double decode_bps = decompress_speed_bps(*var);
  for (const auto& chunk : var->chunks) {
    const std::uint64_t c_begin = chunk.offset[0];
    const std::uint64_t c_end = c_begin + chunk.count[0];
    const std::uint64_t lo = std::max(c_begin, elem_offset);
    const std::uint64_t hi = std::min(c_end, elem_offset + elem_count);
    if (lo >= hi) continue;  // no overlap: this chunk is never read
    const std::vector<std::uint8_t> raw =
        fetch_chunk(io, *var, chunk, decode_bps);
    std::memcpy(out.data() + (lo - elem_offset) * elem,
                raw.data() + (lo - c_begin) * elem, (hi - lo) * elem);
  }
  return out;
}

std::string Reader::subfile_path(const ChunkRecord& chunk) const {
  return path_ + "/data." + std::to_string(chunk.subfile);
}

std::optional<std::vector<std::uint8_t>> Reader::read_stored(
    fsim::FsClient& io, const ChunkRecord& chunk) {
  const int fd = io.open(subfile_path(chunk), fsim::OpenMode::read);
  // Bound the extent by the subfile before allocating for it: a CRC-valid
  // record can still claim any stored_bytes.
  const std::uint64_t size = io.fd_size(fd);
  std::optional<std::vector<std::uint8_t>> stored;
  if (chunk.file_offset <= size &&
      chunk.stored_bytes <= size - chunk.file_offset) {
    stored.emplace(chunk.stored_bytes);
    if (io.pread(fd, chunk.file_offset, *stored) != chunk.stored_bytes)
      stored.reset();
  }
  io.close(fd);
  return stored;
}

std::vector<std::uint8_t> Reader::fetch_chunk(fsim::FsClient& io,
                                              const VarRecord& var,
                                              const ChunkRecord& chunk,
                                              double decode_bps) {
  const std::string subfile = subfile_path(chunk);
  std::optional<std::vector<std::uint8_t>> stored = read_stored(io, chunk);
  if (!stored)
    throw FormatError("bp::Reader: short read of chunk in " + subfile);
  std::vector<std::uint8_t> raw = decode_chunk(
      var, chunk, std::move(*stored), "'" + var.name + "' in " + subfile);
  if (decode_bps > 0.0)
    io.charge_cpu(double(raw.size()) / decode_bps, fsim::TraceTag::decompress);
  return raw;
}

std::vector<std::uint8_t> Reader::read(std::uint64_t step,
                                       const std::string& name) {
  const VarRecord* var = find_variable(step, name);
  if (!var)
    throw UsageError("bp::Reader: no variable '" + name + "' in step " +
                     std::to_string(step));
  const std::size_t elem = dtype_size(var->dtype);
  std::vector<std::uint8_t> out(array_bytes(*var), 0);

  fsim::FsClient io(fs_, client_);
  const double decode_bps = decompress_speed_bps(*var);
  for (const auto& chunk : var->chunks)
    scatter_chunk(out, var->shape, chunk, elem,
                  fetch_chunk(io, *var, chunk, decode_bps));
  return out;
}

std::vector<Reader::ChunkVerdict> Reader::verify() {
  std::vector<ChunkVerdict> verdicts;
  fsim::FsClient io(fs_, client_);
  for (const auto& [id, step] : steps_) {
    for (const auto& var : step.record.variables) {
      for (const auto& chunk : var.chunks) {
        ChunkVerdict verdict;
        verdict.step = id;
        verdict.var = var.name;
        verdict.writer_rank = chunk.writer_rank;
        verdict.subfile = chunk.subfile;
        verdict.file_offset = chunk.file_offset;
        if (!chunk.has_crc) {
          verdict.status = ChunkVerdict::Status::no_crc;
          verdicts.push_back(std::move(verdict));
          continue;
        }
        const std::optional<std::vector<std::uint8_t>> stored =
            read_stored(io, chunk);
        if (!stored)
          verdict.status = ChunkVerdict::Status::short_read;
        else if (crc32c(*stored) != chunk.crc32c)
          verdict.status = ChunkVerdict::Status::crc_mismatch;
        else
          verdict.status = ChunkVerdict::Status::ok;
        verdicts.push_back(std::move(verdict));
      }
    }
  }
  return verdicts;
}

bool Reader::all_ok(const std::vector<ChunkVerdict>& verdicts) {
  for (const auto& v : verdicts)
    if (v.status == ChunkVerdict::Status::short_read ||
        v.status == ChunkVerdict::Status::crc_mismatch)
      return false;
  return true;
}

std::optional<AttrValue> Reader::attribute(std::uint64_t step,
                                           const std::string& name) const {
  const auto it = steps_.find(step);
  if (it == steps_.end()) return std::nullopt;
  const auto attr = it->second.attributes.find(name);
  if (attr == it->second.attributes.end()) return std::nullopt;
  return *attr->second;
}

}  // namespace bitio::bp
