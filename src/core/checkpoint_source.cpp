#include "core/checkpoint_source.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"
#include "util/hash64.hpp"

namespace bitio::core {

CheckpointSource::CheckpointSource(fsim::SharedFs& fs, const std::string& path,
                                   std::vector<BlockRef> refs,
                                   EpochPath epoch_path)
    : fs_(fs),
      own_(bp::Reader::open(fs, 0, path)),
      refs_(std::move(refs)),
      epoch_path_(std::move(epoch_path)) {
  const bp::StepRecord& step = own_.step(0);
  const auto time = own_.attribute(0, "time");
  const double* t = time ? std::get_if<double>(&*time) : nullptr;
  if (!t) throw FormatError("checkpoint: '" + path + "' has no time attribute");
  step_ = std::uint64_t(*t);
  // Own chunks: everything the container stores.
  for (const auto& var : step.variables) {
    Variable& table = vars_[var.name];
    table.extent = var.shape.empty() ? 0 : var.shape[0];
    for (const auto& chunk : var.chunks)
      if (!chunk.count.empty() && chunk.count[0] > 0)
        table.blocks.push_back(Block{chunk.offset[0], chunk.count[0],
                                     int(chunk.writer_rank), nullptr});
  }
  // Referenced blocks: bytes live in an earlier epoch, placed at this
  // checkpoint's offsets; the reference hash pins the exact content.
  for (const BlockRef& ref : refs_)
    if (ref.count > 0)
      vars_[ref.var].blocks.push_back(
          Block{ref.offset, ref.count, ref.rank, &ref});
  // The blocks of each variable must tile it from element 0: an overlap
  // would let one block's bytes stand in for another's range.
  for (auto& [name, table] : vars_) {
    std::sort(table.blocks.begin(), table.blocks.end(),
              [](const Block& a, const Block& b) {
                return a.offset < b.offset;
              });
    std::uint64_t end = 0;
    for (const Block& block : table.blocks) {
      if (block.offset != end)
        throw FormatError("checkpoint: blocks of '" + name + "' " +
                          (block.offset < end ? "overlap" : "leave a gap") +
                          " at element " + std::to_string(block.offset));
      end += block.count;
    }
    if (!own_.find_variable(0, name))
      table.extent = end;
    else if (end > table.extent)
      throw FormatError("checkpoint: blocks of '" + name +
                        "' run past its extent");
  }
}

std::uint64_t CheckpointSource::extent(const std::string& var) const {
  const auto it = vars_.find(var);
  if (it == vars_.end())
    throw UsageError("checkpoint: no variable '" + var + "'");
  return it->second.extent;
}

std::vector<std::uint8_t> CheckpointSource::fetch(const std::string& var,
                                                  const Block& block) {
  bp::Reader* reader = &own_;
  if (block.ref) {
    auto it = bases_.find(block.ref->epoch);
    if (it == bases_.end())
      it = bases_
               .emplace(block.ref->epoch,
                        std::make_unique<bp::Reader>(bp::Reader::open(
                            fs_, 0, epoch_path_(block.ref->epoch))))
               .first;
    reader = it->second.get();
  }
  const std::string home =
      block.ref ? "epoch " + std::to_string(block.ref->epoch) : "checkpoint";
  std::vector<std::uint8_t> raw =
      reader->read_chunk(0, var, std::uint32_t(block.rank));
  if (raw.size() != block.count * 8)
    throw FormatError("checkpoint: block size mismatch on '" + var + "' in " +
                      home);
  // A referenced block must still hold the bytes the manifest committed
  // to — a rewritten or swapped base chunk is corruption, not reuse.
  if (block.ref && util::hash64(raw) != block.ref->hash)
    throw FormatError("checkpoint: content hash mismatch on '" + var +
                      "' block of rank " + std::to_string(block.rank) +
                      " in " + home);
  return raw;
}

std::vector<std::uint64_t> CheckpointSource::read(const std::string& var,
                                                  std::uint64_t elem_offset,
                                                  std::uint64_t count) {
  std::vector<std::uint64_t> out(count, 0);
  if (count == 0) return out;
  const auto it = vars_.find(var);
  if (it == vars_.end())
    throw UsageError("checkpoint: no variable '" + var + "'");
  std::uint64_t covered = 0;
  for (const Block& block : it->second.blocks) {
    const std::uint64_t lo = std::max(block.offset, elem_offset);
    const std::uint64_t hi =
        std::min(block.offset + block.count, elem_offset + count);
    if (lo >= hi) continue;  // block outside the range: never read
    const std::vector<std::uint8_t> raw = fetch(var, block);
    std::memcpy(out.data() + (lo - elem_offset),
                raw.data() + (lo - block.offset) * 8, (hi - lo) * 8);
    covered += hi - lo;
    blocks_read_ += 1;
  }
  if (covered != count)
    throw FormatError("checkpoint: range [" + std::to_string(elem_offset) +
                      ", " + std::to_string(elem_offset + count) + ") of '" +
                      var + "' is not fully stored");
  return out;
}

std::uint64_t CheckpointSource::verify() {
  std::uint64_t bad = 0;
  for (const auto& verdict : own_.verify())
    if (verdict.status == bp::Reader::ChunkVerdict::Status::short_read ||
        verdict.status == bp::Reader::ChunkVerdict::Status::crc_mismatch)
      bad += 1;
  for (const BlockRef& ref : refs_) {
    try {
      (void)fetch(ref.var, Block{ref.offset, ref.count, ref.rank, &ref});
    } catch (const Error&) {
      bad += 1;  // base gone, chunk missing, CRC or content hash broken
    }
  }
  return bad;
}

}  // namespace bitio::core
