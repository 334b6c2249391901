#include "bp/format.hpp"

#include "util/crc32c.hpp"

namespace bitio::bp {

namespace {

void encode_attr(BinWriter& writer, const std::string& name,
                 const AttrValue& value) {
  writer.str(name);
  writer.u8(std::uint8_t(value.index()));
  if (const auto* s = std::get_if<std::string>(&value)) {
    writer.str(*s);
  } else if (const auto* d = std::get_if<double>(&value)) {
    writer.f64(*d);
  } else {
    writer.u64(std::get<std::uint64_t>(value));
  }
}

std::pair<std::string, AttrValue> decode_attr(BinReader& reader) {
  std::string name = reader.str();
  const std::uint8_t kind = reader.u8();
  switch (kind) {
    case 0: return {std::move(name), AttrValue(reader.str())};
    case 1: return {std::move(name), AttrValue(reader.f64())};
    case 2: return {std::move(name), AttrValue(reader.u64())};
    default: throw FormatError("bp: unknown attribute kind");
  }
}

}  // namespace

EncodedStep encode_step(const StepRecord& record) {
  BinWriter writer;
  writer.u32(kMdMagic);
  writer.u64(record.step);
  writer.u32(std::uint32_t(record.variables.size()));
  for (const auto& var : record.variables) {
    writer.str(var.name);
    writer.u8(std::uint8_t(var.dtype));
    writer.dims(var.shape);
    writer.u32(std::uint32_t(var.chunks.size()));
    for (const auto& chunk : var.chunks) {
      writer.dims(chunk.offset);
      writer.dims(chunk.count);
      writer.u32(chunk.writer_rank);
      writer.u32(chunk.subfile);
      writer.u64(chunk.file_offset);
      writer.u64(chunk.stored_bytes);
      writer.u64(chunk.raw_bytes);
      writer.str(chunk.operator_name);
      writer.f64(chunk.stat_min);
      writer.f64(chunk.stat_max);
      writer.u8(chunk.has_crc ? 1 : 0);
      writer.u32(chunk.crc32c);
      writer.u8(chunk.has_content_hash ? 1 : 0);
      writer.u64(chunk.content_hash);
    }
  }
  writer.u32(std::uint32_t(record.attributes.size()));
  for (const auto& [name, value] : record.attributes)
    encode_attr(writer, name, value);
  // The metadata block protects itself: trailing CRC32C over everything
  // above, verified before any field is trusted on decode.
  writer.u32(crc32c(writer.buffer()));
  EncodedStep out{writer.take(), 0};
  out.crc = step_block_crc(out.bytes);
  return out;
}

std::uint32_t step_block_crc(std::span<const std::uint8_t> block) {
  // crc32c(body ++ tail) == crc32c(tail, crc32c(body)), and the tail of a
  // verified block *is* crc32c(body).
  if (block.size() < 4) throw FormatError("bp: truncated step metadata");
  const std::span<const std::uint8_t> tail = block.last(4);
  return crc32c(tail, BinReader(tail).u32());
}

StepRecord decode_step(std::span<const std::uint8_t> data) {
  if (data.size() < 8) throw FormatError("bp: truncated step metadata");
  if (BinReader(data).u32() != kMdMagic)
    throw FormatError("bp: bad step metadata magic (unknown format version)");
  const std::span<const std::uint8_t> body = data.first(data.size() - 4);
  if (crc32c(body) != BinReader(data.last(4)).u32())
    throw FormatError("bp: step metadata CRC mismatch");

  BinReader reader(body);
  reader.u32();  // magic, validated above
  StepRecord record;
  record.step = reader.u64();
  const std::uint32_t nvars = reader.u32();
  record.variables.reserve(nvars);
  for (std::uint32_t v = 0; v < nvars; ++v) {
    VarRecord var;
    var.name = reader.str();
    const std::uint8_t dtype = reader.u8();
    if (dtype > std::uint8_t(Datatype::float64))
      throw FormatError("bp: bad datatype tag");
    var.dtype = Datatype(dtype);
    var.shape = reader.dims();
    const std::uint32_t nchunks = reader.u32();
    var.chunks.reserve(nchunks);
    for (std::uint32_t c = 0; c < nchunks; ++c) {
      ChunkRecord chunk;
      chunk.offset = reader.dims();
      chunk.count = reader.dims();
      chunk.writer_rank = reader.u32();
      chunk.subfile = reader.u32();
      chunk.file_offset = reader.u64();
      chunk.stored_bytes = reader.u64();
      chunk.raw_bytes = reader.u64();
      chunk.operator_name = reader.str();
      chunk.stat_min = reader.f64();
      chunk.stat_max = reader.f64();
      chunk.has_crc = reader.u8() != 0;
      chunk.crc32c = reader.u32();
      chunk.has_content_hash = reader.u8() != 0;
      chunk.content_hash = reader.u64();
      var.chunks.push_back(std::move(chunk));
    }
    record.variables.push_back(std::move(var));
  }
  const std::uint32_t nattrs = reader.u32();
  for (std::uint32_t a = 0; a < nattrs; ++a)
    record.attributes.push_back(decode_attr(reader));
  if (!reader.done()) throw FormatError("bp: trailing bytes in step metadata");
  return record;
}

void put_index_header(BinWriter& writer, std::uint32_t count) {
  writer.u32(kIdxMagic);
  writer.u32(count);
}

void put_index_entry(BinWriter& writer, const IndexEntry& entry) {
  writer.u64(entry.step);
  writer.u64(entry.md_offset);
  writer.u64(entry.md_length);
  writer.u32(entry.md_crc);
  writer.u32(0);  // reserved, keeps entries 8-byte aligned
}

std::vector<std::uint8_t> encode_index(const std::vector<IndexEntry>& index) {
  BinWriter writer;
  put_index_header(writer, std::uint32_t(index.size()));
  for (const auto& entry : index) put_index_entry(writer, entry);
  return writer.take();
}

std::vector<IndexEntry> decode_index(std::span<const std::uint8_t> data) {
  BinReader reader(data);
  if (reader.u32() != kIdxMagic)
    throw FormatError("bp: bad md.idx magic (unknown format version)");
  const std::uint32_t n = reader.u32();
  if (reader.remaining() != std::size_t(n) * kIdxEntryBytes)
    throw FormatError("bp: md.idx size mismatch");
  std::vector<IndexEntry> index(n);
  for (IndexEntry& e : index) {
    e.step = reader.u64();
    e.md_offset = reader.u64();
    e.md_length = reader.u64();
    e.md_crc = reader.u32();
    reader.u32();  // reserved
  }
  return index;
}

std::vector<std::uint8_t> encode_footer(const std::vector<IndexEntry>& index,
                                        std::uint64_t footer_offset) {
  BinWriter writer;
  writer.bytes(encode_index(index));
  const std::uint64_t length = writer.buffer().size();
  const std::uint32_t crc = crc32c(writer.buffer());
  writer.u64(footer_offset);
  writer.u64(length);
  writer.u32(crc);
  writer.u32(kFtrMagic);
  return writer.take();
}

std::optional<std::vector<IndexEntry>> decode_footer(
    std::span<const std::uint8_t> md0) {
  if (md0.size() < kFtrTrailerBytes) return std::nullopt;
  const std::uint64_t end = md0.size() - kFtrTrailerBytes;
  BinReader trailer(md0.subspan(end));
  const std::uint64_t offset = trailer.u64();
  const std::uint64_t length = trailer.u64();
  const std::uint32_t crc = trailer.u32();
  if (trailer.u32() != kFtrMagic || offset > end || length != end - offset)
    return std::nullopt;
  const std::span<const std::uint8_t> body = md0.subspan(offset, length);
  if (crc32c(body) != crc) return std::nullopt;
  return decode_index(body);
}

}  // namespace bitio::bp
