#include "bp/format.hpp"

#include <cstring>

#include "compress/parallel.hpp"
#include "fsim/storage_model.hpp"
#include "util/crc32c.hpp"
#include "util/hash64.hpp"

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

/// Min/max over a real chunk's elements for the metadata statistics.
template <typename T>
void minmax(std::span<const std::uint8_t> data, double& lo, double& hi) {
  const std::size_t n = data.size() / sizeof(T);
  if (n == 0) return;
  const T* p = reinterpret_cast<const T*>(data.data());
  T mn = p[0], mx = p[0];
  for (std::size_t i = 1; i < n; ++i) {
    if (p[i] < mn) mn = p[i];
    if (p[i] > mx) mx = p[i];
  }
  lo = double(mn);
  hi = double(mx);
}

void compute_stats(Datatype dtype, std::span<const std::uint8_t> data,
                   ChunkRecord& meta) {
  switch (dtype) {
    case Datatype::uint8:
      minmax<std::uint8_t>(data, meta.stat_min, meta.stat_max);
      break;
    case Datatype::int32:
      minmax<std::int32_t>(data, meta.stat_min, meta.stat_max);
      break;
    case Datatype::uint64:
      minmax<std::uint64_t>(data, meta.stat_min, meta.stat_max);
      break;
    case Datatype::float32:
      minmax<float>(data, meta.stat_min, meta.stat_max);
      break;
    case Datatype::float64:
      minmax<double>(data, meta.stat_min, meta.stat_max);
      break;
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
    // Readers allocate the whole global array, so its byte size must not
    // wrap.
    std::uint64_t var_bytes = dtype_size(var.dtype);
    for (const std::uint64_t extent : var.shape)
      if (__builtin_mul_overflow(var_bytes, extent, &var_bytes))
        throw FormatError("bp: shape of '" + var.name + "' overflows");
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
      // A CRC-valid block can still describe a chunk outside its variable;
      // every reader scatters by these fields, so reject it here.
      if (!chunk_in_shape(var.shape, chunk.offset, chunk.count))
        throw FormatError("bp: chunk of '" + var.name +
                          "' lies outside its shape");
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

// --- chunk path --------------------------------------------------------------

double compress_cpu_seconds(const cz::Codec& codec, std::uint64_t raw_bytes,
                            int compress_threads,
                            std::size_t compress_block_kb) {
  const double serial = double(raw_bytes) / codec.compress_speed_bps();
  if (compress_threads <= 1) return serial;
  const std::uint64_t block = std::uint64_t(compress_block_kb) * 1024;
  const std::uint64_t nblocks =
      raw_bytes == 0 ? 0 : (raw_bytes + block - 1) / block;
  return fsim::parallel_cpu_seconds(serial, compress_threads, nblocks);
}

void check_put(bool step_open, int rank, int nranks, const std::string& name,
               const Dims& shape, const Dims& offset, const Dims& count) {
  if (!step_open) throw UsageError("bp::put: no open step");
  if (rank < 0 || rank >= nranks)
    throw UsageError("bp::put: rank out of range");
  if (!chunk_in_shape(shape, offset, count))
    throw UsageError("bp::put: chunk of '" + name +
                     "' does not fit its global shape");
}

ChunkRecord marshal_chunk(const cz::Codec* codec, Datatype dtype,
                          std::span<const std::uint8_t> raw, Dims offset,
                          Dims count, std::uint32_t writer_rank,
                          std::vector<std::uint8_t>& dst) {
  ChunkRecord meta;
  meta.offset = std::move(offset);
  meta.count = std::move(count);
  meta.writer_rank = writer_rank;
  meta.raw_bytes = raw.size();
  const std::size_t start = dst.size();
  if (codec) {
    // compress_append() straight into the destination: no intermediate
    // frame vector, no copy.
    meta.operator_name = codec->name();
    codec->compress_append(raw, dst);
  } else {
    dst.insert(dst.end(), raw.begin(), raw.end());
  }
  const std::span<const std::uint8_t> stored(dst.data() + start,
                                             dst.size() - start);
  meta.stored_bytes = stored.size();
  // End-to-end integrity over the stored bytes, re-checked on every read.
  meta.crc32c = crc32c(stored);
  meta.has_crc = true;
  compute_stats(dtype, raw, meta);
  // Content identity over the raw bytes: the dedup key the
  // incremental-checkpoint layer compares across epochs.
  meta.content_hash = util::hash64(raw);
  meta.has_content_hash = true;
  return meta;
}

ChunkRecord synthetic_chunk(const cz::Codec* codec, double codec_ratio,
                            Datatype dtype, Dims offset, Dims count,
                            std::uint32_t writer_rank) {
  ChunkRecord meta;
  meta.raw_bytes = element_count(count) * dtype_size(dtype);
  meta.offset = std::move(offset);
  meta.count = std::move(count);
  meta.writer_rank = writer_rank;
  meta.stored_bytes =
      codec ? std::uint64_t(double(meta.raw_bytes) * codec_ratio)
            : meta.raw_bytes;
  if (codec) meta.operator_name = codec->name();
  return meta;
}

std::vector<std::uint8_t> decode_chunk(const ChunkRecord& chunk,
                                       std::size_t elem,
                                       std::vector<std::uint8_t> stored,
                                       const std::string& where) {
  if (chunk.has_crc && crc32c(stored) != chunk.crc32c)
    throw FormatError("bp: chunk CRC mismatch for " + where);
  std::vector<std::uint8_t> raw = chunk.operator_name.empty()
                                      ? std::move(stored)
                                      : cz::decompress_frame(stored);
  if (raw.size() != element_count(chunk.count) * elem)
    throw FormatError("bp: chunk payload size mismatch for " + where);
  return raw;
}

void scatter_chunk(std::span<std::uint8_t> out, const Dims& shape,
                   const ChunkRecord& chunk, std::size_t elem,
                   std::span<const std::uint8_t> raw) {
  const std::size_t ndim = shape.size();
  if (ndim == 0) {
    std::memcpy(out.data(), raw.data(), raw.size());
    return;
  }
  // Iterate over the chunk's rows in the slowest dimensions; each row of
  // `count.back()` elements is contiguous in both source and destination.
  std::vector<std::uint64_t> stride(ndim, 1);  // global array, in elements
  for (std::size_t d = ndim - 1; d-- > 0;)
    stride[d] = stride[d + 1] * shape[d + 1];
  const std::uint64_t row_elems = chunk.count.back();
  std::uint64_t rows = 1;
  for (std::size_t d = 0; d + 1 < ndim; ++d) rows *= chunk.count[d];

  std::vector<std::uint64_t> cursor(ndim, 0);  // index within the chunk
  for (std::uint64_t r = 0; r < rows; ++r) {
    std::uint64_t dst = 0;
    for (std::size_t d = 0; d < ndim; ++d)
      dst += (chunk.offset[d] + cursor[d]) * stride[d];
    std::memcpy(out.data() + dst * elem, raw.data() + r * row_elems * elem,
                row_elems * elem);
    // Advance the row cursor (last dimension is the contiguous row).
    for (std::size_t d = ndim - 1; d-- > 0;) {
      if (++cursor[d] < chunk.count[d]) break;
      cursor[d] = 0;
    }
  }
}

}  // namespace bitio::bp
