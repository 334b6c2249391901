#include "bp/format.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>
#include <type_traits>

#include "compress/parallel.hpp"
#include "fsim/storage_model.hpp"
#include "util/crc32c.hpp"

namespace bitio::bp {

namespace {

/// Byte size of `var`'s whole global array; FormatError when it overflows
/// uint64.
std::uint64_t shape_bytes(const VarRecord& var) {
  std::uint64_t bytes = dtype_size(var.dtype);
  for (const std::uint64_t extent : var.shape)
    if (__builtin_mul_overflow(bytes, extent, &bytes))
      throw FormatError("bp: shape of '" + var.name + "' overflows");
  return bytes;
}

std::size_t str_bytes(std::string_view s) { return 4 + s.size(); }
std::size_t dims_bytes(const Dims& d) { return 4 + 8 * d.size(); }

static_assert(std::endian::native == std::endian::little,
              "MD07 is written with native word stores");

/// Little-endian word stores into a block sized in advance: each writes
/// its field at `at` and returns the byte past it.
template <typename T>
  requires std::is_integral_v<T>
std::uint8_t* store(std::uint8_t* at, T v) {
  std::memcpy(at, &v, sizeof v);
  return at + sizeof v;
}
std::uint8_t* store(std::uint8_t* at, std::string_view s) {
  at = store(at, std::uint32_t(s.size()));
  if (!s.empty()) std::memcpy(at, s.data(), s.size());
  return at + s.size();
}
std::uint8_t* store(std::uint8_t* at, const Dims& d) {
  at = store(at, std::uint32_t(d.size()));
  for (const std::uint64_t v : d) at = store(at, v);
  return at;
}

std::size_t attr_bytes(const std::string& name, const AttrValue& value) {
  const auto* text = std::get_if<std::string>(&value);
  return str_bytes(name) + 1 + (text ? str_bytes(*text) : 8);
}

std::uint8_t* store_attr(std::uint8_t* at, const std::string& name,
                         const AttrValue& value) {
  at = store(at, std::string_view(name));
  at = store(at, std::uint8_t(value.index()));
  if (const auto* s = std::get_if<std::string>(&value))
    return store(at, std::string_view(*s));
  if (const auto* d = std::get_if<double>(&value))
    return store(at, std::bit_cast<std::uint64_t>(*d));
  return store(at, std::get<std::uint64_t>(value));
}

/// A dims field read straight into Dims; a rank above kMaxRank is corrupt
/// metadata.
Dims read_dims(BinReader& reader) {
  const std::uint32_t rank = reader.u32();
  if (rank > kMaxRank)
    throw FormatError("bp: step metadata declares rank " +
                      std::to_string(rank) + ", above kMaxRank (3)");
  Dims d;
  for (std::uint32_t i = 0; i < rank; ++i) d.push_back(reader.u64());
  return d;
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

// Smallest encodings of a variable record (empty name, shape and operator,
// no chunks) and of a chunk record (empty offset and count).  A record count
// read from the block is checked against them before anything is reserved,
// so a CRC-valid block cannot ask for more records than its bytes can hold.
constexpr std::size_t kMinVarRecordBytes = 4 + 1 + 4 + 4 + 4;
constexpr std::size_t kMinChunkRecordBytes = chunk_record_bytes(0, 0);

std::uint32_t record_count(BinReader& reader, std::size_t min_record_bytes,
                           const char* what) {
  const std::uint32_t n = reader.u32();
  if (n > reader.remaining() / min_record_bytes)
    throw FormatError(std::string("bp: step metadata claims more ") + what +
                      " than its bytes hold");
  return n;
}

}  // namespace

std::size_t step_block_bytes(
    std::span<const VarLayout> vars,
    std::span<const std::pair<std::string, AttrValue>> attributes) {
  std::size_t size = 4 + 8 + 4;  // magic, step, variable count
  for (const VarLayout& var : vars)
    size += str_bytes(var.name) + 1 + dims_bytes(var.shape) +
            str_bytes(var.operator_name) + 4 + var.chunk_bytes;
  size += 4;  // attribute count
  for (const auto& [name, value] : attributes) size += attr_bytes(name, value);
  return size + 4;  // trailing CRC
}

void lay_out_step(
    std::uint64_t step, std::span<const VarLayout> vars,
    std::span<const std::pair<std::string, AttrValue>> attributes,
    std::span<std::uint8_t> block, std::span<std::size_t> chunk_slots) {
  if (block.size() != step_block_bytes(vars, attributes))
    throw Error("bp: MD07 block of the wrong size");
  std::uint8_t* const base = block.data();
  std::uint8_t* at = store(base, kMdMagic);
  at = store(at, step);
  at = store(at, std::uint32_t(vars.size()));
  for (std::size_t v = 0; v < vars.size(); ++v) {
    const VarLayout& var = vars[v];
    at = store(at, var.name);
    at = store(at, std::uint8_t(var.dtype));
    at = store(at, var.shape);
    at = store(at, var.operator_name);
    at = store(at, var.chunks);
    chunk_slots[v] = std::size_t(at - base);
    at += var.chunk_bytes;
  }
  at = store(at, std::uint32_t(attributes.size()));
  for (const auto& [name, value] : attributes) at = store_attr(at, name, value);
  if (at != base + block.size() - 4)
    throw Error("bp: MD07 layout wrote other than its size");
}

std::uint8_t* encode_chunk_record(std::uint8_t* at,
                                  std::span<const std::uint64_t> offset,
                                  std::span<const std::uint64_t> count,
                                  const ChunkRecord& chunk) {
  at = store(at, std::uint32_t(offset.size()));
  for (const std::uint64_t v : offset) at = store(at, v);
  at = store(at, std::uint32_t(count.size()));
  for (const std::uint64_t v : count) at = store(at, v);
  at = store(at, chunk.writer_rank);
  at = store(at, chunk.subfile);
  at = store(at, chunk.file_offset);
  at = store(at, chunk.stored_bytes);
  at = store(at, chunk.raw_bytes);
  at = store(at, std::bit_cast<std::uint64_t>(chunk.stat_min));
  at = store(at, std::bit_cast<std::uint64_t>(chunk.stat_max));
  at = store(at, std::uint8_t(chunk.has_crc ? 1 : 0));
  return store(at, chunk.crc32c);
}

std::uint32_t seal_step(std::span<std::uint8_t> block) {
  // The metadata block protects itself: trailing CRC32C over everything
  // before it, verified before any field is trusted on decode.
  const std::span<std::uint8_t> body = block.first(block.size() - 4);
  const std::uint32_t crc = crc32c(body);
  store(block.data() + body.size(), crc);
  return crc;
}

EncodedStep encode_step(const StepRecord& record) {
  std::vector<VarLayout> vars;
  vars.reserve(record.variables.size());
  for (const VarRecord& var : record.variables) {
    std::size_t chunk_bytes = 0;
    for (const ChunkRecord& chunk : var.chunks)
      chunk_bytes +=
          chunk_record_bytes(chunk.offset.size(), chunk.count.size());
    vars.push_back({var.name, var.dtype, var.shape, var.operator_name,
                    std::uint32_t(var.chunks.size()), chunk_bytes});
  }
  EncodedStep out{
      std::vector<std::uint8_t>(step_block_bytes(vars, record.attributes)),
      0};
  std::vector<std::size_t> slots(vars.size());
  lay_out_step(record.step, vars, record.attributes, out.bytes, slots);
  for (std::size_t v = 0; v < vars.size(); ++v) {
    std::uint8_t* at = out.bytes.data() + slots[v];
    for (const ChunkRecord& chunk : record.variables[v].chunks)
      at = encode_chunk_record(at, {chunk.offset.begin(), chunk.offset.end()},
                               {chunk.count.begin(), chunk.count.end()},
                               chunk);
    if (at != out.bytes.data() + slots[v] + vars[v].chunk_bytes)
      throw Error("bp: chunk records missed their MD07 slots");
  }
  out.crc = seal_step(out.bytes);
  return out;
}

std::uint32_t step_block_crc(std::span<const std::uint8_t> block) {
  if (block.size() < 4) throw FormatError("bp: truncated step metadata");
  return BinReader(block.last(4)).u32();
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
  const std::uint32_t nvars =
      record_count(reader, kMinVarRecordBytes, "variables");
  record.variables.reserve(nvars);
  for (std::uint32_t v = 0; v < nvars; ++v) {
    VarRecord var;
    var.name = reader.str();
    const std::uint8_t dtype = reader.u8();
    if (dtype > std::uint8_t(Datatype::float64))
      throw FormatError("bp: bad datatype tag");
    var.dtype = Datatype(dtype);
    var.shape = read_dims(reader);
    // Readers allocate the whole global array, so its byte size must not
    // wrap.
    (void)shape_bytes(var);
    // Every read decodes through the operator named here, so a name no
    // codec answers to is corrupt metadata, rejected before any read.
    var.operator_name = reader.str();
    if (!var.operator_name.empty() &&
        std::find(std::begin(cz::kCodecNames), std::end(cz::kCodecNames),
                  var.operator_name) == std::end(cz::kCodecNames))
      throw FormatError("bp: unknown operator '" + var.operator_name +
                        "' on '" + var.name + "'");
    const std::uint32_t nchunks =
        record_count(reader, kMinChunkRecordBytes, "chunks");
    var.chunks.reserve(nchunks);
    for (std::uint32_t c = 0; c < nchunks; ++c) {
      ChunkRecord chunk;
      chunk.offset = read_dims(reader);
      chunk.count = read_dims(reader);
      chunk.writer_rank = reader.u32();
      chunk.subfile = reader.u32();
      chunk.file_offset = reader.u64();
      chunk.stored_bytes = reader.u64();
      chunk.raw_bytes = reader.u64();
      chunk.stat_min = reader.f64();
      chunk.stat_max = reader.f64();
      chunk.has_crc = reader.u8() != 0;
      chunk.crc32c = reader.u32();
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
  return meta;
}

std::uint64_t synthetic_stored_bytes(const cz::Codec* codec,
                                     double codec_ratio,
                                     std::uint64_t raw_bytes) {
  return codec ? std::uint64_t(double(raw_bytes) * codec_ratio) : raw_bytes;
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
      synthetic_stored_bytes(codec, codec_ratio, meta.raw_bytes);
  return meta;
}

std::size_t array_bytes(const VarRecord& var) {
  constexpr std::uint64_t kMaxArrayBytes = std::uint64_t(1) << 48;
  const std::uint64_t bytes = shape_bytes(var);
  if (bytes > kMaxArrayBytes)
    throw FormatError("bp: shape of '" + var.name + "' needs " +
                      std::to_string(bytes) +
                      " bytes, more than a reader can allocate");
  return std::size_t(bytes);
}

std::vector<std::uint8_t> decode_chunk(const VarRecord& var,
                                       const ChunkRecord& chunk,
                                       std::vector<std::uint8_t> stored,
                                       const std::string& where) {
  if (chunk.has_crc && crc32c(stored) != chunk.crc32c)
    throw FormatError("bp: chunk CRC mismatch for " + where);
  const std::uint64_t raw_size =
      element_count(chunk.count) * dtype_size(var.dtype);
  // The frame decode checks the size the frame declares against raw_size
  // before it allocates anything for the output.
  std::vector<std::uint8_t> raw =
      var.operator_name.empty()
          ? std::move(stored)
          : cz::decompress_frame(stored, /*threads=*/1, raw_size);
  if (raw.size() != raw_size)
    throw FormatError("bp: chunk payload size mismatch for " + where);
  return raw;
}

double decompress_speed_bps(const VarRecord& var) {
  if (var.operator_name.empty()) return 0.0;
  return cz::make_codec(var.operator_name, dtype_size(var.dtype))
      ->decompress_speed_bps();
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
