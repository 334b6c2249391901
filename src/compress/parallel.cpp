#include "compress/parallel.hpp"

#include <algorithm>
#include <cstring>

#include "compress/frame.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace bitio::cz {

namespace {

constexpr std::size_t kMinBlockBytes = 4 * 1024;

bool has_magic(ByteSpan frame, const char* magic) {
  if (frame.size() < 4) return false;
  for (int i = 0; i < 4; ++i)
    if (frame[std::size_t(i)] != std::uint8_t(magic[i])) return false;
  return true;
}

/// The decoded size a frame declares in its header: a u64 after the magic,
/// behind a typesize (BLL1) or version (CZP1) byte.
std::uint64_t declared_size(ByteSpan frame) {
  Cursor cur(frame);
  cur.bytes(4);  // magic
  if (has_magic(frame, "BLL1") || has_magic(frame, "CZP1")) cur.u8();
  return cur.u64();
}

/// Decode one CZP1 frame with up to `threads` lanes.
Bytes decompress_czp1(ByteSpan frame, int threads) {
  Cursor cur(frame);
  check_magic(cur, "CZP1");
  const std::uint8_t version = cur.u8();
  if (version != kFrameVersion)
    throw FormatError("czp: unsupported frame version " +
                      std::to_string(version));
  const std::uint64_t orig_size = cur.u64();
  const std::uint64_t block_size = cur.u32();
  const std::uint64_t nblocks = cur.u32();

  // Geometry sanity: the block count must be exactly what orig_size and
  // block_size imply, or the per-block output offsets below are garbage.
  if (orig_size == 0) {
    if (nblocks != 0) throw FormatError("czp: bad block count");
  } else {
    if (block_size == 0) throw FormatError("czp: bad block size");
    const std::uint64_t want = (orig_size + block_size - 1) / block_size;
    if (nblocks != want) throw FormatError("czp: bad block count");
  }

  // The block table is 4 bytes per block: a count the frame cannot hold is
  // rejected before the table is allocated.
  if (nblocks > cur.remaining() / 4)
    throw FormatError("czp: block count exceeds frame");
  std::vector<std::uint32_t> enc_len(nblocks);
  for (std::uint64_t b = 0; b < nblocks; ++b) enc_len[b] = cur.u32();
  std::vector<ByteSpan> bodies(nblocks);
  for (std::uint64_t b = 0; b < nblocks; ++b) bodies[b] = cur.bytes(enc_len[b]);
  if (cur.remaining() != 0) throw FormatError("czp: trailing bytes in frame");

  // Block b's share of the output.  Every inner frame must declare exactly
  // its share, and be able to back it, before the output is allocated: a
  // free u32 block_size must not buy a 4 GiB allocation with a few bytes.
  const auto share = [&](std::uint64_t b) {
    return std::min<std::uint64_t>(block_size, orig_size - b * block_size);
  };
  for (std::uint64_t b = 0; b < nblocks; ++b)
    if (backed_size(bodies[b]) != share(b))
      throw FormatError("czp: block " + std::to_string(b) +
                        " does not back its share");

  Bytes out(orig_size);
  auto decode_block = [&](std::size_t b) {
    const std::uint64_t off = std::uint64_t(b) * block_size;
    const std::size_t want = std::size_t(share(b));
    // Inner frames are self-framing RAW1/BLL1/BZL1 frames; decode serially
    // per block (the parallelism lives at this level).
    Bytes plain = decompress_frame(bodies[b], 1, want);
    std::memcpy(out.data() + off, plain.data(), want);
  };
  if (nblocks <= 1 || threads <= 1) {
    for (std::size_t b = 0; b < nblocks; ++b) decode_block(b);
  } else {
    util::ThreadPool::shared().parallel_for(std::size_t(nblocks), threads,
                                            decode_block);
  }
  return out;
}

}  // namespace

Bytes decompress_frame(ByteSpan frame, int threads,
                       std::optional<std::uint64_t> raw_size) {
  if (raw_size && declared_size(frame) != *raw_size)
    throw FormatError("codec: frame declares " +
                      std::to_string(declared_size(frame)) +
                      " bytes, expected " + std::to_string(*raw_size));
  if (has_magic(frame, "CZP1")) return decompress_czp1(frame, threads);
  if (has_magic(frame, "RAW1")) return make_none_codec()->decompress(frame);
  if (has_magic(frame, "BLL1")) return make_blosc_codec()->decompress(frame);
  if (has_magic(frame, "BZL1")) return make_bzip2_codec()->decompress(frame);
  throw FormatError("codec: bad frame magic");
}

ParallelCodec::ParallelCodec(std::unique_ptr<Codec> inner, int threads,
                             std::size_t block_bytes, util::ThreadPool* pool,
                             BufferPool* buffers)
    : inner_(std::move(inner)),
      threads_(std::max(1, threads)),
      block_bytes_(std::max(kMinBlockBytes, block_bytes)),
      pool_(pool ? pool : &util::ThreadPool::shared()),
      buffers_(buffers ? buffers : &BufferPool::shared()) {
  if (!inner_) throw UsageError("parallel codec: null inner codec");
}

void ParallelCodec::compress_append(ByteSpan input, Bytes& out) const {
  const std::size_t nblocks = block_count(input.size());
  out.insert(out.end(), {'C', 'Z', 'P', '1'});
  out.push_back(kFrameVersion);
  put_u64(out, input.size());
  put_u32(out, std::uint32_t(block_bytes_));
  put_u32(out, std::uint32_t(nblocks));
  const std::size_t table_pos = out.size();
  out.insert(out.end(), nblocks * 4, 0);  // block table, patched below

  auto block_span = [&](std::size_t b) {
    const std::size_t off = b * block_bytes_;
    return input.subspan(off, std::min(block_bytes_, input.size() - off));
  };

  if (nblocks <= 1 || threads_ <= 1) {
    // Serial fast path: compress every block straight into the frame —
    // zero intermediate buffers — and patch its table slot afterwards.
    for (std::size_t b = 0; b < nblocks; ++b) {
      const std::size_t start = out.size();
      inner_->compress_append(block_span(b), out);
      patch_u32(out, table_pos + 4 * b, std::uint32_t(out.size() - start));
    }
    return;
  }

  // Parallel path: each lane compresses its blocks into pooled scratch;
  // the frames are stitched in block order afterwards, so the output is
  // byte-identical to the serial path (determinism guarantee).
  std::vector<PooledBuffer> parts(nblocks);
  pool_->parallel_for(nblocks, threads_, [&](std::size_t b) {
    PooledBuffer scratch = buffers_->acquire_reserve(block_bytes_ / 2 + 64);
    inner_->compress_append(block_span(b), *scratch);
    parts[b] = std::move(scratch);
  });
  for (std::size_t b = 0; b < nblocks; ++b) {
    patch_u32(out, table_pos + 4 * b, std::uint32_t(parts[b]->size()));
    out.insert(out.end(), parts[b]->begin(), parts[b]->end());
    parts[b].reset();
  }
}

Bytes ParallelCodec::compress(ByteSpan input) const {
  Bytes out;
  // Worst-case bound, so the serial path never reallocates mid-frame.
  out.reserve(input.size() + input.size() / 128 + 64);
  compress_append(input, out);
  return out;
}

Bytes ParallelCodec::decompress(ByteSpan frame) const {
  return decompress_frame(frame, threads_);
}

std::unique_ptr<Codec> make_parallel_codec(std::unique_ptr<Codec> inner,
                                           int threads,
                                           std::size_t block_bytes) {
  return std::make_unique<ParallelCodec>(std::move(inner), threads,
                                         block_bytes);
}

}  // namespace bitio::cz
