#pragma once
// Block-parallel compression pipeline (the real Blosc `nthreads` design):
// split the input into fixed-size independent blocks, compress each with the
// wrapped inner codec, and frame them with a block table so decompression
// can fan out too.
//
// CZP1 frame layout (little-endian):
//   'C' 'Z' 'P' '1'
//   u8  version            (kFrameVersion)
//   u64 orig_size
//   u32 block_size         (bytes of input per block; last block may be short)
//   u32 nblocks
//   u32 enc_len[nblocks]   (compressed size of each block's inner frame)
//   inner frames, concatenated (each self-framing: RAW1/BLL1/BZL1)
//
// Determinism guarantee: the frame bytes depend only on (input, inner codec,
// block_size) — never on the thread count or schedule.  Blocks are
// compressed independently (per-thread scratch is reset per block) and
// stitched in block order, so `threads=1` and `threads=64` produce identical
// bytes.  Tests assert this byte-for-byte.
//
// decompress() also accepts every legacy single-block frame (RAW1/BLL1/
// BZL1), so readers need no migration: cz::decompress_frame() dispatches on
// the magic.

#include <memory>

#include "compress/buffer_pool.hpp"
#include "compress/codec.hpp"

namespace bitio::util {
class ThreadPool;
}

namespace bitio::cz {

/// The CZP1 frame version byte; a frame with any other version is rejected.
inline constexpr std::uint8_t kFrameVersion = 1;

/// Decode any cz frame by magic: CZP1 (block-parallel, decoded with up to
/// `threads` lanes) or a legacy single-block RAW1/BLL1/BZL1 frame (decoded
/// serially by its own codec).  Throws FormatError on corruption.
Bytes decompress_frame(ByteSpan frame, int threads = 1);

class ParallelCodec final : public Codec {
 public:
  /// Wrap `inner`, compressing `block_bytes`-sized blocks on up to
  /// `threads` lanes of `pool` with per-block buffers from `buffers`.
  /// Null pool/buffers select the process-wide shared instances.
  ParallelCodec(std::unique_ptr<Codec> inner, int threads,
                std::size_t block_bytes, util::ThreadPool* pool = nullptr,
                BufferPool* buffers = nullptr);

  std::string name() const override { return inner_->name(); }

  Bytes compress(ByteSpan input) const override;
  void compress_append(ByteSpan input, Bytes& out) const override;

  /// Handles CZP1 and legacy frames alike (see decompress_frame).
  Bytes decompress(ByteSpan frame) const override;

  // The storage model charges parallel wall time via
  // fsim::parallel_cpu_seconds() from these serial figures.
  double compress_speed_bps() const override {
    return inner_->compress_speed_bps();
  }
  double decompress_speed_bps() const override {
    return inner_->decompress_speed_bps();
  }

  int threads() const { return threads_; }
  std::size_t block_bytes() const { return block_bytes_; }
  std::size_t block_count(std::size_t input_size) const {
    return input_size == 0 ? 0 : (input_size + block_bytes_ - 1) / block_bytes_;
  }

 private:
  std::unique_ptr<Codec> inner_;
  int threads_;
  std::size_t block_bytes_;
  util::ThreadPool* pool_;
  BufferPool* buffers_;
};

/// Convenience factory; clamps threads to >= 1 and block_bytes to >= 4 KiB.
std::unique_ptr<Codec> make_parallel_codec(std::unique_ptr<Codec> inner,
                                           int threads,
                                           std::size_t block_bytes);

}  // namespace bitio::cz
