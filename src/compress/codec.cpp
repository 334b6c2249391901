#include "compress/codec.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "compress/bwt.hpp"
#include "compress/frame.hpp"
#include "compress/huffman.hpp"
#include "compress/lz.hpp"
#include "compress/shuffle.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace bitio::cz {

namespace {

// ---------------------------------------------------------------- none ----

class NoneCodec final : public Codec {
public:
  std::string name() const override { return "none"; }

  Bytes compress(ByteSpan input) const override {
    Bytes out;
    out.reserve(input.size() + 12);
    compress_append(input, out);
    return out;
  }

  void compress_append(ByteSpan input, Bytes& out) const override {
    out.insert(out.end(), {'R', 'A', 'W', '1'});
    put_u64(out, input.size());
    out.insert(out.end(), input.begin(), input.end());
  }

  Bytes decompress(ByteSpan frame) const override {
    Cursor cur(frame);
    check_magic(cur, "RAW1");
    const std::uint64_t size = cur.u64();
    if (cur.remaining() != size) throw FormatError("none: size mismatch");
    ByteSpan body = cur.rest();
    return Bytes(body.begin(), body.end());
  }

  double compress_speed_bps() const override { return 1e18; }
  double decompress_speed_bps() const override { return 1e18; }
};

// --------------------------------------------------------------- blosc ----

class BloscLikeCodec final : public Codec {
public:
  explicit BloscLikeCodec(std::size_t typesize)
      : typesize_(typesize == 0 ? 1 : typesize) {
    if (typesize > 255) throw UsageError("blosc: typesize too large");
  }

  std::string name() const override { return "blosc"; }

  Bytes compress(ByteSpan input) const override {
    Bytes out;
    // Full worst-case bound (raw fallback caps every chunk at raw size plus
    // headers, and the LZ stage transiently needs its own bound): one
    // allocation, no mid-frame reallocation/copy.
    out.reserve(input.size() + input.size() / 255 + 13 * (input.size() / kChunk + 1) + 32);
    compress_append(input, out);
    return out;
  }

  void compress_append(ByteSpan input, Bytes& out) const override {
    // Thread-local shuffle scratch: one chunk's worth, reused forever.
    thread_local Bytes shuffled;

    out.insert(out.end(), {'B', 'L', 'L', '1'});
    out.push_back(std::uint8_t(typesize_));
    put_u64(out, input.size());
    const std::uint32_t nchunks =
        std::uint32_t((input.size() + kChunk - 1) / kChunk);
    put_u32(out, nchunks);
    for (std::uint32_t c = 0; c < nchunks; ++c) {
      const std::size_t off = std::size_t(c) * kChunk;
      const std::size_t len = std::min(kChunk, input.size() - off);
      ByteSpan chunk = input.subspan(off, len);
      if (shuffled.size() < len) shuffled.resize(len);
      shuffle_into(chunk, typesize_, shuffled.data());
      // Optimistically write the compressed-chunk header and LZ straight
      // into the frame; if the chunk turns out incompressible, roll back
      // to the mode byte and store it raw.  Saves the temporary packed
      // buffer (and its copy) the seed pipeline made per chunk.
      put_u32(out, std::uint32_t(len));
      out.push_back(1);  // chunk mode: shuffle+lz (tentative)
      const std::size_t enc_pos = out.size();
      put_u32(out, 0);   // enc_len placeholder
      const std::size_t body_pos = out.size();
      lz_compress_block_append(ByteSpan(shuffled.data(), len), out);
      const std::size_t packed = out.size() - body_pos;
      if (packed < len) {
        patch_u32(out, enc_pos, std::uint32_t(packed));
      } else {
        out.resize(enc_pos - 1);
        out.push_back(0);  // chunk mode: raw
        put_u32(out, std::uint32_t(len));
        out.insert(out.end(), chunk.begin(), chunk.end());
      }
    }
  }

  Bytes decompress(ByteSpan frame) const override {
    thread_local Bytes shuffled;

    Cursor cur(frame);
    check_magic(cur, "BLL1");
    const std::size_t typesize = cur.u8();
    const std::uint64_t orig_size = cur.u64();
    const std::uint32_t nchunks = cur.u32();
    Bytes out;
    out.reserve(orig_size);
    for (std::uint32_t c = 0; c < nchunks; ++c) {
      const std::uint32_t raw_len = cur.u32();
      const std::uint8_t mode = cur.u8();
      const std::uint32_t enc_len = cur.u32();
      ByteSpan body = cur.bytes(enc_len);
      if (mode == 0) {
        if (enc_len != raw_len) throw FormatError("blosc: bad raw chunk");
        out.insert(out.end(), body.begin(), body.end());
      } else if (mode == 1) {
        // A chunk longer than what is left of orig_size is corrupt: reject
        // it before the scratch grows to its declared length.
        const std::size_t at = out.size();
        if (at + raw_len > orig_size) throw FormatError("blosc: size mismatch");
        if (shuffled.size() < raw_len) shuffled.resize(raw_len);
        lz_decompress_block_into(body, shuffled.data(), raw_len);
        // Unshuffle straight into the output (reserve above keeps the
        // resize from reallocating mid-frame).
        out.resize(at + raw_len);
        unshuffle_into(ByteSpan(shuffled.data(), raw_len), typesize,
                       out.data() + at);
      } else {
        throw FormatError("blosc: unknown chunk mode");
      }
    }
    if (out.size() != orig_size) throw FormatError("blosc: size mismatch");
    return out;
  }

  // Blosc's design point: near-memcpy speed.
  double compress_speed_bps() const override { return 1.5e9; }
  double decompress_speed_bps() const override { return 2.5e9; }

private:
  static constexpr std::size_t kChunk = 256 * 1024;
  std::size_t typesize_;
};

// --------------------------------------------------------------- bzip2 ----

/// Zero-run-length encode an MTF byte stream into the 257-symbol alphabet:
/// RUNA(0)/RUNB(1) encode runs of zeros in bijective base 2; byte b>0 maps
/// to symbol b+1.  This is the real bzip2 scheme.
std::vector<std::uint16_t> zrle_encode(ByteSpan mtf) {
  std::vector<std::uint16_t> symbols;
  symbols.reserve(mtf.size() / 2 + 8);
  std::size_t i = 0;
  while (i < mtf.size()) {
    if (mtf[i] == 0) {
      std::uint64_t run = 0;
      while (i < mtf.size() && mtf[i] == 0) {
        ++run;
        ++i;
      }
      while (run > 0) {
        if (run & 1) {
          symbols.push_back(0);  // RUNA: adds 1 << k
          run = (run - 1) >> 1;
        } else {
          symbols.push_back(1);  // RUNB: adds 2 << k
          run = (run - 2) >> 1;
        }
      }
    } else {
      symbols.push_back(std::uint16_t(mtf[i]) + 1);
      ++i;
    }
  }
  return symbols;
}

/// Inverse of zrle_encode for a block of `raw_len` bytes.  A RUNA/RUNB
/// digit sequence is bijective base 2, so its run grows past `raw_len`
/// within a few more digits than raw_len has bits: rejecting the run as soon
/// as it overshoots bounds both the allocation and the shift (k stays far
/// below 64 while raw_len <= kBlock).
Bytes zrle_decode(std::span<const std::uint16_t> symbols,
                  std::size_t raw_len) {
  Bytes out;
  out.reserve(std::min(symbols.size() * 2, raw_len));
  std::size_t i = 0;
  while (i < symbols.size()) {
    if (symbols[i] <= 1) {
      std::uint64_t run = 0;
      int k = 0;
      while (i < symbols.size() && symbols[i] <= 1) {
        run += std::uint64_t(symbols[i] + 1) << k;
        if (run > raw_len - out.size())
          throw FormatError("bzip2: zero run overruns the block");
        ++k;
        ++i;
      }
      out.insert(out.end(), run, 0);
    } else {
      if (out.size() == raw_len)
        throw FormatError("bzip2: symbols overrun the block");
      out.push_back(std::uint8_t(symbols[i] - 1));
      ++i;
    }
  }
  return out;
}

class Bzip2LikeCodec final : public Codec {
public:
  std::string name() const override { return "bzip2"; }

  Bytes compress(ByteSpan input) const override {
    Bytes out;
    compress_append(input, out);
    return out;
  }

  void compress_append(ByteSpan input, Bytes& out) const override {
    out.insert(out.end(), {'B', 'Z', 'L', '1'});
    put_u64(out, input.size());
    out.push_back(1);  // mode: compressed (tentative, rolled back if larger)
    const std::size_t body_pos = out.size();
    const std::uint32_t nblocks =
        std::uint32_t((input.size() + kBlock - 1) / kBlock);
    put_u32(out, nblocks);
    for (std::uint32_t b = 0; b < nblocks; ++b) {
      const std::size_t off = std::size_t(b) * kBlock;
      const std::size_t len = std::min(kBlock, input.size() - off);
      ByteSpan block = input.subspan(off, len);
      BwtResult bwt = bwt_forward(block);
      Bytes mtf = mtf_encode(bwt.last_column);
      std::vector<std::uint16_t> symbols = zrle_encode(mtf);
      Bytes enc = huffman_encode(symbols, kAlphabet);
      put_u32(out, std::uint32_t(len));
      put_u32(out, bwt.primary_index);
      put_u32(out, std::uint32_t(enc.size()));
      out.insert(out.end(), enc.begin(), enc.end());
    }
    if (out.size() - body_pos >= input.size()) {
      out.resize(body_pos - 1);
      out.push_back(0);  // mode: raw
      out.insert(out.end(), input.begin(), input.end());
    }
  }

  Bytes decompress(ByteSpan frame) const override {
    Cursor cur(frame);
    check_magic(cur, "BZL1");
    const std::uint64_t orig_size = cur.u64();
    const std::uint8_t mode = cur.u8();
    if (mode == 0) {
      if (cur.remaining() != orig_size)
        throw FormatError("bzip2: raw size mismatch");
      ByteSpan body = cur.rest();
      return Bytes(body.begin(), body.end());
    }
    const std::uint32_t nblocks = cur.u32();
    Bytes out;
    out.reserve(orig_size);
    for (std::uint32_t b = 0; b < nblocks; ++b) {
      const std::uint32_t raw_len = cur.u32();
      if (raw_len > kBlock) throw FormatError("bzip2: block too long");
      const std::uint32_t primary = cur.u32();
      const std::uint32_t enc_len = cur.u32();
      ByteSpan enc = cur.bytes(enc_len);
      std::vector<std::uint16_t> symbols = huffman_decode(enc);
      Bytes mtf = zrle_decode(symbols, raw_len);
      if (mtf.size() != raw_len) throw FormatError("bzip2: block length");
      Bytes last = mtf_decode(mtf);
      Bytes plain = bwt_inverse(last, primary);
      out.insert(out.end(), plain.begin(), plain.end());
    }
    if (out.size() != orig_size) throw FormatError("bzip2: size mismatch");
    return out;
  }

  // bzip2's design point: an order of magnitude slower than Blosc.
  double compress_speed_bps() const override { return 1.5e7; }
  double decompress_speed_bps() const override { return 4.0e7; }

private:
  static constexpr std::size_t kBlock = 128 * 1024;
  static constexpr std::size_t kAlphabet = 257;
};

}  // namespace

std::unique_ptr<Codec> make_none_codec() {
  return std::make_unique<NoneCodec>();
}

std::unique_ptr<Codec> make_blosc_codec(std::size_t typesize) {
  return std::make_unique<BloscLikeCodec>(typesize);
}

std::unique_ptr<Codec> make_bzip2_codec() {
  return std::make_unique<Bzip2LikeCodec>();
}

std::unique_ptr<Codec> make_codec(const std::string& name,
                                  std::size_t typesize) {
  if (name == "none" || name.empty()) return make_none_codec();
  if (name == "blosc") return make_blosc_codec(typesize);
  if (name == "bzip2") return make_bzip2_codec();
  throw UsageError("unknown codec '" + name + "' (expected one of " +
                   quoted_list(kCodecNames) + ")");
}

}  // namespace bitio::cz
