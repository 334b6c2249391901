#pragma once
// Codec interface and registry.
//
// The paper enables Blosc and bzip2 inside ADIOS2 to shrink BIT1's particle
// and field data (Table II, Fig 7, Fig 8).  Both compressor families are
// reimplemented here from scratch:
//   * BloscLike  — shuffle filter + fast byte-oriented LZ (LZ4 class):
//                  high speed, moderate ratio, good on shuffled floats.
//   * Bzip2Like  — BWT + MTF + zero-run-length + canonical Huffman:
//                  slower, higher ratio.
// Every codec is self-framing: compress() output carries a header with the
// codec id and original size, so decompress() needs no side channel — the
// same property ADIOS2 relies on when recording "operators" in BP metadata.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace bitio::cz {

using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;

/// Abstract compressor.  Implementations must be stateless/thread-safe.
class Codec {
public:
  virtual ~Codec() = default;

  /// Registry name ("blosc", "bzip2", "none").
  virtual std::string name() const = 0;

  /// Compress `input` into a self-framing buffer.  Never fails; if the data
  /// is incompressible the frame stores it raw (plus a small header).
  virtual Bytes compress(ByteSpan input) const = 0;

  /// Append the frame compress() would produce onto `out` (byte-identical),
  /// without the temporary buffer — the zero-copy path bp::Writer uses to
  /// compress straight into pooled aggregation buffers.  `input` must not
  /// alias `out`.
  virtual void compress_append(ByteSpan input, Bytes& out) const {
    Bytes frame = compress(input);
    out.insert(out.end(), frame.begin(), frame.end());
  }

  /// Inverse of compress().  Throws FormatError on a corrupt frame.
  virtual Bytes decompress(ByteSpan frame) const = 0;

  /// Modelled single-core throughputs used by the storage simulator to
  /// charge CPU time for (de)compression (bytes of *input* per second).
  virtual double compress_speed_bps() const = 0;
  virtual double decompress_speed_bps() const = 0;
};

/// "none": identity codec (raw frame, zero CPU cost in the model).
std::unique_ptr<Codec> make_none_codec();

/// Blosc-like: shuffle(typesize) + LZ, chunked.  `typesize` is the element
/// width of the data being shuffled (4 for float records in BIT1).
std::unique_ptr<Codec> make_blosc_codec(std::size_t typesize = 4);

/// bzip2-like: BWT + MTF + ZRLE + Huffman, 128 KiB blocks.
std::unique_ptr<Codec> make_bzip2_codec();

/// The codec names make_codec accepts (an empty name also means "none").
/// bp::EngineConfig::validate() checks the configured codec against it.
inline constexpr const char* kCodecNames[] = {"none", "blosc", "bzip2"};

/// Look up by name: one of kCodecNames.  Throws UsageError on an unknown
/// name, listing the known ones.
std::unique_ptr<Codec> make_codec(const std::string& name,
                                  std::size_t typesize = 4);

}  // namespace bitio::cz
