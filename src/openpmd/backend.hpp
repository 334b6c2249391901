#pragma once
// Backend abstraction of the miniPMD layer.
//
// openPMD-api's design point (and the reason the paper adopts it) is that
// the application writes against one hierarchy of iterations / meshes /
// particle species, and the storage backend — ADIOS2 BP4/BP5, JSON, HDF5 —
// is chosen by file extension and tuned by a runtime config.  This header
// defines the narrow interface both of our backends implement:
//   * BpBackend   (.bp/.bp4/.bp5): group-based iteration encoding with
//     steps in a single miniBP container — the paper's configuration.
//   * JsonBackend (.json): file-based encoding, one JSON document per
//     iteration (the "%T" pattern), human-readable.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bp/types.hpp"
#include "fsim/posix_fs.hpp"
#include "util/json.hpp"

namespace bitio::pmd {

using bp::AttrValue;
using bp::ChunkView;
using bp::Datatype;
using Extent = bp::Dims;
using Offset = bp::Dims;

/// Flush semantics for an asynchronous staged engine: `sync` joins every
/// outstanding drain before returning (read-after-write safe), `async`
/// leaves submitted steps draining in the background.  Engines without an
/// async path treat both as a no-op (their writes already landed).
enum class FlushMode { sync, async };

/// Metadata of one stored variable, backend-independent.
struct VarInfo {
  std::string name;
  Datatype dtype = Datatype::uint8;
  Extent extent;
};

class SeriesBackend {
public:
  virtual ~SeriesBackend() = default;

  virtual std::string name() const = 0;  // "bp4", "bp5", "json"

  // -- write path ----------------------------------------------------------
  virtual void begin_iteration(std::uint64_t index) = 0;
  virtual void put_chunk(int rank, const std::string& var,
                         const Extent& shape, const ChunkView& chunk) = 0;
  virtual void put_attribute(const std::string& name, AttrValue value) = 0;
  virtual void end_iteration() = 0;
  /// Join or kick the engine's outstanding work; no-op by default.
  virtual void flush(FlushMode) {}
  virtual void close() = 0;

  // -- read path -----------------------------------------------------------
  virtual std::vector<std::uint64_t> iterations() const = 0;
  virtual std::vector<VarInfo> variables(std::uint64_t iteration) const = 0;
  virtual std::vector<std::uint8_t> read_var(std::uint64_t iteration,
                                             const std::string& var) = 0;
  virtual std::optional<AttrValue> attribute(std::uint64_t iteration,
                                             const std::string& name) const = 0;
};

/// Create the backend for `path` based on its extension.  `nranks` sizes
/// the writing communicator; `adios2_config` carries the parsed "adios2"
/// section of the series config (ignored by the JSON backend).
std::unique_ptr<SeriesBackend> make_write_backend(fsim::SharedFs& fs,
                                                  const std::string& path,
                                                  int nranks,
                                                  const Json& adios2_config);
std::unique_ptr<SeriesBackend> make_read_backend(fsim::SharedFs& fs,
                                                 const std::string& path);

}  // namespace bitio::pmd
