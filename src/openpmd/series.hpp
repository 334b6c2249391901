#pragma once
// miniPMD: the openPMD-style object model.
//
// Mirrors the slice of openPMD-api that the paper's BIT1 integration uses:
//
//   Series series(fs, "out/dat_file.bp4", Access::create, nranks, config);
//   auto& it = series.write_iteration(100);
//   auto& rho = it.mesh("density");                    // scalar mesh
//   auto& comp = rho.component();                      // SCALAR component
//   comp.reset_dataset(Datatype::float64, {ncells});
//   comp.store_chunk(rank, local_values, {offset}, {local_extent});
//   it.set_time(t); it.close();                        // flush to disk
//   series.close();
//
// A "record" is a physical quantity with one or more components (scalars
// use the SCALAR component); meshes are n-dimensional arrays, particle
// species store 1D per-particle arrays.  Updates over time are iterations;
// the collection of iterations is the series (Section II-B of the paper).
//
// Group-based iteration encoding with steps: all iterations live in one
// miniBP container, one step per iteration; iteration 0 may be rewritten
// repeatedly (the checkpoint slot) and readers see its latest contents.
// The file extension picks the engine (.bp/.bp4 -> bp4, .bp5 -> bp5, as
// openPMD-api maps extensions onto ADIOS2 engines): a create series writes
// through a bp::Engine, a read series reads through a bp::Reader.
// Series-level configuration is passed as TOML text ("TOML-based dynamic
// configuration"), whose [adios2] table configures the engine.

#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "bp/engine.hpp"
#include "bp/reader.hpp"
#include "util/toml.hpp"

namespace bitio::pmd {

using bp::AttrValue;
using bp::ChunkView;
using bp::Datatype;
using Extent = bp::Dims;
using Offset = bp::Dims;

enum class Access { create, read_only };

/// Canonical component name of scalar records.
inline const std::string kScalar = "SCALAR";

class Series;
class Iteration;
class Record;

/// One array-valued component of a record.
class RecordComponent {
public:
  /// Declare the global dataset (collective, before any store_chunk).
  void reset_dataset(Datatype dtype, Extent extent);

  /// Deferred chunk store for one rank.  Data is buffered by the engine;
  /// the referenced span must stay valid only for this call (we copy), but
  /// like openPMD the contents must be final — there is no re-store.
  template <typename T>
  void store_chunk(int rank, std::span<const T> data, const Offset& offset,
                   const Extent& count) {
    store_chunk(rank, ChunkView::of<T>(data, offset, count));
  }

  /// Core store: the chunk's dtype/bytes/placement arrive pre-validated in
  /// one ChunkView instead of a loose argument pack.
  void store_chunk(int rank, const ChunkView& chunk);

  /// Constant component (openPMD makeConstant): value + logical extent,
  /// no data written.
  void make_constant(double value, Extent extent);

  void set_unit_si(double unit);

  // -- read side -----------------------------------------------------------
  Datatype dtype() const;
  const Extent& extent() const;
  bool is_constant() const;
  double constant_value() const;
  double unit_si() const;

  /// Load the full global array (read mode; constants are materialized).
  template <typename T>
  std::vector<T> load() const {
    const auto bytes = load_bytes(bp::datatype_of<T>::value);
    std::vector<T> out(bytes.size() / sizeof(T));
    std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  }

private:
  friend class Record;
  friend class Iteration;
  friend class Series;
  std::vector<std::uint8_t> load_bytes(Datatype expected) const;

  Series* series_ = nullptr;
  std::uint64_t iteration_ = 0;
  std::string var_path_;  // e.g. "meshes/density/SCALAR"
  bool dataset_set_ = false;
  Datatype dtype_ = Datatype::float64;
  Extent extent_;
  bool constant_ = false;
  double constant_value_ = 0.0;
  double unit_si_ = 1.0;
};

/// A physical quantity: a bundle of named components ("x","y","z" or
/// SCALAR).  Meshes and particle records share this shape.
class Record {
public:
  /// Component access, created on demand in write mode.
  RecordComponent& operator[](const std::string& component);
  /// Scalar shorthand: the SCALAR component.
  RecordComponent& component() { return (*this)[kScalar]; }

  std::vector<std::string> component_names() const;
  bool has_component(const std::string& name) const;

private:
  friend class Iteration;
  friend class ParticleSpecies;
  friend class Series;
  Series* series_ = nullptr;
  std::uint64_t iteration_ = 0;
  std::string base_path_;  // "meshes/density", "particles/e/position"
  std::map<std::string, std::unique_ptr<RecordComponent>> components_;
};

/// Particle species: a bundle of records (position, momentum, weight, ...).
class ParticleSpecies {
public:
  Record& operator[](const std::string& record);
  std::vector<std::string> record_names() const;

private:
  friend class Iteration;
  friend class Series;
  Series* series_ = nullptr;
  std::uint64_t iteration_ = 0;
  std::string base_path_;  // "particles/e"
  std::map<std::string, std::unique_ptr<Record>> records_;
};

class Iteration {
public:
  /// Mesh record access (created on demand in write mode).
  Record& mesh(const std::string& name);
  ParticleSpecies& particles(const std::string& name);

  std::vector<std::string> mesh_names() const;
  std::vector<std::string> species_names() const;

  void set_time(double time);
  void set_dt(double dt);
  double time() const;
  double dt() const;

  std::uint64_t index() const { return index_; }
  bool closed() const { return closed_; }

  /// Flush all stored chunks and attributes to the engine and end the
  /// step.  After close() the iteration must not be written again ("once an
  /// iteration is closed, reopening it is not required" — checkpoints
  /// instead open iteration 0 anew via write_iteration(0)).
  void close();

private:
  friend class Series;
  Series* series_ = nullptr;
  std::uint64_t index_ = 0;
  bool closed_ = false;
  bool writable_ = false;
  double time_ = 0.0;
  double dt_ = 1.0;
  std::map<std::string, std::unique_ptr<Record>> meshes_;
  std::map<std::string, std::unique_ptr<ParticleSpecies>> species_;
};

/// Root object: all data for all iterations (openPMD "Series").
class Series {
public:
  /// Write mode: `config_toml` may carry an [adios2] table.  `nranks` is
  /// the size of the writing communicator.
  Series(fsim::SharedFs& fs, const std::string& path, Access access,
         int nranks = 1, const std::string& config_toml = {});
  ~Series();

  Series(const Series&) = delete;
  Series& operator=(const Series&) = delete;

  const std::string& path() const { return path_; }
  /// The engine the extension selected: "bp4" or "bp5".
  const std::string& backend_name() const { return engine_name_; }
  Access access() const { return access_; }
  int nranks() const { return nranks_; }

  /// Open an iteration for writing.  Opening index 0 again after it was
  /// closed re-opens the checkpoint slot (latest rewrite wins on read).
  Iteration& write_iteration(std::uint64_t index);

  /// Read-mode access to an existing iteration.
  Iteration& read_iteration(std::uint64_t index);

  /// Iteration indices present (read mode).
  std::vector<std::uint64_t> iterations() const;

  /// Join every outstanding async drain of the engine (write mode), making
  /// the container consistent for read-after-write.  A no-op when the
  /// engine writes synchronously.
  void flush();

  /// Close the series; closes a dangling open iteration first and joins
  /// outstanding drains.
  void close();

private:
  friend class RecordComponent;
  friend class Iteration;

  void require_write() const;
  const bp::Reader& reader() const;
  bp::Reader& reader();
  void load_iteration_structure(Iteration& iteration);

  std::string path_;
  Access access_;
  int nranks_;
  std::string engine_name_;
  std::unique_ptr<bp::Engine> engine_;  // create mode
  std::optional<bp::Reader> reader_;    // read mode
  std::map<std::uint64_t, std::unique_ptr<Iteration>> iterations_;
  Iteration* open_iteration_ = nullptr;
  bool closed_ = false;
};

}  // namespace bitio::pmd
