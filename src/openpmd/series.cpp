#include "openpmd/series.hpp"

#include <charconv>
#include <cstring>

#include "util/error.hpp"

namespace bitio::pmd {

namespace {

std::vector<std::string> split_on(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : text) {
    if (c == sep) {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  parts.push_back(cur);
  return parts;
}

std::string join_extent(const Extent& extent) {
  std::string out;
  for (std::size_t i = 0; i < extent.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(extent[i]);
  }
  return out;
}

// Inverse of join_extent: "" is rank 0, otherwise comma-separated decimal
// digits, each fitting in 64 bits.
Extent parse_extent(const std::string& text) {
  Extent extent;
  if (text.empty()) return extent;
  for (const auto& part : split_on(text, ',')) {
    if (extent.size() == bp::kMaxRank)
      throw FormatError("openPMD: extent '" + text +
                        "' has rank above kMaxRank (3)");
    std::uint64_t dim = 0;
    const char* end = part.data() + part.size();
    // from_chars takes no sign for an unsigned type and reports overflow.
    const auto [stop, ec] = std::from_chars(part.data(), end, dim);
    if (part.empty() || ec != std::errc{} || stop != end)
      throw FormatError("openPMD: extent '" + text +
                        "' is not a list of 64-bit decimal integers");
    extent.push_back(dim);
  }
  return extent;
}

// The attribute `name` of a step, which must hold a T when present.
template <typename T>
std::optional<T> typed_attribute(const bp::Reader& reader, std::uint64_t step,
                                 const std::string& name) {
  const auto value = reader.attribute(step, name);
  if (!value) return std::nullopt;
  const T* typed = std::get_if<T>(&*value);
  if (!typed)
    throw FormatError("openPMD: attribute '" + name +
                      "' has the wrong type");
  return *typed;
}

// The engine a path's extension selects.
std::string engine_for(const std::string& path) {
  const auto dot = path.rfind('.');
  if (dot == std::string::npos)
    throw UsageError("openPMD: path '" + path +
                     "' has no extension to select an engine");
  const std::string ext = path.substr(dot + 1);
  if (ext == "bp" || ext == "bp4") return "bp4";
  if (ext == "bp5") return "bp5";
  throw UsageError("openPMD: no engine for extension '." + ext + "'");
}

}  // namespace

// -------------------------------------------------------- RecordComponent ---

void RecordComponent::reset_dataset(Datatype dtype, Extent extent) {
  series_->require_write();
  if (constant_)
    throw UsageError("openPMD: component is constant, cannot reset dataset");
  dtype_ = dtype;
  extent_ = std::move(extent);
  dataset_set_ = true;
}

void RecordComponent::store_chunk(int rank, const ChunkView& chunk) {
  series_->require_write();
  if (!dataset_set_)
    throw UsageError("openPMD: store_chunk before reset_dataset on '" +
                     var_path_ + "'");
  if (chunk.dtype() != dtype_)
    throw UsageError("openPMD: datatype mismatch on '" + var_path_ + "'");
  // Empty chunks are legal and skipped ("if the local vector is not empty,
  // it is stored to disk").
  if (bp::element_count(chunk.count()) == 0) return;
  series_->engine_->put(rank, var_path_, extent_, chunk);
}

void RecordComponent::make_constant(double value, Extent extent) {
  series_->require_write();
  if (dataset_set_)
    throw UsageError("openPMD: component already has a dataset");
  constant_ = true;
  constant_value_ = value;
  extent_ = std::move(extent);
  dtype_ = Datatype::float64;
}

void RecordComponent::set_unit_si(double unit) { unit_si_ = unit; }

Datatype RecordComponent::dtype() const { return dtype_; }
const Extent& RecordComponent::extent() const { return extent_; }
bool RecordComponent::is_constant() const { return constant_; }

double RecordComponent::constant_value() const {
  if (!constant_)
    throw UsageError("openPMD: '" + var_path_ + "' is not constant");
  return constant_value_;
}

double RecordComponent::unit_si() const { return unit_si_; }

std::vector<std::uint8_t> RecordComponent::load_bytes(
    Datatype expected) const {
  if (constant_) {
    const std::uint64_t n = bp::element_count(extent_);
    std::vector<std::uint8_t> out(n * bp::dtype_size(expected));
    for (std::uint64_t i = 0; i < n; ++i) {
      switch (expected) {
        case Datatype::float32: {
          const float v = float(constant_value_);
          std::memcpy(out.data() + i * 4, &v, 4);
          break;
        }
        case Datatype::float64: {
          std::memcpy(out.data() + i * 8, &constant_value_, 8);
          break;
        }
        case Datatype::uint64: {
          const std::uint64_t v = std::uint64_t(constant_value_);
          std::memcpy(out.data() + i * 8, &v, 8);
          break;
        }
        default:
          throw UsageError("openPMD: unsupported constant datatype");
      }
    }
    return out;
  }
  if (expected != dtype_)
    throw UsageError("openPMD: datatype mismatch loading '" + var_path_ +
                     "'");
  return series_->reader().read(iteration_, var_path_);
}

// ------------------------------------------------------------------ Record ---

RecordComponent& Record::operator[](const std::string& component) {
  auto it = components_.find(component);
  if (it == components_.end()) {
    if (series_->access() == Access::read_only)
      throw UsageError("openPMD: no component '" + component + "' in '" +
                       base_path_ + "'");
    auto comp = std::make_unique<RecordComponent>();
    comp->series_ = series_;
    comp->iteration_ = iteration_;
    comp->var_path_ = base_path_ + "/" + component;
    it = components_.emplace(component, std::move(comp)).first;
  }
  return *it->second;
}

std::vector<std::string> Record::component_names() const {
  std::vector<std::string> names;
  for (const auto& [name, comp] : components_) {
    (void)comp;
    names.push_back(name);
  }
  return names;
}

bool Record::has_component(const std::string& name) const {
  return components_.count(name) > 0;
}

// --------------------------------------------------------- ParticleSpecies ---

Record& ParticleSpecies::operator[](const std::string& record) {
  auto it = records_.find(record);
  if (it == records_.end()) {
    if (series_->access() == Access::read_only)
      throw UsageError("openPMD: no record '" + record + "' in '" +
                       base_path_ + "'");
    auto rec = std::make_unique<Record>();
    rec->series_ = series_;
    rec->iteration_ = iteration_;
    rec->base_path_ = base_path_ + "/" + record;
    it = records_.emplace(record, std::move(rec)).first;
  }
  return *it->second;
}

std::vector<std::string> ParticleSpecies::record_names() const {
  std::vector<std::string> names;
  for (const auto& [name, rec] : records_) {
    (void)rec;
    names.push_back(name);
  }
  return names;
}

// --------------------------------------------------------------- Iteration ---

Record& Iteration::mesh(const std::string& name) {
  auto it = meshes_.find(name);
  if (it == meshes_.end()) {
    if (!writable_)
      throw UsageError("openPMD: no mesh '" + name + "' in iteration " +
                       std::to_string(index_));
    if (closed_) throw UsageError("openPMD: iteration is closed");
    auto rec = std::make_unique<Record>();
    rec->series_ = series_;
    rec->iteration_ = index_;
    rec->base_path_ = "meshes/" + name;
    it = meshes_.emplace(name, std::move(rec)).first;
  }
  return *it->second;
}

ParticleSpecies& Iteration::particles(const std::string& name) {
  auto it = species_.find(name);
  if (it == species_.end()) {
    if (!writable_)
      throw UsageError("openPMD: no species '" + name + "' in iteration " +
                       std::to_string(index_));
    if (closed_) throw UsageError("openPMD: iteration is closed");
    auto sp = std::make_unique<ParticleSpecies>();
    sp->series_ = series_;
    sp->iteration_ = index_;
    sp->base_path_ = "particles/" + name;
    it = species_.emplace(name, std::move(sp)).first;
  }
  return *it->second;
}

std::vector<std::string> Iteration::mesh_names() const {
  std::vector<std::string> names;
  for (const auto& [name, rec] : meshes_) {
    (void)rec;
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> Iteration::species_names() const {
  std::vector<std::string> names;
  for (const auto& [name, sp] : species_) {
    (void)sp;
    names.push_back(name);
  }
  return names;
}

void Iteration::set_time(double time) { time_ = time; }
void Iteration::set_dt(double dt) { dt_ = dt; }
double Iteration::time() const { return time_; }
double Iteration::dt() const { return dt_; }

void Iteration::close() {
  if (closed_) return;
  if (!writable_) {
    closed_ = true;
    return;
  }
  // Emit iteration and component attributes, then end the engine step.
  bp::Engine& engine = *series_->engine_;
  engine.add_attribute("time", AttrValue(time_));
  engine.add_attribute("dt", AttrValue(dt_));

  std::string constants;
  auto emit_component = [&](const RecordComponent& comp) {
    engine.add_attribute(comp.var_path_ + "/unitSI",
                         AttrValue(comp.unit_si_));
    if (comp.constant_) {
      engine.add_attribute(comp.var_path_ + "/value",
                           AttrValue(comp.constant_value_));
      engine.add_attribute(comp.var_path_ + "/shape",
                           AttrValue(join_extent(comp.extent_)));
      if (!constants.empty()) constants += ';';
      constants += comp.var_path_;
    }
  };
  for (const auto& [name, rec] : meshes_) {
    (void)name;
    for (const auto& [cname, comp] : rec->components_) {
      (void)cname;
      emit_component(*comp);
    }
  }
  for (const auto& [sname, sp] : species_) {
    (void)sname;
    for (const auto& [rname, rec] : sp->records_) {
      (void)rname;
      for (const auto& [cname, comp] : rec->components_) {
        (void)cname;
        emit_component(*comp);
      }
    }
  }
  if (!constants.empty())
    engine.add_attribute("__constants", AttrValue(constants));

  engine.end_step();
  closed_ = true;
  if (series_->open_iteration_ == this) series_->open_iteration_ = nullptr;
}

// ------------------------------------------------------------------ Series ---

Series::Series(fsim::SharedFs& fs, const std::string& path, Access access,
               int nranks, const std::string& config_toml)
    : path_(path),
      access_(access),
      nranks_(nranks),
      engine_name_(engine_for(path)) {
  if (nranks <= 0) throw UsageError("openPMD: nranks must be positive");
  if (access == Access::read_only) {
    reader_.emplace(bp::Reader::open(fs, 0, path_));
    return;
  }
  bp::EngineConfig config;
  if (!config_toml.empty()) {
    const Json toml = parse_toml(config_toml);
    if (toml.contains("adios2"))
      config = bp::EngineConfig::from_json(toml.at("adios2"));
  }
  // The extension, not [adios2.engine] type, names the engine.
  engine_ = bp::make_engine(engine_name_, fs, path_, std::move(config),
                            nranks_);
}

Series::~Series() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; an unterminated series is detectable by
    // the reader (missing steps in md.idx).
  }
}

void Series::require_write() const {
  if (access_ != Access::create)
    throw UsageError("openPMD: series is read-only");
  if (closed_) throw UsageError("openPMD: series is closed");
}

const bp::Reader& Series::reader() const {
  if (!reader_) throw UsageError("openPMD: series is write-only");
  return *reader_;
}

bp::Reader& Series::reader() {
  if (!reader_) throw UsageError("openPMD: series is write-only");
  return *reader_;
}

Iteration& Series::write_iteration(std::uint64_t index) {
  require_write();
  if (open_iteration_ != nullptr)
    throw UsageError("openPMD: iteration " +
                     std::to_string(open_iteration_->index()) +
                     " is still open");
  // Re-opening an index replaces the previous object (checkpoint rewrite).
  auto iteration = std::make_unique<Iteration>();
  iteration->series_ = this;
  iteration->index_ = index;
  iteration->writable_ = true;
  engine_->begin_step(index);
  auto [it, fresh] = iterations_.insert_or_assign(index, std::move(iteration));
  (void)fresh;
  open_iteration_ = it->second.get();
  return *it->second;
}

Iteration& Series::read_iteration(std::uint64_t index) {
  if (access_ != Access::read_only)
    throw UsageError("openPMD: read_iteration on a write series");
  auto it = iterations_.find(index);
  if (it == iterations_.end()) {
    auto iteration = std::make_unique<Iteration>();
    iteration->series_ = this;
    iteration->index_ = index;
    iteration->writable_ = false;
    load_iteration_structure(*iteration);
    it = iterations_.emplace(index, std::move(iteration)).first;
  }
  return *it->second;
}

std::vector<std::uint64_t> Series::iterations() const {
  return reader().steps();
}

void Series::load_iteration_structure(Iteration& iteration) {
  const std::uint64_t index = iteration.index_;
  const bp::Reader& reader = this->reader();
  if (!reader.has_step(index))
    throw UsageError("openPMD: no iteration " + std::to_string(index));

  auto attach_component = [&](const std::string& var_path, Datatype dtype,
                              Extent extent, bool constant, double value) {
    const auto parts = split_on(var_path, '/');
    Record* record = nullptr;
    std::string component_name;
    if (parts.size() == 3 && parts[0] == "meshes") {
      auto rec = std::make_unique<Record>();
      rec->series_ = this;
      rec->iteration_ = index;
      rec->base_path_ = parts[0] + "/" + parts[1];
      auto [it, fresh] =
          iteration.meshes_.try_emplace(parts[1], std::move(rec));
      (void)fresh;
      record = it->second.get();
      component_name = parts[2];
    } else if (parts.size() == 4 && parts[0] == "particles") {
      auto sp = std::make_unique<ParticleSpecies>();
      sp->series_ = this;
      sp->iteration_ = index;
      sp->base_path_ = parts[0] + "/" + parts[1];
      auto [sit, sfresh] =
          iteration.species_.try_emplace(parts[1], std::move(sp));
      (void)sfresh;
      auto rec = std::make_unique<Record>();
      rec->series_ = this;
      rec->iteration_ = index;
      rec->base_path_ = sit->second->base_path_ + "/" + parts[2];
      auto [rit, rfresh] =
          sit->second->records_.try_emplace(parts[2], std::move(rec));
      (void)rfresh;
      record = rit->second.get();
      component_name = parts[3];
    } else {
      return;  // not an openPMD path (foreign variable), skip
    }
    auto comp = std::make_unique<RecordComponent>();
    comp->series_ = this;
    comp->iteration_ = index;
    comp->var_path_ = var_path;
    comp->dataset_set_ = !constant;
    comp->dtype_ = dtype;
    comp->extent_ = std::move(extent);
    comp->constant_ = constant;
    comp->constant_value_ = value;
    if (auto unit =
            typed_attribute<double>(reader, index, var_path + "/unitSI"))
      comp->unit_si_ = *unit;
    record->components_[component_name] = std::move(comp);
  };

  for (const auto& var : reader.step(index).variables)
    attach_component(var.name, var.dtype, var.shape, false, 0.0);

  if (auto constants =
          typed_attribute<std::string>(reader, index, "__constants")) {
    for (const auto& var_path : split_on(*constants, ';')) {
      if (var_path.empty()) continue;
      const auto value =
          typed_attribute<double>(reader, index, var_path + "/value");
      const auto shape =
          typed_attribute<std::string>(reader, index, var_path + "/shape");
      if (!value || !shape)
        throw FormatError("openPMD: incomplete constant record '" + var_path +
                          "'");
      attach_component(var_path, Datatype::float64, parse_extent(*shape),
                       true, *value);
    }
  }

  if (auto time = typed_attribute<double>(reader, index, "time"))
    iteration.time_ = *time;
  if (auto dt = typed_attribute<double>(reader, index, "dt"))
    iteration.dt_ = *dt;
}

void Series::flush() {
  require_write();
  engine_->flush();
}

void Series::close() {
  if (closed_) return;
  if (open_iteration_ != nullptr) open_iteration_->close();
  if (engine_) engine_->close();
  closed_ = true;
}

}  // namespace bitio::pmd
