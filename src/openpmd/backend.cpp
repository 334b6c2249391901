#include "openpmd/backend.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "bp/engine.hpp"
#include "bp/reader.hpp"
#include "util/error.hpp"

namespace bitio::pmd {

namespace {

// ------------------------------------------------------------ BpBackend ---

class BpWriteBackend final : public SeriesBackend {
public:
  BpWriteBackend(fsim::SharedFs& fs, const std::string& path, int nranks,
                 const Json& adios2_config, const std::string& engine)
      : name_(engine) {
    bp::EngineConfig config = adios2_config.is_null()
                                  ? bp::EngineConfig{}
                                  : bp::EngineConfig::from_json(adios2_config);
    // The engine name (from the file extension or Bit1IoConfig::engine) is
    // authoritative.
    writer_ = bp::make_engine(engine, fs, path, std::move(config), nranks);
  }

  std::string name() const override { return name_; }

  void begin_iteration(std::uint64_t index) override {
    writer_->begin_step(index);
  }

  void put_chunk(int rank, const std::string& var, const Extent& shape,
                 const ChunkView& chunk) override {
    writer_->put(rank, var, shape, chunk);
  }

  void put_attribute(const std::string& name, AttrValue value) override {
    writer_->add_attribute(name, std::move(value));
  }

  void end_iteration() override { writer_->end_step(); }

  void flush(FlushMode mode) override {
    // async: submitted steps keep draining in the background.  sync: join,
    // making the container consistent for read-after-write.
    if (mode == FlushMode::sync) writer_->flush();
  }

  void close() override { writer_->close(); }

  std::vector<std::uint64_t> iterations() const override {
    throw UsageError("openPMD: series is write-only");
  }
  std::vector<VarInfo> variables(std::uint64_t) const override {
    throw UsageError("openPMD: series is write-only");
  }
  std::vector<std::uint8_t> read_var(std::uint64_t,
                                     const std::string&) override {
    throw UsageError("openPMD: series is write-only");
  }
  std::optional<AttrValue> attribute(std::uint64_t,
                                     const std::string&) const override {
    throw UsageError("openPMD: series is write-only");
  }

private:
  std::string name_;
  std::unique_ptr<bp::Engine> writer_;
};

class BpReadBackend final : public SeriesBackend {
public:
  BpReadBackend(fsim::SharedFs& fs, const std::string& path,
                std::string engine)
      : name_(std::move(engine)), reader_(bp::Reader::open(fs, 0, path)) {}

  std::string name() const override { return name_; }

  void begin_iteration(std::uint64_t) override { read_only(); }
  void put_chunk(int, const std::string&, const Extent&,
                 const ChunkView&) override {
    read_only();
  }
  void put_attribute(const std::string&, AttrValue) override { read_only(); }
  void end_iteration() override { read_only(); }
  void close() override {}

  std::vector<std::uint64_t> iterations() const override {
    return reader_.steps();
  }

  std::vector<VarInfo> variables(std::uint64_t iteration) const override {
    std::vector<VarInfo> out;
    for (const auto& var : reader_.step(iteration).variables)
      out.push_back({var.name, var.dtype, var.shape});
    return out;
  }

  std::vector<std::uint8_t> read_var(std::uint64_t iteration,
                                     const std::string& var) override {
    return reader_.read(iteration, var);
  }

  std::optional<AttrValue> attribute(std::uint64_t iteration,
                                     const std::string& name) const override {
    return reader_.attribute(iteration, name);
  }

private:
  [[noreturn]] static void read_only() {
    throw UsageError("openPMD: series is read-only");
  }
  std::string name_;
  bp::Reader reader_;
};

// ---------------------------------------------------------- JsonBackend ---

// File-based encoding: `path` must contain "%T", replaced by the iteration
// index.  Each iteration is one self-contained JSON document:
//   { "iteration": N,
//     "attributes": { name: value, ... },
//     "variables": { name: {dtype, extent, data:[...]}, ... } }

std::string expand_pattern(const std::string& pattern, std::uint64_t index) {
  const auto pos = pattern.find("%T");
  if (pos == std::string::npos)
    throw UsageError("openPMD json backend: path needs a %T pattern");
  return pattern.substr(0, pos) + std::to_string(index) +
         pattern.substr(pos + 2);
}

Json attr_to_json(const AttrValue& value) {
  if (const auto* s = std::get_if<std::string>(&value)) return Json(*s);
  if (const auto* d = std::get_if<double>(&value)) return Json(*d);
  Json j{JsonObject{}};
  j["uint64"] = std::get<std::uint64_t>(value);
  return j;
}

AttrValue attr_from_json(const Json& j) {
  if (j.is_string()) return AttrValue(j.as_string());
  if (j.is_number()) return AttrValue(j.as_number());
  if (j.is_object() && j.contains("uint64"))
    return AttrValue(j.at("uint64").as_uint());
  throw FormatError("openPMD json backend: bad attribute value");
}

template <typename T>
void append_elements(Json& array, std::span<const std::uint8_t> bytes) {
  const std::size_t n = bytes.size() / sizeof(T);
  const T* p = reinterpret_cast<const T*>(bytes.data());
  for (std::size_t i = 0; i < n; ++i) array.push_back(double(p[i]));
}

template <typename T>
std::vector<std::uint8_t> elements_from(const JsonArray& array) {
  std::vector<std::uint8_t> out(array.size() * sizeof(T));
  T* p = reinterpret_cast<T*>(out.data());
  for (std::size_t i = 0; i < array.size(); ++i)
    p[i] = static_cast<T>(array[i].as_number());
  return out;
}

class JsonBackend final : public SeriesBackend {
public:
  JsonBackend(fsim::SharedFs& fs, std::string pattern, bool write)
      : fs_(fs), pattern_(std::move(pattern)), write_(write) {
    if (!write_) scan_existing();
  }

  std::string name() const override { return "json"; }

  void begin_iteration(std::uint64_t index) override {
    if (!write_) throw UsageError("openPMD: series is read-only");
    current_ = Json{JsonObject{}};
    current_["iteration"] = index;
    current_["attributes"] = Json{JsonObject{}};
    current_["variables"] = Json{JsonObject{}};
    current_index_ = index;
    open_ = true;
  }

  void put_chunk(int /*rank*/, const std::string& var, const Extent& shape,
                 const ChunkView& chunk) override {
    const Datatype dtype = chunk.dtype();
    const Offset& offset = chunk.offset();
    const Extent& count = chunk.count();
    const std::span<const std::uint8_t> data = chunk.bytes();
    if (!open_) throw UsageError("openPMD json backend: no open iteration");
    Json& vars = current_["variables"];
    if (!vars.contains(var)) {
      Json v{JsonObject{}};
      v["dtype"] = bp::dtype_name(dtype);
      Json ext{JsonArray{}};
      for (auto e : shape) ext.push_back(e);
      v["extent"] = std::move(ext);
      // Dense zero-filled element array, chunks scattered into it.
      Json zero{JsonArray{}};
      for (std::uint64_t i = 0; i < bp::element_count(shape); ++i)
        zero.push_back(0.0);
      v["data"] = std::move(zero);
      vars[var] = std::move(v);
    }
    // Scatter (JSON backend supports only 1D chunks — its role is small
    // debug output; the BP backends carry the n-dimensional load).
    if (shape.size() != 1)
      throw UsageError("openPMD json backend: only 1D variables supported");
    Json& arr = vars[var]["data"];
    Json tmp{JsonArray{}};
    switch (dtype) {
      case Datatype::uint8: append_elements<std::uint8_t>(tmp, data); break;
      case Datatype::int32: append_elements<std::int32_t>(tmp, data); break;
      case Datatype::uint64: append_elements<std::uint64_t>(tmp, data); break;
      case Datatype::float32: append_elements<float>(tmp, data); break;
      case Datatype::float64: append_elements<double>(tmp, data); break;
    }
    if (tmp.size() != count[0])
      throw UsageError("openPMD json backend: chunk size mismatch");
    for (std::size_t i = 0; i < tmp.size(); ++i)
      arr[offset[0] + i] = tmp.at(i);
  }

  void put_attribute(const std::string& name, AttrValue value) override {
    if (!open_) throw UsageError("openPMD json backend: no open iteration");
    current_["attributes"][name] = attr_to_json(value);
  }

  void end_iteration() override {
    if (!open_) throw UsageError("openPMD json backend: no open iteration");
    const std::string text = current_.dump(1);
    fsim::FsClient io(fs_, 0);
    const std::string file = expand_pattern(pattern_, current_index_);
    if (io.exists(file)) io.unlink(file);
    io.write_file(file, std::span<const std::uint8_t>(
                            reinterpret_cast<const std::uint8_t*>(
                                text.data()),
                            text.size()));
    known_.insert_or_assign(current_index_, file);
    open_ = false;
  }

  void close() override {
    if (open_) throw UsageError("openPMD json backend: iteration left open");
  }

  std::vector<std::uint64_t> iterations() const override {
    std::vector<std::uint64_t> out;
    for (const auto& [index, file] : known_) {
      (void)file;
      out.push_back(index);
    }
    return out;
  }

  std::vector<VarInfo> variables(std::uint64_t iteration) const override {
    const Json doc = load(iteration);
    std::vector<VarInfo> out;
    for (const auto& [name, v] : doc.at("variables").as_object()) {
      VarInfo info;
      info.name = name;
      info.dtype = dtype_from_name(v.at("dtype").as_string());
      for (const auto& e : v.at("extent").as_array())
        info.extent.push_back(e.as_uint());
      out.push_back(std::move(info));
    }
    return out;
  }

  std::vector<std::uint8_t> read_var(std::uint64_t iteration,
                                     const std::string& var) override {
    const Json doc = load(iteration);
    if (!doc.at("variables").contains(var))
      throw UsageError("openPMD json backend: no variable '" + var + "'");
    const Json& v = doc.at("variables").at(var);
    const auto& arr = v.at("data").as_array();
    switch (dtype_from_name(v.at("dtype").as_string())) {
      case Datatype::uint8: return elements_from<std::uint8_t>(arr);
      case Datatype::int32: return elements_from<std::int32_t>(arr);
      case Datatype::uint64: return elements_from<std::uint64_t>(arr);
      case Datatype::float32: return elements_from<float>(arr);
      case Datatype::float64: return elements_from<double>(arr);
    }
    throw FormatError("openPMD json backend: bad dtype");
  }

  std::optional<AttrValue> attribute(std::uint64_t iteration,
                                     const std::string& name) const override {
    const Json doc = load(iteration);
    if (!doc.at("attributes").contains(name)) return std::nullopt;
    return attr_from_json(doc.at("attributes").at(name));
  }

private:
  static Datatype dtype_from_name(const std::string& name) {
    for (auto t : {Datatype::uint8, Datatype::int32, Datatype::uint64,
                   Datatype::float32, Datatype::float64})
      if (name == bp::dtype_name(t)) return t;
    throw FormatError("openPMD json backend: unknown dtype '" + name + "'");
  }

  Json load(std::uint64_t iteration) const {
    auto it = known_.find(iteration);
    if (it == known_.end())
      throw UsageError("openPMD: no iteration " + std::to_string(iteration));
    fsim::FsClient io(fs_, 0);
    const auto bytes = io.read_all(it->second);
    return Json::parse(std::string(
        reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  }

  void scan_existing() {
    // Find files matching the pattern's prefix/suffix in its directory.
    const auto pos = pattern_.find("%T");
    if (pos == std::string::npos)
      throw UsageError("openPMD json backend: path needs a %T pattern");
    const std::string prefix = pattern_.substr(0, pos);
    const std::string suffix = pattern_.substr(pos + 2);
    const std::string dir = fsim::parent_path(pattern_);
    for (const auto* file : fs_.store().list_recursive(dir)) {
      const std::string& p = file->path;
      if (p.size() <= prefix.size() + suffix.size()) continue;
      if (p.compare(0, prefix.size(), prefix) != 0) continue;
      if (p.compare(p.size() - suffix.size(), suffix.size(), suffix) != 0)
        continue;
      const std::string middle =
          p.substr(prefix.size(), p.size() - prefix.size() - suffix.size());
      if (middle.empty() ||
          middle.find_first_not_of("0123456789") != std::string::npos)
        continue;
      known_[std::stoull(middle)] = p;
    }
  }

  fsim::SharedFs& fs_;
  std::string pattern_;
  bool write_;
  bool open_ = false;
  Json current_;
  std::uint64_t current_index_ = 0;
  std::map<std::uint64_t, std::string> known_;
};

std::string extension_of(const std::string& path) {
  const auto dot = path.rfind('.');
  if (dot == std::string::npos)
    throw UsageError("openPMD: path '" + path +
                     "' has no extension to select a backend");
  return path.substr(dot + 1);
}

}  // namespace

std::unique_ptr<SeriesBackend> make_write_backend(fsim::SharedFs& fs,
                                                  const std::string& path,
                                                  int nranks,
                                                  const Json& adios2_config) {
  const std::string ext = extension_of(path);
  if (ext == "bp" || ext == "bp4")
    return std::make_unique<BpWriteBackend>(fs, path, nranks, adios2_config,
                                            "bp4");
  if (ext == "bp5")
    return std::make_unique<BpWriteBackend>(fs, path, nranks, adios2_config,
                                            "bp5");
  if (ext == "json")
    return std::make_unique<JsonBackend>(fs, path, /*write=*/true);
  throw UsageError("openPMD: no backend for extension '." + ext + "'");
}

std::unique_ptr<SeriesBackend> make_read_backend(fsim::SharedFs& fs,
                                                 const std::string& path) {
  const std::string ext = extension_of(path);
  if (ext == "bp" || ext == "bp4")
    return std::make_unique<BpReadBackend>(fs, path, "bp4");
  if (ext == "bp5")
    return std::make_unique<BpReadBackend>(fs, path, "bp5");
  if (ext == "json")
    return std::make_unique<JsonBackend>(fs, path, /*write=*/false);
  throw UsageError("openPMD: no backend for extension '." + ext + "'");
}

}  // namespace bitio::pmd
