#include "bp/engine.hpp"

#include <iterator>
#include <map>
#include <tuple>
#include <utility>

#include "bp/reader.hpp"
#include "bp/stream.hpp"
#include "bp/writer.hpp"
#include "compress/parallel.hpp"
#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/table.hpp"
#include "util/thread_annotations.hpp"

namespace bitio::bp {

namespace {

// --- file-engine reader ----------------------------------------------------

/// Cursor over the steps of an opened BP4/BP5 container.  The step list is
/// snapshotted at construction (attach time): steps landed later need a
/// fresh attach, matching how BP readers see a container.
class FileEngineReader final : public EngineReader {
 public:
  FileEngineReader(fsim::SharedFs& fs, fsim::ClientId client,
                   std::string path)
      : reader_(Reader::open(fs, client, std::move(path))),
        step_ids_(reader_.steps()) {}

  std::optional<std::uint64_t> next_step() override {
    if (cursor_ >= step_ids_.size()) return std::nullopt;
    current_ = step_ids_[cursor_++];
    started_ = true;
    return current_;
  }

  std::uint64_t current_step() const override {
    require_step();
    return current_;
  }

  std::vector<std::string> variables() const override {
    require_step();
    return reader_.variables(current_);
  }

  const VarRecord* find_variable(const std::string& name) const override {
    if (!started_) return nullptr;
    return reader_.find_variable(current_, name);
  }

  std::vector<std::uint8_t> get(const std::string& name) override {
    require_step();
    return reader_.read(current_, name);
  }

  std::optional<AttrValue> attribute(const std::string& name) const override {
    if (!started_) return std::nullopt;
    return reader_.attribute(current_, name);
  }

 private:
  void require_step() const {
    if (!started_)
      throw UsageError(
          "bp::EngineReader: no current step (call next_step first)");
  }

  Reader reader_;
  std::vector<std::uint64_t> step_ids_;
  std::size_t cursor_ = 0;
  std::uint64_t current_ = 0;
  bool started_ = false;
};

// --- registry --------------------------------------------------------------

struct Registry {
  util::Mutex mutex;
  std::map<std::string, EngineFactory> factories GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: engines may outlive main
  return *r;
}

template <typename E>
std::unique_ptr<Engine> construct(fsim::SharedFs& fs, std::string path,
                                  EngineConfig config, int nranks) {
  return std::make_unique<E>(fs, std::move(path), std::move(config), nranks);
}

/// The built-in engines: registered under engine_name(type) on first use,
/// and the table make_engine() reads a built-in name's EngineType from.
struct BuiltinEngine {
  EngineType type;
  std::unique_ptr<Engine> (*make)(fsim::SharedFs&, std::string, EngineConfig,
                                  int);
};
constexpr BuiltinEngine kBuiltinEngines[] = {
    {EngineType::bp4, construct<Writer>},
    {EngineType::bp5, construct<Writer>},
    {EngineType::stream, construct<StreamEngine>},
};

void builtin_engines() {
  static const bool done = [] {
    for (const BuiltinEngine& builtin : kBuiltinEngines)
      register_engine(engine_name(builtin.type), builtin.make);
    return true;
  }();
  (void)done;
}

void read_value(const Json& value, EngineType& out) {
  const std::string& name = value.as_string();
  const auto type = engine_type_of(name);
  if (!type) throw UsageError("adios2 config: unknown engine '" + name + "'");
  out = *type;
}
void read_value(const Json& value, int& out) { out = int(value.as_int()); }
void read_value(const Json& value, std::size_t& out) {
  out = std::size_t(value.as_uint());
}
void read_value(const Json& value, bool& out) {
  out = value.is_string() ? value.as_string() == "On" : value.as_bool();
}
void read_value(const Json& value, std::string& out) {
  out = value.as_string();
}

std::string quoted(const std::string& value) { return "\"" + value + "\""; }
std::string toml_value(EngineType type) { return quoted(engine_name(type)); }
std::string toml_value(int value) { return std::to_string(value); }
std::string toml_value(std::size_t value) { return std::to_string(value); }
std::string toml_value(bool value) { return quoted(value ? "On" : "Off"); }
std::string toml_value(const std::string& value) { return quoted(value); }

/// `parent`'s member `key`, or nullptr when either is absent.
const Json* child(const Json* parent, const char* key) {
  return parent != nullptr && parent->contains(key) ? &parent->at(key)
                                                    : nullptr;
}

}  // namespace

// --- EngineConfig ------------------------------------------------------------

StreamPolicy stream_policy_of(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kStreamPolicies); ++i)
    if (name == kStreamPolicies[i]) return StreamPolicy(i);
  throw UsageError("bp: unknown stream_policy '" + name +
                   "' (expected one of " + quoted_list(kStreamPolicies) +
                   ")");
}

std::unique_ptr<cz::Codec> make_operator(const EngineConfig& config,
                                         cz::BufferPool& pool) {
  if (config.codec == "none") return nullptr;
  auto codec = cz::make_codec(config.codec, config.codec_typesize);
  if (config.compress_threads <= 1) return codec;
  return std::make_unique<cz::ParallelCodec>(
      std::move(codec), config.compress_threads,
      config.compress_block_kb * 1024, nullptr, &pool);
}

void EngineConfig::validate() const {
  const char* const owner = "bp::EngineConfig";
  for (const auto& [name, value, min] :
       {std::tuple<const char*, std::int64_t, std::int64_t>{
            "num_aggregators", num_aggregators, 0},
        {"ranks_per_node", ranks_per_node, 1},
        {"compress_threads", compress_threads, 1},
        {"compress_block_kb", std::int64_t(compress_block_kb), 1},
        {"buffer_chunk_mb", std::int64_t(buffer_chunk_mb), 1},
        {"io_batch_depth", io_batch_depth, 0},
        {"max_inflight_steps", max_inflight_steps, 1},
        {"drain_timeout_ms", drain_timeout_ms, 0},
        {"max_drain_retries", max_drain_retries, 0},
        {"stream_max_steps", stream_max_steps, 1},
        {"numa_per_node", numa_per_node, 0},
        {"nics_per_node", nics_per_node, 0}})
    require_at_least(owner, name, value, min);
  if (std::size_t(compress_threads) > cz::BufferPool::kDefaultMaxPerClass)
    throw UsageError(strfmt(
        "%s: compress_threads = %d exceeds the buffer-pool per-class "
        "depth (%zu), so the freelists would thrash",
        owner, compress_threads, cz::BufferPool::kDefaultMaxPerClass));
  require_one_of(owner, "codec", codec, cz::kCodecNames);
  require_one_of(owner, "stream_policy", stream_policy, kStreamPolicies);
  require_one_of(owner, "aggregation", aggregation, kAggregationModes);
  require_one_of(owner, "topology", topology, topo::preset_names());
}

EngineConfig EngineConfig::from_json(const Json& adios2) {
  const Json* engine = child(&adios2, "engine");
  const Json* ops = child(child(&adios2, "dataset"), "operators");
  if (ops != nullptr && ops->as_array().size() > 1)
    throw UsageError("adios2 config: at most one operator is supported");
  const Json* op = ops != nullptr && !ops->as_array().empty()
                       ? &ops->as_array()[0]
                       : nullptr;
  // Indexed by AdiosSection.
  const Json* const sections[] = {engine, child(engine, "parameters"), op};
  EngineConfig config;
  for (const EngineParameter& row : kEngineParameters)
    for (const char* name : {row.name, row.alias})
      if (const Json* value =
              name ? child(sections[int(row.section)], name) : nullptr)
        std::visit([&](auto member) { read_value(*value, config.*member); },
                   row.member);
  return config;
}

std::string EngineConfig::adios2_toml() const {
  std::string engine, parameters, op;
  for (const EngineParameter& row : kEngineParameters) {
    const std::string value = std::visit(
        [&](auto member) { return toml_value(this->*member); }, row.member);
    const std::string line = std::string(row.name) + " = " + value;
    switch (row.section) {
      case AdiosSection::engine: engine += line + "\n"; break;
      case AdiosSection::parameters: parameters += line + "\n"; break;
      case AdiosSection::op: op += (op.empty() ? "" : ", ") + line; break;
    }
  }
  return "[adios2.engine]\n" + engine + "[adios2.engine.parameters]\n" +
         parameters + "[adios2.dataset]\noperators = [ { " + op + " } ]\n";
}

// --- factory -----------------------------------------------------------------

std::optional<EngineType> engine_type_of(const std::string& name) {
  for (const BuiltinEngine& builtin : kBuiltinEngines)
    if (name == engine_name(builtin.type)) return builtin.type;
  return std::nullopt;
}

void register_engine(const std::string& name, EngineFactory factory) {
  if (name.empty())
    throw UsageError("bp::register_engine: empty engine name");
  if (!factory)
    throw UsageError("bp::register_engine: null factory for '" + name + "'");
  Registry& reg = registry();
  util::MutexLock lock(reg.mutex);
  reg.factories[name] = std::move(factory);
}

bool engine_registered(const std::string& name) {
  builtin_engines();
  Registry& reg = registry();
  util::MutexLock lock(reg.mutex);
  return reg.factories.count(name) > 0;
}

std::vector<std::string> registered_engines() {
  builtin_engines();
  Registry& reg = registry();
  util::MutexLock lock(reg.mutex);
  std::vector<std::string> names;
  names.reserve(reg.factories.size());
  for (const auto& [name, factory] : reg.factories) {
    (void)factory;
    names.push_back(name);
  }
  return names;  // std::map iteration is already sorted
}

std::unique_ptr<Engine> make_engine(const std::string& name,
                                    fsim::SharedFs& fs, std::string path,
                                    EngineConfig config, int nranks) {
  builtin_engines();
  EngineFactory factory;
  {
    Registry& reg = registry();
    util::MutexLock lock(reg.mutex);
    auto it = reg.factories.find(name);
    if (it == reg.factories.end()) {
      std::string known;
      for (const auto& [known_name, known_factory] : reg.factories) {
        (void)known_factory;
        if (!known.empty()) known += ", ";
        known += "\"" + known_name + "\"";
      }
      throw UsageError("bp::make_engine: unknown engine \"" + name +
                       "\" (registered: " + known + ")");
    }
    factory = it->second;  // copy so the factory runs outside the lock
  }
  // The name string is the source of truth: for built-in names the config's
  // engine enum is overridden to match before the factory sees it.
  if (auto type = engine_type_of(name)) config.engine = *type;
  return factory(fs, std::move(path), std::move(config), nranks);
}

std::unique_ptr<Engine> make_engine(fsim::SharedFs& fs, std::string path,
                                    EngineConfig config, int nranks) {
  const std::string name = bp::engine_name(config.engine);
  return make_engine(name, fs, std::move(path), std::move(config), nranks);
}

std::unique_ptr<EngineReader> attach_reader(fsim::SharedFs& fs,
                                            fsim::ClientId client,
                                            std::string path) {
  return std::make_unique<FileEngineReader>(fs, client, std::move(path));
}

}  // namespace bitio::bp
