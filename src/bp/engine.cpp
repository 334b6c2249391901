#include "bp/engine.hpp"

#include <map>
#include <utility>

#include "bp/reader.hpp"
#include "bp/stream.hpp"
#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace bitio::bp {

namespace {

// --- file-engine adaptor ---------------------------------------------------

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

/// bp::Writer behind the Engine interface — the BP4 and BP5 registry
/// entries.  Pure delegation: the byte stream is identical to direct
/// Writer use.
class FileEngine final : public Engine {
 public:
  FileEngine(fsim::SharedFs& fs, std::string path, EngineConfig config,
             int nranks)
      : fs_(fs),
        name_(bp::engine_name(config.engine)),
        writer_(ForEngineFactory{}, fs, std::move(path), std::move(config),
                nranks) {}

  std::string engine_name() const override { return name_; }
  const std::string& path() const override { return writer_.path(); }

  void begin_step(std::uint64_t step) override { writer_.begin_step(step); }
  void put(int rank, const std::string& name, const Dims& shape,
           const ChunkView& chunk) override {
    writer_.put(rank, name, shape, chunk);
  }
  void put_synthetic(int rank, const std::string& name, Datatype dtype,
                     const Dims& shape, const Dims& offset,
                     const Dims& count) override {
    writer_.put_synthetic(rank, name, dtype, shape, offset, count);
  }
  void add_attribute(const std::string& name, AttrValue value) override {
    writer_.add_attribute(name, std::move(value));
  }
  void end_step() override { writer_.end_step(); }
  void flush() override { writer_.wait_drains(); }
  void close() override { writer_.close(); }

  std::uint64_t steps_written() const override {
    return writer_.steps_written();
  }
  int peak_inflight() const override { return writer_.peak_inflight(); }
  cz::BufferPool::Stats pool_stats() const override {
    return writer_.pool_stats();
  }
  void reset_pool_stats() override { writer_.reset_pool_stats(); }
  WatchdogStats watchdog_stats() const override {
    return writer_.watchdog_stats();
  }

  std::unique_ptr<EngineReader> attach(fsim::ClientId client) override {
    // Outstanding drains must land before the metadata is parsed —
    // attaching mid-run sees every step whose end_step returned.  The
    // md.idx header count is only finalized at close(), so publish it now
    // (same bytes close() writes) for the reader to open against.
    writer_.wait_drains();
    writer_.publish_index();
    return std::make_unique<FileEngineReader>(fs_, client, writer_.path());
  }

  /// The underlying writer, for call sites migrating incrementally.
  Writer& writer() { return writer_; }

 private:
  fsim::SharedFs& fs_;
  std::string name_;
  Writer writer_;
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
    {EngineType::bp4, construct<FileEngine>},
    {EngineType::bp5, construct<FileEngine>},
    {EngineType::stream, construct<StreamEngine>},
};

/// EngineType matching a built-in factory name; nullopt for custom engines
/// registered by tests (their factories interpret config.engine as they
/// see fit).
std::optional<EngineType> engine_type_of(const std::string& name) {
  for (const BuiltinEngine& builtin : kBuiltinEngines)
    if (name == engine_name(builtin.type)) return builtin.type;
  return std::nullopt;
}

void builtin_engines() {
  static const bool done = [] {
    for (const BuiltinEngine& builtin : kBuiltinEngines)
      register_engine(engine_name(builtin.type), builtin.make);
    return true;
  }();
  (void)done;
}

}  // namespace

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
