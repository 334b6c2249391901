#include "bp/engine.hpp"

#include <iterator>
#include <tuple>
#include <utility>

#include "bp/writer.hpp"
#include "compress/parallel.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace bitio::bp {

namespace {

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
        {"max_drain_retries", max_drain_retries, 0},
        {"numa_per_node", numa_per_node, 0},
        {"nics_per_node", nics_per_node, 0}})
    require_at_least(owner, name, value, min);
  if (std::size_t(compress_threads) > cz::BufferPool::kDefaultMaxPerClass)
    throw UsageError(strfmt(
        "%s: compress_threads = %d exceeds the buffer-pool per-class "
        "depth (%zu), so the freelists would thrash",
        owner, compress_threads, cz::BufferPool::kDefaultMaxPerClass));
  require_one_of(owner, "codec", codec, cz::kCodecNames);
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
  for (std::size_t i = 0; i < std::size(kEngineNames); ++i)
    if (name == kEngineNames[i]) return EngineType(i);
  return std::nullopt;
}

std::unique_ptr<Engine> make_engine(const std::string& name,
                                    fsim::SharedFs& fs, std::string path,
                                    EngineConfig config, int nranks) {
  require_one_of("bp::make_engine", "engine", name, kEngineNames);
  // The name string is the source of truth for the config's engine enum.
  config.engine = *engine_type_of(name);
  return std::make_unique<Writer>(fs, std::move(path), std::move(config),
                                  nranks);
}

}  // namespace bitio::bp
