#include "core/io_config.hpp"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <tuple>
#include <type_traits>

#include "bp/engine.hpp"
#include "bp/types.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "util/toml.hpp"
#include "util/units.hpp"

namespace bitio::core {

namespace {

void read_value(const Json& value, int& out) { out = int(value.as_int()); }
void read_value(const Json& value, bool& out) { out = value.as_bool(); }
void read_value(const Json& value, std::string& out) {
  out = value.as_string();
}

std::string toml_value(int value) { return std::to_string(value); }
std::string toml_value(bool value) { return value ? "true" : "false"; }
std::string toml_value(const std::string& value) {
  return "\"" + value + "\"";
}

/// A knob of type From feeds an EngineConfig member of type To.
template <typename From, typename To>
constexpr bool kFeeds =
    std::is_same_v<From, To> ||
    (std::is_same_v<From, int> && std::is_same_v<To, std::size_t>);

}  // namespace

void Bit1IoConfig::validate() const {
  require_one_of("io config", "engine", engine, bp::registered_engines());
  engine_config(num_aggregators, profiling).validate();
  if (engine == "stream") {
    // The stream engine has no file container: knobs that only make sense
    // for on-disk output are a configuration error, not a silent no-op.
    if (checkpoint_interval > 0)
      throw UsageError(
          "io config: engine \"stream\" cannot take checkpoints "
          "(checkpoint_interval = " + std::to_string(checkpoint_interval) +
          ") — checkpoint epochs need a file container; use engine \"bp4\" "
          "or \"bp5\", or set checkpoint_interval = 0");
    if (use_striping)
      throw UsageError(
          "io config: engine \"stream\" writes no files, so [io.striping] "
          "has nothing to stripe — remove the striping table or pick a "
          "file engine");
    if (async_write)
      throw UsageError(
          "io config: engine \"stream\" publishes at end_step; there is no "
          "subfile drain for async_write to move off the critical path — "
          "drop async_write or pick engine \"bp5\"");
    if (aggregation == "two_level" && topology == "flat")
      throw UsageError(
          "io config: aggregation \"two_level\" with engine \"stream\" "
          "needs a multi-node topology, and topology \"flat\" places every "
          "rank on one node — pick a hierarchical topology (e.g. "
          "\"dardel\") or one of the aggregation modes " +
          quoted_list(bp::kAggregationModes));
  }
  for (const auto& [name, value, min] :
       {std::tuple{"checkpoint_aggregators", checkpoint_aggregators, 1},
        {"checkpoint_interval", checkpoint_interval, 0},
        {"checkpoint_retain", checkpoint_retain, 1},
        {"checkpoint_full_interval", checkpoint_full_interval, 1},
        {"degrade_threshold", degrade_threshold, 1},
        {"degrade_cooldown", degrade_cooldown, 1}})
    require_at_least("io config", name, value, min);
  if (recovery != "abort" && recovery != "shrink")
    throw UsageError("io config: recovery must be \"abort\" or \"shrink\", "
                     "got '" + recovery + "'");
  fault_plan.validate();
  if (use_striping) {
    if (striping.stripe_count < 1)
      throw UsageError("io config: stripe count must be >= 1, got " +
                       std::to_string(striping.stripe_count));
    const std::uint64_t size = striping.stripe_size;
    if (size == 0 || (size & (size - 1)) != 0)
      throw UsageError("io config: stripe size must be a power of two, got " +
                       std::to_string(size));
  }
}

bp::EngineConfig Bit1IoConfig::engine_config(int aggregators,
                                             bool profiling) const {
  bp::EngineConfig out;
  if (const auto type = bp::engine_type_of(engine)) out.engine = *type;
  for (const IoConfigKey& row : kBit1IoConfigKeys)
    std::visit(
        [&](auto from, auto to) {
          if constexpr (!std::is_same_v<decltype(to), std::monostate>) {
            using From = std::remove_cvref_t<decltype(this->*from)>;
            using To = std::remove_cvref_t<decltype(out.*to)>;
            if constexpr (kFeeds<From, To>) out.*to = To(this->*from);
          }
        },
        row.member, row.feeds);
  out.num_aggregators = aggregators;
  out.profiling = profiling;
  return out;
}

Bit1IoConfig Bit1IoConfig::from_toml(const std::string& text) {
  Bit1IoConfig config;
  const Json doc = parse_toml(text);
  if (!doc.contains("io")) return config;
  for (const auto& [key, value] : doc.at("io").as_object()) {
    if (key == "mode") {
      const std::string& mode = value.as_string();
      if (mode == "original") config.mode = IoMode::original;
      else if (mode == "openpmd") config.mode = IoMode::openpmd;
      else throw UsageError("io config: unknown mode '" + mode + "'");
    } else if (key == "striping") {
      config.use_striping = true;
      for (const auto& [skey, svalue] : value.as_object()) {
        if (skey == "count")
          config.striping.stripe_count = int(svalue.as_int());
        else if (skey == "size")
          config.striping.stripe_size = svalue.is_string()
                                            ? parse_size(svalue.as_string())
                                            : svalue.as_uint();
        else
          throw UsageError("io config: unknown key '" + skey +
                           "' under [io.striping]");
      }
    } else if (key == "fault_plan") {
      config.fault_plan = fsim::FaultPlan::from_json(value);
    } else {
      const auto row = std::find_if(
          std::begin(kBit1IoConfigKeys), std::end(kBit1IoConfigKeys),
          [&](const IoConfigKey& r) { return key == r.key; });
      if (row == std::end(kBit1IoConfigKeys))
        throw UsageError("io config: unknown key '" + key + "' under [io]");
      std::visit([&](auto member) { read_value(value, config.*member); },
                 row->member);
    }
  }
  config.validate();
  return config;
}

std::string Bit1IoConfig::to_toml() const {
  std::string out = "[io]\n";
  out += std::string("mode = \"") +
         (mode == IoMode::original ? "original" : "openpmd") + "\"\n";
  for (const IoConfigKey& row : kBit1IoConfigKeys)
    std::visit(
        [&](auto member) {
          out += std::string(row.key) + " = " + toml_value(this->*member) +
                 "\n";
        },
        row.member);
  if (use_striping) {
    out += "[io.striping]\n";
    out += strfmt("count = %d\n", striping.stripe_count);
    out += strfmt("size = %llu\n",
                  static_cast<unsigned long long>(striping.stripe_size));
  }
  if (!fault_plan.empty()) {
    out += "[io.fault_plan]\n";
    out += fault_plan.to_toml();
  }
  return out;
}

std::string Bit1IoConfig::adios2_toml() const {
  return engine_config(num_aggregators, profiling).adios2_toml();
}

std::string Bit1IoConfig::label() const {
  if (mode == IoMode::original) return "BIT1 Original I/O";
  std::string out = "BIT1 openPMD + ";
  for (const char c : engine)
    out += char(std::toupper(static_cast<unsigned char>(c)));
  if (codec == "blosc") out += " + Blosc";
  if (codec == "bzip2") out += " + bzip2";
  if (num_aggregators == 1) out += " + 1 AGGR";
  else if (num_aggregators > 1)
    out += " + " + std::to_string(num_aggregators) + " AGGR";
  if (async_write) out += " + async";
  if (use_striping)
    out += strfmt(" [stripe -c %d -S %s]", striping.stripe_count,
                  format_bytes(striping.stripe_size).c_str());
  return out;
}

}  // namespace bitio::core
