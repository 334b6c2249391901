#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const auto k = std::size_t(std::ceil(p / 100.0 * double(n) - 1e-9));
  return std::clamp<std::size_t>(k, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), p) - 1];
}

Tail tail_of(const std::vector<double>& samples) {
  Tail tail;
  tail.samples = samples.size();
  const std::size_t n = samples.size();
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (n >= nearest_rank(n, p) + 10) {
      tail.percentile = p;
      break;
    }
  }
  tail.value = percentile(samples, tail.percentile);
  return tail;
}

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("malformed metric name '" + name + "'");
  if (find(name)) throw std::invalid_argument("metric '" + name + "' twice");
  if (!std::isfinite(value))
    throw std::invalid_argument("metric '" + name + "' is not finite");
  metrics_.push_back({name, value, unit});
}

const Metric* MetricSet::find(const std::string& name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return &m;
  return nullptr;
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "null";
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", value);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void RunResult::record_op(bool ok, const std::string& why) {
  ++attempted;
  if (ok) return;
  ++failed;
  failures.push_back(why);
}

namespace {

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", unsigned(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const MetricSet& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics.all()) {
    if (out.size() > 1) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + format_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

}  // namespace

std::string result_line(const RunResult& result) {
  return std::string("{\"correct\": ") + (result.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(result.attempted) +
         ", \"failed\": " + std::to_string(result.failed) +
         ", \"metrics\": " + metrics_json(result.metrics) + "}";
}

Environment describe_environment() {
  Environment env;
  env.nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
  env.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  env.compiler = "gcc " __VERSION__;
#else
  env.compiler = "unknown";
#endif
  env.build_type = PERFBENCH_BUILD_TYPE;
#ifdef _SC_LEVEL3_CACHE_SIZE
  env.l3_bytes = std::max(0L, sysconf(_SC_LEVEL3_CACHE_SIZE));
#endif
  return env;
}

std::uint64_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return std::uint64_t(usage.ru_maxrss) * 1024;  // Linux reports KiB
}

std::map<std::string, double> median_self_time_by_name(
    const std::vector<Span>& spans, const std::vector<std::uint64_t>& ops) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, std::map<std::uint64_t, double>> per_op;
  for (std::size_t i = 0; i < spans.size(); ++i)
    per_op[spans[i].name][spans[i].op] += self[i];
  std::map<std::string, double> out;
  for (const auto& [name, by_op] : per_op) {
    std::vector<double> values;
    for (const std::uint64_t op : ops) {
      const auto it = by_op.find(op);
      values.push_back(it == by_op.end() ? 0.0 : it->second);
    }
    if (!values.empty()) out[name] = median(values);
  }
  return out;
}

void write_result_file(const std::string& path, const std::string& workload,
                       std::uint64_t seed, double seconds, bool traced,
                       const Environment& env, const RunResult& result,
                       const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\n  \"workload\": " << json_string(workload)
      << ",\n  \"seed\": " << seed << ",\n  \"seconds\": "
      << format_number(seconds) << ",\n  \"trace\": " << (traced ? 1 : 0)
      << ",\n  \"environment\": {\"nproc\": " << env.nproc
      << ", \"compiler\": " << json_string(env.compiler)
      << ", \"build_type\": " << json_string(env.build_type)
      << ", \"l3_bytes\": " << env.l3_bytes << "},\n  \"correct\": "
      << (result.correct() ? "true" : "false")
      << ",\n  \"attempted\": " << result.attempted
      << ",\n  \"failed\": " << result.failed << ",\n  \"failures\": [";
  for (std::size_t i = 0; i < result.failures.size(); ++i)
    out << (i ? ", " : "") << json_string(result.failures[i]);
  out << "],\n  \"metrics\": " << metrics_json(result.metrics)
      << ",\n  \"tails\": {";
  bool first = true;
  for (const auto& [name, tail] : result.tails) {
    out << (first ? "" : ", ") << json_string(name)
        << ": {\"percentile\": " << format_number(tail.percentile)
        << ", \"value\": " << format_number(tail.value)
        << ", \"samples\": " << tail.samples << "}";
    first = false;
  }
  out << "},\n  \"samples\": {";
  first = true;
  for (const auto& [name, values] : result.samples) {
    out << (first ? "" : ", ") << json_string(name) << ": [";
    for (std::size_t i = 0; i < values.size(); ++i)
      out << (i ? ", " : "") << format_number(values[i]);
    out << "]";
    first = false;
  }
  out << "},\n  \"notes\": {";
  first = true;
  for (const auto& [key, text] : result.notes) {
    out << (first ? "" : ", ") << json_string(key) << ": "
        << json_string(text);
    first = false;
  }
  out << "},\n  \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n    " : "\n    ") << "{\"name\": " << json_string(s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}";
  }
  out << "]\n}\n";
}

}  // namespace perfbench
