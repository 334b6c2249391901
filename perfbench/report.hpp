#pragma once
// Statistics, metric naming and output for the benchmark: the tail rule,
// the metric-name grammar, the one-line JSON result and the environment
// record written beside it.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// Metric names: 1-64 characters of [A-Za-z0-9_.-], starting with a letter
/// or a digit.
bool valid_metric_name(std::string_view name);

/// Median (mean of the two middle values for an even count).  Throws on an
/// empty sample.
double median(std::vector<double> samples);

/// Nearest-rank percentile `p` (0 < p <= 100) of a non-empty sample.
double percentile(std::vector<double> samples, double p);

/// The tail of a sample: the highest percentile of the ladder
/// {99.9, 99, 95, 90, 75, 50} that has at least ten samples beyond it
/// (nearest rank k = ceil(p/100 * n); beyond = n - k).  With fewer than 20
/// samples no rung qualifies and the tail falls back to p50; `percentile`
/// records which rung was used.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
};
Tail tail_of(const std::vector<double>& samples);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// An ordered set of uniquely named metrics.
class MetricSet {
 public:
  /// Throws std::invalid_argument on a malformed or repeated name or a
  /// non-finite value.
  void add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return metrics_; }
  const Metric* find(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
};

/// A number with all its significant digits (integers print as integers).
std::string format_number(double value);

/// What one benchmark run produced.
struct RunResult {
  MetricSet metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // One line per failed check: failed ops, and checks outside the
  // measured ops (warm-up, drift guard set-up, codec round trip).
  std::vector<std::string> failures;
  std::map<std::string, Tail> tails;
  std::map<std::string, std::vector<double>> samples;  // per-op values
  std::map<std::string, std::string> notes;            // free-form record

  /// Count one op; `ok` false adds `why` to the failure list.
  void record_op(bool ok, const std::string& why);
  bool correct() const { return failures.empty() && attempted > 0; }
};

/// The machine-readable last stdout line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
std::string result_line(const RunResult& result);

/// Host facts every result file records.
struct Environment {
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  long l3_bytes = 0;  // 0 when the C library cannot tell
};
Environment describe_environment();

/// Peak resident set of this process so far, in bytes.
std::uint64_t peak_rss_bytes();

/// Per-layer attribution of a traced run: for every op in `ops`, sum the
/// self time of each span name within that op; report the median over ops.
/// The root span named "op" contributes its self time under "op" (time no
/// layer span covers).
std::map<std::string, double> median_self_time_by_name(
    const std::vector<Span>& spans, const std::vector<std::uint64_t>& ops);

/// Write the full result record (environment, metrics, tails, samples,
/// notes, and the spans when traced) as JSON to `path`.
void write_result_file(const std::string& path, const std::string& workload,
                       std::uint64_t seed, double seconds, bool traced,
                       const Environment& env, const RunResult& result,
                       const std::vector<Span>& spans);

}  // namespace perfbench
