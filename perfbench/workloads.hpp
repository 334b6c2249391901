#pragma once
// The benchmark's workloads.  Each runs on the calling thread: warm-up and
// set-up, then ops until `seconds` have passed, then the metrics.  The
// untraced run (trace = false) reports the end-to-end metrics; the traced
// run alternates untraced and traced ops and reports the per-layer ones.

#include <chrono>
#include <cstdint>
#include <exception>
#include <span>
#include <string>
#include <vector>

#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;  // false: each workload's historical default
  double seconds = 10.0;
  bool trace = false;
};

using Clock = std::chrono::steady_clock;

/// Taken first thing in main(); set-up time counts from here.
extern Clock::time_point process_start;

inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Host time of a nullary call, in seconds.
template <typename F>
double timed(F&& f) {
  const auto t = Clock::now();
  f();
  return seconds_since(t);
}

/// Set-up time: the process start-up (from process_start to the first
/// set-up) plus the median of `reps` set-ups, each timed on its own, so
/// start-up counts once and every set-up is timed alike.  Appends each
/// set-up's time to `samples`.
template <typename F>
double setup_seconds(int reps, F&& set_up_once, std::vector<double>& samples) {
  const double startup = seconds_since(process_start);
  for (int i = 0; i < reps; ++i) samples.push_back(timed(set_up_once));
  return startup + median(samples);
}

/// Run `f` inside a span and return its result.
template <typename F>
decltype(auto) in_span(SpanRecorder& recorder, const char* name, F&& f) {
  ScopedSpan span(recorder, name);
  return f();
}

/// Run one op; an exception it throws counts as a failed op, and then
/// attempt() returns false.
template <typename F>
bool attempt(RunResult& result, F&& f) {
  try {
    f();
    return true;
  } catch (const std::exception& e) {
    result.record_op(false, std::string("threw: ") + e.what());
    return false;
  }
}

/// Every per-layer metric, in BENCHMARK.json order, with its unit.  Each
/// workload reports all of them; a layer a workload does not call reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
extern const LayerMetric kLayerMetrics[];

/// Fill `result.metrics` with every per-layer metric: from `values` where
/// present, else 0.  Throws if `values` names one that is not declared.
void emit_layer_metrics(const std::map<std::string, double>& values,
                        RunResult& result);

/// Adds the `fsim.cpu_s.<tag>` entries of one replay's CPU charges; tags
/// outside the declared list are summed into `fsim.cpu_s.other`.
void add_cpu_tags(const std::map<std::string, double>& cpu_by_tag,
                  std::map<std::string, double>& values);

/// CRC32C rate over `bytes`, median of three passes, in GiB/s.  Passes
/// that disagree on the checksum add a failure to `result`.
double crc32c_gibps(std::span<const std::uint8_t> bytes, RunResult& result);

/// paper_openpmd (openpmd = true) and paper_original.
void run_paper(const Options& options, bool openpmd, RunResult& result,
               SpanRecorder& recorder);

/// bit1_job.
void run_bit1(const Options& options, RunResult& result,
              SpanRecorder& recorder);

}  // namespace perfbench
