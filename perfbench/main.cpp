// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <paper_openpmd|paper_original|bit1_job>
//             [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//
// Prints every metric by name with its unit, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}.  The full
// record (environment, tails, per-op samples, spans) goes to
// DIR/<workload>-seed<N>-trace<T>.json.  Exits 1 when any check failed.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

namespace perfbench {

Clock::time_point process_start;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<paper_openpmd|paper_original|bit1_job> [--seed N] "
               "[--seconds S] [--trace 0|1] [--out DIR]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 0);
  if (end == text || *end != '\0') usage("not a number");
  return v;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  process_start = Clock::now();

  Options options;
  std::string out_dir = ".bench_results";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = parse_u64(value);
      options.seed_given = true;
    } else if (arg == "--seconds") {
      options.seconds = double(parse_u64(value));
    } else if (arg == "--trace") {
      options.trace = parse_u64(value) != 0;
    } else if (arg == "--out") {
      out_dir = value;
    } else {
      usage("unknown argument");
    }
  }

  RunResult result;
  SpanRecorder recorder(options.trace);
  try {
    if (options.workload == "paper_openpmd")
      run_paper(options, true, result, recorder);
    else if (options.workload == "paper_original")
      run_paper(options, false, result, recorder);
    else if (options.workload == "bit1_job")
      run_bit1(options, result, recorder);
    else
      usage("unknown workload");
  } catch (const std::exception& e) {
    result.failures.push_back(std::string("run aborted: ") + e.what());
  }

  for (const Metric& m : result.metrics.all())
    std::printf("%-28s %22s %s\n", m.name.c_str(),
                format_number(m.value).c_str(), m.unit.c_str());
  for (const auto& [name, tail] : result.tails)
    std::printf("%s.tail is p%s of %zu samples\n", name.c_str(),
                format_number(tail.percentile).c_str(), tail.samples);
  for (const std::string& f : result.failures)
    std::printf("FAILED: %s\n", f.c_str());

  mkdir(out_dir.c_str(), 0755);
  const std::string path = out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0") + ".json";
  try {
    write_result_file(path, options.workload, options.seed, options.seconds,
                      options.trace, describe_environment(), result,
                      recorder.spans());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  std::printf("%s\n", result_line(result).c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
