// Slow-reader policy study for the miniSST stream engine: one producer
// publishes diagnostics steps into the bounded channel while a deliberately
// slow consumer falls behind, once per QueueFullPolicy.  The consumer
// decodes every step it receives and checks its size and first element, so
// each policy is shown to deliver correct steps as well as to act on the
// window.  `stream_fanout --json` emits the policy sweep as JSON
// (scripts/bench_report.sh captures it as BENCH_stream.json).
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "bench_common.hpp"
#include "bp/engine.hpp"
#include "bp/stream.hpp"
#include "darshan/darshan.hpp"
#include "util/json.hpp"

using namespace bitio;
using namespace bitio::benchkit;

namespace {

constexpr int kRanks = 4;
constexpr std::uint64_t kSteps = 16;
constexpr std::uint64_t kElems = 8192;  // floats per rank per step

struct PolicyRun {
  std::string policy;
  std::uint64_t steps_received = 0;
  std::uint64_t steps_lost = 0;
  int peak_depth = 0;
  std::uint64_t slow_dropped = 0;
  bool slow_disconnected = false;
  bool payload_ok = true;
  bool policy_ok = true;
};

/// One producer and one slow consumer (the policy victim) on a 4-step
/// window.
PolicyRun run_policy(const std::string& policy) {
  PolicyRun run;
  run.policy = policy;

  fsim::SharedFs fs(8);
  bp::EngineConfig config;
  config.ranks_per_node = kRanks;
  config.codec = "blosc";
  config.stream_max_steps = 4;
  config.stream_policy = policy;
  auto engine = bp::make_engine("stream", fs, "fanout.stream", config,
                                kRanks);
  auto* stream = dynamic_cast<bp::StreamEngine*>(engine.get());

  // The slow reader the policy acts on: under `block` it throttles the
  // producer (bounded window), under `drop_oldest` it loses steps, under
  // `disconnect` it gets cut off.
  auto slow = engine->attach(1);
  std::atomic<std::uint64_t> received{0};
  bool payload_ok = true;
  std::thread slow_thread([&] {
    while (const auto step = slow->next_step()) {
      const auto bytes = slow->get("vdf_e");
      const bool size_ok = bytes.size() == kRanks * kElems * sizeof(float);
      float first = -1.f;
      if (size_ok) std::memcpy(&first, bytes.data(), sizeof(float));
      payload_ok = payload_ok && size_ok && first == float(*step);
      received.fetch_add(1, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (std::uint64_t step = 0; step < kSteps; ++step) {
    engine->begin_step(step);
    for (int r = 0; r < kRanks; ++r) {
      std::vector<float> local(kElems);
      for (std::uint64_t i = 0; i < kElems; ++i)
        local[i] = float(step) + float(i % 97) * 0.5f;
      engine->put<float>(r, "vdf_e", {kRanks * kElems},
                         {std::uint64_t(r) * kElems}, {kElems}, local);
    }
    engine->end_step();
    // Let the consumer take step 0 before the producer runs ahead, so
    // every policy hands it at least one step to check.
    while (step == 0 && received.load(std::memory_order_acquire) == 0)
      std::this_thread::yield();
  }
  engine->close();
  slow_thread.join();

  run.steps_received = received.load();
  run.steps_lost = stream->channel().steps_lost();
  run.peak_depth = stream->channel().peak_depth();
  run.slow_dropped = slow->steps_dropped();
  run.slow_disconnected = slow->disconnected();
  run.payload_ok = payload_ok && run.steps_received > 0;

  // What each policy must have demonstrably done to the slow consumer.
  if (policy == "block")
    run.policy_ok = run.steps_lost == 0 && run.peak_depth <= 4;
  else if (policy == "drop_oldest")
    run.policy_ok = run.slow_dropped > 0 && !run.slow_disconnected;
  else
    run.policy_ok = run.slow_disconnected;
  return run;
}

int run_sweep(bool as_json) {
  std::vector<PolicyRun> runs;
  for (const char* policy : {"block", "drop_oldest", "disconnect"})
    runs.push_back(run_policy(policy));

  bool all_ok = true;
  for (const auto& run : runs)
    all_ok = all_ok && run.payload_ok && run.policy_ok;

  if (as_json) {
    Json doc{JsonObject{}};
    doc["bench"] = "stream_fanout";
    doc["engine"] = "stream";
    doc["engine_tag"] = darshan::engine_tag("stream");
    doc["steps"] = kSteps;
    doc["ranks"] = kRanks;
    doc["bytes_per_step"] = kRanks * kElems * sizeof(float);
    JsonArray sweep;
    for (const auto& run : runs) {
      Json row{JsonObject{}};
      row["policy"] = run.policy;
      row["steps_received"] = run.steps_received;
      row["steps_lost"] = run.steps_lost;
      row["peak_window_depth"] = run.peak_depth;
      row["slow_consumer_dropped"] = run.slow_dropped;
      row["slow_consumer_disconnected"] = run.slow_disconnected;
      row["payload_ok"] = run.payload_ok;
      row["policy_ok"] = run.policy_ok;
      sweep.push_back(std::move(row));
    }
    doc["sweep"] = std::move(sweep);
    doc["all_checks_ok"] = all_ok;
    std::printf("%s\n", doc.dump(2).c_str());
  } else {
    print_header("miniSST slow-reader policies — one producer, one slow "
                 "consumer",
                 "a bounded window: block throttles, drop_oldest skips, "
                 "disconnect cuts off");
    TextTable table;
    table.header({"policy", "received", "lost", "dropped", "cut", "depth",
                  "ok"});
    for (const auto& run : runs) {
      table.row({run.policy,
                 strfmt("%llu", (unsigned long long)run.steps_received),
                 strfmt("%llu", (unsigned long long)run.steps_lost),
                 strfmt("%llu", (unsigned long long)run.slow_dropped),
                 run.slow_disconnected ? "yes" : "no",
                 strfmt("%d", run.peak_depth),
                 run.payload_ok && run.policy_ok ? "ok" : "FAIL"});
    }
    std::printf("%s\n", table.render().c_str());
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--json") return run_sweep(true);
  return run_sweep(false);
}
