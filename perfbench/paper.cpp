// paper_openpmd and paper_original: the Fig 3 / Fig 6 200-node point of
// the scale harness (src/core/workload.cpp), timed on the host.
//
// The untraced op is the library call itself (core::run_openpmd_epoch or
// core::run_original_epoch).  The traced op repeats that call step by step
// from here, so each layer call can carry a span; the drift guard then
// requires its EpochResult to equal the library's field for field, so the
// per-layer numbers always describe the program the end-to-end numbers
// measured.
#include <algorithm>
#include <cstring>

#include "bp/engine.hpp"
#include "core/workload.hpp"
#include "fsim/posix_fs.hpp"
#include "fsim/system_profiles.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bitio;

namespace {

constexpr int kNodes = 200;
constexpr int kAggregators = 400;  // Fig 6 peak: two per node
constexpr std::uint64_t kDefaultNoiseSeed = 0xDA9DE1;  // fsim::dardel()

// Record sizes of the original-I/O model (src/core/workload.cpp).
constexpr std::uint64_t kStdioRecord = 2 * KiB;
constexpr std::uint64_t kBinaryRecord = 64 * KiB;
constexpr std::uint64_t kInputBytes = 2 * KiB;

struct PaperCase {
  bool openpmd = true;
  fsim::SystemProfile profile;
  core::ScaleSpec spec;
  core::Bit1IoConfig config;
  std::uint64_t expected_files = 0;
};

PaperCase make_case(bool openpmd, std::uint64_t noise_seed) {
  PaperCase c;
  c.openpmd = openpmd;
  c.profile = fsim::dardel();
  c.profile.noise_seed = noise_seed;
  c.spec = core::ScaleSpec::throughput(kNodes);
  c.config.mode = core::IoMode::openpmd;
  c.config.engine = "bp4";
  c.config.num_aggregators = kAggregators;
  c.config.codec = "none";
  c.config.compress_threads = 1;
  c.config.async_write = false;
  // Table II's census: N + 5 files for openPMD with N aggregators; two .dat
  // files per rank plus four history files and bit1.dmp for original I/O.
  c.expected_files = openpmd ? std::uint64_t(kAggregators) + 5
                             : 2ull * std::uint64_t(c.spec.ranks()) + 5;
  return c;
}

core::EpochResult run_library(const PaperCase& c) {
  return c.openpmd ? core::run_openpmd_epoch(c.profile, c.spec, c.config)
                   : core::run_original_epoch(c.profile, c.spec);
}

/// Payload bytes the spec asks the window to write: a fixed numerator that
/// extra metadata cannot raise.
double spec_payload_bytes(const core::ScaleSpec& spec) {
  double per_dump = 0.0;
  for (int r = 0; r < spec.ranks(); ++r)
    per_dump += double(spec.diag_bytes_for_rank(r));
  return per_dump * spec.dat_dumps +
         double(spec.checkpoint_bytes) * spec.checkpoints;
}

/// First field where two results differ, or "" when equal.
std::string first_difference(const core::EpochResult& a,
                             const core::EpochResult& b) {
  if (a.makespan_s != b.makespan_s) return "makespan_s";
  if (a.bytes_written != b.bytes_written) return "bytes_written";
  if (a.write_gibps != b.write_gibps) return "write_gibps";
  if (a.bytes_gathered != b.bytes_gathered) return "bytes_gathered";
  if (a.mean_meta_s != b.mean_meta_s) return "mean_meta_s";
  if (a.mean_write_s != b.mean_write_s) return "mean_write_s";
  if (a.mean_read_s != b.mean_read_s) return "mean_read_s";
  if (a.mean_drain_s != b.mean_drain_s) return "mean_drain_s";
  if (a.total_files != b.total_files) return "total_files";
  if (a.avg_file_bytes != b.avg_file_bytes) return "avg_file_bytes";
  if (a.max_file_bytes != b.max_file_bytes) return "max_file_bytes";
  if (a.cpu_by_tag != b.cpu_by_tag) return "cpu_by_tag";
  return "";
}

/// What the traced copy of an epoch measured besides its EpochResult.
struct TracedEpoch {
  core::EpochResult result;
  fsim::ReplayReport replay;
  std::uint64_t trace_ops = 0;
  std::uint64_t chunks = 0;
  std::uint64_t md_bytes = 0;            // md.0 + md.idx, both series
  std::uint64_t close_append_bytes = 0;  // md.0 growth inside close()
  std::uint64_t md0_bytes = 0;           // diagnostics md.0
  std::uint64_t container_bytes = 0;
};

void summarize(SpanRecorder& rec, const fsim::SharedFs& fs,
               const std::string& dir, TracedEpoch& out) {
  const fsim::ReplayReport& replay = out.replay;
  core::EpochResult& r = out.result;
  r.makespan_s = replay.makespan;
  r.bytes_written = replay.bytes_written;
  r.write_gibps = replay.makespan > 0 ? double(replay.bytes_written) /
                                            replay.makespan / double(GiB)
                                      : 0.0;
  r.bytes_gathered = replay.bytes_transferred;
  r.mean_meta_s = replay.mean_meta_time();
  r.mean_write_s = replay.mean_write_time();
  r.mean_read_s = replay.mean_read_time();
  r.mean_drain_s = replay.mean_drain_time();
  r.cpu_by_tag = replay.cpu_by_tag;
  const auto files = in_span(rec, "fsim.census",
                             [&] { return fs.store().list_recursive(dir); });
  std::uint64_t sum = 0;
  for (const auto* file : files) {
    ++r.total_files;
    sum += file->size;
    r.max_file_bytes = std::max(r.max_file_bytes, file->size);
  }
  if (r.total_files > 0) r.avg_file_bytes = sum / r.total_files;
  out.container_bytes = sum;
  out.trace_ops = fs.trace().size();
}

std::uint32_t record_count(std::uint64_t bytes, std::uint64_t record) {
  return std::uint32_t(
      std::max<std::uint64_t>(1, (bytes + record - 1) / record));
}

void read_input(fsim::SharedFs& fs, int ranks) {
  for (int r = 0; r < ranks; ++r) {
    fsim::FsClient client(fs, fsim::ClientId(r));
    const int fd = client.open("bit1.inp", fsim::OpenMode::read);
    client.read_simulated(fd, kInputBytes, 1);
    client.close(fd);
  }
}

TracedEpoch traced_original(const PaperCase& c, SpanRecorder& rec) {
  const core::ScaleSpec& spec = c.spec;
  auto fs = in_span(rec, "fsim.setup", [&] {
    return std::make_unique<fsim::SharedFs>(c.profile.ost_count, false,
                                            c.profile.default_stripe);
  });
  const int ranks = spec.ranks();
  const std::string dir = "run_original";
  {
    ScopedSpan span(rec, "fsim.posix");
    fsim::FsClient root(*fs, 0);
    const int fd = root.open("bit1.inp", fsim::OpenMode::create);
    root.write_simulated(fd, kInputBytes, 1);
    root.close(fd);
    read_input(*fs, ranks);
  }
  for (int dump = 0; dump < spec.dat_dumps; ++dump) {
    ScopedSpan span(rec, "fsim.posix");
    for (int r = 0; r < ranks; ++r) {
      fsim::FsClient client(*fs, fsim::ClientId(r));
      const std::uint64_t bytes = spec.diag_bytes_for_rank(r);
      const std::uint64_t slow = bytes * 3 / 5;
      const std::uint64_t slow1 = bytes - slow;
      for (const auto& [stem, n] :
           {std::pair<const char*, std::uint64_t>{"slow_", slow},
            std::pair<const char*, std::uint64_t>{"slow1_", slow1}}) {
        const std::string path = dir + "/" + stem + std::to_string(r) + ".dat";
        const int fd = client.open(
            path, dump == 0 ? fsim::OpenMode::create : fsim::OpenMode::append);
        client.write_simulated(fd, n, record_count(n, kStdioRecord));
        client.close(fd);
      }
    }
    fsim::FsClient root(*fs, 0);
    for (const char* name :
         {"history.dat", "energy.dat", "pwall.dat", "iondiag.dat"}) {
      const int fd = root.open(dir + "/" + name, dump == 0
                                                     ? fsim::OpenMode::create
                                                     : fsim::OpenMode::append);
      root.write_simulated(fd, 128, 1);
      root.close(fd);
    }
  }
  for (int k = 0; k < spec.checkpoints; ++k) {
    ScopedSpan span(rec, "fsim.posix");
    fsim::FsClient root(*fs, 0);
    const int fd =
        root.open(dir + "/bit1.dmp", fsim::OpenMode::create_or_truncate);
    root.write_simulated(fd, spec.checkpoint_bytes,
                         record_count(spec.checkpoint_bytes, kBinaryRecord));
    root.fsync(fd);
    root.close(fd);
  }
  TracedEpoch out;
  out.replay = in_span(rec, "fsim.replay", [&] {
    return fsim::replay_trace(c.profile, fs->store(), fs->trace(), ranks);
  });
  summarize(rec, *fs, dir, out);
  return out;
}

bp::EngineConfig engine_config(const PaperCase& c, int aggregators,
                               bool profiling) {
  const core::Bit1IoConfig& config = c.config;
  bp::EngineConfig engine;
  engine.num_aggregators = aggregators;
  engine.ranks_per_node = c.spec.ranks_per_node;
  engine.codec = config.codec;
  engine.compress_threads = config.compress_threads;
  engine.compress_block_kb = std::size_t(config.compress_block_kb);
  engine.profiling = profiling;
  engine.synthetic_codec_ratio = 1.0;  // codec "none"
  engine.mem_bandwidth_bps = c.profile.client_mem_bandwidth_bps;
  engine.async_write = config.async_write;
  engine.buffer_chunk_mb = std::size_t(config.buffer_chunk_mb);
  engine.io_batch_depth = config.io_batch_depth;
  engine.coalesce_writes = config.coalesce_writes;
  engine.aggregation = config.aggregation;
  engine.topology = config.topology;
  engine.numa_per_node = config.numa_per_node;
  engine.nics_per_node = config.nics_per_node;
  return engine;
}

/// One put_synthetic per rank for `var`, at exscan offsets.  The span
/// covers the loop of calls; the loop itself only indexes `offsets`.
void put_all_ranks(SpanRecorder& rec, bp::Engine& engine,
                   const std::string& var,
                   const std::vector<std::uint64_t>& offsets,
                   std::uint64_t& chunks) {
  const std::uint64_t total = offsets.back();
  const std::size_t ranks = offsets.size() - 1;
  ScopedSpan span(rec, "bp.put");
  for (std::size_t r = 0; r < ranks; ++r)
    engine.put_synthetic(int(r), var, bp::Datatype::float64, {total},
                         {offsets[r]}, {offsets[r + 1] - offsets[r]});
  chunks += ranks;
}

std::uint64_t file_size(const fsim::SharedFs& fs, const std::string& path) {
  return fs.store().file_exists(path) ? fs.store().file(path).size : 0;
}

TracedEpoch traced_openpmd(const PaperCase& c, SpanRecorder& rec) {
  const core::ScaleSpec& spec = c.spec;
  const core::Bit1IoConfig& config = c.config;
  auto fs = in_span(rec, "fsim.setup", [&] {
    return std::make_unique<fsim::SharedFs>(c.profile.ost_count, false,
                                            c.profile.default_stripe);
  });
  const int ranks = spec.ranks();
  const std::string dir = "run_openpmd";
  {
    ScopedSpan span(rec, "fsim.posix");
    fsim::FsClient root(*fs, 0);
    root.mkdir(dir);
    const int fd = root.open("bit1.inp", fsim::OpenMode::create);
    root.write_simulated(fd, kInputBytes, 1);
    root.close(fd);
    read_input(*fs, ranks);
  }
  const std::string diag_path = dir + "/dat_file." + config.engine;
  const std::string ckpt_path = dir + "/dmp_file." + config.engine;
  auto diag = in_span(rec, "bp.make_engine", [&] {
    return bp::make_engine(config.engine, *fs, diag_path,
                           engine_config(c, config.num_aggregators,
                                         config.profiling),
                           ranks);
  });
  auto ckpt = in_span(rec, "bp.make_engine", [&] {
    return bp::make_engine(config.engine, *fs, ckpt_path,
                           engine_config(c, config.checkpoint_aggregators,
                                         false),
                           ranks);
  });

  TracedEpoch out;
  const char* species[] = {"e", "D+", "D"};
  std::vector<std::uint64_t> offsets(std::size_t(ranks) + 1, 0);
  for (int dump = 0; dump < spec.dat_dumps; ++dump) {
    in_span(rec, "bp.begin_step",
            [&] { diag->begin_step(std::uint64_t(dump)); });
    for (int r = 0; r < ranks; ++r) {
      const std::uint64_t elems =
          std::max<std::uint64_t>(1, spec.diag_bytes_for_rank(r) / 8 / 3);
      offsets[std::size_t(r) + 1] = offsets[std::size_t(r)] + elems;
    }
    for (const char* name : species)
      put_all_ranks(rec, *diag, std::string("vdf_") + name, offsets,
                    out.chunks);
    in_span(rec, "bp.end_step", [&] { diag->end_step(); });
  }
  const char* arrays[] = {"position/x", "velocity/x", "velocity/y",
                          "velocity/z", "weighting"};
  for (int k = 0; k < spec.checkpoints; ++k) {
    in_span(rec, "bp.begin_step", [&] { ckpt->begin_step(0); });
    for (int r = 0; r < ranks; ++r) {
      const std::uint64_t elems = std::max<std::uint64_t>(
          1, spec.ckpt_bytes_for_rank(r) / 8 / (3 * 5));
      offsets[std::size_t(r) + 1] = offsets[std::size_t(r)] + elems;
    }
    for (const char* sp : species)
      for (const char* array : arrays)
        put_all_ranks(rec, *ckpt,
                      std::string("particles/") + sp + "/" + array, offsets,
                      out.chunks);
    in_span(rec, "bp.end_step", [&] { ckpt->end_step(); });
  }

  for (const auto& [engine, path] :
       {std::pair<bp::Engine*, const std::string*>{diag.get(), &diag_path},
        std::pair<bp::Engine*, const std::string*>{ckpt.get(), &ckpt_path}}) {
    const std::uint64_t before = file_size(*fs, *path + "/md.0");
    in_span(rec, "bp.close", [&] { engine->close(); });
    out.close_append_bytes += file_size(*fs, *path + "/md.0") - before;
    out.md_bytes +=
        file_size(*fs, *path + "/md.0") + file_size(*fs, *path + "/md.idx");
  }
  out.md0_bytes = file_size(*fs, diag_path + "/md.0");

  // Flat topology: the replay runs on the profile unchanged.
  out.replay = in_span(rec, "fsim.replay", [&] {
    return fsim::replay_trace(c.profile, fs->store(), fs->trace(), ranks);
  });
  summarize(rec, *fs, dir, out);
  return out;
}

/// An md.0-sized buffer of seeded bytes, for the CRC rate.
std::vector<std::uint8_t> seeded_bytes(std::uint64_t bytes,
                                       std::uint64_t seed) {
  std::vector<std::uint8_t> buffer(bytes);
  Rng rng(seed, 7);
  for (std::size_t i = 0; i + 8 <= buffer.size(); i += 8) {
    const std::uint64_t word = rng();
    std::memcpy(buffer.data() + i, &word, 8);
  }
  return buffer;
}

}  // namespace

void run_paper(const Options& options, bool openpmd, RunResult& result,
               SpanRecorder& rec) {
  const std::uint64_t seed =
      options.seed_given ? options.seed : kDefaultNoiseSeed;
  auto check = [&](const core::EpochResult& r, const core::EpochResult& ref,
                   const PaperCase& c, const char* what) {
    if (r.total_files != c.expected_files) {
      result.record_op(false, std::string(what) + ": total_files " +
                                  std::to_string(r.total_files) + " != " +
                                  std::to_string(c.expected_files));
      return;
    }
    const std::string diff = first_difference(r, ref);
    result.record_op(diff.empty(),
                     std::string(what) + ": " + diff + " differs from warm-up");
  };

  // Set-up: build the inputs and run one discarded warm-up op.  The warm-up
  // result is the reference every later op must repeat exactly.
  std::vector<double> setups;
  PaperCase c;
  core::EpochResult reference;
  const double setup_s = setup_seconds(options.trace ? 1 : 3, [&] {
    c = make_case(openpmd, seed);
    reference = run_library(c);
  }, setups);

  if (reference.total_files != c.expected_files)
    result.failures.push_back("warm-up: total_files " +
                              std::to_string(reference.total_files));

  std::vector<double> untraced_s, traced_s;
  std::vector<std::uint64_t> traced_ops;
  TracedEpoch last;
  const auto window = Clock::now();
  std::uint64_t op = 0;
  while (seconds_since(window) < options.seconds) {
    core::EpochResult r;
    double dt = 0.0;
    if (attempt(result, [&] { dt = timed([&] { r = run_library(c); }); })) {
      untraced_s.push_back(dt);
      check(r, reference, c, "op");
    }
    if (!options.trace) continue;

    rec.set_op(++op);
    const bool ok = attempt(result, [&] {
      dt = timed([&] {
        ScopedSpan span(rec, "op");
        last = openpmd ? traced_openpmd(c, rec) : traced_original(c, rec);
      });
    });
    if (!ok) continue;
    traced_s.push_back(dt);
    traced_ops.push_back(op);
    check(last.result, reference, c, "drift guard (traced copy)");
  }
  if (untraced_s.empty() || (options.trace && traced_s.empty())) return;

  const double payload = spec_payload_bytes(c.spec);
  if (!options.trace) {
    const double epoch_p50 = median(untraced_s);
    const Tail tail = tail_of(untraced_s);
    result.tails["epoch_host_s"] = tail;
    result.samples["epoch_host_s"] = untraced_s;
    result.samples["setup_s"] = setups;
    auto& m = result.metrics;
    m.add("setup_s", setup_s, "s");
    m.add("peak_rss_mib", double(peak_rss_bytes()) / double(MiB), "MiB");
    m.add("ok_ratio",
          double(result.attempted - result.failed) / double(result.attempted),
          "ratio");
    // The library's census reports the mean file size, so the total is
    // exact up to the integer division (under total_files bytes).
    m.add("container_bytes",
          double(reference.total_files * reference.avg_file_bytes), "B");
    m.add("sim_makespan_s", reference.makespan_s, "sim_s");
    m.add("sim_goodput_gibps", payload / reference.makespan_s / double(GiB),
          "GiB/s");
    // The window is one library call: it is the job, and the only timed
    // unit that holds the flush, commit and restore-equivalent work.
    m.add("epoch_host_s.p50", epoch_p50, "s");
    m.add("job_host_s.p50", epoch_p50, "s");
    m.add("flush_host_s.p50", epoch_p50, "s");
    m.add("flush_host_s.tail", tail.value, "s");
    m.add("commit_host_s.p50", epoch_p50, "s");
    m.add("commit_host_s.tail", tail.value, "s");
    m.add("restore_host_s.p50", epoch_p50, "s");
    result.notes["event_metrics"] =
        "no flush/commit/restore events outside the one library call: "
        "job/flush/commit/restore metrics report the window time";
    return;
  }

  std::map<std::string, double> values;
  for (const auto& [name, seconds] :
       median_self_time_by_name(rec.spans(), traced_ops))
    values[name == "op" ? "bench.unattributed_s" : name + "_s"] = seconds;
  const fsim::ReplayReport& replay = last.replay;
  values["bench.trace_overhead_s"] = median(traced_s) - median(untraced_s);
  values["bp.chunks"] = double(last.chunks);
  values["bp.md_bytes"] = double(last.md_bytes);
  values["bp.close_append_bytes"] = double(last.close_append_bytes);
  values["fsim.trace_ops"] = double(last.trace_ops);
  values["fsim.mds_busy_s"] = replay.mds_busy_seconds;
  values["fsim.ost_busy_max_s"] =
      replay.ost_busy_seconds.empty()
          ? 0.0
          : *std::max_element(replay.ost_busy_seconds.begin(),
                              replay.ost_busy_seconds.end());
  values["fsim.mean_meta_s"] = last.result.mean_meta_s;
  values["fsim.mean_write_s"] = last.result.mean_write_s;
  values["fsim.mean_drain_s"] = last.result.mean_drain_s;
  values["fsim.write_gibps"] = last.result.write_gibps;
  add_cpu_tags(last.result.cpu_by_tag, values);
  if (openpmd)
    values["util.crc32c_gibps"] =
        crc32c_gibps(seeded_bytes(last.md0_bytes, seed), result);
  result.samples["bench.traced_op_s"] = traced_s;
  result.samples["bench.untraced_op_s"] = untraced_s;
  result.notes["container_bytes_exact"] =
      std::to_string(last.container_bytes);
  emit_layer_metrics(values, result);
}

}  // namespace perfbench
