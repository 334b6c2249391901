// bit1_job: one complete real-byte BIT1 job per op.
//
// Four ranks of the ionization case are stepped in turn on this thread
// (field solver off, as in the paper's scaling runs) against a fresh
// SharedFs.  Diagnostics go through the openPMD adaptor every kDiagEvery
// steps; checkpoints go through resil::ResilientSink into the
// CheckpointManager every kCkptEvery steps, blosc-compressed, with delta
// epochs between fulls so the final restore walks a delta chain.  The job
// ends with close, a restore of every rank, the timing replay and the
// Darshan capture.  Correctness checks follow, outside the job's time.
#include <algorithm>
#include <memory>
#include <optional>

#include "bp/reader.hpp"
#include "bp/writer.hpp"
#include "compress/codec.hpp"
#include "core/adaptor.hpp"
#include "darshan/darshan.hpp"
#include "fsim/system_profiles.hpp"
#include "openpmd/series.hpp"
#include "picmc/diagnostics.hpp"
#include "picmc/simulation.hpp"
#include "resil/checkpoint_manager.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bitio;

namespace {

constexpr int kRanks = 4;
constexpr std::size_t kCells = 4096;
constexpr std::size_t kPpc = 64;
constexpr std::uint64_t kDiagEvery = 10;
constexpr std::uint64_t kCkptEvery = 20;
constexpr std::uint64_t kSteps = 80;  // 4 commits: full, delta, delta, delta
// The untraced run measures at least this many commits, however long that
// takes, so commit_host_s.tail is p75 (ten samples beyond it), not p50.
constexpr std::size_t kMinCommitSamples = 40;
constexpr std::uint64_t kDefaultSeed = 0xB171;  // picmc::SimConfig::seed
const char* const kRunDir = "bit1";

picmc::SimConfig sim_case(std::uint64_t seed) {
  auto config = picmc::SimConfig::ionization_case(kCells, kPpc);
  config.seed = seed;
  config.last_step = kSteps;
  config.use_field_solver = false;
  return config;
}

core::Bit1IoConfig io_case() {
  core::Bit1IoConfig io;
  io.mode = core::IoMode::openpmd;
  io.engine = "bp4";
  io.codec = "blosc";
  io.compress_threads = 1;
  io.async_write = false;
  io.checkpoint_interval = int(kCkptEvery);
  io.checkpoint_full_interval = 4;
  io.checkpoint_retain = 4;
  return io;
}

/// The restore criteria of bench/ckpt_sweep.cpp: step, RNG state,
/// ionization tallies and every particle's x, vx and w.
bool same_state(picmc::Simulation& a, picmc::Simulation& b) {
  if (a.current_step() != b.current_step()) return false;
  if (a.rng().state() != b.rng().state()) return false;
  if (a.ionization_events() != b.ionization_events()) return false;
  if (a.ionized_weight() != b.ionized_weight()) return false;
  if (a.species_count() != b.species_count()) return false;
  for (std::size_t s = 0; s < a.species_count(); ++s) {
    const auto& pa = a.species(s).particles;
    const auto& pb = b.species(s).particles;
    if (pa.size() != pb.size()) return false;
    for (std::size_t i = 0; i < pa.size(); ++i)
      if (pa.x()[i] != pb.x()[i] || pa.vx()[i] != pb.vx()[i] ||
          pa.w()[i] != pb.w()[i])
        return false;
  }
  return true;
}

template <typename T>
bool equal_load(pmd::Iteration& it, const std::string& mesh,
                const std::vector<T>& expected) {
  return it.mesh(mesh).component().load<T>() == expected;
}

/// The last diagnostics iteration, read back through the openPMD API,
/// equals what the ranks staged.
bool diagnostics_read_back(fsim::SharedFs& fs, const std::string& path,
                           std::uint64_t step,
                           const std::vector<picmc::DiagnosticSnapshot>& snaps,
                           const picmc::Simulation& sim0) {
  pmd::Series series(fs, path, pmd::Access::read_only);
  pmd::Iteration& it = series.read_iteration(step);
  for (std::size_t s = 0; s < sim0.species_count(); ++s) {
    const std::string& name = sim0.species(s).config.name;
    std::vector<double> vdf, energy, weight;
    std::vector<std::uint64_t> count;
    for (const auto& snap : snaps) {
      const auto& sp = snap.species[s];
      vdf.insert(vdf.end(), sp.vdf_vx.begin(), sp.vdf_vx.end());
      count.push_back(sp.particle_count);
      energy.push_back(sp.kinetic_energy);
      weight.push_back(sp.total_weight);
    }
    if (!equal_load(it, "vdf_" + name, vdf) ||
        !equal_load(it, "particle_count_" + name, count) ||
        !equal_load(it, "energy_" + name, energy) ||
        !equal_load(it, "weight_" + name, weight) ||
        !equal_load(it, "density_" + name, snaps[0].species[s].density))
      return false;
  }
  return true;
}

std::uint64_t chunk_count(const bp::Reader& reader) {
  std::uint64_t chunks = 0;
  for (const std::uint64_t step : reader.steps())
    for (const auto& var : reader.step(step).variables)
      chunks += var.chunks.size();
  return chunks;
}

/// Raw bytes of one rank's particle arrays, as a checkpoint stages them.
std::uint64_t particle_bytes(const picmc::Simulation& sim) {
  return sim.local_particles() * 5 * sizeof(double);
}

struct Job {
  double job_s = 0.0, restore_s = 0.0;
  std::vector<double> epoch_s, flush_s, commit_s;
  double makespan_s = 0.0;
  double payload_bytes = 0.0;  // raw bytes the job staged for output
  std::uint64_t container_bytes = 0;
  std::vector<std::string> failures;

  // Per-layer figures (filled on every job; reported from traced runs).
  fsim::ReplayReport replay;
  std::uint64_t trace_ops = 0, chunks = 0, md_bytes = 0;
  std::uint64_t close_append_bytes = 0, particles = 0;
  bool used_footer = false;
  resil::ResilienceStats stats;
  double staged_ckpt_bytes = 0.0;
  std::vector<std::uint8_t> ckpt_payload;  // last checkpoint's particle bytes
};

void keep_payload(const std::vector<std::unique_ptr<picmc::Simulation>>& sims,
                  std::vector<std::uint8_t>& out) {
  out.clear();
  for (const auto& sim : sims)
    for (std::size_t s = 0; s < sim->species_count(); ++s) {
      const auto& p = sim->species(s).particles;
      for (const auto* v : {&p.x(), &p.vx(), &p.vy(), &p.vz(), &p.w()}) {
        const auto* bytes = reinterpret_cast<const std::uint8_t*>(v->data());
        out.insert(out.end(), bytes, bytes + v->size() * sizeof(double));
      }
    }
}

Job run_job(std::uint64_t seed, const fsim::SystemProfile& profile,
            SpanRecorder& rec, bool keep_ckpt_payload) {
  Job job;
  const auto t0 = Clock::now();
  std::optional<ScopedSpan> phase;
  phase.emplace(rec, "op");
  auto fs = in_span(rec, "fsim.setup", [&] {
    return std::make_unique<fsim::SharedFs>(profile.ost_count);
  });
  const picmc::SimConfig config = sim_case(seed);
  const core::Bit1IoConfig io = io_case();

  std::vector<std::unique_ptr<picmc::Simulation>> sims;
  for (int r = 0; r < kRanks; ++r)
    sims.push_back(in_span(rec, "picmc.init", [&] {
      auto sim = std::make_unique<picmc::Simulation>(config, r, kRanks);
      sim->initialize();
      return sim;
    }));

  auto adaptor = in_span(rec, "core.open", [&] {
    return std::make_unique<core::Bit1OpenPmdAdaptor>(*fs, kRunDir, io,
                                                      kRanks);
  });
  const std::string diag_path = adaptor->diag_path();
  auto manager = in_span(rec, "resil.open", [&] {
    return std::make_shared<resil::CheckpointManager>(*fs, kRunDir, io,
                                                      kRanks);
  });
  resil::ResilientSink sink(std::move(adaptor), manager);

  std::vector<picmc::DiagnosticSnapshot> snaps(kRanks);
  auto window = Clock::now();
  for (std::uint64_t step = 1; step <= kSteps; ++step) {
    for (auto& sim : sims) in_span(rec, "picmc.step", [&] { sim->step(); });
    if (step % kDiagEvery == 0) {
      const auto t = Clock::now();
      for (int r = 0; r < kRanks; ++r) {
        const picmc::Simulation& sim = *sims[std::size_t(r)];
        snaps[std::size_t(r)] = in_span(rec, "picmc.sample", [&] {
          return picmc::Diagnostics::sample_now(sim);
        });
        in_span(rec, "core.stage", [&] {
          sink.stage_diagnostics(r, sim, snaps[std::size_t(r)]);
        });
        for (const auto& sp : snaps[std::size_t(r)].species)
          job.payload_bytes +=
              double((sp.vdf_vx.size() + sp.density.size() + 3) * 8);
      }
      in_span(rec, "core.flush", [&] {
        sink.flush_diagnostics(step, double(step) * config.dt);
      });
      job.flush_s.push_back(seconds_since(t));
    }
    if (step % kCkptEvery == 0) {
      const auto t = Clock::now();
      for (int r = 0; r < kRanks; ++r) {
        in_span(rec, "resil.stage", [&] {
          sink.stage_checkpoint(r, *sims[std::size_t(r)]);
        });
        job.staged_ckpt_bytes += double(particle_bytes(*sims[std::size_t(r)]));
      }
      in_span(rec, "resil.commit", [&] { sink.flush_checkpoint(); });
      job.commit_s.push_back(seconds_since(t));
      job.epoch_s.push_back(seconds_since(window));
      window = Clock::now();
    }
  }
  job.payload_bytes += job.staged_ckpt_bytes;

  const std::uint64_t md0_before = fs->store().file(diag_path + "/md.0").size;
  in_span(rec, "core.close", [&] { sink.close(); });
  job.close_append_bytes =
      fs->store().file(diag_path + "/md.0").size - md0_before;

  std::vector<std::unique_ptr<picmc::Simulation>> restored;
  std::vector<resil::RestartReport> reports;
  job.restore_s = timed([&] {
    for (int r = 0; r < kRanks; ++r) {
      restored.push_back(in_span(rec, "picmc.init", [&] {
        return std::make_unique<picmc::Simulation>(config, r, kRanks);
      }));
      reports.push_back(in_span(rec, "resil.restore", [&] {
        return manager->restore(*restored.back());
      }));
    }
  });

  job.replay = in_span(rec, "fsim.replay", [&] {
    return fsim::replay_trace(profile, fs->store(), fs->trace(), kRanks);
  });
  darshan::JobInfo info;
  info.nprocs = kRanks;
  in_span(rec, "darshan.capture",
          [&] { return darshan::capture(*fs, job.replay, info); });
  job.job_s = seconds_since(t0);
  job.makespan_s = job.replay.makespan;
  job.trace_ops = fs->trace().size();
  job.stats = manager->stats();
  for (const auto& sim : sims) job.particles += sim->local_particles();
  if (keep_ckpt_payload) keep_payload(sims, job.ckpt_payload);
  phase.reset();
  phase.emplace(rec, "check");

  // Checks, each a failure of this op when it does not hold.
  for (int r = 0; r < kRanks; ++r)
    if (!reports[std::size_t(r)].recovered ||
        !same_state(*restored[std::size_t(r)], *sims[std::size_t(r)]))
      job.failures.push_back("restore of rank " + std::to_string(r) +
                             " is not bit-exact");
  if (!diagnostics_read_back(*fs, diag_path, kSteps, snaps, *sims[0]))
    job.failures.push_back("diagnostics read back differ from the staged "
                           "snapshot");

  const auto epochs = manager->committed_epochs();
  const std::string newest = manager->epoch_dir(epochs.back()) +
                             "/dmp_file." + io.engine;
  // bp.reader_open / bp.verify cover the newest epoch alone; the
  // diagnostics container gets spans of its own.
  for (const std::string* path : {&newest, &diag_path}) {
    const bool epoch = path == &newest;
    auto reader = in_span(rec, epoch ? "bp.reader_open" : "bp.diag_reader_open",
                          [&] {
                            return std::make_unique<bp::Reader>(
                                bp::Reader::open(*fs, 0, *path));
                          });
    const auto verdicts = in_span(rec, epoch ? "bp.verify" : "bp.diag_verify",
                                  [&] { return reader->verify(); });
    if (!bp::Reader::all_ok(verdicts))
      job.failures.push_back("Reader::verify failed on " + *path);
    job.chunks += chunk_count(*reader);
    if (epoch) job.used_footer = reader->used_footer_index();
  }
  const resil::ScrubReport scrub =
      in_span(rec, "resil.scrub", [&] { return manager->scrub(); });
  if (scrub.epochs_ok != scrub.epochs_scanned || scrub.corrupt_chunks != 0 ||
      scrub.orphans_cleaned != 0)
    job.failures.push_back("scrub found " +
                           std::to_string(scrub.corrupt_chunks) +
                           " corrupt chunks");

  for (const auto* file : fs->store().list_recursive(kRunDir)) {
    job.container_bytes += file->size;
    const std::string name = fsim::base_name(file->path);
    if (name == "md.0" || name == "md.idx") job.md_bytes += file->size;
  }
  return job;
}

struct CodecRates {
  double compress_gibps = 0.0, decompress_gibps = 0.0, ratio = 0.0;
  bool round_trip = false;
};

CodecRates measure_codec(const std::vector<std::uint8_t>& payload) {
  const auto codec = cz::make_codec("blosc", bp::EngineConfig{}.codec_typesize);
  std::vector<double> c_rates, d_rates;
  CodecRates out;
  out.round_trip = true;
  for (int pass = 0; pass < 3; ++pass) {
    cz::Bytes frame, back;
    const double c = timed([&] { frame = codec->compress(payload); });
    const double d = timed([&] { back = codec->decompress(frame); });
    c_rates.push_back(double(payload.size()) / c / double(GiB));
    d_rates.push_back(double(payload.size()) / d / double(GiB));
    out.ratio = double(frame.size()) / double(payload.size());
    out.round_trip = out.round_trip && back == payload;
  }
  out.compress_gibps = median(c_rates);
  out.decompress_gibps = median(d_rates);
  return out;
}

void record_job(const Job& job, RunResult& result) {
  std::string why;
  for (const auto& f : job.failures) why += (why.empty() ? "" : "; ") + f;
  result.record_op(job.failures.empty(), why);
}

}  // namespace

void run_bit1(const Options& options, RunResult& result, SpanRecorder& rec) {
  const std::uint64_t seed = options.seed_given ? options.seed : kDefaultSeed;
  const fsim::SystemProfile profile = fsim::dardel();
  SpanRecorder off(false);

  // Set-up: one discarded warm-up job.
  std::vector<double> setups;
  const double setup_s = setup_seconds(options.trace ? 1 : 3, [&] {
    const Job job = run_job(seed, profile, off, false);
    for (const auto& f : job.failures)
      result.failures.push_back("warm-up: " + f);
  }, setups);

  std::vector<double> job_s, epoch_s, flush_s, commit_s, restore_s, makespan,
      goodput, container, untraced_s, traced_s;
  std::vector<std::uint64_t> traced_ops;
  Job last;
  double staged_ckpt_bytes = 0.0;
  const auto window = Clock::now();
  std::uint64_t op = 0;
  // The untraced run goes on past the window until kMinCommitSamples
  // commits are in; it gives up at four windows, should ops keep failing.
  auto measuring = [&] {
    const double elapsed = seconds_since(window);
    return elapsed < options.seconds ||
           (!options.trace && commit_s.size() < kMinCommitSamples &&
            elapsed < 4 * options.seconds);
  };
  while (measuring()) {
    Job job;
    if (!attempt(result, [&] { job = run_job(seed, profile, off, false); }))
      continue;
    record_job(job, result);
    untraced_s.push_back(job.job_s);
    staged_ckpt_bytes = job.staged_ckpt_bytes;
    if (options.trace) {
      rec.set_op(++op);
      if (!attempt(result, [&] { last = run_job(seed, profile, rec, true); }))
        continue;
      record_job(last, result);
      traced_s.push_back(last.job_s);
      traced_ops.push_back(op);
      continue;
    }
    job_s.push_back(job.job_s);
    restore_s.push_back(job.restore_s);
    epoch_s.insert(epoch_s.end(), job.epoch_s.begin(), job.epoch_s.end());
    flush_s.insert(flush_s.end(), job.flush_s.begin(), job.flush_s.end());
    commit_s.insert(commit_s.end(), job.commit_s.begin(), job.commit_s.end());
    makespan.push_back(job.makespan_s);
    goodput.push_back(job.payload_bytes / job.makespan_s / double(GiB));
    container.push_back(double(job.container_bytes));
  }
  if (job_s.empty() && traced_ops.empty()) return;  // every op threw

  const Environment env = describe_environment();
  const double per_epoch = staged_ckpt_bytes / double(kSteps / kCkptEvery);
  result.notes["checkpoint_epoch_bytes"] = format_number(per_epoch);
  result.notes["cache_residency"] =
      env.l3_bytes > 0 && per_epoch < double(env.l3_bytes)
          ? "checkpoint payload fits in L3: codec and CRC rates are "
            "cache-resident"
          : "checkpoint payload exceeds L3 (or L3 unknown)";

  if (!options.trace) {
    auto& m = result.metrics;
    const Tail flush_tail = tail_of(flush_s);
    const Tail commit_tail = tail_of(commit_s);
    result.tails["flush_host_s"] = flush_tail;
    result.tails["commit_host_s"] = commit_tail;
    for (auto& [name, values] :
         std::map<std::string, std::vector<double>*>{
             {"setup_s", &setups},          {"job_host_s", &job_s},
             {"epoch_host_s", &epoch_s},    {"flush_host_s", &flush_s},
             {"commit_host_s", &commit_s},  {"restore_host_s", &restore_s},
             {"sim_makespan_s", &makespan}, {"container_bytes", &container}})
      result.samples[name] = *values;
    m.add("setup_s", setup_s, "s");
    m.add("peak_rss_mib", double(peak_rss_bytes()) / double(MiB), "MiB");
    m.add("ok_ratio",
          double(result.attempted - result.failed) / double(result.attempted),
          "ratio");
    m.add("container_bytes", median(container), "B");
    m.add("sim_makespan_s", median(makespan), "sim_s");
    m.add("sim_goodput_gibps", median(goodput), "GiB/s");
    m.add("epoch_host_s.p50", median(epoch_s), "s");
    m.add("job_host_s.p50", median(job_s), "s");
    m.add("flush_host_s.p50", median(flush_s), "s");
    m.add("flush_host_s.tail", flush_tail.value, "s");
    m.add("commit_host_s.p50", median(commit_s), "s");
    m.add("commit_host_s.tail", commit_tail.value, "s");
    m.add("restore_host_s.p50", median(restore_s), "s");
    return;
  }

  std::map<std::string, double> values;
  for (const auto& [name, seconds] :
       median_self_time_by_name(rec.spans(), traced_ops)) {
    if (name == "check") continue;
    values[name == "op" ? "bench.unattributed_s" : name + "_s"] = seconds;
  }
  values["bench.trace_overhead_s"] = median(traced_s) - median(untraced_s);
  values["bp.reader_used_footer"] = last.used_footer ? 1.0 : 0.0;
  values["bp.chunks"] = double(last.chunks);
  values["bp.md_bytes"] = double(last.md_bytes);
  values["bp.close_append_bytes"] = double(last.close_append_bytes);
  values["fsim.trace_ops"] = double(last.trace_ops);
  values["fsim.mds_busy_s"] = last.replay.mds_busy_seconds;
  values["fsim.ost_busy_max_s"] =
      last.replay.ost_busy_seconds.empty()
          ? 0.0
          : *std::max_element(last.replay.ost_busy_seconds.begin(),
                              last.replay.ost_busy_seconds.end());
  values["fsim.mean_meta_s"] = last.replay.mean_meta_time();
  values["fsim.mean_write_s"] = last.replay.mean_write_time();
  values["fsim.mean_drain_s"] = last.replay.mean_drain_time();
  values["fsim.write_gibps"] =
      double(last.replay.bytes_written) / last.replay.makespan / double(GiB);
  add_cpu_tags(last.replay.cpu_by_tag, values);
  values["picmc.particles"] = double(last.particles);
  values["resil.write_retries"] = double(last.stats.write_retries);
  values["resil.delta_epochs"] = double(last.stats.delta_epochs);
  values["resil.blocks_restored"] = double(last.stats.blocks_restored);
  values["resil.dedup_ratio"] =
      double(last.stats.dedup_bytes_saved) / last.staged_ckpt_bytes;

  values["util.crc32c_gibps"] = crc32c_gibps(last.ckpt_payload, result);
  const CodecRates codec = measure_codec(last.ckpt_payload);
  if (!codec.round_trip)
    result.failures.push_back("blosc round trip of the checkpoint payload");
  values["compress.compress_gibps"] = codec.compress_gibps;
  values["compress.decompress_gibps"] = codec.decompress_gibps;
  values["compress.ratio"] = codec.ratio;

  result.samples["bench.traced_op_s"] = traced_s;
  result.samples["bench.untraced_op_s"] = untraced_s;
  emit_layer_metrics(values, result);
}

}  // namespace perfbench
