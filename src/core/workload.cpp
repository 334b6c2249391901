#include "core/workload.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "bp/engine.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace bitio::core {

namespace {

constexpr std::uint64_t kStdioRecord = 2 * KiB;    // line-buffered ASCII
constexpr std::uint64_t kBinaryRecord = 64 * KiB;  // fwrite'd checkpoint
constexpr std::uint64_t kInputBytes = 2 * KiB;     // 1-3 kB input file

std::uint32_t record_count(std::uint64_t bytes, std::uint64_t record) {
  return std::uint32_t(std::max<std::uint64_t>(1, (bytes + record - 1) / record));
}

EpochResult summarize(const fsim::SharedFs& fs, const std::string& dir,
                      const fsim::ReplayReport& replay) {
  EpochResult result;
  result.makespan_s = replay.makespan;
  result.bytes_written = replay.bytes_written;
  result.write_gibps =
      replay.makespan > 0
          ? double(replay.bytes_written) / replay.makespan / double(GiB)
          : 0.0;
  result.bytes_gathered = replay.bytes_transferred;
  result.mean_meta_s = replay.mean_meta_time();
  result.mean_write_s = replay.mean_write_time();
  result.mean_read_s = replay.mean_read_time();
  result.mean_drain_s = replay.mean_drain_time();
  result.cpu_by_tag = replay.cpu_by_tag;

  std::uint64_t sum = 0;
  for (const auto* file : fs.store().list_recursive(dir)) {
    ++result.total_files;
    sum += file->size;
    result.max_file_bytes = std::max(result.max_file_bytes, file->size);
  }
  if (result.total_files > 0) result.avg_file_bytes = sum / result.total_files;
  return result;
}

}  // namespace

ScaleSpec ScaleSpec::throughput(int nodes) {
  ScaleSpec spec;
  spec.nodes = nodes;
  spec.dat_dumps = 10;
  spec.checkpoints = 1;
  spec.diag_run_bytes = 48ull << 30;
  spec.checkpoint_bytes = 2ull << 20;
  return spec;
}

ScaleSpec ScaleSpec::table2(int nodes) {
  ScaleSpec spec;
  spec.nodes = nodes;
  spec.dat_dumps = 200;  // full run: the census sees final file sizes
  spec.checkpoints = 1;
  spec.diag_run_bytes = 486ull << 20;
  spec.checkpoint_bytes = 16ull << 10;  // Table II: no file exceeds 25 KiB

  return spec;
}

std::uint64_t ScaleSpec::diag_bytes_for_rank(int rank) const {
  const double r = double(ranks());
  // Normalized skew: rank 0 gets rank0_skew x the plain share, everyone
  // still sums to diag_run_bytes.
  const double normalizer = (r - 1.0 + rank0_skew);
  const double share = (rank == 0 ? rank0_skew : 1.0) / normalizer;
  const double per_dump =
      (double(diag_run_bytes) * share + double(per_rank_run_bytes)) /
      double(dumps_per_run);
  return std::uint64_t(per_dump);
}

std::uint64_t ScaleSpec::ckpt_bytes_for_rank(int rank) const {
  const std::uint64_t r = std::uint64_t(ranks());
  const std::uint64_t base = checkpoint_bytes / r;
  // Distribute the remainder to the first ranks so totals are exact.
  return base + (std::uint64_t(rank) < checkpoint_bytes % r ? 1 : 0);
}

EpochResult run_original_epoch(const fsim::SystemProfile& profile,
                               const ScaleSpec& spec, bool timing) {
  fsim::SharedFs fs(profile.ost_count, /*store_data=*/false,
                    profile.default_stripe);
  fs.set_tracing(timing);
  const int ranks = spec.ranks();
  const std::string dir = "run_original";

  // Input read: rank 0 materializes the small input file, every rank reads
  // it ("The input to BIT1 represents a relatively small (1-3 kB) file read
  // by all processes").
  {
    fsim::FsClient root(fs, 0);
    const int fd = root.open("bit1.inp", fsim::OpenMode::create);
    root.write_simulated(fd, kInputBytes, 1);
    root.close(fd);
  }
  for (int r = 0; r < ranks; ++r) {
    fsim::FsClient client(fs, fsim::ClientId(r));
    const int fd = client.open("bit1.inp", fsim::OpenMode::read);
    client.read_simulated(fd, kInputBytes, 1);
    client.close(fd);
  }

  // Diagnostic dumps: every rank re-opens and appends its two .dat files
  // in stdio-sized synchronous records; rank 0 appends four history files.
  // Each rank's paths are spelled once, not once per dump.
  std::vector<std::string> dat_paths;
  dat_paths.reserve(2 * std::size_t(ranks));
  for (int r = 0; r < ranks; ++r)
    for (const char* stem : {"slow_", "slow1_"})
      dat_paths.push_back(dir + "/" + stem + std::to_string(r) + ".dat");
  std::vector<std::string> history_paths;
  for (const char* name :
       {"history.dat", "energy.dat", "pwall.dat", "iondiag.dat"})
    history_paths.push_back(dir + "/" + name);
  for (int dump = 0; dump < spec.dat_dumps; ++dump) {
    const auto mode =
        dump == 0 ? fsim::OpenMode::create : fsim::OpenMode::append;
    for (int r = 0; r < ranks; ++r) {
      fsim::FsClient client(fs, fsim::ClientId(r));
      const std::uint64_t bytes = spec.diag_bytes_for_rank(r);
      const std::uint64_t slow = bytes * 3 / 5;   // profiles + VDFs
      const std::uint64_t slow1 = bytes - slow;   // collision diagnostics
      const std::uint64_t file_bytes[2] = {slow, slow1};
      for (std::size_t k = 0; k < 2; ++k) {
        const std::uint64_t n = file_bytes[k];
        const int fd = client.open(dat_paths[2 * std::size_t(r) + k], mode);
        client.write_simulated(fd, n, record_count(n, kStdioRecord));
        client.close(fd);
      }
    }
    fsim::FsClient root(fs, 0);
    for (const std::string& path : history_paths) {
      const int fd = root.open(path, mode);
      root.write_simulated(fd, 128, 1);
      root.close(fd);
    }
  }

  // Checkpoints: rank 0 writes the gathered state serially ("serial I/O"),
  // in larger fwrite records, overwriting the single bit1.dmp.
  for (int c = 0; c < spec.checkpoints; ++c) {
    fsim::FsClient root(fs, 0);
    const int fd =
        root.open(dir + "/bit1.dmp", fsim::OpenMode::create_or_truncate);
    root.write_simulated(fd, spec.checkpoint_bytes,
                         record_count(spec.checkpoint_bytes, kBinaryRecord));
    root.fsync(fd);
    root.close(fd);
  }

  const auto replay =
      timing ? replay_trace(profile, fs.store(), fs.trace(), ranks)
             : fsim::ReplayReport{};
  return summarize(fs, dir, replay);
}

EpochResult run_openpmd_epoch(const fsim::SystemProfile& profile,
                              const ScaleSpec& spec,
                              const Bit1IoConfig& config, bool timing) {
  if (config.mode != IoMode::openpmd)
    throw UsageError("run_openpmd_epoch: config.mode must be openpmd");
  fsim::SharedFs fs(profile.ost_count, /*store_data=*/false,
                    profile.default_stripe);
  fs.set_tracing(timing);
  const int ranks = spec.ranks();
  const std::string dir = "run_openpmd";

  {
    fsim::FsClient root(fs, 0);
    if (config.use_striping)
      root.setstripe(dir, config.striping);  // Table III
    else
      root.mkdir(dir);
    // Same input-read phase as the original path (Fig 5: read costs are
    // consistent between the two configurations).
    const int fd = root.open("bit1.inp", fsim::OpenMode::create);
    root.write_simulated(fd, kInputBytes, 1);
    root.close(fd);
  }
  for (int r = 0; r < ranks; ++r) {
    fsim::FsClient client(fs, fsim::ClientId(r));
    const int fd = client.open("bit1.inp", fsim::OpenMode::read);
    client.read_simulated(fd, kInputBytes, 1);
    client.close(fd);
  }

  const double codec_ratio = config.codec == "blosc"   ? spec.blosc_ratio
                             : config.codec == "bzip2" ? spec.bzip2_ratio
                                                       : 1.0;
  // Every [io] engine knob comes from the config; the node size, codec
  // ratio and memcopy bandwidth come from the sweep spec and the machine.
  auto engine_config = [&](int aggregators, bool profiling) {
    bp::EngineConfig engine = config.engine_config(aggregators, profiling);
    engine.ranks_per_node = spec.ranks_per_node;
    engine.synthetic_codec_ratio = codec_ratio;
    engine.mem_bandwidth_bps = profile.client_mem_bandwidth_bps;
    return engine;
  };

  // Engine selection goes through the string-keyed registry: the config's
  // engine name picks BP4/BP5/stream without this call site changing.
  auto diag_ptr = bp::make_engine(
      config.engine, fs, dir + "/dat_file." + config.engine,
      engine_config(config.num_aggregators, config.profiling), ranks);
  auto ckpt_ptr = bp::make_engine(
      config.engine, fs, dir + "/dmp_file." + config.engine,
      engine_config(config.checkpoint_aggregators, false), ranks);
  bp::Engine& diag = *diag_ptr;
  bp::Engine& ckpt = *ckpt_ptr;

  using bp::Datatype;
  const char* species[] = {"e", "D+", "D"};

  // Diagnostic dumps: per species a 1D "vdf" array with per-rank element
  // counts proportional to the volume model, a per-rank counter array, and
  // the rank-0 density profile.
  for (int dump = 0; dump < spec.dat_dumps; ++dump) {
    diag.begin_step(std::uint64_t(dump));
    // Per-species element layout (uniform over species).
    std::vector<std::uint64_t> offsets(std::size_t(ranks) + 1, 0);
    for (int r = 0; r < ranks; ++r) {
      const std::uint64_t elems =
          std::max<std::uint64_t>(1, spec.diag_bytes_for_rank(r) / 8 / 3);
      offsets[std::size_t(r) + 1] = offsets[std::size_t(r)] + elems;
    }
    const std::uint64_t total = offsets[std::size_t(ranks)];
    for (const char* name : species) {
      const std::string vdf = std::string("vdf_") + name;
      for (int r = 0; r < ranks; ++r) {
        const std::uint64_t rr = std::uint64_t(r);
        diag.put_synthetic(r, vdf, Datatype::float64, {total},
                           {offsets[rr]}, {offsets[rr + 1] - offsets[rr]});
      }
    }
    diag.end_step();
  }

  // Checkpoints: iteration 0 rewritten; 5 particle arrays per species with
  // per-rank chunks at exscan offsets.
  const char* arrays[] = {"position/x", "velocity/x", "velocity/y",
                          "velocity/z", "weighting"};
  for (int c = 0; c < spec.checkpoints; ++c) {
    ckpt.begin_step(0);
    std::vector<std::uint64_t> offsets(std::size_t(ranks) + 1, 0);
    for (int r = 0; r < ranks; ++r) {
      const std::uint64_t elems = std::max<std::uint64_t>(
          1, spec.ckpt_bytes_for_rank(r) / 8 / (3 * 5));
      offsets[std::size_t(r) + 1] = offsets[std::size_t(r)] + elems;
    }
    const std::uint64_t total = offsets[std::size_t(ranks)];
    for (const char* sp : species) {
      for (const char* array : arrays) {
        const std::string var =
            std::string("particles/") + sp + "/" + array;
        for (int r = 0; r < ranks; ++r) {
          const std::uint64_t rr = std::uint64_t(r);
          ckpt.put_synthetic(r, var, Datatype::float64, {total},
                             {offsets[rr]}, {offsets[rr + 1] - offsets[rr]});
        }
      }
    }
    ckpt.end_step();
  }

  diag.close();
  ckpt.close();

  // Replay against the same hierarchy the engine modelled its gathers on:
  // on a hierarchical topology the node size follows the sweep's
  // ranks_per_node and the config's NUMA/NIC overrides land in the profile.
  // Gated on the topology so flat-mode replay numbers stay identical to the
  // pre-topology behavior.
  fsim::SystemProfile replay_profile = profile;
  if (config.topology != "flat") {
    replay_profile.ranks_per_node = spec.ranks_per_node;
    if (config.numa_per_node > 0)
      replay_profile.numa_per_node = config.numa_per_node;
    if (config.nics_per_node > 0)
      replay_profile.nics_per_node = config.nics_per_node;
  }
  const auto replay =
      timing ? replay_trace(replay_profile, fs.store(), fs.trace(), ranks)
             : fsim::ReplayReport{};
  return summarize(fs, dir, replay);
}

}  // namespace bitio::core
