#include "ior/ior.hpp"

#include <sstream>
#include <vector>

#include "util/error.hpp"
#include "util/units.hpp"

namespace bitio::ior {

IorConfig IorConfig::parse_cli(const std::string& args) {
  IorConfig config;
  std::istringstream in(args);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) {
    // Split "-N=25600" into "-N", "25600".
    const auto eq = token.find('=');
    if (token.size() > 1 && token[0] == '-' && eq != std::string::npos) {
      tokens.push_back(token.substr(0, eq));
      tokens.push_back(token.substr(eq + 1));
    } else {
      tokens.push_back(token);
    }
  }
  auto value = [&](std::size_t& i) -> std::string {
    if (i + 1 >= tokens.size())
      throw UsageError("ior: option " + tokens[i] + " needs a value");
    return tokens[++i];
  };
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& t = tokens[i];
    if (t == "ior") continue;  // allow pasting the full command
    if (t == "-N") config.ntasks = std::stoi(value(i));
    else if (t == "-a") config.api = value(i);
    else if (t == "-F") config.file_per_proc = true;
    else if (t == "-C") config.reorder_tasks = true;
    else if (t == "-e") config.fsync_on_close = true;
    else if (t == "-b") config.block_size = parse_size(value(i));
    else if (t == "-t") config.transfer_size = parse_size(value(i));
    else if (t == "-s") config.segments = std::stoi(value(i));
    else if (t == "-o") config.test_dir = value(i);
    else throw UsageError("ior: unknown option '" + t + "'");
  }
  if (config.api != "POSIX" && config.api != "MPIIO")
    throw UsageError("ior: unsupported api '" + config.api + "'");
  if (config.ntasks <= 0 || config.transfer_size == 0 ||
      config.block_size == 0 || config.segments <= 0)
    throw UsageError("ior: sizes and counts must be positive");
  return config;
}

std::string IorConfig::command_line() const {
  std::string out = "ior -N=" + std::to_string(ntasks) + " -a " + api;
  if (file_per_proc) out += " -F";
  if (reorder_tasks) out += " -C";
  if (fsync_on_close) out += " -e";
  return out;
}

IorResult run_write(const fsim::SystemProfile& profile,
                    const IorConfig& config, bool synthetic) {
  fsim::SharedFs fs(profile.ost_count, /*store_data=*/!synthetic,
                    profile.default_stripe);

  const std::uint64_t per_task =
      config.block_size * std::uint64_t(config.segments);
  const std::uint32_t transfers_per_block = std::uint32_t(
      (config.block_size + config.transfer_size - 1) / config.transfer_size);

  std::vector<std::uint8_t> buffer;
  if (!synthetic) buffer.assign(config.transfer_size, 0xA5);

  // MPIIO with collective buffering: one writer (aggregator) per node
  // funnels its node's data as large sequential transfers into the shared
  // file.  POSIX: every task issues its own transfers.
  const bool collective = config.api == "MPIIO" && !config.file_per_proc;

  int shared_fd = -1;
  if (!config.file_per_proc) {
    fsim::FsClient root(fs, 0);
    shared_fd = root.open(config.test_dir + "/testFile",
                          fsim::OpenMode::create);
  }

  for (int task = 0; task < config.ntasks; ++task) {
    if (collective && task % profile.ranks_per_node != 0) continue;
    fsim::FsClient client(fs, fsim::ClientId(task));
    const std::uint64_t tasks_here =
        collective ? std::uint64_t(std::min<int>(profile.ranks_per_node,
                                                 config.ntasks - task))
                   : 1;
    if (config.file_per_proc) {
      const int fd = client.open(
          config.test_dir + "/testFile." + std::to_string(task),
          fsim::OpenMode::create);
      for (int seg = 0; seg < config.segments; ++seg) {
        if (synthetic) {
          client.write_simulated(fd, config.block_size, transfers_per_block);
        } else {
          for (std::uint32_t tx = 0; tx < transfers_per_block; ++tx)
            client.write(fd, buffer);
        }
      }
      if (config.fsync_on_close) client.fsync(fd);
      client.close(fd);
    } else {
      // Shared file: task strides by segments (IOR's segmented layout:
      // segment s, task t writes at (s * ntasks + t) * block_size).
      const int fd = client.open(config.test_dir + "/testFile",
                                 fsim::OpenMode::write);
      for (int seg = 0; seg < config.segments; ++seg) {
        const std::uint64_t base =
            (std::uint64_t(seg) * std::uint64_t(config.ntasks) +
             std::uint64_t(task)) *
            config.block_size;
        const std::uint64_t bytes = config.block_size * tasks_here;
        if (synthetic) {
          client.seek(fd, base);
          client.write_simulated(fd, bytes,
                                 transfers_per_block *
                                     std::uint32_t(tasks_here));
        } else {
          for (std::uint64_t off = 0; off < bytes;
               off += config.transfer_size)
            client.pwrite(fd, base + off, buffer);
        }
      }
      if (config.fsync_on_close) client.fsync(fd);
      client.close(fd);
    }
  }
  if (!config.file_per_proc) {
    fsim::FsClient root(fs, 0);
    root.close(shared_fd);
  }

  const auto report =
      fsim::replay_trace(profile, fs.store(), fs.trace(), config.ntasks,
                         fsim::OpDurations::skip);
  IorResult result;
  result.makespan_s = report.makespan;
  result.bytes_written = report.bytes_written;
  result.write_gibps = report.write_throughput_bps() / double(GiB);
  result.files_created = fs.store().all_files().size();
  (void)per_task;
  return result;
}

}  // namespace bitio::ior
