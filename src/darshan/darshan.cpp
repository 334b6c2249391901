#include "darshan/darshan.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstring>
#include <map>
#include <set>

#include "util/error.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace bitio::darshan {

using fsim::OpKind;
using fsim::TraceOp;

std::uint64_t DarshanLog::total_bytes_written() const {
  std::uint64_t sum = 0;
  for (const auto& r : records) sum += r.bytes_written;
  return sum;
}

std::uint64_t DarshanLog::total_bytes_read() const {
  std::uint64_t sum = 0;
  for (const auto& r : records) sum += r.bytes_read;
  return sum;
}

std::uint64_t DarshanLog::total_files() const {
  std::set<std::string> paths;
  for (const auto& r : records) paths.insert(r.path);
  return paths.size();
}

double DarshanLog::total_write_time() const {
  double sum = 0.0;
  for (const auto& r : records) sum += r.write_time_s;
  return sum;
}

double DarshanLog::total_meta_time() const {
  double sum = 0.0;
  for (const auto& r : records) sum += r.meta_time_s;
  return sum;
}

std::uint64_t DarshanLog::total_faults_injected() const {
  std::uint64_t sum = 0;
  for (const auto& r : records) sum += r.faults_injected;
  return sum;
}

double DarshanLog::write_throughput_bps() const {
  return job.runtime_s > 0 ? double(total_bytes_written()) / job.runtime_s
                           : 0.0;
}

DarshanLog::PerProcessCost DarshanLog::per_process_cost() const {
  PerProcessCost cost;
  for (const auto& r : records) {
    cost.read_s += r.read_time_s;
    cost.meta_s += r.meta_time_s;
    cost.write_s += r.write_time_s;
    cost.drain_s += r.drain_time_s;
  }
  const double n = job.nprocs > 0 ? double(job.nprocs) : 1.0;
  cost.read_s /= n;
  cost.meta_s /= n;
  cost.write_s /= n;
  cost.drain_s /= n;
  return cost;
}

DarshanLog::FileSizeStats DarshanLog::file_size_stats() const {
  std::map<std::string, std::uint64_t> size_of;
  for (const auto& r : records) {
    if (r.bytes_written == 0 && r.max_byte_written == 0) continue;
    auto& s = size_of[r.path];
    s = std::max(s, r.max_byte_written);
  }
  FileSizeStats stats;
  stats.count = size_of.size();
  if (stats.count == 0) return stats;
  std::uint64_t sum = 0;
  for (const auto& [path, size] : size_of) {
    (void)path;
    sum += size;
    stats.max = std::max(stats.max, size);
  }
  stats.average = sum / stats.count;
  return stats;
}

namespace {

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& out, double d) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, 8);
  put_u64(out, bits);
}

void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u64(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

class Cursor {
public:
  explicit Cursor(std::span<const std::uint8_t> data) : data_(data) {}
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(data_[pos_++]) << (8 * i);
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double d;
    std::memcpy(&d, &bits, 8);
    return d;
  }
  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  bool done() const { return pos_ == data_.size(); }

private:
  void need(std::size_t n) {
    if (pos_ + n > data_.size())
      throw FormatError("darshan: truncated log");
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// The one log format version.  It must move whenever the counter rows or
// serialize() change; the wire-format golden enforces that.
constexpr std::uint64_t kLogMagic = 0x4452534e4c4f4739ull;  // "DRSNLOG9"

template <typename Record>
void put_counters(std::vector<std::uint8_t>& out, const Record& record,
                  std::span<const Counter<Record>> rows) {
  for (const Counter<Record>& row : rows) {
    if (row.u64)
      put_u64(out, record.*row.u64);
    else
      put_f64(out, record.*row.f64);
  }
}

template <typename Record>
void get_counters(Cursor& cur, Record& record,
                  std::span<const Counter<Record>> rows) {
  for (const Counter<Record>& row : rows) {
    if (row.u64)
      record.*row.u64 = cur.u64();
    else
      record.*row.f64 = cur.f64();
  }
}

}  // namespace

std::span<const Counter<FileRecord>> file_record_counters() {
  using R = FileRecord;
  static constexpr auto rows = std::to_array<Counter<R>>({
      {"opens", &R::opens},
      {"writes", &R::writes},
      {"reads", &R::reads},
      {"stats", &R::stats},
      {"fsyncs", &R::fsyncs},
      {"bytes_written", &R::bytes_written},
      {"bytes_read", &R::bytes_read},
      {"max_byte_written", &R::max_byte_written},
      {"max_write_size", &R::max_write_size},
      {"write_time_s", &R::write_time_s},
      {"read_time_s", &R::read_time_s},
      {"meta_time_s", &R::meta_time_s},
      {"drain_time_s", &R::drain_time_s},
      {"faults_injected", &R::faults_injected},
      {"shm_gathers", &R::shm_gathers},
      {"net_gathers", &R::net_gathers},
      {"shm_gather_bytes", &R::shm_gather_bytes},
      {"net_gather_bytes", &R::net_gather_bytes},
      {"gather_time_s", &R::gather_time_s},
      {"batches_submitted", &R::batches_submitted},
      {"batched_sqes", &R::batched_sqes},
      {"coalesced_bytes", &R::coalesced_bytes},
  });
  // path, rank (padded to 8), then one 8-byte member per row.
  static_assert(sizeof(R) == sizeof(std::string) + 8 + rows.size() * 8,
                "a FileRecord counter has no row in file_record_counters()");
  return rows;
}

std::vector<std::uint8_t> DarshanLog::serialize() const {
  // exe + mount, nprocs (padded) + runtime_s, the histogram: serialize()
  // and parse() spell out every JobInfo member.
  static_assert(sizeof(JobInfo) == 2 * sizeof(std::string) + 2 * 8 +
                                       sizeof(JobInfo::ops_per_batch),
                "a JobInfo member is missing from serialize()/parse()");
  std::vector<std::uint8_t> out;
  put_u64(out, kLogMagic);
  put_str(out, job.exe);
  put_u64(out, job.nprocs);
  put_f64(out, job.runtime_s);
  put_str(out, job.mount);
  for (const std::uint64_t bucket : job.ops_per_batch) put_u64(out, bucket);
  put_u64(out, records.size());
  for (const auto& r : records) {
    put_str(out, r.path);
    put_u64(out, std::uint64_t(std::int64_t(r.rank)));
    put_counters(out, r, file_record_counters());
  }
  return out;
}

DarshanLog DarshanLog::parse(std::span<const std::uint8_t> data) {
  Cursor cur(data);
  if (cur.u64() != kLogMagic) throw FormatError("darshan: bad log magic");
  DarshanLog log;
  log.job.exe = cur.str();
  log.job.nprocs = std::uint32_t(cur.u64());
  log.job.runtime_s = cur.f64();
  log.job.mount = cur.str();
  for (std::uint64_t& bucket : log.job.ops_per_batch) bucket = cur.u64();
  const std::uint64_t n = cur.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    FileRecord r;
    r.path = cur.str();
    r.rank = std::int32_t(std::int64_t(cur.u64()));
    get_counters(cur, r, file_record_counters());
    log.records.push_back(std::move(r));
  }
  if (!cur.done()) throw FormatError("darshan: trailing bytes in log");
  return log;
}

std::string DarshanLog::text_report() const {
  std::string out;
  out += strfmt("# darshan log: exe=%s nprocs=%u runtime=%.6fs mount=%s\n",
                job.exe.c_str(), job.nprocs, job.runtime_s,
                job.mount.c_str());
  out += strfmt("# agg_perf_by_slowest: %s\n",
                format_gibps(write_throughput_bps()).c_str());
  const auto cost = per_process_cost();
  out += strfmt(
      "# per-process cost: read=%.6fs meta=%.6fs write=%.6fs drain=%.6fs\n",
      cost.read_s, cost.meta_s, cost.write_s, cost.drain_s);
  if (const auto faults = total_faults_injected(); faults > 0)
    out += strfmt("# faults_injected: %llu\n",
                  static_cast<unsigned long long>(faults));
  std::uint64_t batches = 0, sqes = 0, coalesced = 0;
  for (const auto& r : records) {
    batches += r.batches_submitted;
    sqes += r.batched_sqes;
    coalesced += r.coalesced_bytes;
  }
  if (batches > 0)
    out += strfmt(
        "# batches_submitted: %llu batched_sqes: %llu coalesced: %s\n",
        static_cast<unsigned long long>(batches),
        static_cast<unsigned long long>(sqes),
        format_bytes(coalesced).c_str());
  TextTable table;
  table.header({"rank", "file", "opens", "writes", "bytes_w", "reads",
                "bytes_r", "t_write", "t_meta", "t_drain"});
  for (const auto& r : records) {
    table.row({r.rank == FileRecord::kSharedRank ? "-1"
                                                 : std::to_string(r.rank),
               r.path, std::to_string(r.opens), std::to_string(r.writes),
               format_bytes(r.bytes_written), std::to_string(r.reads),
               format_bytes(r.bytes_read), format_seconds(r.write_time_s),
               format_seconds(r.meta_time_s),
               format_seconds(r.drain_time_s)});
  }
  out += table.render();
  return out;
}

DarshanLog capture(const fsim::SharedFs& fs, const fsim::ReplayReport& replay,
                   JobInfo job) {
  const auto& trace = fs.trace();
  if (replay.op_durations.empty() && !trace.empty())
    throw UsageError(
        "darshan::capture: the replay was run without per-op durations "
        "(OpDurations::skip)");
  if (replay.op_durations.size() != trace.size())
    throw UsageError("darshan::capture: replay does not match trace");

  DarshanLog log;
  job.runtime_s = replay.makespan;
  log.job = std::move(job);

  // Sqes of the queue-pair batch currently open: a doorbell-tagged
  // batch_write record flushes the previous batch into the job's
  // ops-per-batch histogram and starts the next one.  submit() holds the
  // fs lock from its first record to its last, so one batch's records are
  // contiguous in the trace.
  std::uint64_t open_batch = 0;
  const auto bucket_of = [](std::uint64_t sqes) -> std::size_t {
    if (sqes <= 1) return 0;
    if (sqes <= 4) return 1;
    if (sqes <= 16) return 2;
    if (sqes <= 64) return 3;
    return 4;
  };

  // (rank, file id) -> record index.
  std::map<std::pair<std::int32_t, fsim::FileId>, std::size_t> index;
  auto record_for = [&](std::int32_t rank, fsim::FileId file) -> FileRecord& {
    auto [it, fresh] = index.try_emplace({rank, file}, log.records.size());
    if (fresh) {
      FileRecord r;
      r.rank = rank;
      r.path = file == fsim::kNoFile
                   ? "<namespace>"
                   : fs.store().file_by_id(file).path;
      log.records.push_back(std::move(r));
    }
    return log.records[it->second];
  };

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceOp& op = trace[i];
    // Fault markers ride on whatever op carried the injection (including
    // cpu-kind notes for harness-level faults), so count them before the
    // cpu skip below.
    if (op.fault != fsim::FaultKind::none)
      record_for(std::int32_t(op.client), op.file).faults_injected +=
          op.op_count > 0 ? op.op_count : 1;
    if (op.kind == OpKind::cpu) continue;  // modelled CPU, not I/O
    FileRecord& r = record_for(std::int32_t(op.client), op.file);
    const double dt = replay.op_durations[i];
    // Call/byte counters accumulate regardless of lane (Darshan counts the
    // I/O wherever it happens); *time* on drain lanes is overlapped, so it
    // lands in drain_time_s instead of the critical-path time counters.
    const bool drain_lane = op.lane > 0;
    double& meta_time = drain_lane ? r.drain_time_s : r.meta_time_s;
    double& write_time = drain_lane ? r.drain_time_s : r.write_time_s;
    double& read_time = drain_lane ? r.drain_time_s : r.read_time_s;
    switch (op.kind) {
      case OpKind::create:
      case OpKind::open:
        r.opens += op.op_count;
        meta_time += dt;
        break;
      case OpKind::close:
      case OpKind::fsync:
        r.fsyncs += op.kind == OpKind::fsync ? op.op_count : 0;
        meta_time += dt;
        break;
      case OpKind::stat:
      case OpKind::unlink:
      case OpKind::mkdir:
      case OpKind::rename:
        r.stats += op.kind == OpKind::stat ? op.op_count : 0;
        meta_time += dt;
        break;
      case OpKind::write:
        r.writes += op.op_count;
        r.bytes_written += op.bytes;
        r.max_byte_written =
            std::max(r.max_byte_written, op.offset + op.bytes);
        r.max_write_size = std::max(r.max_write_size, op.bytes);
        write_time += dt;
        break;
      case OpKind::read:
        r.reads += op.op_count;
        r.bytes_read += op.bytes;
        read_time += dt;
        break;
      case OpKind::xfer:
        // Two-level aggregation gather feeding this file; the tag names
        // the level (TraceTag::shm_gather / net_gather).
        if (op.tag == fsim::TraceTag::shm_gather) {
          r.shm_gathers += op.op_count;
          r.shm_gather_bytes += op.bytes;
        } else {
          r.net_gathers += op.op_count;
          r.net_gather_bytes += op.bytes;
        }
        if (drain_lane)
          r.drain_time_s += dt;
        else
          r.gather_time_s += dt;
        break;
      case OpKind::batch_write: {
        // Queue-pair submission: op_count counts the sqes this record
        // carries (>= 2 means adjacent sqes were coalesced into one
        // vectored write); the doorbell tag marks the first record of each
        // submit() call.
        r.writes += op.op_count;
        r.batched_sqes += op.op_count;
        r.bytes_written += op.bytes;
        r.max_byte_written =
            std::max(r.max_byte_written, op.offset + op.bytes);
        r.max_write_size = std::max(r.max_write_size, op.bytes);
        if (op.op_count >= 2) r.coalesced_bytes += op.bytes;
        if (op.tag == fsim::TraceTag::doorbell) {
          r.batches_submitted += 1;
          if (open_batch > 0)
            log.job.ops_per_batch[bucket_of(open_batch)] += 1;
          open_batch = 0;
        }
        open_batch += op.op_count;
        write_time += dt;
        break;
      }
      case OpKind::cpu:
        break;
    }
  }
  if (open_batch > 0) log.job.ops_per_batch[bucket_of(open_batch)] += 1;
  return log;
}

namespace {

std::string uppercase(std::string name) {
  for (char& c : name) c = char(std::toupper(static_cast<unsigned char>(c)));
  return name;
}

}  // namespace

std::string engine_tag(const std::string& engine) {
  return uppercase(engine);
}

std::string aggregation_tag(const std::string& aggregation) {
  return uppercase(aggregation);
}

}  // namespace bitio::darshan
