// Tests for the Darshan-like monitor: counter capture from traces, log
// round trip, per-process cost and file-size roll-ups.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "darshan/darshan.hpp"
#include "fsim/system_profiles.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace bitio::darshan {
namespace {

using fsim::FsClient;
using fsim::OpenMode;
using fsim::SharedFs;

fsim::SystemProfile tiny_profile() {
  auto p = fsim::dardel();
  p.ranks_per_node = 4;
  return p;
}

void populate_two_rank_job(SharedFs& fs) {
  std::vector<std::uint8_t> big(2 * MiB, 1);
  std::vector<std::uint8_t> small(4 * KiB, 2);
  FsClient a(fs, 0), b(fs, 1);
  int fd = a.open("out/rank0.dat", OpenMode::create);
  for (int i = 0; i < 8; ++i) a.write(fd, small);
  a.close(fd);
  fd = b.open("out/rank1.dat", OpenMode::create);
  b.write(fd, big);
  b.fsync(fd);
  b.close(fd);
  fd = a.open("out/rank0.dat", OpenMode::read);
  std::vector<std::uint8_t> buf(1024);
  EXPECT_EQ(a.read(fd, buf), 1024u);
  a.close(fd);
}

TEST(Darshan, CapturesCounters) {
  SharedFs fs(8);
  populate_two_rank_job(fs);
  auto replay = replay_trace(tiny_profile(), fs.store(), fs.trace(), 2);
  auto log = capture(fs, replay, {"bit1", 2, 0.0, "/lustre"});

  EXPECT_EQ(log.job.nprocs, 2u);
  EXPECT_DOUBLE_EQ(log.job.runtime_s, replay.makespan);
  EXPECT_EQ(log.total_bytes_written(), 2 * MiB + 32 * KiB);
  EXPECT_EQ(log.total_bytes_read(), 1024u);
  EXPECT_EQ(log.total_files(), 2u);

  // Find rank 0's record for its file.
  const FileRecord* r0 = nullptr;
  const FileRecord* r1 = nullptr;
  for (const auto& r : log.records) {
    if (r.path == "out/rank0.dat" && r.rank == 0) r0 = &r;
    if (r.path == "out/rank1.dat" && r.rank == 1) r1 = &r;
  }
  ASSERT_NE(r0, nullptr);
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r0->writes, 8u);   // pre-coalescing call count preserved
  EXPECT_EQ(r0->opens, 2u);    // create + reopen for read
  EXPECT_EQ(r0->reads, 1u);
  EXPECT_EQ(r1->fsyncs, 1u);
  EXPECT_EQ(r1->bytes_written, 2 * MiB);
  EXPECT_EQ(r1->max_byte_written, 2 * MiB);
  EXPECT_GT(r1->write_time_s, 0.0);
  EXPECT_GT(r0->meta_time_s, 0.0);
}

TEST(Darshan, LogSerializationRoundTrip) {
  SharedFs fs(8);
  populate_two_rank_job(fs);
  auto replay = replay_trace(tiny_profile(), fs.store(), fs.trace(), 2);
  auto log = capture(fs, replay, {"bit1", 2, 0.0, "/lustre"});

  const auto bytes = log.serialize();
  const DarshanLog back = DarshanLog::parse(bytes);
  EXPECT_EQ(back.job.exe, log.job.exe);
  EXPECT_EQ(back.records.size(), log.records.size());
  EXPECT_EQ(back.total_bytes_written(), log.total_bytes_written());
  EXPECT_DOUBLE_EQ(back.total_write_time(), log.total_write_time());

  auto corrupt = bytes;
  corrupt[0] ^= 0x1;
  EXPECT_THROW(DarshanLog::parse(corrupt), FormatError);
  corrupt = bytes;
  corrupt.pop_back();
  EXPECT_THROW(DarshanLog::parse(corrupt), FormatError);
  corrupt = bytes;
  corrupt.push_back(9);
  EXPECT_THROW(DarshanLog::parse(corrupt), FormatError);
}

namespace {

/// One job that drives every counter row: posix meta/data ops, a drain
/// lane, both gather levels, a coalesced queue-pair batch and an injected
/// fault.
DarshanLog capture_every_counter() {
  SharedFs fs(8);
  populate_two_rank_job(fs);
  FsClient rank0(fs, 0);
  (void)rank0.stat_size("out/rank0.dat");  // records a stat op

  FsClient drain(fs, 0, /*lane=*/1);
  std::vector<std::uint8_t> block(64 * KiB, 3);
  int fd = drain.open("out/rank1.dat", OpenMode::append);
  drain.write(fd, block);
  drain.close(fd);

  fd = rank0.open("out/gather.dat", OpenMode::create);
  rank0.transfer(fd, 1, 32 * KiB, /*intra_node=*/true);
  rank0.transfer(fd, 2, 32 * KiB, /*intra_node=*/false);
  fsim::SubmissionQueue sq(rank0, 4, /*coalesce=*/true);
  for (std::size_t i = 0; i < 2; ++i) {
    fsim::Sqe sqe;
    sqe.fd = fd;
    sqe.offset = i * block.size();
    sqe.iov.push_back(block);
    sq.push(std::move(sqe));
  }
  for (const fsim::Cqe& cqe : sq.submit()) EXPECT_TRUE(cqe.ok);
  rank0.close(fd);

  rank0.note_fault(fsim::FaultKind::rank_crash);

  const auto replay = replay_trace(tiny_profile(), fs.store(), fs.trace(), 3);
  return capture(fs, replay, {"bit1", 3, 0.0, "/lustre"});
}

template <typename Record>
double read_counter(const Record& record, const Counter<Record>& row) {
  return row.u64 ? double(record.*row.u64) : record.*row.f64;
}

/// The DRSNLOG8 byte layout without its seven job counter rows, written out
/// field by field under the DRSNLOG8 magic — the reference the
/// table-driven serializer must reproduce under its own magic.
std::vector<std::uint8_t> drsnlog8_io_bytes(const DarshanLog& log) {
  std::vector<std::uint8_t> out;
  const auto u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
  };
  const auto f64 = [&](double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    u64(bits);
  };
  const auto str = [&](const std::string& s) {
    u64(s.size());
    out.insert(out.end(), s.begin(), s.end());
  };
  const JobInfo& job = log.job;
  u64(0x4452534e4c4f4738ull);  // "DRSNLOG8"
  str(job.exe);
  u64(job.nprocs);
  f64(job.runtime_s);
  str(job.mount);
  for (const std::uint64_t bucket : job.ops_per_batch) u64(bucket);
  u64(log.records.size());
  for (const FileRecord& r : log.records) {
    str(r.path);
    u64(std::uint64_t(std::int64_t(r.rank)));
    u64(r.opens);
    u64(r.writes);
    u64(r.reads);
    u64(r.stats);
    u64(r.fsyncs);
    u64(r.bytes_written);
    u64(r.bytes_read);
    u64(r.max_byte_written);
    u64(r.max_write_size);
    f64(r.write_time_s);
    f64(r.read_time_s);
    f64(r.meta_time_s);
    f64(r.drain_time_s);
    u64(r.faults_injected);
    u64(r.shm_gathers);
    u64(r.net_gathers);
    u64(r.shm_gather_bytes);
    u64(r.net_gather_bytes);
    f64(r.gather_time_s);
    u64(r.batches_submitted);
    u64(r.batched_sqes);
    u64(r.coalesced_bytes);
  }
  return out;
}

}  // namespace

TEST(Darshan, CaptureFillsEveryCounterRow) {
  const DarshanLog log = capture_every_counter();
  for (const auto& row : file_record_counters()) {
    double sum = 0.0;
    for (const FileRecord& r : log.records) sum += read_counter(r, row);
    EXPECT_GT(sum, 0.0) << "file counter " << row.name;
  }
  std::uint64_t batches = 0;
  for (const std::uint64_t bucket : log.job.ops_per_batch) batches += bucket;
  EXPECT_EQ(batches, 1u);

  // Every row survives the round trip, record by record.
  const DarshanLog back = DarshanLog::parse(log.serialize());
  ASSERT_EQ(back.records.size(), log.records.size());
  EXPECT_TRUE(std::equal(std::begin(back.job.ops_per_batch),
                         std::end(back.job.ops_per_batch),
                         std::begin(log.job.ops_per_batch)));
  for (std::size_t i = 0; i < log.records.size(); ++i)
    for (const auto& row : file_record_counters())
      EXPECT_EQ(read_counter(back.records[i], row),
                read_counter(log.records[i], row))
          << row.name << " of record " << i;
}

TEST(Darshan, SerializesTheV8IoLayoutUnderTheV9Magic) {
  const DarshanLog log = capture_every_counter();
  const std::vector<std::uint8_t> bytes = log.serialize();
  const std::vector<std::uint8_t> v8 = drsnlog8_io_bytes(log);
  ASSERT_EQ(bytes.size(), v8.size());
  // The magic is little-endian, so its version digit is byte 0.
  EXPECT_EQ(v8[0], std::uint8_t('8'));
  EXPECT_EQ(bytes[0], std::uint8_t('9'));
  EXPECT_TRUE(std::equal(bytes.begin() + 1, bytes.end(), v8.begin() + 1));
  // The retired version is not read back.
  EXPECT_THROW(DarshanLog::parse(v8), FormatError);
}

TEST(Darshan, PerProcessCostSplitsByCategory) {
  SharedFs fs(8);
  populate_two_rank_job(fs);
  auto replay = replay_trace(tiny_profile(), fs.store(), fs.trace(), 2);
  auto log = capture(fs, replay, {"bit1", 2, 0.0, "/lustre"});
  const auto cost = log.per_process_cost();
  EXPECT_GT(cost.write_s, 0.0);
  EXPECT_GT(cost.meta_s, 0.0);
  EXPECT_GT(cost.read_s, 0.0);
  // The total time Darshan attributes across categories must equal the
  // replay's total client I/O time.  (The meta/write split can differ for
  // small-record ops, whose single duration spans both categories.)
  double replay_total = 0.0;
  for (const auto& c : replay.clients)
    replay_total += c.write + c.meta + c.read;
  EXPECT_NEAR((cost.write_s + cost.meta_s + cost.read_s) * 2.0, replay_total,
              1e-9);
}

TEST(Darshan, FileSizeStatsMatchStore) {
  SharedFs fs(8);
  populate_two_rank_job(fs);
  auto replay = replay_trace(tiny_profile(), fs.store(), fs.trace(), 2);
  auto log = capture(fs, replay, {"bit1", 2, 0.0, "/lustre"});
  const auto stats = log.file_size_stats();
  EXPECT_EQ(stats.count, 2u);
  EXPECT_EQ(stats.max, 2 * MiB);
  EXPECT_EQ(stats.average, (2 * MiB + 32 * KiB) / 2);
}

TEST(Darshan, ThroughputIsBytesOverRuntime) {
  SharedFs fs(8);
  populate_two_rank_job(fs);
  auto replay = replay_trace(tiny_profile(), fs.store(), fs.trace(), 2);
  auto log = capture(fs, replay, {"bit1", 2, 0.0, "/lustre"});
  EXPECT_NEAR(log.write_throughput_bps(),
              double(log.total_bytes_written()) / replay.makespan, 1e-6);
}

TEST(Darshan, TextReportContainsHeadline) {
  SharedFs fs(8);
  populate_two_rank_job(fs);
  auto replay = replay_trace(tiny_profile(), fs.store(), fs.trace(), 2);
  auto log = capture(fs, replay, {"bit1", 2, 0.0, "/lustre"});
  const std::string report = log.text_report();
  EXPECT_NE(report.find("agg_perf_by_slowest"), std::string::npos);
  EXPECT_NE(report.find("out/rank0.dat"), std::string::npos);
  EXPECT_NE(report.find("per-process cost"), std::string::npos);
}

TEST(Darshan, RejectsMismatchedReplay) {
  SharedFs fs(8);
  populate_two_rank_job(fs);
  fsim::ReplayReport bogus;
  bogus.op_durations.assign(3, 0.0);  // wrong length
  EXPECT_THROW(capture(fs, bogus, {}), UsageError);
  // A replay run with OpDurations::skip has no per-file time to attribute.
  const auto lean = replay_trace(tiny_profile(), fs.store(), fs.trace(), 2,
                                 fsim::OpDurations::skip);
  ASSERT_TRUE(lean.op_durations.empty());
  EXPECT_THROW(capture(fs, lean, {}), UsageError);
}

TEST(Darshan, DrainLaneTimeAttributedOffCriticalPath) {
  // One rank, two lanes: lane 0 is the critical path, lane 1 the async
  // drain (BP5 AsyncWrite).  Byte/call counters merge; time splits.
  SharedFs fs(8);
  FsClient rank0(fs, 0);
  FsClient drain(fs, 0, /*lane=*/1);
  EXPECT_EQ(drain.lane(), 1u);

  std::vector<std::uint8_t> block(MiB, 7);
  int fd = rank0.open("out/data.0", OpenMode::create);
  rank0.write(fd, block);
  rank0.close(fd);
  fd = drain.open("out/data.0", OpenMode::append);
  for (int i = 0; i < 4; ++i) drain.write(fd, block);
  drain.close(fd);

  const auto replay = replay_trace(tiny_profile(), fs.store(), fs.trace(), 1);
  EXPECT_GT(replay.mean_drain_time(), 0.0);

  const auto log = capture(fs, replay, {"bit1", 1, 0.0, "/lustre"});
  ASSERT_EQ(log.records.size(), 1u);
  const FileRecord& r = log.records[0];
  EXPECT_EQ(r.bytes_written, 5 * MiB);
  EXPECT_EQ(r.writes, 5u);
  EXPECT_GT(r.write_time_s, 0.0);   // the 1 MiB critical-path write
  EXPECT_GT(r.drain_time_s, 0.0);   // the 4 MiB drained in the background
  EXPECT_GT(r.drain_time_s, r.write_time_s);

  const auto cost = log.per_process_cost();
  EXPECT_GT(cost.drain_s, 0.0);
  EXPECT_DOUBLE_EQ(cost.drain_s, r.drain_time_s);

  // drain_time_s survives the binary log round trip.
  const auto back = DarshanLog::parse(log.serialize());
  ASSERT_EQ(back.records.size(), 1u);
  EXPECT_DOUBLE_EQ(back.records[0].drain_time_s, r.drain_time_s);
  // And the text report exposes the new column.
  EXPECT_NE(log.text_report().find("t_drain"), std::string::npos);
}

}  // namespace
}  // namespace bitio::darshan
