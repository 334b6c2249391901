// Tests for the storage simulator: object store + striping semantics,
// POSIX facade + trace coalescing, and the queueing replay model.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>

#include "fsim/des.hpp"
#include "fsim/posix_fs.hpp"
#include "fsim/storage_model.hpp"
#include "fsim/system_profiles.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace bitio::fsim {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = std::uint8_t(seed + i * 131 % 251);
  return out;
}

// ----------------------------------------------------------- ObjectStore ---

TEST(ObjectStore, PathHelpers) {
  EXPECT_EQ(split_path("/a//b/c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(parent_path("a/b/c"), "a/b");
  EXPECT_EQ(parent_path("a"), "");
  EXPECT_EQ(base_name("x/y/data.0"), "data.0");
}

TEST(ObjectStore, CreateWriteReadBack) {
  ObjectStore store(4);
  FileNode& f = store.create_file("out/run1/data.0");
  auto data = pattern(1000);
  store.pwrite(f, 0, data.data(), data.size());
  EXPECT_EQ(f.size, 1000u);
  std::vector<std::uint8_t> back(1000);
  EXPECT_EQ(store.pread(f, 0, back.data(), 1000), 1000u);
  EXPECT_EQ(back, data);
  // Sparse write extends with zeros.
  store.pwrite(f, 2000, data.data(), 10);
  EXPECT_EQ(f.size, 2010u);
  std::uint8_t byte = 0xFF;
  EXPECT_EQ(store.pread(f, 1500, &byte, 1), 1u);
  EXPECT_EQ(byte, 0);
}

TEST(ObjectStore, DuplicateCreateAndMissingLookupFail) {
  ObjectStore store(2);
  store.create_file("a/f");
  EXPECT_THROW(store.create_file("a/f"), IoError);
  EXPECT_THROW(store.file("a/missing"), IoError);
  EXPECT_THROW(store.file_by_id(99), IoError);
}

TEST(ObjectStore, StripeInheritanceFromDirectory) {
  ObjectStore store(16);
  store.set_dir_stripe("out", {8, 16 * MiB});
  FileNode& f = store.create_file("out/sub/data.0");  // subdir inherits
  EXPECT_EQ(f.layout.settings.stripe_count, 8);
  EXPECT_EQ(f.layout.settings.stripe_size, 16 * MiB);
  EXPECT_EQ(f.layout.ost_indices.size(), 8u);
  EXPECT_EQ(f.layout.pattern, "raid0");
}

TEST(ObjectStore, StripePlacementIsRoundRobinAndDisjoint) {
  ObjectStore store(8);
  store.set_dir_stripe("d", {4, 1 * MiB});
  FileNode& a = store.create_file("d/a");
  FileNode& b = store.create_file("d/b");
  // Within one file: consecutive distinct OSTs (RAID0 rotation).
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(a.layout.ost_indices[std::size_t(i)],
              (a.layout.stripe_offset + i) % 8);
  // Across files: allocation cursor advances (load balancing).
  EXPECT_NE(a.layout.stripe_offset, b.layout.stripe_offset);
}

TEST(ObjectStore, SetstripeValidation) {
  ObjectStore store(4);
  EXPECT_THROW(store.set_dir_stripe("x", {0, MiB}), UsageError);
  EXPECT_THROW(store.set_dir_stripe("x", {2, 0}), UsageError);
  EXPECT_THROW(store.set_dir_stripe("x", {5, MiB}), UsageError);  // > OSTs
}

TEST(ObjectStore, ListRecursiveInCreationOrder) {
  ObjectStore store(2);
  store.create_file("r/b");
  store.create_file("r/sub/a");
  store.create_file("r/c");
  auto files = store.list_recursive("r");
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0]->path, "r/b");
  EXPECT_EQ(files[1]->path, "r/sub/a");
  EXPECT_EQ(files[2]->path, "r/c");
}

TEST(ObjectStore, UnlinkKeepsNodeForReplay) {
  ObjectStore store(2);
  FileNode& f = store.create_file("r/x");
  const FileId id = f.id;
  store.unlink("r/x");
  EXPECT_FALSE(store.file_exists("r/x"));
  EXPECT_NO_THROW(store.file_by_id(id));  // layout still resolvable
  EXPECT_TRUE(store.list_recursive("r").empty());
}

TEST(ObjectStore, NoDataRetentionMode) {
  ObjectStore store(2, /*store_data=*/false);
  FileNode& f = store.create_file("big");
  auto data = pattern(100);
  store.pwrite(f, 0, data.data(), data.size());
  EXPECT_EQ(f.size, 100u);
  EXPECT_TRUE(f.data.empty());  // sizes only
  std::uint8_t byte;
  EXPECT_THROW(store.pread(f, 0, &byte, 1), IoError);
}

// --------------------------------------------------------------- PosixFs ---

TEST(PosixFs, SequentialWritesCoalesceInTrace) {
  SharedFs fs(4);
  FsClient client(fs, 0);
  const int fd = client.open("out/f.dat", OpenMode::create);
  auto rec = pattern(512);
  for (int i = 0; i < 100; ++i) client.write(fd, rec);
  client.close(fd);

  // create + ONE coalesced write + close.
  ASSERT_EQ(fs.trace().size(), 3u);
  const TraceOp& w = fs.trace()[1];
  EXPECT_EQ(w.kind, OpKind::write);
  EXPECT_EQ(w.bytes, 51200u);
  EXPECT_EQ(w.op_count, 100u);
  EXPECT_EQ(fs.traced_bytes_written(), 51200u);
  EXPECT_EQ(fs.store().file("out/f.dat").size, 51200u);
}

TEST(PosixFs, InterleavedClientsDoNotCoalesceAcrossEachOther) {
  SharedFs fs(4);
  FsClient a(fs, 0), b(fs, 1);
  const int fa = a.open("fa", OpenMode::create);
  const int fb = b.open("fb", OpenMode::create);
  auto rec = pattern(8);
  a.write(fa, rec);
  b.write(fb, rec);
  a.write(fa, rec);
  std::size_t writes = 0;
  for (const auto& op : fs.trace())
    if (op.kind == OpKind::write) ++writes;
  EXPECT_EQ(writes, 3u);  // a, b, a — the b op breaks a's run
}

TEST(PosixFs, ReadBackAndModes) {
  SharedFs fs(4);
  FsClient client(fs, 0);
  auto data = pattern(1000, 7);
  client.write_file("dir/file", data);
  EXPECT_EQ(client.read_all("dir/file"), data);

  // Append mode continues at the end.
  const int fd = client.open("dir/file", OpenMode::append);
  client.write(fd, pattern(10, 9));
  client.close(fd);
  EXPECT_EQ(client.read_all("dir/file").size(), 1010u);

  // create_or_truncate resets the checkpoint slot.
  const int fd2 = client.open("dir/file", OpenMode::create_or_truncate);
  client.write(fd2, pattern(5, 3));
  client.close(fd2);
  EXPECT_EQ(client.read_all("dir/file"), pattern(5, 3));
}

TEST(PosixFs, DescriptorDiscipline) {
  SharedFs fs(4);
  FsClient a(fs, 0), b(fs, 1);
  const int fd = a.open("f", OpenMode::create);
  auto rec = pattern(4);
  EXPECT_THROW(b.write(fd, rec), IoError);  // foreign descriptor
  a.close(fd);
  EXPECT_THROW(a.write(fd, rec), IoError);  // closed
  EXPECT_THROW((void)a.open("f", OpenMode::create), IoError);  // exists
  const int rd = a.open("f", OpenMode::read);
  EXPECT_THROW(a.write(rd, rec), IoError);  // read-only
}

TEST(PosixFs, ClosedDescriptorsAreRecycledLowestFirst) {
  SharedFs fs(4);
  FsClient a(fs, 0), b(fs, 1);
  const int f0 = a.open("f0", OpenMode::create);
  const int f1 = a.open("f1", OpenMode::create);
  const int f2 = a.open("f2", OpenMode::create);
  a.close(f2);
  a.close(f0);
  auto rec = pattern(4);
  // Closed and not yet reused: still a bad descriptor.
  EXPECT_THROW(a.write(f0, rec), IoError);
  EXPECT_THROW(a.write(f2, rec), IoError);
  // The next open takes the lowest freed number, as POSIX does.
  const int g = b.open("g", OpenMode::create);
  EXPECT_EQ(g, f0);
  // The number now belongs to b: a's stale copy is another client's fd.
  EXPECT_THROW(a.write(g, rec), IoError);
  EXPECT_NO_THROW(b.write(g, rec));
  EXPECT_EQ(a.open("f0", OpenMode::read), f2);
  a.close(f1);
}

TEST(PosixFs, DescriptorTableStaysAtThePeakOpenCount) {
  // 1,000 opens, never more than three open at once: every descriptor
  // number handed out is below three, so the table never grows past it.
  SharedFs fs(4);
  FsClient client(fs, 0);
  const int held = client.open("held", OpenMode::create);
  int highest = held;
  for (int i = 0; i < 500; ++i) {
    const OpenMode mode = i == 0 ? OpenMode::create : OpenMode::append;
    const int x = client.open("x", mode);
    const int y = client.open("y", mode);
    highest = std::max({highest, x, y});
    client.write_simulated(x, 100);
    client.close(y);
    client.close(x);
  }
  client.close(held);
  EXPECT_LT(highest, 3);
  EXPECT_EQ(fs.store().file("x").size, 50000u);
}

TEST(PosixFs, GetstripeTextLooksLikeListing1) {
  SharedFs fs(48);
  FsClient client(fs, 0);
  client.setstripe("io_openPMD", {8, 16 * MiB});
  client.write_file("io_openPMD/dat_file.bp4/data.0", pattern(64));
  const std::string text =
      client.getstripe_text("io_openPMD/dat_file.bp4/data.0");
  EXPECT_NE(text.find("lmm_stripe_count:  8"), std::string::npos);
  EXPECT_NE(text.find("16777216"), std::string::npos);
  EXPECT_NE(text.find("raid0"), std::string::npos);
  EXPECT_NE(text.find("obdidx"), std::string::npos);
}

TEST(PosixFs, CpuChargeAppearsInTrace) {
  SharedFs fs(4);
  FsClient client(fs, 2);
  client.charge_cpu(0.25, TraceTag::compress);
  ASSERT_EQ(fs.trace().size(), 1u);
  EXPECT_EQ(fs.trace()[0].kind, OpKind::cpu);
  EXPECT_DOUBLE_EQ(fs.trace()[0].cpu_seconds, 0.25);
  EXPECT_EQ(fs.trace()[0].tag, TraceTag::compress);
}

// ------------------------------------------------------------------- DES ---

TEST(Des, FifoSingleSlotQueues) {
  FifoResource r(1);
  EXPECT_DOUBLE_EQ(r.submit(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(r.submit(0.0, 1.0), 2.0);   // queued behind first
  EXPECT_DOUBLE_EQ(r.submit(5.0, 1.0), 6.0);   // idle gap
  EXPECT_DOUBLE_EQ(r.busy_until(), 6.0);
  EXPECT_DOUBLE_EQ(r.busy_seconds(), 3.0);
}

TEST(Des, FifoMultiSlotRunsInParallel) {
  FifoResource r(3);
  EXPECT_DOUBLE_EQ(r.submit(0.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(r.submit(0.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(r.submit(0.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(r.submit(0.0, 2.0), 4.0);  // fourth job waits
}

TEST(Des, NoiseIsBoundedAndDeterministic) {
  NoiseStream a(0.3, 42), b(0.3, 42);
  for (int i = 0; i < 1000; ++i) {
    const double v = a.next();
    EXPECT_GE(v, 0.7);
    EXPECT_LE(v, 1.3);
    EXPECT_DOUBLE_EQ(v, b.next());
  }
  NoiseStream off(0.0, 42);
  EXPECT_DOUBLE_EQ(off.next(), 1.0);
}

// ------------------------------------------------------------- Replay -----

SystemProfile flat_profile() {
  // A deliberately simple profile for analytic checks: no noise, 1 OST,
  // negligible latencies.
  SystemProfile p;
  p.name = "flat";
  p.ranks_per_node = 4;
  p.ost_count = 1;
  p.ost_bandwidth_bps = 1e9;
  p.ost_stream_latency_s = 0.0;
  p.ost_small_service_s = 1e-3;
  p.slice_bytes = 1 * MiB;
  p.mds_slots = 1;
  p.mds_create_service_s = 1e-3;
  p.mds_meta_service_s = 0.5e-3;
  p.link_bandwidth_bps = 1e12;
  p.link_latency_s = 0.0;
  p.sync_write_threshold = 64 * KiB;
  p.small_write_meta_s = 1.5e-3;
  p.small_write_data_s = 0.5e-3;
  p.ost_sync_extra_s = 0.0;
  p.client_stream_bandwidth_bps = 1e12;  // isolate server-side effects
  p.syscall_overhead_s = 0.0;
  p.noise_amplitude = 0.0;
  return p;
}

TEST(Replay, SingleLargeWriteIsBandwidthBound) {
  SharedFs fs(1);
  FsClient client(fs, 0);
  const int fd = client.open("f", OpenMode::create);
  std::vector<std::uint8_t> big(8 * MiB);
  client.write(fd, big);
  client.close(fd);

  auto report = replay_trace(flat_profile(), fs.store(), fs.trace(), 1);
  EXPECT_EQ(report.bytes_written, 8 * MiB);
  // 8 MiB at 1e9 B/s ≈ 8.39 ms plus create+close metadata.
  EXPECT_NEAR(report.clients[0].write, 8.39e-3, 0.5e-3);
  EXPECT_NEAR(report.clients[0].meta, 1.5e-3, 1e-6);
  EXPECT_GT(report.write_throughput_bps(), 0.5e9);
}

TEST(Replay, SmallSyncRecordsPayPerRecordRtt) {
  SharedFs fs(1);
  FsClient client(fs, 0);
  const int fd = client.open("f", OpenMode::create);
  std::vector<std::uint8_t> rec(2 * KiB);
  for (int i = 0; i < 100; ++i) client.write(fd, rec);
  client.close(fd);

  auto report = replay_trace(flat_profile(), fs.store(), fs.trace(), 1);
  // 100 records x 0.5 ms in-call data handling; the 1.5 ms/record lock
  // round trip lands in metadata time (write-back model).
  EXPECT_NEAR(report.clients[0].write, 0.05, 0.005);
  EXPECT_GT(report.clients[0].meta, 0.15);
  // The async OST drain extends the makespan beyond the client's own time.
  EXPECT_GE(report.makespan, 0.1);
}

TEST(Replay, MetadataStormQueuesAtMds) {
  // 64 clients each create 4 files: 256 creates + 256 closes through a
  // single-slot MDS => serialized.
  SharedFs fs(4);
  for (ClientId c = 0; c < 64; ++c) {
    FsClient client(fs, c);
    for (int f = 0; f < 4; ++f) {
      const int fd = client.open(
          "out/rank" + std::to_string(c) + "." + std::to_string(f),
          OpenMode::create);
      client.close(fd);
    }
  }
  auto report = replay_trace(flat_profile(), fs.store(), fs.trace(), 64);
  // Total MDS busy time: 256*1ms + 256*0.5ms = 0.384 s; the makespan must
  // be at least that (single slot), and mean meta wait grows with load.
  EXPECT_GE(report.makespan, 0.384 - 1e-9);
  EXPECT_GT(report.mean_meta_time(), 0.0);
}

TEST(Replay, StripingSpreadsLoadAcrossOsts) {
  auto run = [](int stripe_count) {
    SharedFs fs(8);
    FsClient client(fs, 0);
    client.setstripe("d", {stripe_count, 1 * MiB});
    const int fd = client.open("d/f", OpenMode::create);
    std::vector<std::uint8_t> big(32 * MiB);
    client.write(fd, big);
    client.close(fd);
    auto profile = flat_profile();
    profile.ost_count = 8;
    return replay_trace(profile, fs.store(), fs.trace(), 1)
        .clients[0]
        .write;
  };
  const double t1 = run(1);
  const double t8 = run(8);
  // 8-way striping must be much faster than single-OST for one big file.
  EXPECT_LT(t8, t1 / 4.0);
}

TEST(Replay, ConcurrentWritersContendOnOneOst) {
  auto run = [](int nclients) {
    SharedFs fs(1);
    std::vector<std::uint8_t> big(4 * MiB);
    for (ClientId c = 0; c < ClientId(nclients); ++c) {
      FsClient client(fs, c);
      const int fd = client.open("f" + std::to_string(c), OpenMode::create);
      client.write(fd, big);
      client.close(fd);
    }
    return replay_trace(flat_profile(), fs.store(), fs.trace(), nclients)
        .makespan;
  };
  // Twice the writers to the same OST => roughly twice the makespan.
  const double t2 = run(2);
  const double t4 = run(4);
  EXPECT_NEAR(t4 / t2, 2.0, 0.3);
}

TEST(Replay, CpuOpsChargeOnlyTheClient) {
  SharedFs fs(1);
  FsClient a(fs, 0), b(fs, 1);
  a.charge_cpu(1.0, TraceTag::compress);
  b.charge_cpu(0.5, TraceTag::memcopy);
  auto report = replay_trace(flat_profile(), fs.store(), fs.trace(), 2);
  EXPECT_DOUBLE_EQ(report.clients[0].cpu, 1.0);
  EXPECT_DOUBLE_EQ(report.clients[1].cpu, 0.5);
  EXPECT_DOUBLE_EQ(report.cpu_by_tag.at("compress"), 1.0);
  EXPECT_DOUBLE_EQ(report.cpu_by_tag.at("memcopy"), 0.5);
  EXPECT_DOUBLE_EQ(report.makespan, 1.0);
}

TEST(Replay, ValidatesInput) {
  SharedFs fs(1);
  FsClient client(fs, 5);
  client.charge_cpu(0.1, TraceTag::compute);
  EXPECT_THROW(replay_trace(flat_profile(), fs.store(), fs.trace(), 2),
               UsageError);
  EXPECT_THROW(replay_trace(flat_profile(), fs.store(), {}, 0), UsageError);
}

// ------------------------------------------------------- System profiles ---

TEST(Profiles, NamedLookup) {
  EXPECT_EQ(system_profile("dardel").ost_count, 48);
  EXPECT_EQ(system_profile("discoverer").ost_count, 4);
  EXPECT_EQ(system_profile("vega").ost_count, 80);
  EXPECT_THROW(system_profile("frontier"), UsageError);
}

TEST(Profiles, VegaIsNoisyDardelIsNot) {
  EXPECT_GT(system_profile("vega").noise_amplitude, 0.3);
  EXPECT_LT(system_profile("dardel").noise_amplitude, 0.1);
}

// ----------------------------------------------------------- stall faults ---

TEST(StallFaults, CancelStallsReleasesWedgedWritesWithTimeoutError) {
  // An injected stall wedges the write (releasing the fs lock so other
  // clients keep running) until cancel_stalls() aborts it with a typed
  // error — the primitive the bp drain watchdog is built on.
  SharedFs fs(8);
  fs.set_fault_plan(FaultPlan(1, {{FaultKind::stall, "f", 1, 0.0, 1, -1, 0}}));

  std::atomic<bool> timed_out{false};
  std::thread victim([&] {
    FsClient io(fs, 0);
    const int fd = io.open("f", OpenMode::create);
    try {
      io.write(fd, pattern(1024));
    } catch (const TimeoutError&) {
      timed_out = true;
    }
    io.close(fd);
  });

  // Wait for the write to wedge, then prove an unrelated client still makes
  // progress while it hangs.
  while (fs.stalled_op_count() == 0) std::this_thread::yield();
  FsClient other(fs, 1);
  const int fd = other.open("g", OpenMode::create);
  other.write(fd, pattern(64));
  other.close(fd);
  EXPECT_EQ(fs.stalled_op_count(), 1);

  EXPECT_EQ(fs.cancel_stalls(), 1);
  victim.join();
  EXPECT_TRUE(timed_out.load());
  EXPECT_EQ(fs.stalled_op_count(), 0);
  // Nothing further to release.
  EXPECT_EQ(fs.cancel_stalls(), 0);

  // The stall fired within its times bound: a fresh write goes through.
  FsClient io(fs, 0);
  const int fd2 = io.open("f2", OpenMode::create);
  EXPECT_NO_THROW(io.write(fd2, pattern(1024)));
  io.close(fd2);
}

// ------------------------------------------------------------- queue pair ---

namespace {

/// Batch trace records appended by queue-pair submissions.
std::vector<TraceOp> batch_ops(const SharedFs& fs) {
  std::vector<TraceOp> out;
  for (const TraceOp& op : fs.trace())
    if (op.kind == OpKind::batch_write) out.push_back(op);
  return out;
}

}  // namespace

TEST(QueuePair, VectoredBatchPersistsAndTracesOneDoorbell) {
  SharedFs fs(8);
  FsClient io(fs, 0);
  const int fd = io.open("q", OpenMode::create);

  SubmissionQueue sq(io, 4);
  const auto first = pattern(96, 1);
  const auto second = pattern(64, 7);
  Sqe a;
  a.fd = fd;
  a.offset = 0;
  // Vectored: two segments of one sqe land contiguously.
  a.iov.push_back(std::span<const std::uint8_t>(first).first(32));
  a.iov.push_back(std::span<const std::uint8_t>(first).subspan(32));
  a.user_data = 11;
  Sqe b;
  b.fd = fd;
  b.offset = 96;
  b.iov.push_back(std::span<const std::uint8_t>(second));
  b.user_data = 22;
  sq.push(std::move(a));
  sq.push(std::move(b));
  EXPECT_EQ(sq.pending(), 2u);
  const auto cqes = sq.submit();
  EXPECT_EQ(sq.pending(), 0u);
  ASSERT_EQ(cqes.size(), 2u);
  EXPECT_TRUE(cqes[0].ok);
  EXPECT_EQ(cqes[0].user_data, 11u);
  EXPECT_EQ(cqes[0].bytes_persisted, 96u);
  EXPECT_TRUE(cqes[1].ok);
  EXPECT_EQ(cqes[1].user_data, 22u);
  EXPECT_FALSE(cqes[1].short_write());

  // The bytes landed exactly as one pwritev would have put them.
  std::vector<std::uint8_t> back(160);
  EXPECT_EQ(io.pread(fd, 0, back), 160u);
  EXPECT_TRUE(std::equal(first.begin(), first.end(), back.begin()));
  EXPECT_TRUE(std::equal(second.begin(), second.end(), back.begin() + 96));
  io.close(fd);

  // One doorbell-tagged record per submit; one record per sqe without
  // coalescing, so neither record is vectored.
  const auto ops = batch_ops(fs);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].tag, TraceTag::doorbell);
  EXPECT_EQ(ops[0].op_count, 1u);
  EXPECT_EQ(ops[1].tag, TraceTag::none);
  EXPECT_EQ(ops[1].op_count, 1u);
}

TEST(QueuePair, CoalescesAdjacentSqesIntoVectoredRecords) {
  SharedFs fs(8);
  FsClient io(fs, 0);
  const int fd = io.open("q", OpenMode::create);

  SubmissionQueue sq(io, 8, /*coalesce=*/true);
  const auto data = pattern(256, 3);
  for (int i = 0; i < 3; ++i) {
    // Three adjacent 64-byte sqes: one vectored device record.
    Sqe sqe;
    sqe.fd = fd;
    sqe.offset = std::uint64_t(i) * 64;
    sqe.iov.push_back(
        std::span<const std::uint8_t>(data).subspan(std::size_t(i) * 64, 64));
    sq.push(std::move(sqe));
  }
  Sqe gap;  // a hole before it: starts its own record
  gap.fd = fd;
  gap.offset = 512;
  gap.iov.push_back(std::span<const std::uint8_t>(data).first(64));
  sq.push(std::move(gap));
  const auto cqes = sq.submit();
  ASSERT_EQ(cqes.size(), 4u);
  for (const Cqe& cqe : cqes) EXPECT_TRUE(cqe.ok);

  const auto ops = batch_ops(fs);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].op_count, 3u);  // the coalesced run
  EXPECT_EQ(ops[0].bytes, 192u);
  EXPECT_EQ(ops[0].tag, TraceTag::doorbell);
  EXPECT_EQ(ops[1].op_count, 1u);
  EXPECT_EQ(ops[1].offset, 512u);

  // Coalescing changed only the trace shape, never the stored bytes.
  std::vector<std::uint8_t> back(192);
  EXPECT_EQ(io.pread(fd, 0, back), 192u);
  EXPECT_TRUE(std::equal(back.begin(), back.end(), data.begin()));
  io.close(fd);
}

TEST(QueuePair, EioMidBatchFailsOnlyTheAffectedSqe) {
  SharedFs fs(8);
  fs.set_fault_plan(FaultPlan(1, {{FaultKind::eio, "q", 2, 0.0, 1, -1, 0}}));
  FsClient io(fs, 0);
  const int fd = io.open("q", OpenMode::create);

  SubmissionQueue sq(io, 4, /*coalesce=*/true);
  const auto data = pattern(192, 5);
  for (int i = 0; i < 3; ++i) {
    Sqe sqe;
    sqe.fd = fd;
    sqe.offset = std::uint64_t(i) * 64;
    sqe.iov.push_back(
        std::span<const std::uint8_t>(data).subspan(std::size_t(i) * 64, 64));
    sqe.user_data = std::uint64_t(i);
    sq.push(std::move(sqe));
  }
  // No throw: the fault surfaces as a failed Cqe, not an exception.
  const auto cqes = sq.submit();
  ASSERT_EQ(cqes.size(), 3u);
  EXPECT_TRUE(cqes[0].ok);
  EXPECT_FALSE(cqes[1].ok);
  EXPECT_EQ(cqes[1].fault, FaultKind::eio);
  EXPECT_EQ(cqes[1].bytes_persisted, 0u);
  EXPECT_NE(cqes[1].error.find("eio"), std::string::npos);
  EXPECT_TRUE(cqes[2].ok);  // the batch continued past the failure

  // Sqes 0 and 2 persisted; the failed extent holds nothing (file length
  // covers it because sqe 2 wrote past it, so it reads back as zeros).
  std::vector<std::uint8_t> back(192);
  EXPECT_EQ(io.pread(fd, 0, back), 192u);
  EXPECT_TRUE(std::equal(back.begin(), back.begin() + 64, data.begin()));
  EXPECT_TRUE(std::all_of(back.begin() + 64, back.begin() + 128,
                          [](std::uint8_t b) { return b == 0; }));
  EXPECT_TRUE(
      std::equal(back.begin() + 128, back.end(), data.begin() + 128));
  io.close(fd);

  // The faulted record never coalesces, so each injection stays
  // attributable: three separate records, no vectored run.
  const auto ops = batch_ops(fs);
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[1].fault, FaultKind::eio);
  for (const TraceOp& op : ops) EXPECT_EQ(op.op_count, 1u);
}

TEST(QueuePair, TornWriteMidBatchReportsShortCompletion) {
  SharedFs fs(8);
  fs.set_fault_plan(
      FaultPlan(9, {{FaultKind::torn_write, "q", 2, 0.0, 1, -1, 0}}));
  FsClient io(fs, 0);
  const int fd = io.open("q", OpenMode::create);

  SubmissionQueue sq(io, 4);
  const auto data = pattern(192, 9);
  for (int i = 0; i < 3; ++i) {
    Sqe sqe;
    sqe.fd = fd;
    sqe.offset = std::uint64_t(i) * 64;
    sqe.iov.push_back(
        std::span<const std::uint8_t>(data).subspan(std::size_t(i) * 64, 64));
    sq.push(std::move(sqe));
  }
  const auto cqes = sq.submit();
  ASSERT_EQ(cqes.size(), 3u);
  // io_uring res semantics: the torn sqe completes "successfully" with a
  // short byte count — the caller detects the lost tail from the count.
  EXPECT_TRUE(cqes[1].ok);
  EXPECT_TRUE(cqes[1].short_write());
  EXPECT_LT(cqes[1].bytes_persisted, cqes[1].bytes_requested);
  EXPECT_EQ(cqes[1].fault, FaultKind::torn_write);
  EXPECT_FALSE(cqes[0].short_write());
  EXPECT_FALSE(cqes[2].short_write());

  // The persisted prefix matches the source; the lost tail reads back as
  // zeros (sqe 3 extended the file past it).
  const std::size_t persisted = std::size_t(cqes[1].bytes_persisted);
  std::vector<std::uint8_t> back(192);
  EXPECT_EQ(io.pread(fd, 0, back), 192u);
  EXPECT_TRUE(std::equal(back.begin() + 64, back.begin() + 64 + persisted,
                         data.begin() + 64));
  EXPECT_TRUE(std::all_of(back.begin() + 64 + persisted, back.begin() + 128,
                          [](std::uint8_t b) { return b == 0; }));
  io.close(fd);
}

TEST(QueuePair, StallMidBatchIsCancellableAndBatchContinues) {
  // A stall wedges submit() exactly like a wedged posix write; the prior
  // sqes' completions stay valid, cancel_stalls() converts the wedged sqe
  // into a failed Cqe, and the rest of the batch proceeds — so a drain
  // watchdog built on cancel_stalls() never wedges on the batched path.
  SharedFs fs(8);
  fs.set_fault_plan(FaultPlan(3, {{FaultKind::stall, "q", 2, 0.0, 1, -1, 0}}));

  std::vector<Cqe> cqes;
  std::thread victim([&] {
    FsClient io(fs, 0);
    const int fd = io.open("q", OpenMode::create);
    SubmissionQueue sq(io, 4);
    const auto data = pattern(192, 2);
    for (int i = 0; i < 3; ++i) {
      Sqe sqe;
      sqe.fd = fd;
      sqe.offset = std::uint64_t(i) * 64;
      sqe.iov.push_back(std::span<const std::uint8_t>(data).subspan(
          std::size_t(i) * 64, 64));
      sq.push(std::move(sqe));
    }
    cqes = sq.submit();  // blocks on sqe 2 until cancel_stalls()
    io.close(fd);
  });

  // Wait for the batch to wedge mid-flight, prove an unrelated client
  // still makes progress, then cancel.
  while (fs.stalled_op_count() == 0) std::this_thread::yield();
  FsClient other(fs, 1);
  const int fd = other.open("g", OpenMode::create);
  other.write(fd, pattern(64));
  other.close(fd);
  EXPECT_EQ(fs.cancel_stalls(), 1);
  victim.join();

  ASSERT_EQ(cqes.size(), 3u);
  EXPECT_TRUE(cqes[0].ok);
  EXPECT_FALSE(cqes[1].ok);
  EXPECT_EQ(cqes[1].fault, FaultKind::stall);
  EXPECT_TRUE(cqes[2].ok);  // the batch continued after the cancel
  EXPECT_EQ(fs.stalled_op_count(), 0);

  // The queue pair stays usable after the cancelled stall.
  FsClient io(fs, 0);
  const int fd2 = io.open("q2", OpenMode::create);
  SubmissionQueue sq(io, 2);
  Sqe sqe;
  sqe.fd = fd2;
  const auto tail = pattern(64, 4);
  sqe.iov.push_back(std::span<const std::uint8_t>(tail));
  sq.push(std::move(sqe));
  const auto tail_cqes = sq.submit();
  ASSERT_EQ(tail_cqes.size(), 1u);
  EXPECT_TRUE(tail_cqes[0].ok);
  io.close(fd2);
}

TEST(QueuePair, SimulatedSqesGrowTheFileLikeWriteSimulated) {
  SharedFs fs(8);
  FsClient io(fs, 0);
  const int fd = io.open("q", OpenMode::create);
  SubmissionQueue sq(io, 4, /*coalesce=*/true);
  for (int i = 0; i < 3; ++i) {
    Sqe sqe;
    sqe.fd = fd;
    sqe.offset = std::uint64_t(i) * 1024;
    sqe.simulated_bytes = 1024;
    sq.push(std::move(sqe));
  }
  const auto cqes = sq.submit();
  ASSERT_EQ(cqes.size(), 3u);
  for (const Cqe& cqe : cqes) {
    EXPECT_TRUE(cqe.ok);
    EXPECT_EQ(cqe.bytes_persisted, 1024u);
  }
  io.close(fd);
  EXPECT_EQ(io.stat_size("q"), 3072u);
  // Size-only sqes coalesce exactly like payload sqes.
  const auto ops = batch_ops(fs);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].op_count, 3u);
  EXPECT_EQ(ops[0].bytes, 3072u);
}

TEST(QueuePair, RejectsBadUsageBeforeTouchingAnySqe) {
  SharedFs fs(8);
  FsClient io(fs, 0);
  EXPECT_THROW(SubmissionQueue(io, 0), UsageError);  // zero-depth ring

  const int fd = io.open("q", OpenMode::create);
  SubmissionQueue sq(io, 1);
  const auto data = pattern(64, 6);
  Sqe first;
  first.fd = fd;
  first.iov.push_back(std::span<const std::uint8_t>(data));
  sq.push(std::move(first));
  Sqe overflow;
  overflow.fd = fd;
  overflow.iov.push_back(std::span<const std::uint8_t>(data));
  EXPECT_FALSE(sq.try_push(overflow));        // full ring: try_push declines
  EXPECT_THROW(sq.push(std::move(overflow)), UsageError);  // push throws

  // A batch mixing a bad descriptor with a valid sqe fails upfront: no
  // completions generated, nothing persisted.
  SubmissionQueue bad(io, 4);
  Sqe valid;
  valid.fd = fd;
  valid.offset = 0;
  valid.iov.push_back(std::span<const std::uint8_t>(data));
  bad.push(std::move(valid));
  Sqe dangling;
  dangling.fd = 99;
  dangling.iov.push_back(std::span<const std::uint8_t>(data));
  bad.push(std::move(dangling));
  EXPECT_THROW((void)bad.submit(), IoError);
  EXPECT_EQ(io.stat_size("q"), 0u);

  // An sqe cannot be both payload and size-only.
  SubmissionQueue mixed(io, 2);
  Sqe both;
  both.fd = fd;
  both.iov.push_back(std::span<const std::uint8_t>(data));
  both.simulated_bytes = 64;
  mixed.push(std::move(both));
  EXPECT_THROW((void)mixed.submit(), UsageError);
  io.close(fd);
}

}  // namespace
}  // namespace bitio::fsim
