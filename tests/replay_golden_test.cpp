// Golden replay: one hand-made trace that reaches every branch of
// fsim::replay_trace, replayed under a noisy profile with a multi-slot MDS.
// The whole ReplayReport is pinned bit-exactly (every double as its IEEE
// bit pattern), so a change to how the replay stores or walks the trace
// cannot move a simulated second unnoticed.  The values follow the strict
// (time, sequence) pop order: a std::priority_queue with that comparator
// in place of fsim::EventQueue prints the same report.
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "fsim/posix_fs.hpp"
#include "fsim/storage_model.hpp"
#include "util/units.hpp"

namespace bitio::fsim {
namespace {

/// The tag FsClient::charge_cpu takes, looked up by its name, so this file
/// does not depend on how a TraceOp stores its tag.
template <class Op = TraceOp>
auto cpu_tag(std::string_view name) {
  using Tag = decltype(Op::tag);
  if constexpr (std::is_enum_v<Tag>) {
    for (unsigned v = 0; v <= 0xff; ++v)
      if (name == tag_name(Tag(v))) return Tag(v);
    throw std::invalid_argument("no trace tag named " + std::string(name));
  } else {
    return Tag(name);
  }
}

/// Every constant the replay reads, set here so that a recalibrated
/// default cannot move the golden values.
SystemProfile golden_profile() {
  SystemProfile p;
  p.name = "golden";
  p.ranks_per_node = 4;
  p.ost_count = 6;
  p.ost_bandwidth_bps = 0.5e9;
  p.ost_stream_latency_s = 200e-6;
  p.ost_small_service_s = 100e-6;
  p.ost_sync_extra_s = 80e-6;
  p.slice_bytes = 256 * KiB;
  p.rpc_overhead_s = 3e-6;
  p.stripe_lock_overhead_s = 7e-6;
  p.client_stream_bandwidth_bps = 0.8e9;
  p.mds_slots = 3;
  p.mds_create_service_s = 70e-6;
  p.mds_meta_service_s = 25e-6;
  p.link_bandwidth_bps = 10e9;
  p.link_latency_s = 4e-6;
  p.nics_per_node = 1;
  p.shm_bandwidth_bps = 16e9;
  p.shm_latency_s = 1e-6;
  p.shm_numa_factor = 1.5;
  p.numa_per_node = 2;
  p.sync_write_threshold = 64 * KiB;
  p.small_write_meta_s = 1.2e-3;
  p.small_write_data_s = 0.2e-3;
  p.syscall_overhead_s = 3e-6;
  p.batch_setup_s = 4e-6;
  p.sqe_overhead_s = 200e-9;
  p.cached_read_service_s = 12e-6;
  p.noise_amplitude = 0.25;
  p.noise_seed = 0x60D;
  return p;
}

constexpr int kClients = 8;  // two nodes of four ranks, two NUMA domains each

/// Builds the mixed trace: metadata of every kind, small synchronous and
/// streaming writes, a first and a cached read, shm gathers within and
/// across NUMA domains, a net gather, cpu ops of several tags, a fault
/// marker, a doorbell batch and a drain lane.
void record_golden_trace(SharedFs& fs) {
  FsClient c0(fs, 0), c1(fs, 1), c2(fs, 2), c3(fs, 3);
  FsClient c4(fs, 4), c5(fs, 5), c6(fs, 6), c7(fs, 7);
  FsClient drain5(fs, 5, /*lane=*/1);

  c0.mkdir("g");
  c0.setstripe("g/wide", {4, 64 * KiB});
  const int big = c0.open("g/wide/big", OpenMode::create);
  c0.write_simulated(big, 640 * KiB, 2);  // streams over all four OSTs
  c0.fsync(big);
  c0.close(big);

  const int small = c1.open("g/small.dat", OpenMode::create);
  c1.write_simulated(small, 6000, 3);  // stdio records, op_count >= 2
  c0.charge_cpu(0.002, cpu_tag("compress"));
  c1.write_simulated(small, 900, 1);   // a lone small record
  c1.transfer(small, 0, 48 * KiB, /*intra_node=*/true);  // same NUMA

  const int r2 = c2.open("g/wide/big", OpenMode::read);
  c2.read_simulated(r2, 640 * KiB, 1);  // first reader: the OST path
  c2.close(r2);
  const int r5 = c5.open("g/wide/big", OpenMode::read);
  c5.read_simulated(r5, 640 * KiB, 2);  // later reader: page cache
  c5.close(r5);

  const int gather3 = c3.open("g/gather3", OpenMode::create);
  c3.transfer(gather3, 1, 96 * KiB, /*intra_node=*/true, 2);  // across NUMA
  c3.charge_cpu(0.0005, cpu_tag("backoff"));
  c3.close(gather3);

  const int gather4 = c4.open("g/gather4", OpenMode::create);
  c4.transfer(gather4, 2, 512 * KiB, /*intra_node=*/false);  // node 0 -> 1
  c0.charge_cpu(0.0011, cpu_tag("memcopy"));
  c0.charge_cpu(0.0003, cpu_tag("crc32c"));
  c2.charge_cpu(0.0007, cpu_tag("decompress"));
  {
    SubmissionQueue sq(c4, 4);
    for (int i = 0; i < 3; ++i) {
      Sqe sqe;
      sqe.fd = gather4;
      sqe.offset = std::uint64_t(i) * 40 * KiB;
      sqe.simulated_bytes = 40 * KiB;
      sq.push(std::move(sqe));
    }
    (void)sq.submit();  // one doorbell record, two plain ones
  }
  c4.close(gather4);
  c1.close(small);

  c6.note_fault(FaultKind::rank_crash);
  const int ckpt = c6.open("g/ckpt.dmp", OpenMode::create_or_truncate);
  c6.write_simulated(ckpt, 1 * MiB, 16);
  c6.close(ckpt);
  const int again = c6.open("g/ckpt.dmp", OpenMode::create_or_truncate);
  c6.write_simulated(again, 300 * KiB, 5);
  c6.close(again);

  const int lane0 = c5.open("g/drain.bp", OpenMode::create);
  const int lane1 = drain5.open("g/drain.bp", OpenMode::write);
  drain5.write_simulated(lane1, 384 * KiB, 3);
  drain5.charge_cpu(0.0009, cpu_tag("compress"));
  drain5.pwrite(lane1, 384 * KiB, std::vector<std::uint8_t>(700, 1));
  drain5.close(lane1);
  c5.write_simulated(lane0, 2000, 2);
  c5.close(lane0);

  const int tmp = c7.open("g/manifest.tmp", OpenMode::create);
  c7.write_simulated(tmp, 100, 1);
  c7.close(tmp);
  c7.rename("g/manifest.tmp", "g/manifest");
  (void)c7.stat_size("g/manifest");
  c7.unlink("g/manifest");
}

std::string hex(double x) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64,
                std::bit_cast<std::uint64_t>(x));
  return buf;
}

/// Every field of `r`, one line per record, doubles as bit patterns.
std::string dump(const ReplayReport& r) {
  std::string out;
  out += "makespan " + hex(r.makespan) + "\n";
  out += "bytes w/r/x " + std::to_string(r.bytes_written) + " " +
         std::to_string(r.bytes_read) + " " +
         std::to_string(r.bytes_transferred) + "\n";
  out += "mds_busy " + hex(r.mds_busy_seconds) + "\n";
  for (std::size_t i = 0; i < r.clients.size(); ++i) {
    const ClientTimes& c = r.clients[i];
    out += "client " + std::to_string(i) + " " + hex(c.meta) + " " +
           hex(c.write) + " " + hex(c.read) + " " + hex(c.cpu) + " " +
           hex(c.drain) + " " + hex(c.end) + " " +
           std::to_string(c.meta_ops) + " " + std::to_string(c.write_calls) +
           " " + std::to_string(c.read_calls) + " " +
           std::to_string(c.drain_calls) + "\n";
  }
  for (const auto& [tag, seconds] : r.cpu_by_tag)
    out += "cpu " + tag + " " + hex(seconds) + "\n";
  for (std::size_t i = 0; i < r.op_durations.size(); ++i)
    out += (i % 4 == 0 ? "ops " : " ") + hex(r.op_durations[i]) +
           (i % 4 == 3 || i + 1 == r.op_durations.size() ? "\n" : "");
  out += "osts " + std::to_string(r.ost_busy_seconds.size()) + "\n";
  for (std::size_t i = 0; i < r.ost_busy_seconds.size(); ++i)
    out += "ost " + hex(r.ost_busy_seconds[i]) + " " +
           hex(r.ost_busy_until[i]) + "\n";
  return out;
}

constexpr const char* kGolden = R"(makespan 3f8298c82e84385a
bytes w/r/x 2536932 1310720 671744
mds_busy 3f509b22b8eb89e7
client 0 3f318579c8a51ae6 3f66ad1384037920 0000000000000000 3f6bda5119ce0760 0000000000000000 3f7a5c09eb7311ee 4 2 0 0
client 1 3f74ce0288722520 3f4a5a7d211cd895 0000000000000000 0000000000000000 0000000000000000 3f7819522c95c032 2 4 0 0
client 2 3f0871aa849bf851 0000000000000000 3f4cd7a71b625c15 3f46f0068db8bac7 0000000000000000 3f5aa76428b26b30 2 0 1 0
client 3 3f20f898ad7c4e07 3ee8d431ba5c27f0 0000000000000000 3f40624dd2f1a9fc 0000000000000000 3f4503c4c53a2e1d 2 0 0 0
client 4 3f26e7e164c0ac3c 3f58f23fd93351cb 0000000000000000 0000000000000000 0000000000000000 3f5bcf3c05cb6753 2 3 0 0
client 5 3f6358b713cbf4b3 3f3a36e2eb1c432d 3f14535a5648f320 0000000000000000 3f6e96b510e2ecb3 3f6e96b510e2ecb3 4 2 2 4
client 6 3f7708b9cd08e570 3f6c51ad1fff168a 0000000000000000 0000000000000000 0000000000000000 3f8298c82e84385a 4 21 0 0
client 7 3f5a9a02f9a65bdd 3f2a36e2eb1c432d 0000000000000000 0000000000000000 0000000000000000 3f5de0df5709e443 5 1 0 0
cpu backoff 3f40624dd2f1a9fc
cpu compress 3f67c1bda5119ce0
cpu crc32c 3f33a92a30553261
cpu decompress 3f46f0068db8bac7
cpu fault 0000000000000000
cpu memcopy 3f5205bc01a36e2f
ops 3f12437553d43f9a 3f221c5b4fa77dce 3f66ad1384037920 3effb5608f886d00
ops 3efeb18c2e3c5480 3f124a10342a6826 3f7240af267e3f67 3f60624dd2f1a9fb
ops 3f55c70ec37a783c 3ed1cd1b004ab400 3ef76d1e88bbc2c2 3f4cd7a71b625c15
ops 3ef97636807c2de0 3f05e08855d8bad3 3f14535a5648f320 3f0fe5224f4ee408
ops 3f1b7167747c7dd6 3ee8d431ba5c27f0 3f40624dd2f1a9fc 3ef9ff2799f078e0
ops 3f232fd9adb4145c 3f1e440245fe22d0 3f5205bc01a36e30 3f33a92a30553260
ops 3f46f0068db8bac6 3f4a82e430a893f9 3f3300ab9ccc2884 3f34318ad5306e04
ops 3efdc03db864bf00 3ef943cda8266e00 0000000000000000 3f2418e2c9270336
ops 3f6420863686418c 3efb92abf6647180 3efabc48e1d1b400 3f7a33d742c892fb
ops 3ef65ff3db4eb400 3f0ced6b04473ebc 3f2096101eb4b114 3f511c134144b3fc
ops 3f4d7dbf487fcb94 3f5ad37a79da31d6 3efb0eafa41dea00 3f65248fd5958069
ops 3ef81ba27a209d00 3f299e07dea44fa2 3f592b33f42a9404 3efc2c1a495d8500
ops 3ef58309f9855900 3ef9e476d5bb0640 3ef4e6feaa13ae80
osts 6
ost 3f50a780e52dd0aa 3f58115eb1864bf1
ost 3f71623954e8936b 3f7192edad9cb820
ost 3f5c22fd87626f08 3f61d8b1d2ee7a59
ost 3f4676db733cc785 3f48ad8d96c823da
ost 3f423b2ba5efb3d7 3f72dca451522a92
ost 0000000000000000 0000000000000000
)";

TEST(ReplayGolden, MixedTraceReplaysBitExactly) {
  SharedFs fs(golden_profile().ost_count, /*store_data=*/false);
  record_golden_trace(fs);
  const ReplayReport report =
      replay_trace(golden_profile(), fs.store(), fs.trace(), kClients);
  EXPECT_EQ(dump(report), kGolden);
}

}  // namespace
}  // namespace bitio::fsim
