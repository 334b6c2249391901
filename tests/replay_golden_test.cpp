// Golden replay: one hand-made trace that reaches every branch of
// fsim::replay_trace, replayed under a noisy profile with a multi-slot MDS.
// The whole ReplayReport is pinned bit-exactly (every double as its IEEE
// bit pattern), so a change to how the replay stores or walks the trace
// cannot move a simulated second unnoticed.
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

constexpr const char* kGolden = R"(makespan 3f82aaa43f18ce8a
bytes w/r/x 2536932 1310720 671744
mds_busy 3f509636baded377
client 0 3f3119b2f4b29f95 3f678a621c2e436f 0000000000000000 3f6bda5119ce0760 0000000000000000 3f7ac3f4ca494f61 4 2 0 0
client 1 3f751a1a5f031d84 3f4a5a7d211cd895 0000000000000000 0000000000000000 0000000000000000 3f78656a0326b896 2 4 0 0
client 2 3f09cb6ff7ca1830 0000000000000000 3f4cd7a71b625c15 3f46f0068db8bac7 0000000000000000 3f5ab232544bdc30 2 0 1 0
client 3 3f2895365c6f4392 3eeb57b23359ce00 0000000000000000 3f40624dd2f1a9fc 0000000000000000 3f46f4fa32dae219 2 0 0 0
client 4 3f19fcad1ec3b646 3f59cdd1a283bf03 0000000000000000 0000000000000000 0000000000000000 3f5b6d9c746ffa67 2 3 0 0
client 5 3f6938802652c64f 3f3a36e2eb1c432d 3f331c242e476306 0000000000000000 3f6f65b16a5563e1 3f6f65b16a5563e1 4 2 2 4
client 6 3f76eb8f32fe61fa 3f6cd37296667634 0000000000000000 0000000000000000 0000000000000000 3f82aaa43f18ce8a 4 21 0 0
client 7 3f54187fa6677a19 3f2a36e2eb1c432d 0000000000000000 0000000000000000 0000000000000000 3f575f5c03cb027f 5 1 0 0
cpu backoff 3f40624dd2f1a9fc
cpu compress 3f67c1bda5119ce0
cpu crc32c 3f33a92a30553261
cpu decompress 3f46f0068db8bac7
cpu fault 0000000000000000
cpu memcopy 3f5205bc01a36e2f
ops 3f12437553d43f9a 3f22178ade45fe1d 3f678a621c2e436f 3ef81ba27a209d00
ops 3effb5608f886d00 3f232fd9adb4145c 3f723c70707240ca 3f60624dd2f1a9fc
ops 3f55c70ec37a7838 3ed1cd1b004ab400 3efa20a96f180280 3f4cd7a71b625c15
ops 3ef97636807c2de0 3f2350ebec4d0689 3f331c242e476306 3ef775f6eac5ea30
ops 3f25555169313476 3eeb57b23359ce00 3f40624dd2f1a9fc 3ef9ff2799f078e0
ops 3f14c2ed743ecaa6 3f2526c182955121 3f5205bc01a36e30 3f33a92a30553260
ops 3f46f0068db8bac8 3f4bca611c16f9cb 3f3300ab9ccc2884 3f320e77f3ca3760
ops 3ef4e6feaa13ae80 3ef943cda8266e00 0000000000000000 3f20738f87d69460
ops 3f64a24baceda136 3efb92abf6647180 3efabc48e1d1b400 3f7a33d742c892fc
ops 3ef65ff3db4eb400 3f10acc9a361d66c 3f26698d96d2ccfc 3f51ff9c4525dedc
ops 3f4d7dbf487fcb90 3f5ad37a79da31d6 3efb0eafa41dea00 3f6a589871a46b1c
ops 3efeb18c2e3c5480 3f1065fbc61d0854 3f5489efdb62d312 3efff24c2a1a6fc0
ops 3efdc03db864bf00 3efc2c1a495d8500 3ef9e476d5bb0640
osts 6
ost 3f505e7824723701 3f57d3241c642347
ost 3f71ce06928c9056 3f72016e7627114a
ost 3f5a1782004b33e7 3f62a7ae2c60f187
ost 3f44d69cbc874c53 3f4722eb37458aa5
ost 3f4428b568b44bfc 3f7328bc27e322f7
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
