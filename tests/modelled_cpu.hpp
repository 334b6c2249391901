#pragma once
// The rule the fsim trace keeps: it records I/O and modelled CPU only.
// Every cpu op src/ charges through FsClient::charge_cpu carries one of the
// tags below, each priced by a cost model (codec speed, memcopy or CRC
// bandwidth, retry backoff) and never by the host clock.  Checkpoint and
// recovery events are counted in resil::ResilienceStats instead.

#include <algorithm>
#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "fsim/posix_fs.hpp"

namespace bitio::testkit {

inline constexpr std::array<std::string_view, 5> kModelledCpuTags = {
    "compress", "memcopy", "crc32c", "decompress", "backoff"};

/// Tags of the cpu ops in `fs`'s trace that are not modelled cost.  A
/// harness fault marker (FsClient::note_fault: zero seconds, carrying its
/// FaultKind for Darshan's faults_injected) cannot move the clock and is
/// not reported.
inline std::vector<std::string> unmodelled_cpu_tags(const fsim::SharedFs& fs) {
  std::vector<std::string> out;
  for (const fsim::TraceOp& op : fs.trace()) {
    if (op.kind != fsim::OpKind::cpu) continue;
    if (op.fault != fsim::FaultKind::none && op.cpu_seconds == 0.0) continue;
    if (std::find(kModelledCpuTags.begin(), kModelledCpuTags.end(), op.tag) ==
        kModelledCpuTags.end())
      out.push_back(op.tag);
  }
  return out;
}

}  // namespace bitio::testkit
