#pragma once
// The rule the fsim trace keeps: it records I/O and modelled CPU only.
// fsim::TraceTag is a closed enum, so no call site can invent a tag; what
// this header pins is that every cpu op src/ charges through
// FsClient::charge_cpu carries one of the modelled-cost tags below, each
// priced by a cost model (codec speed, memcopy or CRC bandwidth, retry
// backoff) and never by the host clock.  `compute` is bench/async_overlap's
// modelled PIC step and no src/ path charges it.  Checkpoint and recovery
// events are counted in resil::ResilienceStats instead.

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "fsim/posix_fs.hpp"

namespace bitio::testkit {

inline constexpr std::array<fsim::TraceTag, 5> kModelledCpuTags = {
    fsim::TraceTag::compress, fsim::TraceTag::memcopy, fsim::TraceTag::crc32c,
    fsim::TraceTag::decompress, fsim::TraceTag::backoff};

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
      out.push_back(fsim::tag_name(op.tag));
  }
  return out;
}

}  // namespace bitio::testkit
