#pragma once
// Shared vocabulary types for the storage simulator.

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace bitio::fsim {

/// Index of a file in its ObjectStore, in creation order.  32 bits keep a
/// TraceOp small; ObjectStore::create_file refuses the file that would
/// reach kNoFile.
using FileId = std::uint32_t;
using ClientId = std::uint32_t;

inline constexpr FileId kNoFile = ~FileId(0);

/// Lustre-style striping parameters.  `lfs setstripe -c <count> -S <size>`.
struct StripeSettings {
  int stripe_count = 1;                    // -c; number of OSTs per file
  std::uint64_t stripe_size = 1 << 20;     // -S; bytes per stripe

  friend bool operator==(const StripeSettings&,
                         const StripeSettings&) = default;
};

/// Resolved layout of one file, as `lfs getstripe` reports it.
struct StripeLayout {
  StripeSettings settings;
  int stripe_offset = 0;           // first OST index (lmm_stripe_offset)
  std::vector<int> ost_indices;    // obdidx list, RAID0 round-robin order
  std::vector<std::uint64_t> object_ids;  // objid per OST object
  std::string pattern = "raid0";
};

/// Kinds of operation in an I/O trace.  `create` implies `open`.
enum class OpKind : std::uint8_t {
  create,   // metadata: allocate file + objects
  open,     // metadata: lookup
  close,    // metadata: size/commit update
  fsync,    // metadata: commit
  stat,     // metadata: attribute read
  unlink,   // metadata: remove
  mkdir,    // metadata: directory create
  rename,   // metadata: atomic namespace swap (manifest commit)
  write,    // data transfer to OSTs
  read,     // data transfer from OSTs
  xfer,     // rank-to-rank gather transfer (shm in-node, NIC across nodes)
  cpu,      // client-local compute charged by upper layers (compress, copy)
  batch_write,  // queue-pair submission: op_count sqes in one ring doorbell
};

/// How the timing replay and Darshan capture bucket an operation: against
/// the metadata server, as a data transfer to/from the OSTs, or as
/// client-local compute.  service_class() is the exhaustive mapping: it,
/// op_name() and the Darshan capture switch have no `default:`, and the
/// build compiles with -Werror=switch, so a new kind without a case fails
/// to compile instead of silently falling into a catch-all bucket.
enum class ServiceClass : std::uint8_t { meta, data, net, cpu };

inline ServiceClass service_class(OpKind kind) {
  switch (kind) {
    case OpKind::create: return ServiceClass::meta;
    case OpKind::open: return ServiceClass::meta;
    case OpKind::close: return ServiceClass::meta;
    case OpKind::fsync: return ServiceClass::meta;
    case OpKind::stat: return ServiceClass::meta;
    case OpKind::unlink: return ServiceClass::meta;
    case OpKind::mkdir: return ServiceClass::meta;
    case OpKind::rename: return ServiceClass::meta;
    case OpKind::write: return ServiceClass::data;
    case OpKind::read: return ServiceClass::data;
    case OpKind::xfer: return ServiceClass::net;
    case OpKind::cpu: return ServiceClass::cpu;
    case OpKind::batch_write: return ServiceClass::data;
  }
  return ServiceClass::meta;
}

inline bool is_meta(OpKind kind) {
  return service_class(kind) == ServiceClass::meta;
}

inline const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::create: return "create";
    case OpKind::open: return "open";
    case OpKind::close: return "close";
    case OpKind::fsync: return "fsync";
    case OpKind::stat: return "stat";
    case OpKind::unlink: return "unlink";
    case OpKind::mkdir: return "mkdir";
    case OpKind::rename: return "rename";
    case OpKind::write: return "write";
    case OpKind::read: return "read";
    case OpKind::xfer: return "xfer";
    case OpKind::cpu: return "cpu";
    case OpKind::batch_write: return "batch_write";
  }
  return "?";
}

/// Kinds of fault the resilience layer can inject at the FsClient boundary
/// (see fsim::FaultPlan).  Tagged on the TraceOp of the affected operation
/// so Darshan capture and timing replay can attribute every injection.
enum class FaultKind : std::uint8_t {
  none = 0,
  torn_write,   // only a prefix of the extent was persisted
  bit_flip,     // one bit inside the persisted extent was flipped
  eio,          // transient I/O error: the call throws, nothing persisted
  enospc,       // transient out-of-space: the call throws, nothing persisted
  rank_crash,   // the rank dies at a configured step (harness-level)
  stall,        // unresponsive OST: the call throws TimeoutError, no bytes
};

inline const char* fault_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::none: return "none";
    case FaultKind::torn_write: return "torn_write";
    case FaultKind::bit_flip: return "bit_flip";
    case FaultKind::eio: return "eio";
    case FaultKind::enospc: return "enospc";
    case FaultKind::rank_crash: return "rank_crash";
    case FaultKind::stall: return "stall";
  }
  return "?";
}

/// The closed set of tags a TraceOp carries.  cpu ops name their modelled
/// cost; OpKind::xfer records name the gather level of the two-level
/// aggregation path (the recording site, bp::Writer via
/// FsClient::transfer, picks it from the topo::Mapper placement; the replay
/// selects the modelled channel from it and Darshan buckets the per-level
/// gather counters by it); the first OpKind::batch_write record of each
/// SubmissionQueue::submit() call carries the ring doorbell (the replay
/// charges SystemProfile::batch_setup_s only there, and Darshan counts it
/// as batches_submitted).  tag_name() is exhaustive under -Werror=switch.
enum class TraceTag : std::uint8_t {
  none,        // untagged: metadata and data ops, non-doorbell batch records
  compress,    // codec cost
  memcopy,     // aggregation-buffer copies
  crc32c,      // checksum cost
  decompress,  // decode cost on restore and read
  backoff,     // retry backoff before a commit is attempted again
  compute,     // a modelled application step (bench/async_overlap)
  fault,       // FsClient::note_fault's zero-second harness fault marker
  shm_gather,  // xfer through the node's shared-memory channel
  net_gather,  // xfer across nodes over the NICs
  doorbell,    // first batch_write record of a submit(); keep it last
};

/// TraceTag values run 0 .. kTraceTagCount - 1.
inline constexpr std::size_t kTraceTagCount =
    std::size_t(TraceTag::doorbell) + 1;

inline const char* tag_name(TraceTag tag) {
  switch (tag) {
    case TraceTag::none: return "none";
    case TraceTag::compress: return "compress";
    case TraceTag::memcopy: return "memcopy";
    case TraceTag::crc32c: return "crc32c";
    case TraceTag::decompress: return "decompress";
    case TraceTag::backoff: return "backoff";
    case TraceTag::compute: return "compute";
    case TraceTag::fault: return "fault";
    case TraceTag::shm_gather: return "shm_gather";
    case TraceTag::net_gather: return "net_gather";
    case TraceTag::doorbell: return "doorbell";
  }
  return "?";
}

/// One record of a client I/O trace: a trivially copyable 48-byte value.
/// Consecutive sequential writes by the same client to the same descriptor
/// are coalesced into a single record with op_count > 1 so huge runs stay
/// tractable; the timing model charges per-op overhead `op_count` times.
struct TraceOp {
  ClientId client = 0;
  FileId file = kNoFile;
  // Logical execution lane within the client.  Lane 0 is the rank's
  // critical path; lanes > 0 are overlapped drain lanes (BP5 AsyncWrite):
  // their ops replay concurrently with lane 0 and are attributed to
  // ClientTimes::drain instead of meta/write/read.
  std::uint32_t lane = 0;
  std::uint32_t op_count = 1;    // number of coalesced calls
  // Remote endpoint of an OpKind::xfer gather transfer — the *sending*
  // rank (the receiver records the op so the fan-in gates its later trace
  // ops); unused by every other kind.  The replay derives the remote node
  // / NIC from it.
  ClientId peer = 0;
  OpKind kind = OpKind::open;
  TraceTag tag = TraceTag::none;
  // Fault injected into this operation, if any.  For torn writes `bytes`
  // is the *persisted* prefix; for eio/enospc/stall the write threw and
  // `bytes` is 0.  Faulted ops are never coalesced.
  FaultKind fault = FaultKind::none;
  // Spelled out so that a TraceOp has no padding: every byte of a trace is
  // determined, and two traces compare equal with memcmp.
  std::uint8_t pad = 0;
  std::uint64_t offset = 0;      // starting byte offset (write/read)
  std::uint64_t bytes = 0;       // total bytes (write/read/xfer)
  double cpu_seconds = 0.0;      // only for OpKind::cpu
};

static_assert(std::is_trivially_copyable_v<TraceOp> && sizeof(TraceOp) <= 48,
              "TraceOp stays a trivially copyable record of at most 48 bytes");
static_assert(sizeof(TraceOp) == 5 * 4 + 4 * 1 + 3 * 8,
              "TraceOp has no padding bytes");

}  // namespace bitio::fsim
