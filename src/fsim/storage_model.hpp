#pragma once
// Queueing-model replay of an I/O trace: the *timing* half of the storage
// simulator.
//
// Model (per system profile):
//   * MDS: one FIFO resource with a few service slots; every metadata op
//     (create/open/close/stat/unlink/mkdir/fsync) queues here.  At 25600
//     ranks creating 51k files per dump this queue is what reproduces the
//     paper's 17.9 s/process metadata cost for the original I/O (Fig 5).
//   * OSTs: one FIFO resource each.  Large sequential writes are sliced
//     (slice_bytes) and streamed through the client's node link and then
//     the stripe-mapped OST (service = latency + bytes/bandwidth).  Small
//     synchronous records (record size < sync_write_threshold — the stdio
//     pattern of BIT1's original .dat output) instead pay a per-record
//     client round-trip AND occupy the OST for an IOPS-limited service
//     time; this is what keeps original-I/O throughput at ~0.1-0.4 GiB/s.
//   * Node links: one FIFO per node, shared by its ranks_per_node clients.
//   * CPU ops (compression, memcopy) advance only the issuing client.
//
// Absolute constants are calibrated per system (system_profiles.cpp) to the
// paper's anchor numbers; the *shapes* (who wins, where the crossovers are)
// come from the queueing structure itself.

#include <map>
#include <string>
#include <vector>

#include "fsim/object_store.hpp"
#include "fsim/types.hpp"

namespace bitio::fsim {

/// Calibrated constants for one HPC system's storage stack.
struct SystemProfile {
  std::string name = "generic";
  int ranks_per_node = 128;

  // Object storage targets.
  int ost_count = 48;
  double ost_bandwidth_bps = 0.6e9;     // streaming bandwidth per OST
  // Per-slice completion latency.  Queued requests pipeline: latency adds
  // to each request's completion but does not occupy the server, so deep
  // queues reach full bandwidth while a lone stream sees lat + transfer.
  double ost_stream_latency_s = 250e-6;
  double ost_small_service_s = 110e-6;  // per small buffered RPC (IOPS cap)
  // Extra per-record service when small records arrive as a synchronous
  // stream (stdio, op_count >= 2): no write-back batching on the server.
  double ost_sync_extra_s = 110e-6;
  // Transfer slicing granularity: the RPC size is the file's stripe size
  // clamped to [64 KiB, slice_bytes] (Lustre clients cannot batch dirty
  // pages across stripe boundaries, so small stripes force small RPCs —
  // the stripe-size sensitivity of Fig 9).
  std::uint64_t slice_bytes = 1 << 20;
  // Client-side cost per streaming RPC issued (marshalling + request
  // bookkeeping); more, smaller slices cost more caller time.
  double rpc_overhead_s = 0.0;
  // Extent-lock acquisition per distinct OST a write touches: wider
  // striping costs slightly more caller time per operation (Fig 9's
  // diminishing returns at high stripe counts).
  double stripe_lock_overhead_s = 0.0;
  // One client's maximum streaming rate (RPC pipeline depth limit); this is
  // what bounds a single-aggregator configuration to ~0.6 GiB/s (Fig 6).
  double client_stream_bandwidth_bps = 0.6e9;

  // Metadata server.
  int mds_slots = 4;
  double mds_create_service_s = 60e-6;
  double mds_meta_service_s = 30e-6;

  // Per-node interconnect links.  Traffic from a node's clients spreads
  // over nics_per_node independent link FIFOs (client % nics_per_node
  // picks the NIC), so nics_per_node = 1 reproduces the historical
  // one-link-per-node model exactly.
  double link_bandwidth_bps = 12.5e9;
  double link_latency_s = 5e-6;
  int nics_per_node = 1;

  // Intra-node shared-memory channel, used by OpKind::xfer gathers tagged
  // TraceTag::shm_gather (rank -> node-leader hop of two-level
  // aggregation).  One FIFO per node: concurrent in-node gathers contend
  // for the memory bus.
  double shm_bandwidth_bps = 20e9;
  double shm_latency_s = 0.5e-6;
  // Service multiplier when an in-node transfer crosses NUMA domains
  // (numa_per_node domains of ranks_per_node / numa_per_node ranks each).
  double shm_numa_factor = 1.0;
  int numa_per_node = 1;

  // Client-side costs.
  std::uint64_t sync_write_threshold = 64 * 1024;  // record size boundary
  // Per-record costs of line-buffered stdio appends (record < threshold,
  // multiple records per call sequence).  The lock/ack round trip is
  // metadata time, the in-call data handling is write time; the payload
  // drains to the OST asynchronously (write-back caching), so OST service
  // extends the job makespan but not the caller's syscall time.
  double small_write_meta_s = 1.8e-3;
  double small_write_data_s = 0.1e-3;
  double syscall_overhead_s = 2e-6;   // per call, streaming path
  // Queue-pair (io_uring-style) batched submission, OpKind::batch_write:
  // one ring doorbell per submit() pays batch_setup_s once, and each sqe
  // in the batch costs only sqe_overhead_s — no per-call syscall and never
  // the small-record synchronous round trip (the ring replaces the
  // per-record lock/ack pattern that dominates stdio-sized appends).
  double batch_setup_s = 3e-6;
  double sqe_overhead_s = 150e-9;
  double client_mem_bandwidth_bps = 8e9;  // for memcopy modelling
  // Re-reads of an already-read file hit the client/OST page cache: only
  // this service time is charged instead of the full OST path.
  double cached_read_service_s = 10e-6;

  // System noise (Vega's "inconsistent performance").
  double noise_amplitude = 0.0;
  std::uint64_t noise_seed = 1;

  // Default striping for files created without an explicit setting.
  StripeSettings default_stripe{1, 1 << 20};
};

/// Per-client time breakdown from a replay.
///
/// Ops on drain lanes (TraceOp::lane > 0) replay concurrently with the
/// client's lane-0 program: their time lands in `drain`, never in
/// meta/write/read/cpu, so the latter four remain the rank's critical
/// path while `drain` is the overlapped background cost (BP5 AsyncWrite).
struct ClientTimes {
  double meta = 0.0;   // waiting on MDS
  double write = 0.0;  // write ops incl. queueing
  double read = 0.0;
  double cpu = 0.0;    // charged compute (compression, copies)
  double drain = 0.0;  // overlapped drain-lane time (lane > 0 ops)
  double end = 0.0;    // completion time of the client's last op (any lane)
  std::uint64_t meta_ops = 0;
  std::uint64_t write_calls = 0;  // coalesced call count, lane 0
  std::uint64_t read_calls = 0;
  std::uint64_t drain_calls = 0;  // coalesced call count, lanes > 0
};

struct ReplayReport {
  std::vector<ClientTimes> clients;
  double makespan = 0.0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  /// Bytes moved rank-to-rank by OpKind::xfer gathers (two-level
  /// aggregation).  Not part of bytes_written: the same payload still
  /// lands on the OSTs through the aggregator's write.
  std::uint64_t bytes_transferred = 0;
  /// Aggregate CPU seconds by tag_name() ("compress", "memcopy", ...): one
  /// key for every tag a cpu op in the trace carried, zero-second ones too.
  std::map<std::string, double> cpu_by_tag;
  /// Simulated duration of each trace op, indexed like the input trace
  /// (used by the darshan module to attribute time per file).
  std::vector<double> op_durations;
  /// Resource utilization: total service seconds per OST, and the MDS.
  std::vector<double> ost_busy_seconds;
  std::vector<double> ost_busy_until;
  double mds_busy_seconds = 0.0;

  double write_throughput_bps() const {
    return makespan > 0 ? double(bytes_written) / makespan : 0.0;
  }
  double mean_meta_time() const;
  double mean_write_time() const;
  double mean_read_time() const;
  double mean_cpu_time() const;
  double mean_drain_time() const;
};

/// Replay `trace` against the queueing model.  `store` supplies file
/// layouts (stripe -> OST mapping); `nclients` sizes the client table (ids
/// in the trace must be < nclients).
ReplayReport replay_trace(const SystemProfile& profile,
                          const ObjectStore& store,
                          const std::vector<TraceOp>& trace, int nclients);

/// Per-block dispatch/stitch cost of the block-parallel compression
/// pipeline (thread wake-up, block table patch, frame stitch) charged by
/// parallel_cpu_seconds per wave of blocks.
inline constexpr double kParallelBlockOverhead_s = 5e-6;

/// Wall-clock seconds a block-parallel CPU stage occupies the issuing
/// client: `serial_seconds` of work split into `nblocks` equal blocks run
/// on `threads` lanes.  Blocks execute in ceil(nblocks/threads) waves, so
///   wall = serial * waves / nblocks + waves * overhead
/// which degrades gracefully: threads=1 or nblocks=1 reproduces the serial
/// charge (plus per-block overhead), and perfect speedup is only reached
/// when threads divides nblocks.  Used by bp::Writer to charge compression
/// CPU time when compress_threads > 1.
double parallel_cpu_seconds(double serial_seconds, int threads,
                            std::uint64_t nblocks,
                            double per_block_overhead_s =
                                kParallelBlockOverhead_s);

}  // namespace bitio::fsim
