#include "fsim/storage_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <utility>

#include "fsim/des.hpp"
#include "util/error.hpp"

namespace bitio::fsim {

namespace {

double mean_over_clients(const std::vector<ClientTimes>& clients,
                         double ClientTimes::* member) {
  if (clients.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& c : clients) sum += c.*member;
  return sum / double(clients.size());
}

/// A file's stripe geometry, resolved from its FileNode on the first data
/// op that touches it, so later ops index two flat tables instead of
/// walking the node's layout.
struct FileLayout {
  std::uint64_t stripe_size = 0;
  std::uint32_t stripe_count = 0;
  std::uint32_t first_ost = 0;  // the file's OST list starts here
  bool resolved = false;
  bool read = false;  // a reader has fetched it: later reads hit the cache
};

/// One FIFO program of the replay: the ops of one (client, lane), in trace
/// order, are `order[begin, end)`.  `next` is a copy of the pending op,
/// `trace[order[begin]]`: a pop reads it from the slot it just touched,
/// and the push that follows copies in the op after it, so the load from
/// the trace overlaps the next pop instead of waiting behind it.
struct Sequence {
  ClientId client = 0;
  std::uint32_t lane = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  TraceOp next;
};

constexpr std::uint32_t kNoSequence = ~std::uint32_t(0);

}  // namespace

double ReplayReport::mean_meta_time() const {
  return mean_over_clients(clients, &ClientTimes::meta);
}
double ReplayReport::mean_write_time() const {
  return mean_over_clients(clients, &ClientTimes::write);
}
double ReplayReport::mean_read_time() const {
  return mean_over_clients(clients, &ClientTimes::read);
}
double ReplayReport::mean_cpu_time() const {
  return mean_over_clients(clients, &ClientTimes::cpu);
}
double ReplayReport::mean_drain_time() const {
  return mean_over_clients(clients, &ClientTimes::drain);
}

ReplayReport replay_trace(const SystemProfile& profile,
                          const ObjectStore& store,
                          const std::vector<TraceOp>& trace, int nclients,
                          OpDurations durations) {
  if (nclients <= 0) throw UsageError("replay_trace: nclients must be > 0");

  // Group op indices into FIFO sequences keyed by (client, lane),
  // numbered in order of first appearance and preserving program order
  // within each sequence.  Lane 0 is the client's critical path; every
  // drain lane is an independent concurrent program of the same client
  // (all lanes start at t = 0 and share the client's node link and the
  // OSTs).  A lane-0 op finds its sequence by client id; the few drain
  // lanes go through a map.  A counting sort then lays every sequence out
  // as one contiguous run of `order`.
  if (trace.size() >= std::size_t(kNoSequence))
    throw UsageError("replay_trace: trace too long");
  std::vector<Sequence> sequences;
  std::vector<std::uint32_t> lane0(std::size_t(nclients), kNoSequence);
  std::map<std::pair<ClientId, std::uint32_t>, std::uint32_t> drain_lanes;
  const auto find_sequence = [&](const TraceOp& op) -> std::uint32_t& {
    return op.lane == 0 ? lane0[op.client]
                        : drain_lanes.try_emplace({op.client, op.lane},
                                                  kNoSequence)
                              .first->second;
  };
  for (const TraceOp& op : trace) {
    if (op.client >= ClientId(nclients))
      throw UsageError("replay_trace: client id out of range");
    std::uint32_t& s = find_sequence(op);
    if (s == kNoSequence) {
      s = std::uint32_t(sequences.size());
      sequences.push_back({op.client, op.lane, 0, 0, {}});
    }
    ++sequences[s].end;  // a count until the layout pass below
  }
  std::uint32_t next_begin = 0;
  for (Sequence& seq : sequences) {
    seq.begin = next_begin;
    next_begin += seq.end;
    seq.end = seq.begin;
  }
  std::vector<std::uint32_t> order(trace.size());
  for (std::uint32_t i = 0; i < trace.size(); ++i)
    order[sequences[find_sequence(trace[i])].end++] = i;
  for (Sequence& seq : sequences) seq.next = trace[order[seq.begin]];

  const int nnodes =
      (nclients + profile.ranks_per_node - 1) / profile.ranks_per_node;

  FifoResource mds(profile.mds_slots);
  std::vector<FifoResource> osts(std::size_t(profile.ost_count),
                                 FifoResource(1));
  // One FIFO per (node, NIC); nics_per_node = 1 keeps the historical
  // one-link-per-node layout (and byte-identical replay timings).
  const int nics = std::max(1, profile.nics_per_node);
  std::vector<FifoResource> links(std::size_t(nnodes) * std::size_t(nics),
                                  FifoResource(1));
  const auto link_of = [&](ClientId client) -> FifoResource& {
    const int node = int(client) / profile.ranks_per_node;
    return links[std::size_t(node) * std::size_t(nics) +
                 std::size_t(int(client) % nics)];
  };
  // Intra-node shared-memory channel, one per node (xfer gathers).
  std::vector<FifoResource> shm(std::size_t(nnodes), FifoResource(1));
  NoiseStream noise(profile.noise_amplitude, profile.noise_seed);

  ReplayReport report;
  report.clients.assign(std::size_t(nclients), ClientTimes{});
  const bool record_durations = durations == OpDurations::record;
  if (record_durations) report.op_durations.assign(trace.size(), 0.0);

  // Sequences pop in strict (time, sequence) order, and the noise stream
  // is drawn in pop order, so that order is part of the model.
  EventQueue queue(std::uint32_t(sequences.size()));

  std::vector<FileLayout> files(store.file_count());
  std::vector<int> file_osts;
  const auto layout_of = [&](FileId id) -> FileLayout& {
    if (id >= files.size() || !files[id].resolved) {
      // file_by_id throws IoError for an id the store never handed out.
      const StripeLayout& layout = store.file_by_id(id).layout;
      FileLayout& file = files[id];
      file.stripe_size = layout.settings.stripe_size;
      file.stripe_count = std::uint32_t(layout.settings.stripe_count);
      file.first_ost = std::uint32_t(file_osts.size());
      file.resolved = true;
      file_osts.insert(file_osts.end(), layout.ost_indices.begin(),
                       layout.ost_indices.end());
    }
    return files[id];
  };
  // The OST serving byte `offset` of a file under RAID0 striping.
  const auto ost_for_offset = [&](const FileLayout& file,
                                  std::uint64_t offset) -> FifoResource& {
    const std::uint64_t stripe_index =
        (offset / file.stripe_size) % std::uint64_t(file.stripe_count);
    return osts[std::size_t(
        file_osts[file.first_ost + std::size_t(stripe_index)])];
  };

  std::array<double, kTraceTagCount> cpu_by_tag{};
  std::array<bool, kTraceTagCount> cpu_tag_seen{};

  while (!queue.empty()) {
    const EventQueue::Event event = queue.pop();
    Sequence& seq = sequences[event.sequence];
    const std::uint32_t op_at = seq.begin++;
    const TraceOp& op = seq.next;
    ClientTimes& times = report.clients[std::size_t(seq.client)];
    // Drain lanes accumulate into `drain` only; the critical-path buckets
    // stay untouched by overlapped work.
    const bool drain_lane = seq.lane > 0;
    const auto charge = [&](double ClientTimes::* member, double dt) {
      if (drain_lane)
        times.drain += dt;
      else
        times.*member += dt;
    };
    const double t0 = event.time;
    double done = t0;

    // Dispatch on the op's service class (exhaustive over ServiceClass —
    // a new OpKind must pick its bucket in fsim/types.hpp first).
    switch (service_class(op.kind)) {
    case ServiceClass::meta: {
      const double service =
          (op.kind == OpKind::create || op.kind == OpKind::mkdir)
              ? profile.mds_create_service_s
              : profile.mds_meta_service_s;
      done = mds.submit(t0, service * noise.next() * double(op.op_count));
      charge(&ClientTimes::meta, done - t0);
      if (!drain_lane) times.meta_ops += op.op_count;
      break;
    }
    case ServiceClass::cpu: {
      if (!(op.cpu_seconds >= 0.0) || !std::isfinite(op.cpu_seconds))
        throw UsageError("replay_trace: cpu seconds must be finite and >= 0");
      done = t0 + op.cpu_seconds;
      charge(&ClientTimes::cpu, op.cpu_seconds);
      cpu_by_tag[std::size_t(op.tag)] += op.cpu_seconds;
      cpu_tag_seen[std::size_t(op.tag)] = true;
      break;
    }
    case ServiceClass::net: {
      // Rank-to-rank gather transfer (topology-modeled aggregation).  The
      // *receiving* rank records the op — seq.client is the gatherer,
      // op.peer the sender — so the fan-in gates the receiver's later
      // ops (its forward hop or container write).  The tag carries the
      // gather level: TraceTag::shm_gather streams through the node's
      // shared-memory channel (with a NUMA penalty when sender and
      // receiver sit in different domains); net_gather is an inter-node
      // hop that occupies the sender's NIC and then the receiver's NIC
      // store-and-forward, so concurrent gathers into one aggregator
      // contend on its link.
      if (op.peer >= ClientId(nclients))
        throw UsageError("replay_trace: xfer peer out of range");
      const int recv_node = int(seq.client) / profile.ranks_per_node;
      if (op.tag == TraceTag::shm_gather) {
        double service = profile.shm_latency_s * double(op.op_count) +
                         double(op.bytes) / profile.shm_bandwidth_bps;
        const int per_numa =
            std::max(1, profile.ranks_per_node /
                            std::max(1, profile.numa_per_node));
        const int recv_numa =
            (int(seq.client) % profile.ranks_per_node) / per_numa;
        const int send_numa =
            (int(op.peer) % profile.ranks_per_node) / per_numa;
        if (recv_numa != send_numa) service *= profile.shm_numa_factor;
        done = shm[std::size_t(recv_node)].submit(t0, service * noise.next());
      } else {
        const double occupancy =
            double(op.bytes) / profile.link_bandwidth_bps;
        FifoResource& snd = link_of(op.peer);
        FifoResource& rcv = link_of(seq.client);
        const double sent = snd.submit(
            t0, (profile.link_latency_s * double(op.op_count) + occupancy) *
                    noise.next());
        done = (&rcv == &snd) ? sent : rcv.submit(sent, occupancy);
      }
      charge(&ClientTimes::write, done - t0);
      report.bytes_transferred += op.bytes;
      break;
    }
    case ServiceClass::data: {
      FileLayout& file = layout_of(op.file);
      FifoResource& link = link_of(seq.client);
      const std::uint64_t record =
          op.op_count > 0 ? op.bytes / op.op_count : op.bytes;
      const bool is_batch = op.kind == OpKind::batch_write;
      const bool is_write = op.kind == OpKind::write || is_batch;

      if (op.kind == OpKind::write && record < profile.sync_write_threshold) {
        // Small records (stdio lines, tiny buffered appends): per-record
        // lock/ack round trips charge the caller (meta + data split), while
        // the payload drains through write-back caching — the OST service
        // extends the job makespan but not the caller's syscall time.  All
        // records of this coalesced op hit the stripe object holding the
        // starting offset.
        const double meta_serial = double(op.op_count) *
                                   profile.small_write_meta_s * noise.next();
        const double data_serial =
            double(op.op_count) * profile.small_write_data_s;
        FifoResource& ost = ost_for_offset(file, op.offset);
        const double per_record =
            profile.ost_small_service_s +
            (op.op_count >= 2 ? profile.ost_sync_extra_s : 0.0);
        const double service =
            double(op.op_count) * per_record * noise.next() +
            double(op.bytes) / profile.ost_bandwidth_bps;
        const double drain_done = ost.submit(t0, service);
        report.makespan = std::max(report.makespan, drain_done);
        done = t0 + meta_serial + data_serial;
        charge(&ClientTimes::meta, meta_serial);
        charge(&ClientTimes::write, data_serial);
        if (drain_lane)
          times.drain_calls += op.op_count;
        else
          times.write_calls += op.op_count;
        report.bytes_written += op.bytes;
        break;
      }
      if (op.kind == OpKind::read && std::exchange(file.read, true)) {
        // Page-cache hit: everyone after the first reader of this file.
        done = link.submit(t0, profile.cached_read_service_s +
                                   double(op.bytes) /
                                       profile.link_bandwidth_bps);
      } else {
        // Streaming path: syscall overhead, then sliced transfers through
        // the node link and the stripe-mapped OSTs.  OST request latency
        // pipelines across queued slices (it delays completion, not server
        // occupancy); one client's pipeline is capped at its streaming
        // bandwidth.  A batch_write reaches here regardless of record size
        // (the ring bypasses the small-record synchronous round trip) and
        // pays one doorbell plus a tiny per-sqe charge instead of
        // per-call syscalls.
        const double setup =
            is_batch ? (op.tag == TraceTag::doorbell ? profile.batch_setup_s
                                                     : 0.0) +
                           double(op.op_count) * profile.sqe_overhead_s
                     : double(op.op_count) * profile.syscall_overhead_s;
        const double t_start = t0 + setup;
        // RPC size: stripe size clamped to [64 KiB, slice_bytes].
        const std::uint64_t slice = std::clamp<std::uint64_t>(
            file.stripe_size, 64 * 1024, profile.slice_bytes);
        const std::uint64_t nslices = (op.bytes + slice - 1) / slice;
        const std::uint64_t osts_touched = std::min<std::uint64_t>(
            std::uint64_t(file.stripe_count), nslices);
        done = t_start + double(nslices) * profile.rpc_overhead_s +
               double(osts_touched) * profile.stripe_lock_overhead_s +
               double(op.bytes) / profile.client_stream_bandwidth_bps;
        std::uint64_t remaining = op.bytes;
        std::uint64_t offset = op.offset;
        while (remaining > 0) {
          const std::uint64_t n = std::min<std::uint64_t>(remaining, slice);
          const double link_done = link.submit(
              t_start, profile.link_latency_s +
                           double(n) / profile.link_bandwidth_bps);
          FifoResource& ost = ost_for_offset(file, offset);
          const double occupancy =
              double(n) / profile.ost_bandwidth_bps * noise.next();
          done = std::max(done, ost.submit(link_done, occupancy) +
                                    profile.ost_stream_latency_s);
          remaining -= n;
          offset += n;
        }
      }

      if (is_write) {
        charge(&ClientTimes::write, done - t0);
        if (drain_lane)
          times.drain_calls += op.op_count;
        else
          times.write_calls += op.op_count;
        report.bytes_written += op.bytes;
      } else {
        charge(&ClientTimes::read, done - t0);
        if (!drain_lane) times.read_calls += op.op_count;
        report.bytes_read += op.bytes;
      }
      break;
    }
    }

    if (record_durations) report.op_durations[order[op_at]] = done - t0;
    times.end = std::max(times.end, done);
    report.makespan = std::max(report.makespan, done);
    // The queue rejects a done earlier than t0 as a UsageError.
    if (seq.begin < seq.end) {
      seq.next = trace[order[seq.begin]];
      queue.push(done, event.sequence);
    }
  }
  for (std::size_t t = 0; t < kTraceTagCount; ++t)
    if (cpu_tag_seen[t])
      report.cpu_by_tag.emplace(tag_name(TraceTag(t)), cpu_by_tag[t]);
  for (const auto& ost : osts) {
    report.ost_busy_seconds.push_back(ost.busy_seconds());
    report.ost_busy_until.push_back(ost.busy_until());
  }
  report.mds_busy_seconds = mds.busy_seconds();
  return report;
}

double parallel_cpu_seconds(double serial_seconds, int threads,
                            std::uint64_t nblocks,
                            double per_block_overhead_s) {
  if (serial_seconds <= 0.0 || nblocks == 0) return 0.0;
  const std::uint64_t lanes = threads < 1 ? 1 : std::uint64_t(threads);
  const std::uint64_t waves = (nblocks + lanes - 1) / lanes;
  return serial_seconds * double(waves) / double(nblocks) +
         double(waves) * per_block_overhead_s;
}

}  // namespace bitio::fsim
