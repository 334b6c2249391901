#include "bp/writer.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <numeric>

#include "util/binio.hpp"
#include "util/error.hpp"

namespace bitio::bp {

namespace {

/// The no-operator marshalling copy lands in a recycled pool buffer that is
/// already resident and write-warmed from earlier steps, so it runs at
/// roughly twice the cold-buffer bandwidth the seed model charged (no page
/// faults, no allocator traffic).  memcopy_us stays nonzero — the copy is
/// real — but drops accordingly in profiling.json / Darshan accounting.
constexpr double kWarmCopyFactor = 2.0;

/// Zero-copy marshal (put_borrowed, no operator): the one remaining copy
/// reads the caller's SoA arrays exactly once — no staged intermediate, a
/// single pass through the SIMD block marshal with streaming stores into
/// the warm aggregation buffer — so the staging write+read round trip of
/// the put() path is gone and the charge runs at about twice the warm
/// staged-copy bandwidth.  Fig 8's "warm-copy factor" for these chunks.
constexpr double kZeroCopyFactor = 4.0;

/// Reserve for a fresh per-aggregator aggregation buffer; after the first
/// step the buffer comes back from the pool with its grown capacity.
constexpr std::size_t kAggInitialReserve = 64 * 1024;

/// Submit everything pushed into `sq` and surface any failed completion as
/// the IoError a per-op pwrite would have thrown, so the drain retry and
/// watchdog machinery behave identically on both paths.  Torn writes are
/// reported short in their cqe but not failed — matching posix pwrite's
/// silent-torn semantics, which keeps batched and per-op containers in
/// byte agreement under the same fault plan.
void submit_checked(fsim::SubmissionQueue& sq) {
  for (const fsim::Cqe& cqe : sq.submit())
    if (!cqe.ok) throw IoError(cqe.error);
}

/// Push onto the ring, draining it first when full (extra doorbells beyond
/// one per lane only appear when a step outgrows io_batch_depth).
void ring_push(fsim::SubmissionQueue& sq, fsim::Sqe sqe) {
  if (sq.pending() == sq.depth()) submit_checked(sq);
  sq.push(std::move(sqe));
}

}  // namespace

topo::Mapper Writer::build_mapper(const EngineConfig& config, int nranks) {
  if (nranks <= 0 || config.ranks_per_node <= 0)
    return topo::Mapper(topo::Cluster::flat(), 1);
  topo::Cluster cluster = topo::Cluster::preset(config.topology);
  // The engine's ranks_per_node knob stays the single source of the node
  // size; a hierarchical preset contributes the NUMA/NIC shape (which the
  // explicit overrides may in turn replace).
  if (cluster.multi_node()) {
    cluster.ranks_per_node = config.ranks_per_node;
    // A preset describes a fully-populated node; when ranks_per_node
    // undersubscribes it, scale the NUMA-domain count to the occupied
    // slots so the shape stays coherent (an explicit numa_per_node below
    // is still validated strictly).
    cluster.numa_per_node =
        std::gcd(cluster.numa_per_node, cluster.ranks_per_node);
  }
  if (config.numa_per_node > 0) cluster.numa_per_node = config.numa_per_node;
  if (config.nics_per_node > 0) cluster.nics_per_node = config.nics_per_node;
  cluster.validate();
  return topo::Mapper(cluster, nranks);
}

Writer::Writer(fsim::SharedFs& fs, std::string path, EngineConfig config,
               int nranks)
    : fs_(fs), path_(std::move(path)), config_(config), nranks_(nranks),
      mapper_(build_mapper(config_, nranks_)) {
  if (nranks_ <= 0) throw UsageError("bp::Writer: nranks must be positive");
  if (config_.engine == EngineType::stream)
    throw UsageError(
        "bp::Writer: the stream engine has no file container — construct it "
        "via bp::make_engine(\"stream\", ...)");
  config_.validate();

  const int nnodes =
      (nranks_ + config_.ranks_per_node - 1) / config_.ranks_per_node;
  num_aggregators_ =
      config_.num_aggregators > 0 ? config_.num_aggregators : nnodes;
  num_aggregators_ = std::min(num_aggregators_, nranks_);

  codec_ = make_operator(config_, buffer_pool_);

  pending_.resize(std::size_t(nranks_));

  // Create the container: every aggregator leader creates its subfile, rank
  // 0 creates the metadata files.  (This is the file population Table II
  // counts: M data files + md.0 + md.idx [+ profiling.json, mmd.0].)
  for (int a = 0; a < num_aggregators_; ++a) {
    fsim::FsClient client(fs_, fsim::ClientId(leader_of(a)));
    data_fds_.push_back(client.open(path_ + "/data." + std::to_string(a),
                                    fsim::OpenMode::create));
    data_offsets_.push_back(0);
  }
  fsim::FsClient root(fs_, 0);
  md_fd_ = root.open(path_ + "/md.0", fsim::OpenMode::create);
  idx_fd_ = root.open(path_ + "/md.idx", fsim::OpenMode::create);
  // Reserve the md.idx header (magic + count, patched at close).
  BinWriter header;
  put_index_header(header, 0);
  root.pwrite(idx_fd_, 0, header.buffer());

  if (config_.async_write) {
    drain_thread_ = std::thread([this] { drain_loop(); });
    if (config_.drain_timeout_ms > 0)
      watchdog_thread_ = std::thread([this] { watchdog_loop(); });
  }
}

Writer::~Writer() {
  bool need_close;
  {
    util::MutexLock lock(mutex_);
    need_close = !closed_;
  }
  if (need_close) {
    try {
      close();
    } catch (...) {
      // Destructors must not throw; an incomplete container is detectable
      // by the reader via the md.idx count.
    }
  }
  stop_drain_thread();
  stop_watchdog_thread();
}

int Writer::leader_of(int aggregator) const {
  return int(std::int64_t(aggregator) * nranks_ / num_aggregators_);
}

int Writer::aggregator_of(int rank) const {
  if (rank < 0 || rank >= nranks_)
    throw UsageError("bp::Writer: rank out of range");
  return int(std::int64_t(rank) * num_aggregators_ / nranks_);
}

void Writer::begin_step(std::uint64_t step) {
  util::MutexLock lock(mutex_);
  if (closed_) throw UsageError("bp::Writer: engine is closed");
  if (step_open_) throw UsageError("bp::Writer: step already open");
  if (config_.async_write) {
    // Backpressure: with a bound of K, step N+K may not open until step
    // N's drain has landed.
    util::MutexLock dlock(drain_mutex_);
    while (!drain_error_ && inflight_ >= config_.max_inflight_steps)
      drain_done_cv_.wait(dlock);
    if (drain_error_) std::rethrow_exception(drain_error_);
  }
  step_open_ = true;
  current_step_ = step;
  attributes_.clear();
  step_vars_.clear();
  last_var_ = 0;
  step_kind_ = 0;
}

std::uint32_t Writer::validate_put(int rank, const std::string& name,
                                   Datatype dtype, const Dims& shape,
                                   const Dims& offset, const Dims& count,
                                   int kind) {
  check_put(step_open_, rank, nranks_, name, shape, offset, count);
  const std::size_t nvars = step_vars_.size();
  std::size_t slot = nvars;
  for (std::size_t i = 0; i < nvars; ++i) {
    const std::size_t at = (last_var_ + i) % nvars;
    if (step_vars_[at].name == name) {
      slot = at;
      break;
    }
  }
  // Shape/dtype agreement with earlier puts of the same variable this step.
  if (slot < nvars && (step_vars_[slot].dtype != dtype ||
                       step_vars_[slot].shape != shape))
    throw UsageError("bp::put: inconsistent shape/dtype for '" + name + "'");
  if (step_kind_ != 0 && step_kind_ != kind)
    throw UsageError("bp::put: cannot mix real and synthetic puts");
  step_kind_ = kind;
  if (slot == nvars) step_vars_.push_back({name, dtype, shape});
  ++step_vars_[slot].puts;
  last_var_ = slot;
  return std::uint32_t(slot);
}

void Writer::put(int rank, const std::string& name, const Dims& shape,
                 const ChunkView& view) {
  util::MutexLock lock(mutex_);
  PendingChunk chunk;
  chunk.var = validate_put(rank, name, view.dtype(), shape, view.offset(),
                           view.count(), /*kind=*/1);
  chunk.offset = view.offset();
  chunk.count = view.count();
  // Stage the payload in a recycled pool buffer: steady-state puts do no
  // heap allocation (the buffer returns to the pool with its step job).
  chunk.data = buffer_pool_.acquire(view.bytes().size());
  if (!view.bytes().empty())
    std::memcpy(chunk.data->data(), view.bytes().data(), view.bytes().size());
  ++stage_copies_total_;
  pending_[std::size_t(rank)].push_back(std::move(chunk));
}

void Writer::put_borrowed(int rank, const std::string& name,
                          const Dims& shape, const ChunkView& view) {
  util::MutexLock lock(mutex_);
  PendingChunk chunk;
  chunk.var = validate_put(rank, name, view.dtype(), shape, view.offset(),
                           view.count(), /*kind=*/1);
  chunk.offset = view.offset();
  chunk.count = view.count();
  // No staging: the drain marshals straight from the caller's bytes (which
  // the deferred-Put contract keeps valid until the step lands).
  chunk.borrowed = view.bytes();
  pending_[std::size_t(rank)].push_back(std::move(chunk));
}

void Writer::put_synthetic(int rank, const std::string& name, Datatype dtype,
                           const Dims& shape, const Dims& offset,
                           const Dims& count) {
  util::MutexLock lock(mutex_);
  PendingChunk chunk;
  chunk.var =
      validate_put(rank, name, dtype, shape, offset, count, /*kind=*/2);
  chunk.offset = offset;
  chunk.count = count;
  chunk.synthetic = true;
  pending_[std::size_t(rank)].push_back(std::move(chunk));
}

void Writer::add_attribute(const std::string& name, AttrValue value) {
  util::MutexLock lock(mutex_);
  if (!step_open_)
    throw UsageError("bp::Writer: attribute outside a step");
  attributes_.emplace_back(name, std::move(value));
}

void Writer::end_step() {
  StepJob job;
  {
    util::MutexLock lock(mutex_);
    if (!step_open_) throw UsageError("bp::Writer: no open step");
    step_open_ = false;
    job.step = current_step_;
    job.kind = step_kind_;
    job.attributes = std::move(attributes_);
    attributes_.clear();
    job.vars = std::move(step_vars_);
    step_vars_.clear();
    job.chunks = std::move(pending_);
    pending_ = decltype(pending_)(std::size_t(nranks_));
    ++steps_written_;
  }
  if (!config_.async_write) {
    drain_step(job);
    // Hand the drained per-rank tables back emptied, so the next step's
    // puts refill them without growing.  No put can land in between: the
    // step is closed.
    for (auto& chunks : job.chunks) chunks.clear();
    util::MutexLock lock(mutex_);
    pending_ = std::move(job.chunks);
    return;
  }
  {
    util::MutexLock lock(drain_mutex_);
    if (drain_error_) std::rethrow_exception(drain_error_);
    drain_queue_.push_back(std::move(job));
    ++inflight_;
    peak_inflight_ = std::max(peak_inflight_, inflight_);
  }
  drain_cv_.notify_one();
}

void Writer::drain_step(const StepJob& job) {
  const bool async = config_.async_write;
  touch_heartbeat();

  StepRecord record;
  record.step = job.step;
  record.attributes = job.attributes;

  // Record slot of each step variable, assigned in rank-major first-seen
  // order (the order md.0 lists variables in).
  constexpr std::size_t kUnseen = ~std::size_t(0);
  std::vector<std::size_t> var_slot(job.vars.size(), kUnseen);
  record.variables.reserve(job.vars.size());

  // Aggregation buffers (real payloads) and size counters (synthetic),
  // one per subfile.  Real steps draw the buffers from the pool — after
  // the first step each comes back with its grown capacity, so appends
  // below never allocate.
  std::vector<cz::PooledBuffer> agg(
      static_cast<std::size_t>(num_aggregators_));
  if (job.kind == 1)
    for (auto& buffer : agg)
      buffer = buffer_pool_.acquire_reserve(kAggInitialReserve);
  std::vector<std::uint64_t> agg_bytes(
      static_cast<std::size_t>(num_aggregators_), 0);
  // Queue-pair path: one sqe per marshalled chunk extent (the natural unit
  // the ring receives), so the extent sizes are tracked during marshalling.
  // Coalescing later merges adjacent extents back into vectored device
  // records.
  const bool batched = config_.io_batch_depth > 0;
  std::vector<std::vector<std::uint64_t>> agg_extents(
      static_cast<std::size_t>(num_aggregators_));
  // Async: marshalling/compression runs on each aggregator's drain lane,
  // not the ranks' critical path.  Accumulated per aggregator, charged to
  // the leader's lane below.
  std::vector<double> lane_compress(static_cast<std::size_t>(num_aggregators_),
                                    0.0);
  std::vector<double> lane_memcopy(static_cast<std::size_t>(num_aggregators_),
                                   0.0);
  std::vector<double> lane_crc(static_cast<std::size_t>(num_aggregators_),
                               0.0);

  // Topology-modeled gather: how each rank's marshalled bytes reach its
  // aggregator leader.  Only a multi-node topology records gather ops —
  // on the flat topology the loop below emits exactly the pre-topology
  // trace, byte for byte.  "flat" aggregation ships every rank's bytes
  // straight to the aggregator over the inter-node links; "two_level"
  // gathers onto the node leader over intra-node shared memory first and
  // ships one combined transfer per (node, aggregator) pair afterwards.
  const bool model_gather = mapper_.multi_node();
  const bool two_level = model_gather && config_.aggregation == "two_level";
  std::map<std::pair<int, int>, std::uint64_t> node_agg_bytes;

  for (int rank = 0; rank < nranks_; ++rank) {
    const auto& chunks = job.chunks[std::size_t(rank)];
    if (chunks.empty()) continue;
    touch_heartbeat();
    const int a = aggregator_of(rank);
    fsim::FsClient client(fs_, fsim::ClientId(rank));
    double rank_compress_s = 0.0;  // coalesced per-rank CPU charge
    double rank_memcopy_s = 0.0;
    double rank_crc_s = 0.0;
    std::uint64_t rank_stored = 0;  // this rank's marshalled bytes this step
    for (const auto& chunk : chunks) {
      const StepVar& step_var = job.vars[chunk.var];
      std::size_t& slot = var_slot[chunk.var];
      if (slot == kUnseen) {
        slot = record.variables.size();
        record.variables.push_back({step_var.name, step_var.dtype,
                                    step_var.shape,
                                    codec_ ? codec_->name() : "", {}});
        record.variables.back().chunks.reserve(step_var.puts);
      }
      VarRecord& var = record.variables[slot];

      if (chunk.is_borrowed()) ++zero_copy_chunks_total_;
      ChunkRecord meta =
          chunk.synthetic
              ? synthetic_chunk(codec_.get(), config_.synthetic_codec_ratio,
                                step_var.dtype, chunk.offset, chunk.count,
                                std::uint32_t(rank))
              : marshal_chunk(codec_.get(), step_var.dtype, chunk.payload(),
                              chunk.offset, chunk.count, std::uint32_t(rank),
                              *agg[std::size_t(a)]);
      meta.subfile = std::uint32_t(a);
      meta.file_offset =
          data_offsets_[std::size_t(a)] + agg_bytes[std::size_t(a)];
      const std::uint64_t raw_bytes = meta.raw_bytes;
      const std::uint64_t stored_size = meta.stored_bytes;
      // The marshal's CPU charge: compression under an operator (no
      // separate memcopy, Fig 8; parallel wall time when
      // compress_threads > 1), else the copy into the aggregation buffer.
      // For staged puts both ends of that copy are warm recycled pool
      // memory, hence the kWarmCopyFactor discount over the seed model's
      // cold-buffer charge; a borrowed chunk skipped staging entirely, so
      // its single source-to-aggregation pass runs at kZeroCopyFactor.
      const double marshal_s =
          codec_ ? compress_cpu_seconds(*codec_, raw_bytes,
                                        config_.compress_threads,
                                        config_.compress_block_kb)
                 : double(raw_bytes) /
                       (config_.mem_bandwidth_bps *
                        (chunk.is_borrowed() ? kZeroCopyFactor
                                             : kWarmCopyFactor));
      (codec_ ? rank_compress_s : rank_memcopy_s) += marshal_s;
      (async    ? drain_us_total_
       : codec_ ? compress_us_total_
                : memcopy_us_total_) += marshal_s * 1e6;
      if (meta.has_crc) {
        // End-to-end integrity: checksum the stored bytes at marshalling
        // time, identically on the sync and async paths (so async vs sync
        // containers stay byte-identical).
        const double seconds = double(stored_size) / kCrcBandwidthBps;
        rank_crc_s += seconds;
        crc_us_total_ += seconds * 1e6;
      }
      var.chunks.push_back(std::move(meta));

      raw_bytes_total_ += raw_bytes;
      stored_bytes_total_ += stored_size;
      agg_bytes[std::size_t(a)] += stored_size;
      if (batched && stored_size > 0)
        agg_extents[std::size_t(a)].push_back(stored_size);
      rank_stored += stored_size;
    }
    if (model_gather && rank_stored > 0) {
      // First gather hop.  The op is recorded on the *receiving* rank's
      // client sequence (its overlapped drain lane when async): a gatherer
      // cannot forward or write bytes it has not received, so the fan-in
      // must gate the receiver's subsequent trace ops — recorded on the
      // sender it would replay off the critical path and cost nothing.
      if (two_level) {
        const int node_leader = mapper_.leader_of(rank);
        if (rank != node_leader) {
          fsim::FsClient receiver(fs_, fsim::ClientId(node_leader),
                                  async ? kDataLane : 0);
          receiver.transfer(data_fds_[std::size_t(a)], fsim::ClientId(rank),
                            rank_stored, /*intra_node=*/true);
        }
        node_agg_bytes[{mapper_.node_of(rank), a}] += rank_stored;
      } else {
        const int leader = leader_of(a);
        if (rank != leader) {
          fsim::FsClient receiver(fs_, fsim::ClientId(leader),
                                  async ? kDataLane : 0);
          receiver.transfer(data_fds_[std::size_t(a)], fsim::ClientId(rank),
                            rank_stored, mapper_.same_node(rank, leader));
        }
      }
    }
    if (async) {
      lane_compress[std::size_t(a)] += rank_compress_s;
      lane_memcopy[std::size_t(a)] += rank_memcopy_s;
      lane_crc[std::size_t(a)] += rank_crc_s;
    } else {
      if (rank_compress_s > 0.0)
        client.charge_cpu(rank_compress_s, fsim::TraceTag::compress);
      if (rank_memcopy_s > 0.0)
        client.charge_cpu(rank_memcopy_s, fsim::TraceTag::memcopy);
      if (rank_crc_s > 0.0)
        client.charge_cpu(rank_crc_s, fsim::TraceTag::crc32c);
    }
  }

  // Second gather hop (two-level only): each node leader ships its node's
  // combined payload per aggregator over the inter-node links.  A node
  // leader that is itself the aggregator leader already holds the bytes.
  // Recorded on the aggregator leader (the receiver) ahead of its write
  // ops, for the same critical-path reason as the first hop.
  for (const auto& [key, bytes] : node_agg_bytes) {
    const auto [node, agg] = key;
    if (bytes == 0) continue;
    const int node_leader = mapper_.node_leader(node);
    const int leader = leader_of(agg);
    if (node_leader == leader) continue;
    fsim::FsClient receiver(fs_, fsim::ClientId(leader),
                            async ? kDataLane : 0);
    receiver.transfer(data_fds_[std::size_t(agg)], fsim::ClientId(node_leader),
                      bytes, mapper_.same_node(node_leader, leader));
  }

  // Each aggregator leader appends its step buffer as one sequential write
  // — on its overlapped drain lane in buffer_chunk_mb slices when async.
  const bool synthetic_step = job.kind == 2;
  const std::uint64_t slice =
      std::max<std::uint64_t>(1, config_.buffer_chunk_mb) << 20;
  for (int a = 0; a < num_aggregators_; ++a) {
    const std::uint64_t bytes = agg_bytes[std::size_t(a)];
    fsim::FsClient client(fs_, fsim::ClientId(leader_of(a)),
                          async ? kDataLane : 0);
    if (async) {
      if (lane_compress[std::size_t(a)] > 0.0)
        client.charge_cpu(lane_compress[std::size_t(a)],
                          fsim::TraceTag::compress);
      if (lane_memcopy[std::size_t(a)] > 0.0)
        client.charge_cpu(lane_memcopy[std::size_t(a)],
                          fsim::TraceTag::memcopy);
      if (lane_crc[std::size_t(a)] > 0.0)
        client.charge_cpu(lane_crc[std::size_t(a)], fsim::TraceTag::crc32c);
    }
    if (bytes == 0) continue;
    touch_heartbeat();
    if (batched) {
      // Queue-pair path: the same bytes at the same offsets, issued as one
      // sqe per marshalled chunk extent through one ring per aggregator
      // lane.  Without coalescing every extent is its own device record
      // (and pays its own per-record RPC cost, like N separate pwritevs
      // would); with coalescing adjacent extents merge into vectored
      // records, reclaiming that overhead without changing what lands on
      // disk.
      fsim::SubmissionQueue sq(client, std::size_t(config_.io_batch_depth),
                               config_.coalesce_writes);
      std::uint64_t pos = 0;
      for (const std::uint64_t n : agg_extents[std::size_t(a)]) {
        touch_heartbeat();
        fsim::Sqe sqe;
        sqe.fd = data_fds_[std::size_t(a)];
        sqe.offset = data_offsets_[std::size_t(a)] + pos;
        sqe.user_data = pos;
        if (synthetic_step)
          sqe.simulated_bytes = n;
        else
          sqe.iov.push_back(
              std::span<const std::uint8_t>(*agg[std::size_t(a)])
                  .subspan(std::size_t(pos), std::size_t(n)));
        ring_push(sq, std::move(sqe));
        pos += n;
      }
      submit_checked(sq);
    } else if (synthetic_step) {
      client.seek(data_fds_[std::size_t(a)], data_offsets_[std::size_t(a)]);
      const std::uint64_t nslices = async ? (bytes + slice - 1) / slice : 1;
      client.write_simulated(data_fds_[std::size_t(a)], bytes,
                             std::uint32_t(nslices));
    } else if (async) {
      for (std::uint64_t pos = 0; pos < bytes; pos += slice) {
        const std::uint64_t n = std::min<std::uint64_t>(slice, bytes - pos);
        touch_heartbeat();
        client.pwrite(
            data_fds_[std::size_t(a)], data_offsets_[std::size_t(a)] + pos,
            std::span<const std::uint8_t>(*agg[std::size_t(a)]).subspan(
                std::size_t(pos), std::size_t(n)));
      }
    } else {
      client.pwrite(data_fds_[std::size_t(a)], data_offsets_[std::size_t(a)],
                    *agg[std::size_t(a)]);
    }
    data_offsets_[std::size_t(a)] += bytes;
  }
  // Aggregation buffers go back to the pool (with whatever capacity they
  // grew to) for the next step's drain; a throw above returns them too.
  agg.clear();

  // Rank 0 appends step metadata and the index entry (its own overlapped
  // metadata lane when async).
  touch_heartbeat();
  fsim::FsClient root(fs_, 0, async ? kMetaLane : 0);
  const EncodedStep md = encode_step(record);
  const IndexEntry entry{job.step, md_offset_, md.bytes.size(), md.crc};
  BinWriter idx_bytes;
  put_index_entry(idx_bytes, entry);
  const std::uint64_t idx_offset =
      kIdxHeaderBytes + index_.size() * kIdxEntryBytes;
  if (batched) {
    // Rank 0's two tiny per-step appends (md.0 record + md.idx entry) ride
    // one doorbell.  On the posix path each pays the synchronous
    // small-record round trip every step — exactly the metadata cost the
    // queue pair amortizes away at scale.
    fsim::SubmissionQueue mq(root, 2, config_.coalesce_writes);
    fsim::Sqe md_sqe;
    md_sqe.fd = md_fd_;
    md_sqe.offset = md_offset_;
    md_sqe.iov.push_back(std::span<const std::uint8_t>(md.bytes));
    mq.push(std::move(md_sqe));
    fsim::Sqe idx_sqe;
    idx_sqe.fd = idx_fd_;
    idx_sqe.offset = idx_offset;
    idx_sqe.iov.push_back(std::span<const std::uint8_t>(idx_bytes.buffer()));
    idx_sqe.user_data = 1;
    mq.push(std::move(idx_sqe));
    submit_checked(mq);
  } else {
    root.pwrite(md_fd_, md_offset_, md.bytes);
    root.pwrite(idx_fd_, idx_offset, idx_bytes.buffer());
  }
  md_offset_ += md.bytes.size();
  index_.push_back(entry);
}

Writer::DrainSnapshot Writer::snapshot_drain_state() const {
  DrainSnapshot snap;
  snap.data_offsets = data_offsets_;
  snap.md_offset = md_offset_;
  snap.index_size = index_.size();
  snap.memcopy_us = memcopy_us_total_;
  snap.compress_us = compress_us_total_;
  snap.drain_us = drain_us_total_;
  snap.crc_us = crc_us_total_;
  snap.raw_bytes = raw_bytes_total_;
  snap.stored_bytes = stored_bytes_total_;
  snap.zero_copy_chunks = zero_copy_chunks_total_;
  return snap;
}

void Writer::restore_drain_state(const DrainSnapshot& snap) {
  data_offsets_ = snap.data_offsets;
  md_offset_ = snap.md_offset;
  index_.resize(snap.index_size);
  memcopy_us_total_ = snap.memcopy_us;
  compress_us_total_ = snap.compress_us;
  drain_us_total_ = snap.drain_us;
  crc_us_total_ = snap.crc_us;
  raw_bytes_total_ = snap.raw_bytes;
  stored_bytes_total_ = snap.stored_bytes;
  zero_copy_chunks_total_ = snap.zero_copy_chunks;
}

void Writer::drain_job_with_retries(const StepJob& job) {
  // Bounded retry of a failed or watchdog-cancelled attempt.  Each attempt
  // starts from a rolled-back snapshot, so a partially landed attempt is
  // overwritten in place (same pwrite offsets) and the container stays
  // consistent.  Past the bound the step is abandoned with a typed error;
  // the poisoned queue then skips later jobs, so close() cannot hang.
  const int attempts = 1 + std::max(0, config_.max_drain_retries);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const DrainSnapshot snap = snapshot_drain_state();
    drain_active_.store(true, std::memory_order_release);
    touch_heartbeat();
    try {
      drain_step(job);
      drain_active_.store(false, std::memory_order_release);
      return;
    } catch (...) {
      drain_active_.store(false, std::memory_order_release);
      restore_drain_state(snap);
      if (attempt + 1 < attempts) {
        drain_retries_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      steps_abandoned_.fetch_add(1, std::memory_order_relaxed);
      std::string cause = "unknown error";
      try {
        throw;
      } catch (const std::exception& e) {
        cause = e.what();
      } catch (...) {
      }
      util::MutexLock lock(drain_mutex_);
      if (!drain_error_)
        drain_error_ = std::make_exception_ptr(TimeoutError(
            "bp::Writer: drain of step " + std::to_string(job.step) +
            " abandoned after " + std::to_string(attempts) +
            " attempts: " + cause));
    }
  }
}

void Writer::drain_loop() {
  for (;;) {
    StepJob job;
    bool skip = false;
    {
      util::MutexLock lock(drain_mutex_);
      while (!drain_stop_ && drain_queue_.empty()) drain_cv_.wait(lock);
      if (drain_queue_.empty()) return;  // stop requested, queue drained
      job = std::move(drain_queue_.front());
      drain_queue_.pop_front();
      skip = drain_error_ != nullptr;  // poisoned: count down, don't write
    }
    if (!skip) drain_job_with_retries(job);
    // After the final attempt (or a skip) nothing reads the staged
    // payloads again: destroying the job hands them back to the pool.
    job = StepJob{};
    {
      util::MutexLock lock(drain_mutex_);
      --inflight_;
    }
    drain_done_cv_.notify_all();
  }
}

void Writer::watchdog_loop() {
  const auto timeout = std::chrono::milliseconds(config_.drain_timeout_ms);
  const auto poll = std::max(timeout / 8, std::chrono::milliseconds(1));
  std::uint64_t last_beat = heartbeat_.load(std::memory_order_relaxed);
  auto last_progress = std::chrono::steady_clock::now();
  util::MutexLock lock(watchdog_mutex_);
  for (;;) {
    // A spurious wake just re-runs the (cheap) heartbeat check early.
    watchdog_cv_.wait_for(lock, poll);
    if (watchdog_stop_) return;
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t beat = heartbeat_.load(std::memory_order_relaxed);
    if (beat != last_beat || !drain_active_.load(std::memory_order_acquire)) {
      last_beat = beat;
      last_progress = now;
      continue;
    }
    if (now - last_progress >= timeout) {
      // The active job has not heartbeated within drain_timeout: a lane is
      // wedged.  Cancel the stalled simulated I/O; the drain worker's
      // attempt fails with TimeoutError and is retried or abandoned.  The
      // cancelled-op count is uninteresting here — the timeout counter
      // below is the observable.
      (void)fs_.cancel_stalls();
      watchdog_timeouts_.fetch_add(1, std::memory_order_relaxed);
      last_progress = now;  // fresh window for the retry
    }
  }
}

void Writer::stop_watchdog_thread() {
  if (!watchdog_thread_.joinable()) return;
  {
    util::MutexLock lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  watchdog_thread_.join();
}

WatchdogStats Writer::watchdog_stats() const {
  WatchdogStats stats;
  stats.timeouts = watchdog_timeouts_.load(std::memory_order_relaxed);
  stats.retries = drain_retries_.load(std::memory_order_relaxed);
  stats.steps_abandoned = steps_abandoned_.load(std::memory_order_relaxed);
  return stats;
}

void Writer::wait_drains() {
  if (!config_.async_write) return;
  util::MutexLock lock(drain_mutex_);
  while (inflight_ != 0) drain_done_cv_.wait(lock);
  if (drain_error_) std::rethrow_exception(drain_error_);
}

int Writer::peak_inflight() const {
  util::MutexLock lock(drain_mutex_);
  return peak_inflight_;
}

void Writer::stop_drain_thread() {
  if (!drain_thread_.joinable()) return;
  {
    util::MutexLock lock(drain_mutex_);
    drain_stop_ = true;
  }
  drain_cv_.notify_all();
  drain_thread_.join();
}

std::unique_ptr<EngineReader> Writer::attach(fsim::ClientId client) {
  // Outstanding drains must land before the metadata is parsed, and the
  // md.idx header count is only finalized at close(), so publish it now
  // (same bytes close() writes) for the reader to open against.
  wait_drains();
  publish_index();
  return attach_reader(fs_, client, path_);
}

void Writer::publish_index() {
  // The caller must have joined outstanding drains (wait_drains), so this
  // thread owns the drain-side index state (see the member comment).
  {
    util::MutexLock lock(mutex_);
    if (closed_) return;
    if (step_open_)
      throw UsageError("bp::Writer: publish_index with an open step");
  }
  // The same header bytes close() writes — the final container is
  // unchanged, the count just becomes visible to mid-run readers early.
  BinWriter header;
  put_index_header(header, std::uint32_t(index_.size()));
  fsim::FsClient root(fs_, 0);
  root.pwrite(idx_fd_, 0, header.buffer());
}

void Writer::close() {
  {
    util::MutexLock lock(mutex_);
    if (closed_) return;
    if (step_open_) throw UsageError("bp::Writer: close with an open step");
    closed_ = true;
  }
  // Join outstanding drains before touching the files; the worker owns the
  // offset tables and profiling accumulators until it goes quiet.  The
  // watchdog must outlive the drain join — it is what unwedges a stalled
  // lane so the join can complete.
  stop_drain_thread();
  stop_watchdog_thread();

  util::MutexLock lock(mutex_);
  fsim::FsClient root(fs_, 0);
  // Patch the md.idx header with the final step count.
  BinWriter header;
  put_index_header(header, std::uint32_t(index_.size()));
  root.pwrite(idx_fd_, 0, header.buffer());

  // Footer index: md.idx's entries again, appended after the last step
  // block behind a CRC-protected trailer, so a reader opens a closed
  // container from md.0 alone.  md.idx entries all point below md_offset_,
  // so the md.idx path is unaffected by the tail.
  root.pwrite(md_fd_, md_offset_, encode_footer(index_, md_offset_));

  if (config_.engine == EngineType::bp5) {
    // BP5's second metadata file: a duplicate of the index for fast open.
    const auto mmd = encode_index(index_);
    root.write_file(path_ + "/mmd.0", mmd);
  }

  if (config_.profiling) {
    Json profile{JsonObject{}};
    profile["engine"] = engine_name();
    profile["aggregators"] = num_aggregators_;
    profile["ranks"] = nranks_;
    profile["steps"] = steps_written_;
    profile["async_write"] = config_.async_write;
    if (config_.aggregation != "flat" || config_.topology != "flat") {
      // Gated so flat-on-flat profiling.json stays byte-identical to the
      // pre-topology writer's output.
      profile["aggregation"] = config_.aggregation;
      profile["topology"] = config_.topology;
      profile["nodes"] = mapper_.nodes();
    }
    profile["transport_0"]["memcopy_us"] = memcopy_us_total_;
    profile["transport_0"]["compress_us"] = compress_us_total_;
    // Overlapped drain-lane time, kept apart from the critical-path
    // memcopy/compress numbers (zero without async_write).
    profile["transport_0"]["drain_us"] = drain_us_total_;
    // Per-chunk CRC32C cost (end-to-end integrity).
    profile["transport_0"]["crc_us"] = crc_us_total_;
    profile["transport_0"]["raw_bytes"] = raw_bytes_total_;
    profile["transport_0"]["stored_bytes"] = stored_bytes_total_;
    if (config_.io_batch_depth > 0) {
      // Gated so per-op containers keep the legacy profiling.json.
      profile["transport_0"]["io_batch_depth"] = config_.io_batch_depth;
      profile["transport_0"]["coalesce_writes"] = config_.coalesce_writes;
    }
    if (zero_copy_chunks_total_ > 0) {
      // Fig 8 extension: copies per path.  Gated so staged-only containers
      // keep the legacy profile byte-for-byte.
      profile["transport_0"]["zero_copy_chunks"] = zero_copy_chunks_total_;
      profile["transport_0"]["stage_copies"] = stage_copies_total_;
    }
    if (config_.drain_timeout_ms > 0) {
      const WatchdogStats wd = watchdog_stats();
      profile["transport_0"]["drain_timeouts"] = wd.timeouts;
      profile["transport_0"]["drain_retries"] = wd.retries;
      profile["transport_0"]["steps_abandoned"] = wd.steps_abandoned;
    }
    const std::string text = profile.dump(2);
    root.write_file(path_ + "/profiling.json",
                    std::span<const std::uint8_t>(
                        reinterpret_cast<const std::uint8_t*>(text.data()),
                        text.size()));
  }

  for (std::size_t a = 0; a < data_fds_.size(); ++a) {
    fsim::FsClient client(fs_, fsim::ClientId(leader_of(int(a))));
    client.fsync(data_fds_[a]);
    client.close(data_fds_[a]);
  }
  root.close(md_fd_);
  root.close(idx_fd_);
  // Surface the first drain failure to the caller, after the container has
  // been closed out (the md.idx count still reflects only drained steps).
  // The drain worker has been joined, but the error slot is drain-lock
  // state like any other — read it under its lock rather than relying on
  // the join's happens-before alone.
  util::MutexLock dlock(drain_mutex_);
  if (drain_error_) std::rethrow_exception(drain_error_);
}

}  // namespace bitio::bp
