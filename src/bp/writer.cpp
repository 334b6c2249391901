#include "bp/writer.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
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
/// the error a per-op pwrite would have thrown (TimeoutError for a stall,
/// IoError otherwise), so the drain retries behave identically on both
/// paths.  Torn writes are reported short in their cqe but not failed —
/// matching posix pwrite's silent-torn semantics, which keeps batched and
/// per-op containers in byte agreement under the same fault plan.
void submit_checked(fsim::SubmissionQueue& sq) {
  for (const fsim::Cqe& cqe : sq.submit()) {
    if (cqe.ok) continue;
    if (cqe.fault == fsim::FaultKind::stall) throw TimeoutError(cqe.error);
    throw IoError(cqe.error);
  }
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
  config_.validate();

  const int nnodes =
      (nranks_ + config_.ranks_per_node - 1) / config_.ranks_per_node;
  num_aggregators_ =
      config_.num_aggregators > 0 ? config_.num_aggregators : nnodes;
  num_aggregators_ = std::min(num_aggregators_, nranks_);

  codec_ = make_operator(config_, buffer_pool_);

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

  if (config_.async_write)
    drain_thread_ = std::thread([this] { drain_loop(); });
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
  const std::uint32_t var = validate_put(rank, name, view.dtype(), shape,
                                         view.offset(), view.count(),
                                         /*kind=*/1);
  // Stage the payload in a recycled pool buffer: steady-state puts do no
  // heap allocation (the buffer returns to the pool with its step job).
  cz::PooledBuffer staged = buffer_pool_.acquire(view.bytes().size());
  if (!view.bytes().empty())
    std::memcpy(staged->data(), view.bytes().data(), view.bytes().size());
  payloads_.push_back({std::move(staged), {}});
  ++stage_copies_total_;
  add_chunk(var, rank, view.offset(), view.count());
}

void Writer::put_borrowed(int rank, const std::string& name,
                          const Dims& shape, const ChunkView& view) {
  util::MutexLock lock(mutex_);
  const std::uint32_t var = validate_put(rank, name, view.dtype(), shape,
                                         view.offset(), view.count(),
                                         /*kind=*/1);
  // No staging: the drain marshals straight from the caller's bytes (which
  // the deferred-Put contract keeps valid until the step lands).
  payloads_.emplace_back().borrowed = view.bytes();
  add_chunk(var, rank, view.offset(), view.count());
}

void Writer::put_synthetic(int rank, const std::string& name, Datatype dtype,
                           const Dims& shape, const Dims& offset,
                           const Dims& count) {
  util::MutexLock lock(mutex_);
  const std::uint32_t var =
      validate_put(rank, name, dtype, shape, offset, count, /*kind=*/2);
  add_chunk(var, rank, offset, count);
}

void Writer::add_chunk(std::uint32_t var, int rank, const Dims& offset,
                       const Dims& count) {
  StepChunk& chunk = chunks_.emplace_back();
  chunk.var = var;
  chunk.rank = std::uint32_t(rank);
  if (offset.size() == 1) {
    chunk.at[0] = offset[0];
    chunk.at[1] = count[0];
  } else if (!offset.empty()) {
    chunk.at[0] = extents_.size();
    extents_.insert(extents_.end(), offset.begin(), offset.end());
    extents_.insert(extents_.end(), count.begin(), count.end());
  }
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
    job.chunks = std::move(chunks_);
    chunks_.clear();
    job.extents = std::move(extents_);
    extents_.clear();
    job.payloads = std::move(payloads_);
    payloads_.clear();
    ++steps_written_;
  }
  if (!config_.async_write) {
    drain_step(job);
    // Hand the drained tables back emptied, so the next step's puts refill
    // them without growing.  Clearing the payloads returns their staged
    // buffers to the pool.  No put can land in between: the step is closed.
    job.chunks.clear();
    job.extents.clear();
    job.payloads.clear();
    util::MutexLock lock(mutex_);
    chunks_ = std::move(job.chunks);
    extents_ = std::move(job.extents);
    payloads_ = std::move(job.payloads);
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
  const bool synthetic_step = job.kind == 2;

  // The chunk table is walked rank-major — by rank, then put order —
  // through a stable counting sort by rank: rank_order lists the table's
  // rows rank by rank, and rank r's rows end at rank_end[r].
  const std::vector<StepChunk>& chunks = job.chunks;
  if (chunks.size() >= std::numeric_limits<std::uint32_t>::max())
    throw UsageError("bp::Writer: more chunks in one step than it can index");
  std::vector<std::uint32_t> rank_end(std::size_t(nranks_) + 1, 0);
  for (const StepChunk& chunk : chunks) ++rank_end[chunk.rank + 1];
  std::partial_sum(rank_end.begin(), rank_end.end(), rank_end.begin());
  std::vector<std::uint32_t> rank_order(chunks.size());
  for (std::uint32_t i = 0; i < std::uint32_t(chunks.size()); ++i)
    rank_order[rank_end[chunks[i].rank]++] = i;

  // md.0 lists the variables in rank-major first-seen order.  A variable's
  // chunk records all have the rank of its shape (check_put), so its put
  // count sizes its records, and laying the block out up front gives every
  // chunk record a slot before any chunk is marshalled.
  constexpr std::uint32_t kUnseen = ~std::uint32_t(0);
  const std::size_t nvars = job.vars.size();
  std::vector<std::uint32_t> var_slot(nvars, kUnseen);
  std::vector<VarLayout> layout;
  layout.reserve(nvars);
  const std::string operator_name = codec_ ? codec_->name() : "";
  for (std::size_t p = 0; p < chunks.size() && layout.size() < nvars; ++p) {
    const std::uint32_t v = chunks[rank_order[p]].var;
    if (var_slot[v] != kUnseen) continue;
    var_slot[v] = std::uint32_t(layout.size());
    const StepVar& var = job.vars[v];
    const std::size_t rank = var.shape.size();
    layout.push_back({var.name, var.dtype, var.shape, operator_name,
                      std::uint32_t(var.puts),
                      var.puts * chunk_record_bytes(rank, rank)});
  }
  md_block_.resize(step_block_bytes(layout, job.attributes));
  const std::span<std::uint8_t> md_block(md_block_);
  // Where each variable's next chunk record goes, and where its records
  // end.
  std::vector<std::size_t> record_at(nvars);
  lay_out_step(job.step, layout, job.attributes, md_block, record_at);
  std::vector<std::size_t> records_end(nvars);
  for (std::size_t v = 0; v < nvars; ++v)
    records_end[v] = record_at[v] + layout[v].chunk_bytes;
  std::uint8_t* const md = md_block.data();

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

  // The record of the chunk being drained, reused from chunk to chunk; the
  // encoder takes its placement from the chunk table.
  ChunkRecord meta;

  for (int rank = 0; rank < nranks_; ++rank) {
    const std::uint32_t begin =
        rank == 0 ? 0 : rank_end[std::size_t(rank) - 1];
    const std::uint32_t end = rank_end[std::size_t(rank)];
    if (begin == end) continue;
    const int a = aggregator_of(rank);
    fsim::FsClient client(fs_, fsim::ClientId(rank));
    double rank_compress_s = 0.0;  // coalesced per-rank CPU charge
    double rank_memcopy_s = 0.0;
    double rank_crc_s = 0.0;
    std::uint64_t rank_stored = 0;  // this rank's marshalled bytes this step
    for (std::uint32_t p = begin; p < end; ++p) {
      const std::uint32_t row = rank_order[p];
      const StepChunk& chunk = chunks[row];
      const StepVar& step_var = job.vars[chunk.var];
      const std::size_t dims = step_var.shape.size();
      const std::uint64_t* extents =
          dims == 1 ? chunk.at : job.extents.data() + chunk.at[0];
      const std::span<const std::uint64_t> offset(extents, dims);
      const std::span<const std::uint64_t> count(extents + dims, dims);
      const Payload* payload = synthetic_step ? nullptr : &job.payloads[row];
      const bool borrowed = payload != nullptr && payload->is_borrowed();

      if (borrowed) ++zero_copy_chunks_total_;
      if (payload == nullptr) {
        // A synthetic chunk has no bytes, so no CRC or statistics: only
        // its sizes and placement change from chunk to chunk.
        meta.raw_bytes = std::accumulate(count.begin(), count.end(),
                                         std::uint64_t(1),
                                         std::multiplies<>()) *
                         dtype_size(step_var.dtype);
        meta.stored_bytes = synthetic_stored_bytes(
            codec_.get(), config_.synthetic_codec_ratio, meta.raw_bytes);
        meta.writer_rank = std::uint32_t(rank);
      } else {
        Dims offset_dims, count_dims;
        for (std::size_t d = 0; d < dims; ++d) {
          offset_dims.push_back(offset[d]);
          count_dims.push_back(count[d]);
        }
        meta = marshal_chunk(codec_.get(), step_var.dtype, payload->bytes(),
                             offset_dims, count_dims, std::uint32_t(rank),
                             *agg[std::size_t(a)]);
      }
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
                        (borrowed ? kZeroCopyFactor : kWarmCopyFactor));
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
      std::size_t& at = record_at[var_slot[chunk.var]];
      at = std::size_t(encode_chunk_record(md + at, offset, count, meta) - md);

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

  // Every chunk record landed in its slot; rank 0 seals the block and
  // appends it and the index entry (its own overlapped metadata lane when
  // async).
  for (std::size_t v = 0; v < nvars; ++v)
    if (record_at[v] != records_end[v])
      throw Error("bp: a variable's chunk records missed their MD07 slots");
  fsim::FsClient root(fs_, 0, async ? kMetaLane : 0);
  const IndexEntry entry{job.step, md_offset_, md_block.size(),
                         seal_step(md_block)};
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
    md_sqe.iov.push_back(md_block);
    mq.push(std::move(md_sqe));
    fsim::Sqe idx_sqe;
    idx_sqe.fd = idx_fd_;
    idx_sqe.offset = idx_offset;
    idx_sqe.iov.push_back(std::span<const std::uint8_t>(idx_bytes.buffer()));
    idx_sqe.user_data = 1;
    mq.push(std::move(idx_sqe));
    submit_checked(mq);
  } else {
    root.pwrite(md_fd_, md_offset_, md_block);
    root.pwrite(idx_fd_, idx_offset, idx_bytes.buffer());
  }
  md_offset_ += md_block.size();
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
  // Bounded retry of a failed attempt (an injected stall fails its write at
  // once, so a wedged lane is one more failed attempt).  Each attempt
  // starts from a rolled-back snapshot, so a partially landed attempt is
  // overwritten in place (same pwrite offsets) and the container stays
  // consistent.  Past the bound the step is abandoned with a typed error;
  // the poisoned queue then skips later jobs, so close() cannot hang.
  const int attempts = 1 + std::max(0, config_.max_drain_retries);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const DrainSnapshot snap = snapshot_drain_state();
    std::string cause;
    try {
      drain_step(job);
      return;
    } catch (const TimeoutError& e) {
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      cause = e.what();
    } catch (const std::exception& e) {
      cause = e.what();
    } catch (...) {
      cause = "unknown error";
    }
    restore_drain_state(snap);
    if (attempt + 1 < attempts) {
      drain_retries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    steps_abandoned_.fetch_add(1, std::memory_order_relaxed);
    util::MutexLock lock(drain_mutex_);
    if (!drain_error_)
      drain_error_ = std::make_exception_ptr(TimeoutError(
          "bp::Writer: drain of step " + std::to_string(job.step) +
          " abandoned after " + std::to_string(attempts) +
          " attempts: " + cause));
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

DrainStats Writer::drain_stats() const {
  DrainStats stats;
  stats.timeouts = timeouts_.load(std::memory_order_relaxed);
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
  // offset tables and profiling accumulators until it goes quiet.
  stop_drain_thread();

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
    if (const DrainStats drain = drain_stats();
        drain.timeouts + drain.retries + drain.steps_abandoned > 0) {
      // Gated so a run without a failed drain attempt keeps the legacy
      // profile byte-for-byte.
      profile["transport_0"]["drain_timeouts"] = drain.timeouts;
      profile["transport_0"]["drain_retries"] = drain.retries;
      profile["transport_0"]["steps_abandoned"] = drain.steps_abandoned;
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
