#include "bp/stream.hpp"

#include <algorithm>

#include "bp/format.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"

namespace bitio::bp {

// --- decode ----------------------------------------------------------------

std::vector<std::uint8_t> decode_stream_variable(const StreamStep& step,
                                                 const std::string& name) {
  const VarRecord* var = step.record.find_variable(name);
  if (!var)
    throw UsageError("bp::stream: no variable '" + name + "' in step " +
                     std::to_string(step.record.step));
  const auto& payloads =
      step.payload.at(std::size_t(var - step.record.variables.data()));
  const std::size_t elem = dtype_size(var->dtype);
  std::vector<std::uint8_t> out(array_bytes(*var), 0);
  const std::string where =
      "'" + name + "' in step " + std::to_string(step.record.step);
  for (std::size_t c = 0; c < var->chunks.size(); ++c) {
    const ChunkRecord& chunk = var->chunks[c];
    const std::vector<std::uint8_t>& stored = payloads.at(c);
    if (stored.empty() && !chunk.has_crc) continue;  // synthetic: zeroes
    scatter_chunk(out, var->shape, chunk, elem,
                  decode_chunk(*var, chunk, stored, where));
  }
  return out;
}

// --- StreamChannel ---------------------------------------------------------

StreamChannel::StreamChannel(int max_steps, StreamPolicy policy)
    : max_steps_(std::size_t(max_steps)), policy_(policy) {
  if (max_steps < 1)
    throw UsageError("bp::StreamChannel: max_steps must be >= 1");
}

StreamChannel::ConsumerId StreamChannel::attach() {
  util::MutexLock lock(mutex_);
  const ConsumerId id = next_id_++;
  Cursor cursor;
  cursor.next_seq = next_seq_;  // future steps only, never a replay
  cursors_.emplace(id, cursor);
  return id;
}

void StreamChannel::detach(ConsumerId id) {
  util::MutexLock lock(mutex_);
  auto it = cursors_.find(id);
  if (it == cursors_.end() || it->second.detached) return;
  it->second.detached = true;
  // The producer may have been blocking on this consumer; a concurrent
  // next() on it must wake and observe the detach.
  space_cv_.notify_all();
  data_cv_.notify_all();
}

std::optional<std::uint64_t> StreamChannel::oldest_needed() const {
  std::optional<std::uint64_t> oldest;
  for (const auto& [id, cursor] : cursors_) {
    (void)id;
    if (cursor.detached || cursor.disconnected) continue;
    if (!oldest || cursor.next_seq < *oldest) oldest = cursor.next_seq;
  }
  return oldest;
}

void StreamChannel::evict_front() {
  window_.pop_front();
  ++base_seq_;
}

void StreamChannel::publish(std::shared_ptr<const StreamStep> step) {
  util::MutexLock lock(mutex_);
  if (closed_)
    throw UsageError("bp::StreamChannel: publish after close");
  while (window_.size() >= max_steps_) {
    const auto needed = oldest_needed();
    if (!needed || *needed > base_seq_) {
      // The oldest buffered step was read by every live consumer (or there
      // are none): retire it freely.  This is what keeps a zero-consumer
      // producer from ever blocking.
      evict_front();
      continue;
    }
    if (policy_ == StreamPolicy::block) {
      space_cv_.wait(lock);
      continue;
    }
    // drop_oldest / disconnect: the window advances at the producer's pace
    // and the slow consumers pay.
    ++lost_;
    if (policy_ == StreamPolicy::disconnect) {
      for (auto& [id, cursor] : cursors_) {
        (void)id;
        if (cursor.detached || cursor.disconnected) continue;
        if (cursor.next_seq <= base_seq_) cursor.disconnected = true;
      }
    }
    evict_front();
    if (policy_ == StreamPolicy::drop_oldest) {
      for (auto& [id, cursor] : cursors_) {
        (void)id;
        if (cursor.detached || cursor.disconnected) continue;
        if (cursor.next_seq < base_seq_) {
          cursor.dropped += base_seq_ - cursor.next_seq;
          cursor.next_seq = base_seq_;
        }
      }
    }
    // Wake consumers parked in next(): the disconnected ones must return,
    // the dropped ones re-aim their cursor.
    data_cv_.notify_all();
  }
  window_.push_back(std::move(step));
  ++next_seq_;
  ++published_;
  peak_depth_ = std::max(peak_depth_, int(window_.size()));
  data_cv_.notify_all();
}

void StreamChannel::close() {
  util::MutexLock lock(mutex_);
  closed_ = true;
  data_cv_.notify_all();
  space_cv_.notify_all();
}

std::shared_ptr<const StreamStep> StreamChannel::next(ConsumerId id) {
  util::MutexLock lock(mutex_);
  auto it = cursors_.find(id);
  if (it == cursors_.end())
    throw UsageError("bp::StreamChannel: unknown consumer");
  Cursor& cursor = it->second;
  while (true) {
    if (cursor.detached || cursor.disconnected) return nullptr;
    if (cursor.next_seq < base_seq_) {
      // Steps were evicted from under this cursor between wake-ups
      // (drop_oldest bumps cursors eagerly, so this is belt-and-braces).
      cursor.dropped += base_seq_ - cursor.next_seq;
      cursor.next_seq = base_seq_;
    }
    if (cursor.next_seq < next_seq_) {
      auto step = window_[std::size_t(cursor.next_seq - base_seq_)];
      ++cursor.next_seq;
      // The slowest consumer advancing is what a blocked producer waits on.
      space_cv_.notify_all();
      return step;
    }
    if (closed_) return nullptr;  // drained and no more to come
    data_cv_.wait(lock);
  }
}

std::uint64_t StreamChannel::dropped(ConsumerId id) const {
  util::MutexLock lock(mutex_);
  auto it = cursors_.find(id);
  return it == cursors_.end() ? 0 : it->second.dropped;
}

bool StreamChannel::disconnected(ConsumerId id) const {
  util::MutexLock lock(mutex_);
  auto it = cursors_.find(id);
  return it != cursors_.end() && it->second.disconnected;
}

std::uint64_t StreamChannel::steps_published() const {
  util::MutexLock lock(mutex_);
  return published_;
}

std::uint64_t StreamChannel::steps_lost() const {
  util::MutexLock lock(mutex_);
  return lost_;
}

int StreamChannel::peak_depth() const {
  util::MutexLock lock(mutex_);
  return peak_depth_;
}

std::size_t StreamChannel::consumers() const {
  util::MutexLock lock(mutex_);
  std::size_t n = 0;
  for (const auto& [id, cursor] : cursors_) {
    (void)id;
    if (!cursor.detached && !cursor.disconnected) ++n;
  }
  return n;
}

// --- StreamEngine ----------------------------------------------------------

StreamEngine::StreamEngine(fsim::SharedFs& fs, std::string path,
                           EngineConfig config, int nranks)
    : fs_(fs),
      path_(std::move(path)),
      config_(std::move(config)),
      nranks_(nranks),
      policy_(stream_policy_of(config_.stream_policy)) {
  if (nranks_ <= 0)
    throw UsageError("bp::StreamEngine: nranks must be positive");
  config_.validate();
  codec_ = make_operator(config_, buffer_pool_);
  channel_ = std::make_shared<StreamChannel>(config_.stream_max_steps,
                                             policy_);
}

StreamEngine::~StreamEngine() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; close() is idempotent.
  }
}

void StreamEngine::begin_step(std::uint64_t step) {
  util::MutexLock lock(mutex_);
  if (closed_) throw UsageError("bp::StreamEngine: engine is closed");
  if (step_open_) throw UsageError("bp::StreamEngine: step already open");
  step_open_ = true;
  current_step_ = step;
  step_kind_ = 0;
  pending_.clear();
  attributes_.clear();
}

StreamEngine::PendingVar& StreamEngine::pending_var(const std::string& name,
                                                   Datatype dtype,
                                                   const Dims& shape) {
  for (auto& var : pending_) {
    if (var.record.name != name) continue;
    if (var.record.dtype != dtype || var.record.shape != shape)
      throw UsageError("bp::put: inconsistent shape/dtype for '" + name +
                       "'");
    return var;
  }
  PendingVar& var = pending_.emplace_back();
  var.record.name = name;
  var.record.dtype = dtype;
  var.record.shape = shape;
  if (codec_) var.record.operator_name = codec_->name();
  return var;
}

void StreamEngine::put(int rank, const std::string& name, const Dims& shape,
                       const ChunkView& view) {
  util::MutexLock lock(mutex_);
  check_put(step_open_, rank, nranks_, name, shape, view.offset(),
            view.count());
  if (step_kind_ == 2)
    throw UsageError("bp::put: cannot mix real and synthetic puts");
  PendingVar& var = pending_var(name, view.dtype(), shape);
  step_kind_ = 1;

  // Marshal under the lock (the codec is shared): the same marshal_chunk
  // the file engine runs on the way to a subfile, so the record matches it
  // field for field.  The stored bytes are published in a StreamStep that
  // readers own through shared_ptr, so they never come back to the pool:
  // an exact-size plain vector, not a pooled power-of-two class.
  std::vector<std::uint8_t> stored;
  stored.reserve(view.bytes().size() + (codec_ ? 64 : 0));
  ChunkRecord meta =
      marshal_chunk(codec_.get(), view.dtype(), view.bytes(), view.offset(),
                    view.count(), std::uint32_t(rank), stored);

  // Charge the marshalling cost to the putting rank's critical path, same
  // accounting as the synchronous file engine.
  fsim::FsClient client(fs_, fsim::ClientId(rank));
  if (codec_) {
    const double compress_s =
        compress_cpu_seconds(*codec_, meta.raw_bytes, config_.compress_threads,
                             config_.compress_block_kb);
    if (compress_s > 0.0)
      client.charge_cpu(compress_s, fsim::TraceTag::compress);
  }
  client.charge_cpu(double(meta.stored_bytes) / kCrcBandwidthBps,
                    fsim::TraceTag::crc32c);
  var.record.chunks.push_back(std::move(meta));
  var.payload.push_back(std::move(stored));
}

void StreamEngine::put_synthetic(int rank, const std::string& name,
                                 Datatype dtype, const Dims& shape,
                                 const Dims& offset, const Dims& count) {
  util::MutexLock lock(mutex_);
  check_put(step_open_, rank, nranks_, name, shape, offset, count);
  if (step_kind_ == 1)
    throw UsageError("bp::put: cannot mix real and synthetic puts");
  PendingVar& var = pending_var(name, dtype, shape);
  step_kind_ = 2;
  var.record.chunks.push_back(synthetic_chunk(codec_.get(),
                                              config_.synthetic_codec_ratio,
                                              dtype, offset, count,
                                              std::uint32_t(rank)));
  var.payload.emplace_back();  // no payload bytes
}

void StreamEngine::add_attribute(const std::string& name, AttrValue value) {
  util::MutexLock lock(mutex_);
  if (!step_open_)
    throw UsageError("bp::StreamEngine: attribute outside a step");
  attributes_.emplace_back(name, std::move(value));
}

void StreamEngine::end_step() {
  auto step = std::make_shared<StreamStep>();
  {
    util::MutexLock lock(mutex_);
    if (!step_open_) throw UsageError("bp::StreamEngine: no open step");
    step_open_ = false;
    step->seq = steps_written_;
    step->record.step = current_step_;
    step->record.attributes = std::move(attributes_);
    attributes_.clear();
    for (auto& var : pending_) {
      step->record.variables.push_back(std::move(var.record));
      step->payload.push_back(std::move(var.payload));
    }
    pending_.clear();
    ++steps_written_;
  }
  // Publish-side scrub: every real chunk is re-verified against its CRC
  // before consumers can see it ("completed, CRC-verified steps").
  for (std::size_t v = 0; v < step->record.variables.size(); ++v) {
    const auto& var = step->record.variables[v];
    for (std::size_t c = 0; c < var.chunks.size(); ++c) {
      const auto& chunk = var.chunks[c];
      if (!chunk.has_crc) continue;
      if (crc32c(step->payload[v][c]) != chunk.crc32c)
        throw FormatError(
            "bp::StreamEngine: chunk corrupted before publish ('" +
            var.name + "', step " + std::to_string(step->record.step) + ")");
    }
  }
  channel_->publish(std::move(step));
}

void StreamEngine::close() {
  {
    util::MutexLock lock(mutex_);
    if (closed_) return;
    if (step_open_)
      throw UsageError("bp::StreamEngine: close with a step open");
    closed_ = true;
  }
  channel_->close();
}

std::uint64_t StreamEngine::steps_written() const {
  util::MutexLock lock(mutex_);
  return steps_written_;
}

int StreamEngine::peak_inflight() const { return channel_->peak_depth(); }

std::unique_ptr<EngineReader> StreamEngine::attach(fsim::ClientId client) {
  return std::make_unique<StreamConsumer>(channel_, fs_, client);
}

std::unique_ptr<StreamConsumer> StreamEngine::attach_stream(
    fsim::ClientId client) {
  return std::make_unique<StreamConsumer>(channel_, fs_, client);
}

// --- StreamConsumer --------------------------------------------------------

StreamConsumer::StreamConsumer(std::shared_ptr<StreamChannel> channel,
                               fsim::SharedFs& fs, fsim::ClientId client)
    : channel_(std::move(channel)), fs_(fs), client_(client) {
  id_ = channel_->attach();
}

StreamConsumer::~StreamConsumer() { channel_->detach(id_); }

std::shared_ptr<const StreamStep> StreamConsumer::next_raw() {
  if (detached_) return nullptr;
  step_ = channel_->next(id_);
  return step_;
}

std::optional<std::uint64_t> StreamConsumer::next_step() {
  auto step = next_raw();
  if (!step) return std::nullopt;
  return step->record.step;
}

std::uint64_t StreamConsumer::current_step() const {
  if (!step_)
    throw UsageError("bp::StreamConsumer: no current step (call next_step)");
  return step_->record.step;
}

std::vector<std::string> StreamConsumer::variables() const {
  if (!step_)
    throw UsageError("bp::StreamConsumer: no current step (call next_step)");
  return step_->record.variable_names();
}

const VarRecord* StreamConsumer::find_variable(const std::string& name) const {
  return step_ ? step_->record.find_variable(name) : nullptr;
}

std::vector<std::uint8_t> StreamConsumer::get(const std::string& name) {
  if (!step_)
    throw UsageError("bp::StreamConsumer: no current step (call next_step)");
  auto out = decode_stream_variable(*step_, name);
  // Charge the decode cost to this consumer, mirroring bp::Reader::read's
  // accounting (the variable's operator supplies the modelled speed).
  const VarRecord* var = find_variable(name);
  const double decode_bps = decompress_speed_bps(*var);
  if (decode_bps == 0.0) return out;
  fsim::FsClient io(fs_, client_);
  for (const auto& chunk : var->chunks)
    if (chunk.raw_bytes > 0)
      io.charge_cpu(double(chunk.raw_bytes) / decode_bps,
                    fsim::TraceTag::decompress);
  return out;
}

std::optional<AttrValue> StreamConsumer::attribute(
    const std::string& name) const {
  return step_ ? step_->record.attribute(name) : std::nullopt;
}

std::uint64_t StreamConsumer::steps_dropped() const {
  return channel_->dropped(id_);
}

bool StreamConsumer::disconnected() const {
  return channel_->disconnected(id_);
}

void StreamConsumer::detach() {
  if (detached_) return;
  detached_ = true;
  channel_->detach(id_);
}

}  // namespace bitio::bp
