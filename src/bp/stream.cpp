#include "bp/stream.hpp"

#include <algorithm>
#include <cstring>

#include "compress/parallel.hpp"
#include "fsim/storage_model.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"

namespace bitio::bp {

namespace {

// Same modelled CRC32C bandwidth as the file engines (writer.cpp).
constexpr double kCrcBandwidthBps = 12e9;

template <typename T>
void minmax(std::span<const std::uint8_t> bytes, double& lo, double& hi) {
  const std::size_t n = bytes.size() / sizeof(T);
  if (n == 0) return;
  const T* p = reinterpret_cast<const T*>(bytes.data());
  T mn = p[0], mx = p[0];
  for (std::size_t i = 1; i < n; ++i) {
    mn = std::min(mn, p[i]);
    mx = std::max(mx, p[i]);
  }
  lo = double(mn);
  hi = double(mx);
}

void compute_stats(Datatype dtype, std::span<const std::uint8_t> bytes,
                   ChunkRecord& meta) {
  switch (dtype) {
    case Datatype::uint8:
      minmax<std::uint8_t>(bytes, meta.stat_min, meta.stat_max);
      break;
    case Datatype::int32:
      minmax<std::int32_t>(bytes, meta.stat_min, meta.stat_max);
      break;
    case Datatype::uint64:
      minmax<std::uint64_t>(bytes, meta.stat_min, meta.stat_max);
      break;
    case Datatype::float32:
      minmax<float>(bytes, meta.stat_min, meta.stat_max);
      break;
    case Datatype::float64:
      minmax<double>(bytes, meta.stat_min, meta.stat_max);
      break;
  }
}

}  // namespace

// --- decode ----------------------------------------------------------------

std::vector<std::uint8_t> decode_stream_variable(const StreamStep& step,
                                                 const std::string& name) {
  const VarRecord* var = nullptr;
  std::size_t var_index = 0;
  for (std::size_t v = 0; v < step.record.variables.size(); ++v) {
    if (step.record.variables[v].name == name) {
      var = &step.record.variables[v];
      var_index = v;
      break;
    }
  }
  if (!var)
    throw UsageError("bp::stream: no variable '" + name + "' in step " +
                     std::to_string(step.record.step));

  const std::size_t elem = dtype_size(var->dtype);
  std::vector<std::uint8_t> out(element_count(var->shape) * elem, 0);
  const auto& payloads = step.payload.at(var_index);

  for (std::size_t c = 0; c < var->chunks.size(); ++c) {
    const ChunkRecord& chunk = var->chunks[c];
    const std::vector<std::uint8_t>& stored = payloads.at(c);
    if (stored.empty() && !chunk.has_crc) continue;  // synthetic: zeroes
    if (chunk.has_crc && crc32c(stored) != chunk.crc32c)
      throw FormatError("bp::stream: chunk CRC mismatch for '" + name +
                        "' in step " + std::to_string(step.record.step));

    std::vector<std::uint8_t> raw;
    if (chunk.operator_name.empty()) {
      raw = stored;
    } else {
      // Frames are self-framing (RAW1/BLL1/BZL1/CZP1): decompress_frame
      // dispatches on the magic, same as bp::Reader.
      raw = cz::decompress_frame(stored);
    }
    if (raw.size() != element_count(chunk.count) * elem)
      throw FormatError("bp::stream: chunk payload size mismatch for '" +
                        name + "'");

    // Scatter into the global array — the same row-major walk as
    // bp::Reader::read().
    const std::size_t ndim = var->shape.size();
    if (ndim == 0) {
      std::memcpy(out.data(), raw.data(), raw.size());
      continue;
    }
    std::vector<std::uint64_t> stride(ndim, 1);
    for (std::size_t d = ndim - 1; d-- > 0;)
      stride[d] = stride[d + 1] * var->shape[d + 1];
    const std::uint64_t row_elems = chunk.count.back();
    std::uint64_t rows = 1;
    for (std::size_t d = 0; d + 1 < ndim; ++d) rows *= chunk.count[d];

    std::vector<std::uint64_t> cursor(ndim, 0);
    for (std::uint64_t r = 0; r < rows; ++r) {
      std::uint64_t dst = 0;
      for (std::size_t d = 0; d < ndim; ++d)
        dst += (chunk.offset[d] + cursor[d]) * stride[d];
      std::memcpy(out.data() + dst * elem, raw.data() + r * row_elems * elem,
                  row_elems * elem);
      for (std::size_t d = ndim - 1; d-- > 0;) {
        if (++cursor[d] < chunk.count[d]) break;
        cursor[d] = 0;
      }
    }
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

void StreamEngine::validate_put(int rank, const std::string& name,
                                Datatype dtype, const Dims& shape,
                                const Dims& offset, const Dims& count) {
  if (!step_open_)
    throw UsageError("bp::StreamEngine: put outside a step");
  if (rank < 0 || rank >= nranks_)
    throw UsageError("bp::StreamEngine: rank out of range");
  if (shape.size() != offset.size() || shape.size() != count.size())
    throw UsageError("bp::StreamEngine: dimension rank mismatch for '" +
                     name + "'");
  for (std::size_t d = 0; d < shape.size(); ++d) {
    if (offset[d] + count[d] > shape[d])
      throw UsageError("bp::StreamEngine: chunk of '" + name +
                       "' exceeds global shape");
  }
  for (const auto& var : pending_) {
    if (var.record.name != name) continue;
    if (var.record.dtype != dtype || var.record.shape != shape)
      throw UsageError("bp::StreamEngine: inconsistent shape/dtype for '" +
                       name + "'");
    return;
  }
}

void StreamEngine::put(int rank, const std::string& name, const Dims& shape,
                       const ChunkView& view) {
  util::MutexLock lock(mutex_);
  validate_put(rank, name, view.dtype(), shape, view.offset(), view.count());
  if (step_kind_ == 2)
    throw UsageError("bp::StreamEngine: cannot mix real and synthetic puts");
  step_kind_ = 1;

  // Marshal under the lock (the codec and pool are shared): compress into
  // a recycled pool buffer and CRC32C-stamp the stored bytes, exactly the
  // treatment the file engines give a chunk on its way to a subfile.
  std::vector<std::uint8_t> stored;
  std::string operator_name;
  double compress_s = 0.0;
  if (codec_) {
    operator_name = codec_->name();
    stored = buffer_pool_.acquire_reserve(view.bytes().size() + 64);
    codec_->compress_append(view.bytes(), stored);
    const double serial =
        double(view.bytes().size()) / codec_->compress_speed_bps();
    if (config_.compress_threads > 1) {
      const std::uint64_t block =
          std::uint64_t(config_.compress_block_kb) * 1024;
      const std::uint64_t nblocks =
          view.bytes().empty()
              ? 0
              : (view.bytes().size() + block - 1) / block;
      compress_s = fsim::parallel_cpu_seconds(
          serial, config_.compress_threads, nblocks);
    } else {
      compress_s = serial;
    }
  } else {
    stored = buffer_pool_.acquire(view.bytes().size());
    if (!view.bytes().empty())
      std::memcpy(stored.data(), view.bytes().data(), view.bytes().size());
  }

  ChunkRecord meta;
  meta.offset = view.offset();
  meta.count = view.count();
  meta.writer_rank = std::uint32_t(rank);
  meta.stored_bytes = stored.size();
  meta.raw_bytes = view.bytes().size();
  meta.operator_name = operator_name;
  meta.crc32c = crc32c(stored);
  meta.has_crc = true;
  compute_stats(view.dtype(), view.bytes(), meta);

  // Charge the marshalling cost to the putting rank's critical path, same
  // accounting as the synchronous file engines.
  fsim::FsClient client(fs_, fsim::ClientId(rank));
  if (compress_s > 0.0) client.charge_cpu(compress_s, "compress");
  client.charge_cpu(double(stored.size()) / kCrcBandwidthBps, "crc32c");

  for (auto& var : pending_) {
    if (var.record.name != name) continue;
    var.record.chunks.push_back(std::move(meta));
    var.payload.push_back(std::move(stored));
    return;
  }
  PendingVar var;
  var.record.name = name;
  var.record.dtype = view.dtype();
  var.record.shape = shape;
  var.record.chunks.push_back(std::move(meta));
  var.payload.push_back(std::move(stored));
  pending_.push_back(std::move(var));
}

void StreamEngine::put_synthetic(int rank, const std::string& name,
                                 Datatype dtype, const Dims& shape,
                                 const Dims& offset, const Dims& count) {
  util::MutexLock lock(mutex_);
  validate_put(rank, name, dtype, shape, offset, count);
  if (step_kind_ == 1)
    throw UsageError("bp::StreamEngine: cannot mix real and synthetic puts");
  step_kind_ = 2;

  ChunkRecord meta;
  meta.offset = offset;
  meta.count = count;
  meta.writer_rank = std::uint32_t(rank);
  meta.raw_bytes = element_count(count) * dtype_size(dtype);
  meta.stored_bytes =
      codec_ ? std::uint64_t(double(meta.raw_bytes) *
                             config_.synthetic_codec_ratio)
             : meta.raw_bytes;
  if (codec_) meta.operator_name = codec_->name();
  meta.has_crc = false;  // no payload bytes to checksum

  for (auto& var : pending_) {
    if (var.record.name != name) continue;
    var.record.chunks.push_back(std::move(meta));
    var.payload.emplace_back();
    return;
  }
  PendingVar var;
  var.record.name = name;
  var.record.dtype = dtype;
  var.record.shape = shape;
  var.record.chunks.push_back(std::move(meta));
  var.payload.emplace_back();
  pending_.push_back(std::move(var));
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
  std::vector<std::string> out;
  for (const auto& var : step_->record.variables) out.push_back(var.name);
  return out;
}

const VarRecord* StreamConsumer::find_variable(const std::string& name) const {
  if (!step_) return nullptr;
  for (const auto& var : step_->record.variables)
    if (var.name == name) return &var;
  return nullptr;
}

std::vector<std::uint8_t> StreamConsumer::get(const std::string& name) {
  if (!step_)
    throw UsageError("bp::StreamConsumer: no current step (call next_step)");
  auto out = decode_stream_variable(*step_, name);
  // Charge the decode cost to this consumer, mirroring bp::Reader::read's
  // accounting (the named codec supplies the modelled speed).
  const VarRecord* var = find_variable(name);
  fsim::FsClient io(fs_, client_);
  for (const auto& chunk : var->chunks) {
    if (chunk.operator_name.empty() || chunk.raw_bytes == 0) continue;
    auto codec = cz::make_codec(chunk.operator_name, dtype_size(var->dtype));
    io.charge_cpu(double(chunk.raw_bytes) / codec->decompress_speed_bps(),
                  "decompress");
  }
  return out;
}

std::optional<AttrValue> StreamConsumer::attribute(
    const std::string& name) const {
  if (!step_) return std::nullopt;
  for (const auto& [key, value] : step_->record.attributes)
    if (key == name) return value;
  return std::nullopt;
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
