#include "bp/query.hpp"

#include <functional>
#include <utility>

#include "compress/buffer_pool.hpp"
#include "util/error.hpp"

namespace bitio::bp {

namespace {

/// Wrap a decoded buffer so its storage returns to the process-wide pool
/// when the cache and every client have let go of it.
QueryService::Block pooled_block(std::vector<std::uint8_t>&& bytes) {
  auto* vec = new std::vector<std::uint8_t>(std::move(bytes));
  return QueryService::Block(vec, [](const std::vector<std::uint8_t>* p) {
    auto* mut = const_cast<std::vector<std::uint8_t>*>(p);
    cz::BufferPool::shared().release(std::move(*mut));
    delete mut;
  });
}

std::string cache_key(std::uint64_t step, const std::string& var) {
  return std::to_string(step) + "/" + var;
}

}  // namespace

QueryService::QueryService(StreamEngine& engine, fsim::ClientId client,
                           Options options)
    : options_(options) {
  if (options_.shards < 1)
    throw UsageError("bp::QueryService: shards must be >= 1");
  if (options_.retain_steps < 1)
    throw UsageError("bp::QueryService: retain_steps must be >= 1");
  shard_budget_ = options_.cache_bytes / std::size_t(options_.shards);
  shards_.reserve(std::size_t(options_.shards));
  for (int s = 0; s < options_.shards; ++s)
    shards_.push_back(std::make_unique<Shard>());
  consumer_ = engine.attach_stream(client);
  ingest_thread_ = std::thread([this] { ingest_loop(); });
}

QueryService::~QueryService() { stop(); }

void QueryService::ingest_loop() {
  while (auto step = consumer_->next_raw()) {
    util::MutexLock lock(index_mutex_);
    index_[step->record.step] = step;
    while (index_.size() > std::size_t(options_.retain_steps))
      index_.erase(index_.begin());
    ++steps_indexed_;
    index_cv_.notify_all();
  }
  util::MutexLock lock(index_mutex_);
  ingest_done_ = true;
  index_cv_.notify_all();
}

std::vector<std::uint64_t> QueryService::steps() const {
  util::MutexLock lock(index_mutex_);
  std::vector<std::uint64_t> out;
  out.reserve(index_.size());
  for (const auto& [id, step] : index_) {
    (void)step;
    out.push_back(id);
  }
  return out;
}

std::optional<std::uint64_t> QueryService::latest_step() const {
  util::MutexLock lock(index_mutex_);
  if (index_.empty()) return std::nullopt;
  return index_.rbegin()->first;
}

std::vector<std::string> QueryService::variables(std::uint64_t step) const {
  auto record = find_step(step);
  return record ? record->record.variable_names()
                : std::vector<std::string>{};
}

std::uint64_t QueryService::wait_steps(std::uint64_t n) {
  util::MutexLock lock(index_mutex_);
  while (steps_indexed_ < n && !ingest_done_) index_cv_.wait(lock);
  return steps_indexed_;
}

std::shared_ptr<const StreamStep> QueryService::find_step(
    std::uint64_t step) const {
  util::MutexLock lock(index_mutex_);
  auto it = index_.find(step);
  return it == index_.end() ? nullptr : it->second;
}

QueryService::Shard& QueryService::shard_of(const std::string& key) {
  const std::size_t h = std::hash<std::string>{}(key);
  return *shards_[h % shards_.size()];
}

QueryService::Block QueryService::query(std::uint64_t step,
                                        const std::string& var) {
  {
    util::MutexLock lock(stats_mutex_);
    ++stats_.queries;
  }
  const std::string key = cache_key(step, var);
  Shard& shard = shard_of(key);

  // Fast path: cache hit, promote to the front of the shard's LRU.
  {
    util::MutexLock lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      Block block = it->second->block;
      lock.unlock();
      util::MutexLock slock(stats_mutex_);
      ++stats_.hits;
      return block;
    }
  }

  // Miss: look the step up in the index and decode outside any shard lock
  // (two clients may race to decode the same block; the second insert
  // finds the key present and keeps the first block — wasted work, never
  // a wrong answer).
  auto record = find_step(step);
  if (!record || !record->record.find_variable(var)) {
    util::MutexLock slock(stats_mutex_);
    ++stats_.misses;
    return nullptr;
  }

  Block block = pooled_block(decode_stream_variable(*record, var));
  const std::size_t block_bytes = block->size();
  {
    util::MutexLock slock(stats_mutex_);
    ++stats_.misses;
    stats_.bytes_decoded += block_bytes;
  }

  std::uint64_t evicted = 0;
  {
    util::MutexLock lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Lost the decode race; serve the cached block.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->block;
    }
    shard.lru.push_front(CacheEntry{key, block});
    shard.index[key] = shard.lru.begin();
    shard.bytes += block_bytes;
    while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
      CacheEntry& victim = shard.lru.back();
      shard.bytes -= victim.block->size();
      shard.index.erase(victim.key);
      shard.lru.pop_back();
      ++evicted;
    }
  }
  if (evicted > 0) {
    util::MutexLock slock(stats_mutex_);
    stats_.evictions += evicted;
  }
  return block;
}

QueryService::Stats QueryService::stats() const {
  Stats out;
  {
    util::MutexLock lock(stats_mutex_);
    out = stats_;
  }
  util::MutexLock lock(index_mutex_);
  out.steps_indexed = steps_indexed_;
  return out;
}

void QueryService::stop() {
  if (stopped_) return;
  stopped_ = true;
  // Detaching unblocks the ingest consumer if it is parked in next().
  consumer_->detach();
  if (ingest_thread_.joinable()) ingest_thread_.join();
}

}  // namespace bitio::bp
