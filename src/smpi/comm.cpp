#include "smpi/comm.hpp"

#include <algorithm>
#include <thread>

#include "util/table.hpp"  // strfmt

namespace bitio::smpi {

namespace detail {

World::World(int size)
    : size_(size),
      slots_(std::size_t(std::max(size, 0))),
      failed_(std::size_t(std::max(size, 0))) {
  if (size <= 0) throw UsageError("smpi: world size must be positive");
}

void World::throw_if_unusable_locked() const {
  if (revoked_.load(std::memory_order_relaxed))
    throw RankFailedError("smpi: communicator revoked");
  if (failed_count_ > 0) {
    for (int r = 0; r < size_; ++r)
      if (failed_[std::size_t(r)].load(std::memory_order_relaxed))
        throw RankFailedError(
            strfmt("smpi: rank %d failed during a collective", r));
  }
}

void World::barrier() {
  util::MutexLock lock(mutex_);
  throw_if_unusable_locked();
  const std::uint64_t my_generation = generation_;
  if (++arrived_ == size_ - failed_count_) {
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
  } else {
    while (generation_ == my_generation) cv_.wait(lock);
    if (poisoned_generation_ && *poisoned_generation_ == my_generation)
      throw RankFailedError("smpi: rank failed during a collective");
  }
}

void World::exchange(
    int rank, std::vector<std::byte> contribution,
    const std::function<void(const std::vector<std::vector<std::byte>>&)>&
        reader) {
  {
    util::MutexLock lock(mutex_);
    slots_[std::size_t(rank)] = std::move(contribution);
  }
  barrier();  // everyone has published
  {
    // The read must hold the lock: a rank thrown out of the publish barrier
    // by a failure (poisoned generation) can re-enter a *new* exchange and
    // overwrite its slot while slower survivors of this one are still
    // reading — the two barriers only serialize ranks that stay healthy.
    util::MutexLock lock(mutex_);
    reader(slots_);
  }
  barrier();  // everyone has read
}

void World::send(int from, int to, std::vector<std::byte> payload) {
  if (is_revoked()) throw RankFailedError("smpi: communicator revoked");
  if (is_failed(to))
    throw RankFailedError(strfmt("smpi: send to failed rank %d", to));
  {
    util::MutexLock lock(mail_mutex_);
    mail_[{from, to}].push_back(std::move(payload));
  }
  mail_cv_.notify_all();
}

bool World::recv_ready_locked(const std::pair<int, int>& key) const {
  auto it = mail_.find(key);
  if (it != mail_.end() && !it->second.empty()) return true;
  return is_failed(key.first) || is_revoked();
}

std::vector<std::byte> World::recv(int from, int to) {
  util::MutexLock lock(mail_mutex_);
  const auto key = std::make_pair(from, to);
  while (!recv_ready_locked(key)) mail_cv_.wait(lock);
  // A message the peer sent before dying is still deliverable.
  auto it = mail_.find(key);
  if (it != mail_.end() && !it->second.empty()) {
    std::vector<std::byte> payload = std::move(it->second.front());
    it->second.pop_front();
    return payload;
  }
  if (is_failed(from))
    throw RankFailedError(strfmt("smpi: recv from failed rank %d", from));
  if (is_revoked()) throw RankFailedError("smpi: communicator revoked");
  throw RankFailedError("smpi: recv woke without a message");  // unreachable
}

void World::mark_failed(int rank) {
  if (rank < 0 || rank >= size_)
    throw UsageError("smpi: mark_failed on bad rank");
  {
    util::MutexLock lock(mutex_);
    if (failed_[std::size_t(rank)].load(std::memory_order_relaxed)) return;
    failed_[std::size_t(rank)].store(true, std::memory_order_release);
    ++failed_count_;
    // Abort any in-progress barrier: waiters wake into the poisoned
    // generation and raise RankFailedError instead of proceeding.
    if (arrived_ > 0) {
      poisoned_generation_ = generation_;
      arrived_ = 0;
      ++generation_;
    }
    // A pending agree/shrink round that was only waiting on this rank
    // completes without it.
    complete_agree_locked();
    complete_shrink_locked();
    cv_.notify_all();
  }
  {
    // Taking the mailbox lock (even empty) orders the flag store before any
    // sleeping recv re-checks its predicate.
    util::MutexLock lock(mail_mutex_);
  }
  mail_cv_.notify_all();
}

void World::revoke() {
  {
    util::MutexLock lock(mutex_);
    if (revoked_.exchange(true, std::memory_order_acq_rel)) return;
    if (arrived_ > 0) {
      poisoned_generation_ = generation_;
      arrived_ = 0;
      ++generation_;
    }
    cv_.notify_all();
  }
  {
    util::MutexLock lock(mail_mutex_);
  }
  mail_cv_.notify_all();
}

int World::alive_count() const {
  util::MutexLock lock(mutex_);
  return size_ - failed_count_;
}

std::vector<int> World::failed_ranks() const {
  util::MutexLock lock(mutex_);
  std::vector<int> out;
  for (int r = 0; r < size_; ++r)
    if (failed_[std::size_t(r)].load(std::memory_order_relaxed))
      out.push_back(r);
  return out;
}

void World::complete_agree_locked() {
  if (agree_arrived_ > 0 && agree_arrived_ >= size_ - failed_count_) {
    agree_result_ = agree_value_;
    agree_value_ = true;
    agree_arrived_ = 0;
    ++agree_generation_;
    cv_.notify_all();
  }
}

bool World::agree(int rank, bool flag) {
  util::MutexLock lock(mutex_);
  if (failed_[std::size_t(rank)].load(std::memory_order_relaxed))
    throw UsageError("smpi: agree from a failed rank");
  const std::uint64_t my_generation = agree_generation_;
  agree_value_ = agree_value_ && flag;
  ++agree_arrived_;
  complete_agree_locked();
  while (agree_generation_ == my_generation) cv_.wait(lock);
  return agree_result_;
}

void World::complete_shrink_locked() {
  if (!shrink_arrived_.empty() &&
      int(shrink_arrived_.size()) >= size_ - failed_count_) {
    std::vector<int> survivors = shrink_arrived_;
    std::sort(survivors.begin(), survivors.end());
    shrink_world_ = std::make_shared<World>(int(survivors.size()));
    shrink_ranks_.clear();
    for (std::size_t i = 0; i < survivors.size(); ++i)
      shrink_ranks_[survivors[i]] = int(i);
    shrink_arrived_.clear();
    ++shrink_generation_;
    cv_.notify_all();
  }
}

World::ShrinkResult World::shrink(int rank) {
  util::MutexLock lock(mutex_);
  if (failed_[std::size_t(rank)].load(std::memory_order_relaxed))
    throw UsageError("smpi: shrink from a failed rank");
  const std::uint64_t my_generation = shrink_generation_;
  shrink_arrived_.push_back(rank);
  complete_shrink_locked();
  while (shrink_generation_ == my_generation) cv_.wait(lock);
  // shrink_world_/shrink_ranks_ stay valid until the *next* round
  // completes, which needs every alive rank — including this one — to call
  // shrink() again, so reading them here is race-free.
  return {shrink_world_, shrink_ranks_.at(rank)};
}

}  // namespace detail

Comm Comm::self() {
  return Comm(std::make_shared<detail::World>(1), 0);
}

std::vector<std::vector<std::byte>> Comm::gatherv_bytes(
    std::span<const std::byte> local, int root) {
  std::vector<std::vector<std::byte>> out;
  world_->exchange(rank_,
                   std::vector<std::byte>(local.begin(), local.end()),
                   [&](const std::vector<std::vector<std::byte>>& all) {
                     if (rank_ == root) out.assign(all.begin(), all.end());
                   });
  return out;
}

void Comm::send(int dest, std::span<const std::byte> payload) {
  if (dest < 0 || dest >= size()) throw UsageError("smpi: send to bad rank");
  world_->send(rank_, dest,
               std::vector<std::byte>(payload.begin(), payload.end()));
}

std::vector<std::byte> Comm::recv(int source) {
  if (source < 0 || source >= size())
    throw UsageError("smpi: recv from bad rank");
  return world_->recv(source, rank_);
}

void run_spmd(int nranks, const std::function<void(Comm&)>& body) {
  auto world = std::make_shared<detail::World>(nranks);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  threads.reserve(std::size_t(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      Comm comm(world, r);
      try {
        body(comm);
      } catch (...) {
        errors[std::size_t(r)] = std::current_exception();
        // Mark the rank failed so peers blocked in collectives get a typed
        // RankFailedError instead of deadlocking; the captured exception is
        // rethrown below once every rank finished.
        comm.mark_self_failed();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

SpmdReport run_spmd_supervised(
    int nranks, const std::function<void(Comm&, RecoveryContext&)>& body,
    int max_recoveries) {
  auto world = std::make_shared<detail::World>(nranks);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  util::Mutex report_mutex;
  SpmdReport report;
  report.final_size = nranks;
  threads.reserve(std::size_t(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      Comm comm(world, r);
      RecoveryContext ctx;
      ctx.original_rank = r;
      ctx.original_size = nranks;
      for (;;) {
        try {
          body(comm, ctx);
          util::MutexLock lock(report_mutex);
          report.recoveries = std::max(report.recoveries, ctx.generation);
          report.final_size = comm.size();
          return;
        } catch (const RankFailure&) {
          // This rank died.  Not a run error: survivors recover without it.
          comm.mark_self_failed();
          util::MutexLock lock(report_mutex);
          report.crashed_ranks.push_back(r);
          return;
        } catch (const RankFailedError&) {
          if (ctx.generation >= max_recoveries) {
            errors[std::size_t(r)] = std::current_exception();
            comm.mark_self_failed();
            return;
          }
          try {
            // ULFM recovery: everyone alive agrees to recover, then shrinks
            // to a dense survivor communicator; the body is re-entered with
            // the new comm and a context describing the failure.
            comm.agree(true);
            std::vector<int> failed = comm.failed_ranks();
            Comm next = comm.shrink();
            ctx.generation += 1;
            ctx.recovered = true;
            ctx.failed_ranks = std::move(failed);
            comm = next;
          } catch (...) {
            errors[std::size_t(r)] = std::current_exception();
            comm.mark_self_failed();
            return;
          }
        } catch (...) {
          errors[std::size_t(r)] = std::current_exception();
          comm.mark_self_failed();
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
  std::sort(report.crashed_ranks.begin(), report.crashed_ranks.end());
  return report;
}

}  // namespace bitio::smpi
