#pragma once
// Simulated MPI subset ("smpi").
//
// The paper's I/O stack needs only a narrow slice of MPI: rank/size,
// barrier, reduce/allreduce, gather(v)/allgather, exscan (to compute each
// rank's offset into a global array), broadcast, and point-to-point
// send/recv (used by the aggregation step).  This module provides exactly
// that slice with MPI semantics, executing SPMD rank bodies as cooperating
// threads inside one process (`run_spmd`).
//
// Design notes (LLNL MPI tutorial model): all parallelism is explicit, data
// moves between rank-private address spaces only through these cooperative
// operations.  Rank bodies must not share mutable state other than through
// the Comm.  Collectives are implemented with a shared slot table plus a
// generation barrier, giving deterministic results independent of thread
// scheduling.
//
// Failure semantics (ULFM model): a rank that dies mid-run (its body throws
// RankFailure, driven by FaultPlan::rank_crash) is *marked failed* in the
// World instead of silently deadlocking its peers.  Surviving ranks observe
// the failure as RankFailedError from any collective or point-to-point
// operation — never a hang — and can then run the ULFM recovery sequence:
// agree() (fault-tolerant consensus), shrink() (dense re-ranked survivor
// communicator), and resume.  run_spmd_supervised() packages that loop:
// it re-enters rank bodies on the shrunken communicator with a
// RecoveryContext describing what happened.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace bitio::smpi {

/// Reduction operations, mirroring MPI_Op for the types we need.
enum class Op { sum, min, max };

/// Thrown *by a rank body* to simulate that rank dying mid-run (driven by
/// FaultPlan::rank_crash).  The supervised runner catches it, marks the
/// rank failed, and lets survivors observe the death as RankFailedError.
class RankFailure : public Error {
public:
  RankFailure(int rank, const std::string& what) : Error(what), rank_(rank) {}
  int rank() const { return rank_; }

private:
  int rank_;
};

/// Raised on *surviving* ranks when a peer is marked failed (or the
/// communicator revoked) while they are inside a collective or
/// point-to-point operation — the analogue of ULFM's MPI_ERR_PROC_FAILED /
/// MPI_ERR_REVOKED.  Recover with Comm::agree() + Comm::shrink(), or let
/// run_spmd_supervised() do it.
class RankFailedError : public Error {
public:
  explicit RankFailedError(const std::string& what) : Error(what) {}
};

namespace detail {

/// Shared state for one communicator: slot table + generation barrier +
/// point-to-point mailboxes + failure bookkeeping.  One instance is shared
/// by all rank threads.
class World {
public:
  explicit World(int size);

  int size() const { return size_; }

  /// Arrive-and-wait for all alive ranks.  Re-usable.  Raises
  /// RankFailedError once any rank is failed or the world is revoked —
  /// both for ranks arriving after the failure and for ranks already
  /// blocked when it happens (their generation is poisoned and they wake).
  void barrier();

  /// Publish this rank's contribution, wait for everyone, call `reader`
  /// with the full slot table, then wait again so no rank can start the
  /// next collective while another is still reading.
  void exchange(
      int rank, std::vector<std::byte> contribution,
      const std::function<void(const std::vector<std::vector<std::byte>>&)>&
          reader);

  void send(int from, int to, std::vector<std::byte> payload);
  /// Blocking receive.  Wakes with RankFailedError if `from` is (or
  /// becomes) failed with no queued message — never an unbounded hang
  /// against a dead peer.
  std::vector<std::byte> recv(int from, int to);

  // --- ULFM-style failure handling ---------------------------------------

  /// Mark `rank` failed: every in-progress and future collective or recv
  /// involving it raises RankFailedError on the survivors instead of
  /// deadlocking, and pending agree()/shrink() rounds that were only
  /// waiting on this rank complete without it.
  void mark_failed(int rank);
  bool is_failed(int rank) const {
    return failed_[std::size_t(rank)].load(std::memory_order_acquire);
  }
  /// Poison the communicator: every subsequent collective raises
  /// RankFailedError on every rank (MPI_Comm_revoke).
  void revoke();
  bool is_revoked() const { return revoked_.load(std::memory_order_acquire); }
  int alive_count() const;
  std::vector<int> failed_ranks() const;

  /// Fault-tolerant AND-consensus over the alive ranks (MPIX_Comm_agree).
  /// Never raises for survivors: ranks that die mid-round are dropped from
  /// the quorum, so the round always completes.
  bool agree(int rank, bool flag);

  struct ShrinkResult {
    std::shared_ptr<World> world;  // dense survivor communicator
    int rank = 0;                  // caller's rank in it
  };
  /// Build a dense, re-ranked communicator of the survivors
  /// (MPIX_Comm_shrink).  Collective over the alive ranks and, like
  /// agree(), tolerant of further deaths while the round is in progress.
  /// Survivor ranks are renumbered in ascending old-rank order.
  ShrinkResult shrink(int rank);

private:
  void throw_if_unusable_locked() const REQUIRES(mutex_);
  void complete_agree_locked() REQUIRES(mutex_);
  void complete_shrink_locked() REQUIRES(mutex_);
  /// recv wake-up predicate: a queued message for (from, to), or the peer
  /// failed / the communicator revoked (the waiter must raise, not sleep).
  bool recv_ready_locked(const std::pair<int, int>& key) const
      REQUIRES(mail_mutex_);

  int size_;
  mutable util::Mutex mutex_;
  util::CondVar cv_;
  int arrived_ GUARDED_BY(mutex_) = 0;
  std::uint64_t generation_ GUARDED_BY(mutex_) = 0;
  // Collective slot table.  Written by each rank as it arrives; read by
  // every rank between the publish and read barriers of exchange(), under
  // the lock (a rank thrown out of a poisoned barrier may re-enter a new
  // exchange and publish while slower survivors are still reading).
  std::vector<std::vector<std::byte>> slots_ GUARDED_BY(mutex_);

  // Failure state.  The flags are atomic so the mailbox path (guarded by
  // mail_mutex_) can read them without taking mutex_.
  std::vector<std::atomic<bool>> failed_;
  std::atomic<bool> revoked_{false};
  int failed_count_ GUARDED_BY(mutex_) = 0;
  // Barrier generation aborted by a failure; waiters from it wake and
  // raise.  At most one generation can ever be poisoned: after the first
  // failure no new waiter passes the barrier pre-check.
  std::optional<std::uint64_t> poisoned_generation_ GUARDED_BY(mutex_);

  // agree() round state (separate generation from the barrier).
  std::uint64_t agree_generation_ GUARDED_BY(mutex_) = 0;
  int agree_arrived_ GUARDED_BY(mutex_) = 0;
  bool agree_value_ GUARDED_BY(mutex_) = true;
  bool agree_result_ GUARDED_BY(mutex_) = true;

  // shrink() round state.
  std::uint64_t shrink_generation_ GUARDED_BY(mutex_) = 0;
  std::vector<int> shrink_arrived_ GUARDED_BY(mutex_);
  std::shared_ptr<World> shrink_world_ GUARDED_BY(mutex_);
  // old rank -> new rank, last completed round
  std::map<int, int> shrink_ranks_ GUARDED_BY(mutex_);

  // Mailboxes keyed by (from, to).  deque preserves message order per pair.
  util::Mutex mail_mutex_;
  std::map<std::pair<int, int>, std::deque<std::vector<std::byte>>> mail_
      GUARDED_BY(mail_mutex_);
  util::CondVar mail_cv_;
};

template <typename T>
std::vector<std::byte> to_bytes(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::byte> out(sizeof(T));
  std::memcpy(out.data(), &value, sizeof(T));
  return out;
}

template <typename T>
T from_bytes(const std::vector<std::byte>& bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  if (bytes.size() != sizeof(T))
    throw UsageError("smpi: collective type size mismatch");
  std::memcpy(&value, bytes.data(), sizeof(T));
  return value;
}

template <typename T>
T apply(Op op, T a, T b) {
  switch (op) {
    case Op::sum: return a + b;
    case Op::min: return a < b ? a : b;
    case Op::max: return a > b ? a : b;
  }
  throw UsageError("smpi: unknown op");
}

}  // namespace detail

/// Per-rank communicator handle.  Cheap to copy; all copies refer to the
/// same World.
class Comm {
public:
  Comm(std::shared_ptr<detail::World> world, int rank)
      : world_(std::move(world)), rank_(rank) {}

  /// A size-1 communicator for serial use (examples, tests, model mode).
  static Comm self();

  int rank() const { return rank_; }
  int size() const { return world_->size(); }

  void barrier() { world_->barrier(); }

  template <typename T>
  T allreduce(T value, Op op) {
    T acc{};
    world_->exchange(rank_, detail::to_bytes(value), [&](const auto& all) {
      acc = detail::from_bytes<T>(all[0]);
      for (int r = 1; r < size(); ++r)
        acc =
            detail::apply(op, acc, detail::from_bytes<T>(all[std::size_t(r)]));
    });
    return acc;
  }

  /// MPI_Exscan: rank r receives op over ranks [0, r); rank 0 receives the
  /// identity (0 for sum — the only identity we need).
  template <typename T>
  T exscan(T value, Op op = Op::sum) {
    T acc{};
    world_->exchange(rank_, detail::to_bytes(value), [&](const auto& all) {
      for (int r = 0; r < rank_; ++r) {
        T v = detail::from_bytes<T>(all[std::size_t(r)]);
        acc = r == 0 ? v : detail::apply(op, acc, v);
      }
    });
    return acc;
  }

  template <typename T>
  std::vector<T> allgather(T value) {
    std::vector<T> out;
    out.reserve(std::size_t(size()));
    world_->exchange(rank_, detail::to_bytes(value), [&](const auto& all) {
      for (const auto& b : all) out.push_back(detail::from_bytes<T>(b));
    });
    return out;
  }

  /// Gather fixed-size values to `root`.  Non-root ranks get an empty vector
  /// (MPI semantics).
  template <typename T>
  std::vector<T> gather(T value, int root) {
    auto all = allgather(value);
    if (rank_ != root) return {};
    return all;
  }

  template <typename T>
  T bcast(T value, int root) {
    T out{};
    world_->exchange(rank_,
                     rank_ == root ? detail::to_bytes(value)
                                   : std::vector<std::byte>{},
                     [&](const auto& all) {
                       out = detail::from_bytes<T>(all[std::size_t(root)]);
                     });
    return out;
  }

  /// Gather variable-length byte buffers to `root`; the root receives one
  /// buffer per rank in rank order, other ranks receive an empty vector.
  std::vector<std::vector<std::byte>> gatherv_bytes(
      std::span<const std::byte> local, int root);

  /// Blocking point-to-point.  Message order between a fixed (src,dst) pair
  /// is preserved.  Raises RankFailedError instead of hanging when the peer
  /// is marked failed.
  void send(int dest, std::span<const std::byte> payload);
  std::vector<std::byte> recv(int source);

  // --- ULFM-style recovery ------------------------------------------------

  /// Mark this rank failed (the supervised runner calls this when the body
  /// throws RankFailure).  Survivors see RankFailedError, never a hang.
  void mark_self_failed() { world_->mark_failed(rank_); }
  bool is_failed(int rank) const { return world_->is_failed(rank); }
  std::vector<int> failed_ranks() const { return world_->failed_ranks(); }
  int alive_count() const { return world_->alive_count(); }

  /// Poison the communicator for every rank (MPI_Comm_revoke).
  void revoke() { world_->revoke(); }
  bool revoked() const { return world_->is_revoked(); }

  /// Fault-tolerant AND-consensus on `flag` across the alive ranks.
  bool agree(bool flag) { return world_->agree(rank_, flag); }

  /// Dense re-ranked communicator of the survivors.  The returned Comm is a
  /// fresh world: new barrier, new mailboxes, no failed ranks.
  Comm shrink() {
    auto result = world_->shrink(rank_);
    return Comm(std::move(result.world), result.rank);
  }

private:
  std::shared_ptr<detail::World> world_;
  int rank_;
};

/// What a supervised rank body learns about the failure history when it is
/// (re-)entered.  `original_rank` is the rank's stable identity in the
/// world the run started with — fault plans keyed by rank keep matching the
/// same logical rank across shrinks.
struct RecoveryContext {
  int original_rank = 0;
  int original_size = 0;
  int generation = 0;      // completed shrink recoveries so far
  bool recovered = false;  // true when re-entered after a failure
  std::vector<int> failed_ranks;  // failed ranks of the previous comm
};

/// Outcome of a supervised run.
struct SpmdReport {
  int recoveries = 0;  // shrink generations the run went through
  int final_size = 0;  // communicator size when the run finished
  std::vector<int> crashed_ranks;  // original ranks that threw RankFailure
};

/// Launch `nranks` copies of `body` as threads, each with its own Comm, and
/// join them.  Exceptions thrown by any rank are captured and the first one
/// (by rank) is rethrown after all ranks finished.  A rank that throws is
/// marked failed so its peers get RankFailedError instead of deadlocking.
void run_spmd(int nranks, const std::function<void(Comm&)>& body);

/// Fault-tolerant variant: a body that throws RankFailure simply dies (not
/// an error); the survivors' next collective raises RankFailedError, upon
/// which the runner executes the ULFM sequence — agree on recovery, shrink
/// to a dense survivor communicator — and re-enters the body with
/// ctx.recovered = true.  Bodies are re-entered at most `max_recoveries`
/// times; past that the RankFailedError propagates as a run error.
SpmdReport run_spmd_supervised(
    int nranks, const std::function<void(Comm&, RecoveryContext&)>& body,
    int max_recoveries = 8);

}  // namespace bitio::smpi
