#pragma once
// Discrete-event building blocks for the storage timing model.
//
// Resources are deterministic FIFO queues with a fixed number of service
// slots.  Because service times do not depend on future arrivals, a job's
// completion time can be computed greedily at submission: jobs are submitted
// in nondecreasing arrival order (the replay loop pops sequences from an
// EventQueue in strict (time, sequence) order), so FIFO fairness is
// preserved without callback plumbing.

#include <array>
#include <cstdint>
#include <queue>
#include <vector>

namespace bitio::fsim {

/// FIFO resource with `slots` parallel servers and deterministic service
/// times.  submit() must be called with nondecreasing arrival times to keep
/// FIFO semantics (the replay loop guarantees this).
class FifoResource {
public:
  explicit FifoResource(int slots = 1);

  /// Submit a job arriving at `arrival` needing `service` seconds; returns
  /// its completion time.
  double submit(double arrival, double service);

  /// Time at which the resource last finishes work (0 if never used).
  double busy_until() const { return busy_until_; }

  /// Total service seconds performed.
  double busy_seconds() const { return busy_seconds_; }

private:
  // Min-heap of per-slot free times.
  std::priority_queue<double, std::vector<double>, std::greater<>> free_;
  double busy_until_ = 0.0;
  double busy_seconds_ = 0.0;
};

/// The replay's ready queue: one pending event per sequence, popped in
/// strict (time, sequence) order, so equal times pop by ascending sequence
/// and the pop order is a property of the model rather than of a heap
/// implementation.
///
/// A monotone radix queue: an event's key is its time's bit pattern (which
/// orders like the time for finite times >= 0), and bucket i > 0 holds the
/// events whose key first differs from the last popped key at bit i - 1.
/// Bucket 0 holds the events tied with the last popped key, kept sorted by
/// sequence; each other bucket tracks its least key, which becomes the
/// last popped key when the bucket is emptied downwards.  Each bucket is a
/// list threaded through the per-sequence slots, so the queue costs
/// O(sequences) memory and no allocation per event.  Every sequence starts
/// pending at t = 0.
class EventQueue {
public:
  struct Event {
    double time;
    std::uint32_t sequence;
  };

  explicit EventQueue(std::uint32_t sequences);

  [[nodiscard]] bool empty() const { return pending_ == 0; }

  /// Removes and returns the earliest event, ties by lowest sequence.
  /// UsageError when the queue is empty.
  Event pop();

  /// Makes `sequence` (which has no pending event) ready at `time`.
  /// Throws UsageError for a time earlier than the last popped one, a time
  /// that is NaN or infinite, or a sequence that is out of range or
  /// already pending.
  void push(double time, std::uint32_t sequence);

private:
  static constexpr std::uint32_t kEnd = ~std::uint32_t(0);
  static constexpr std::uint64_t kIdle = ~std::uint64_t(0);  // a NaN's bits
  static constexpr int kBuckets = 65;

  /// Moves the lowest nonempty bucket's events down, so that bucket 0
  /// holds the minimum key's events in sequence order.
  void refill();

  std::vector<std::uint64_t> key_;   // per sequence; kIdle when not pending
  std::vector<std::uint32_t> next_;  // per sequence: its bucket's next
  std::array<std::uint32_t, kBuckets> head_{};
  std::array<std::uint64_t, kBuckets> min_{};  // bucket i > 0: least key
  std::uint64_t occupied_ = 0;  // bit i - 1 set: bucket i > 0 is nonempty
  std::uint64_t last_ = 0;      // key last popped
  std::uint32_t pending_ = 0;
  std::vector<std::uint32_t> ties_;  // refill()'s scratch, sorted in place
};

/// Deterministic multiplicative noise stream: factor(i) in
/// [1-amplitude, 1+amplitude], reproducible for a given seed.
class NoiseStream {
public:
  NoiseStream(double amplitude, std::uint64_t seed)
      : amplitude_(amplitude), state_(seed ^ 0x9E3779B97F4A7C15ull) {}

  double next();

private:
  double amplitude_;
  std::uint64_t state_;
};

}  // namespace bitio::fsim
