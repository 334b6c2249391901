#include "fsim/des.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <utility>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace bitio::fsim {

FifoResource::FifoResource(int slots) {
  if (slots <= 0) throw UsageError("FifoResource: slots must be positive");
  for (int i = 0; i < slots; ++i) free_.push(0.0);
}

double FifoResource::submit(double arrival, double service) {
  const double slot_free = free_.top();
  free_.pop();
  const double start = std::max(arrival, slot_free);
  const double done = start + service;
  free_.push(done);
  busy_until_ = std::max(busy_until_, done);
  busy_seconds_ += service;
  return done;
}

EventQueue::EventQueue(std::uint32_t sequences)
    : key_(sequences, 0), next_(sequences, kEnd), pending_(sequences) {
  // All sequences tie at t = 0, so bucket 0 is simply 0, 1, ..., n - 1.
  head_.fill(kEnd);
  min_.fill(kIdle);
  for (std::uint32_t s = 1; s < sequences; ++s) next_[s - 1] = s;
  if (sequences > 0) head_[0] = 0;
}

EventQueue::Event EventQueue::pop() {
  if (pending_ == 0) throw UsageError("EventQueue::pop: the queue is empty");
  if (head_[0] == kEnd) refill();
  const std::uint32_t s = head_[0];
  head_[0] = next_[s];
  key_[s] = kIdle;
  --pending_;
  return {std::bit_cast<double>(last_), s};
}

void EventQueue::push(double time, std::uint32_t sequence) {
  if (sequence >= key_.size())
    throw UsageError("EventQueue::push: sequence " +
                     std::to_string(sequence) + " is out of range");
  if (key_[sequence] != kIdle)
    throw UsageError("EventQueue::push: sequence " +
                     std::to_string(sequence) + " is already pending");
  const double last = std::bit_cast<double>(last_);
  if (!(time >= last) || !std::isfinite(time))
    throw UsageError("EventQueue::push: time " + std::to_string(time) +
                     " is not a finite time at or after " +
                     std::to_string(last));
  // Adding +0.0 turns -0.0 into +0.0, whose bits order as the smallest key.
  const std::uint64_t key = std::bit_cast<std::uint64_t>(time + 0.0);
  key_[sequence] = key;
  ++pending_;
  const int bucket = std::bit_width(key ^ last_);
  if (bucket > 0) {
    next_[sequence] = head_[std::size_t(bucket)];
    head_[std::size_t(bucket)] = sequence;
    min_[std::size_t(bucket)] = std::min(min_[std::size_t(bucket)], key);
    occupied_ |= std::uint64_t(1) << (bucket - 1);
    return;
  }
  // A tie with the last pop.  In the replay the pushed sequence is the one
  // just popped, which sorts before every other tie, so this walk stops at
  // the head.
  std::uint32_t* link = &head_[0];
  while (*link != kEnd && *link < sequence) link = &next_[*link];
  next_[sequence] = *link;
  *link = sequence;
}

void EventQueue::refill() {
  const int bucket = std::countr_zero(occupied_) + 1;
  occupied_ &= occupied_ - 1;
  std::uint32_t s = std::exchange(head_[std::size_t(bucket)], kEnd);
  // Every key of this bucket agrees with its least key above bit
  // bucket - 1, so each one moves to a lower bucket, and the least key's
  // ties to bucket 0.
  last_ = std::exchange(min_[std::size_t(bucket)], kIdle);
  ties_.clear();
  while (s != kEnd) {
    const std::uint32_t next = next_[s];
    const int to = std::bit_width(key_[s] ^ last_);
    if (to == 0) {
      ties_.push_back(s);
    } else {
      next_[s] = head_[std::size_t(to)];
      head_[std::size_t(to)] = s;
      min_[std::size_t(to)] = std::min(min_[std::size_t(to)], key_[s]);
      occupied_ |= std::uint64_t(1) << (to - 1);
    }
    s = next;
  }
  std::sort(ties_.begin(), ties_.end());
  for (auto it = ties_.rbegin(); it != ties_.rend(); ++it) {
    next_[*it] = head_[0];
    head_[0] = *it;
  }
}

double NoiseStream::next() {
  if (amplitude_ <= 0.0) return 1.0;
  const std::uint64_t z = splitmix64(state_);
  const double u = double(z >> 11) * 0x1.0p-53;  // [0,1)
  return 1.0 + amplitude_ * (2.0 * u - 1.0);
}

}  // namespace bitio::fsim
