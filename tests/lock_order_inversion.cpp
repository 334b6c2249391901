// Seeded lock-order violation for ThreadSanitizer's deadlock detector.
// Two threads take the same two util::Mutex in opposite order; the threads
// run one after the other, so the program never actually deadlocks, but
// the inverted edge in the lock graph is a potential deadlock that TSan
// reports as "lock-order-inversion".  Registered only in BITIO_TSAN builds;
// the test passes on that report, so a detector that stops seeing the
// cycle fails it.
#include <thread>

#include "util/mutex.hpp"

int main() {
  bitio::util::Mutex first;
  bitio::util::Mutex second;
  std::thread forward([&] {
    bitio::util::MutexLock a(first);
    bitio::util::MutexLock b(second);
  });
  forward.join();
  std::thread backward([&] {
    bitio::util::MutexLock b(second);
    bitio::util::MutexLock a(first);
  });
  backward.join();
  return 0;
}
