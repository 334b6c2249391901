#include "spans.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {
  if (enabled_) spans_.reserve(1 << 12);
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanRecorder::begin(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  const int index = int(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::end(int index) {
  if (index < 0) return;
  const std::int64_t t = now_ns();
  if (open_.empty() || open_.back() != index)
    throw std::logic_error("SpanRecorder: spans must close innermost first");
  open_.pop_back();
  spans_[std::size_t(index)].end_ns = t;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans.at(std::size_t(span.parent));
    const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) children[std::size_t(span.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0, run_hi = 0;
    bool open_run = false;
    for (const auto& [lo, hi] : kids) {
      if (open_run && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open_run) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open_run = true;
    }
    if (open_run) covered += run_hi - run_lo;
    self[i] = double(spans[i].end_ns - spans[i].start_ns - covered) * 1e-9;
  }
  return self;
}

}  // namespace perfbench
