#pragma once
// In-memory span recorder for the benchmark's traced runs.
//
// A span covers one call (or one tight loop of identical calls) from the
// benchmark's own code into a layer's public function.  Spans nest through
// an explicit stack: the span open when another begins is its parent.  All
// spans of one benchmark op share that op's id.  Nothing is written while
// measuring; the recorder is serialized once, at exit.
//
// A disabled recorder records nothing, so the untraced run executes the
// same code with one predictable branch per call.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;         // "<layer>.<function>", e.g. "bp.end_step"
  std::int64_t start_ns = 0;  // since the recorder's epoch
  std::int64_t end_ns = 0;
  int parent = -1;          // index into the span table; -1 for a root
  std::uint64_t op = 0;     // benchmark op the span belongs to
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  /// Op id stamped on spans begun from now on.
  void set_op(std::uint64_t op) { op_ = op; }

  /// Open a span as a child of the innermost open span.  Returns its index,
  /// or -1 when the recorder is disabled.
  int begin(const char* name);
  /// Close span `index` (the innermost open one).  No-op for -1.
  void end(int index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: begins on construction, ends on scope exit (exceptions too).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name)
      : recorder_(recorder), index_(recorder.begin(name)) {}
  ~ScopedSpan() { recorder_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int index_;
};

/// Self time of every span, in seconds: its duration minus the part of its
/// interval covered by its direct children.  Children may nest, abut or
/// overlap each other (their union is subtracted once) and are clipped to
/// the parent's interval.
std::vector<double> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
