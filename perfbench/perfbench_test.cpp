// Unit tests of the benchmark's own machinery: the span recorder and its
// self-time computation, the tail rule, and the metric-name grammar.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "report.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

Span span(const char* name, std::int64_t start, std::int64_t end,
          int parent = -1, std::uint64_t op = 0) {
  return Span{name, start, end, parent, op};
}

TEST(SpanRecorder, NestsThroughTheOpenStackAndStampsOps) {
  SpanRecorder rec(true);
  rec.set_op(7);
  const int root = rec.begin("op");
  const int child = rec.begin("bp.put");
  rec.end(child);
  const int sibling = rec.begin("bp.end_step");
  rec.end(sibling);
  rec.end(root);
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[0].parent, -1);
  EXPECT_EQ(rec.spans()[1].parent, root);
  EXPECT_EQ(rec.spans()[2].parent, root);
  for (const Span& s : rec.spans()) {
    EXPECT_EQ(s.op, 7u);
    EXPECT_LE(s.start_ns, s.end_ns);
  }
  EXPECT_LE(rec.spans()[1].end_ns, rec.spans()[2].start_ns);
}

TEST(SpanRecorder, DisabledRecordsNothing) {
  SpanRecorder rec(false);
  {
    ScopedSpan a(rec, "op");
    ScopedSpan b(rec, "bp.put");
  }
  EXPECT_TRUE(rec.spans().empty());
}

TEST(SpanRecorder, ScopedSpansCloseOnException) {
  SpanRecorder rec(true);
  try {
    ScopedSpan a(rec, "op");
    ScopedSpan b(rec, "bp.put");
    throw std::runtime_error("layer failed");
  } catch (const std::runtime_error&) {
  }
  const int next = rec.begin("op");
  rec.end(next);
  EXPECT_EQ(rec.spans().back().parent, -1);
}

TEST(SpanRecorder, ClosingOutOfOrderIsRejected) {
  SpanRecorder rec(true);
  const int outer = rec.begin("op");
  rec.begin("bp.put");
  EXPECT_THROW(rec.end(outer), std::logic_error);
}

TEST(SelfTimes, LeafKeepsItsWholeDuration) {
  const auto self = self_times({span("op", 0, 1000)});
  EXPECT_DOUBLE_EQ(self[0], 1000e-9);
}

TEST(SelfTimes, AbuttingChildrenAreSubtractedOnce) {
  const auto self = self_times({span("op", 0, 1000), span("a", 100, 300, 0),
                                span("b", 300, 600, 0)});
  EXPECT_DOUBLE_EQ(self[0], 500e-9);
  EXPECT_DOUBLE_EQ(self[1], 200e-9);
  EXPECT_DOUBLE_EQ(self[2], 300e-9);
}

TEST(SelfTimes, OverlappingChildrenCountTheirUnion) {
  const auto self = self_times({span("op", 0, 1000), span("a", 100, 500, 0),
                                span("b", 400, 700, 0),
                                span("c", 650, 680, 0)});
  EXPECT_DOUBLE_EQ(self[0], 400e-9);
}

TEST(SelfTimes, GrandchildrenOnlyReduceTheirParent) {
  const auto self =
      self_times({span("op", 0, 1000), span("core.flush", 100, 900, 0),
                  span("bp.end_step", 200, 700, 1)});
  EXPECT_DOUBLE_EQ(self[0], 200e-9);
  EXPECT_DOUBLE_EQ(self[1], 300e-9);
  EXPECT_DOUBLE_EQ(self[2], 500e-9);
}

TEST(SelfTimes, ChildrenAreClippedToTheParent) {
  const auto self = self_times({span("op", 100, 200), span("a", 50, 150, 0),
                                span("b", 190, 400, 0)});
  EXPECT_DOUBLE_EQ(self[0], 40e-9);
}

TEST(SelfTimes, SelfTimesOfATreeSumToTheRootDuration) {
  const std::vector<Span> spans = {
      span("op", 0, 10'000),        span("a", 1'000, 4'000, 0),
      span("b", 4'000, 9'000, 0),   span("c", 1'500, 2'000, 1),
      span("d", 2'000, 3'500, 1),   span("e", 5'000, 8'000, 2)};
  const auto self = self_times(spans);
  EXPECT_NEAR(std::accumulate(self.begin(), self.end(), 0.0), 10'000e-9,
              1e-15);
}

TEST(MedianSelfTime, SumsPerOpThenTakesTheMedianOverOps) {
  const std::vector<Span> spans = {
      span("op", 0, 100, -1, 1),    span("bp.put", 0, 10, 0, 1),
      span("bp.put", 10, 30, 0, 1), span("op", 200, 300, -1, 2),
      span("bp.put", 200, 260, 3, 2), span("op", 400, 500, -1, 3)};
  const auto m = median_self_time_by_name(spans, {1, 2, 3});
  EXPECT_DOUBLE_EQ(m.at("bp.put"), 30e-9);  // {30, 60, 0}
  EXPECT_DOUBLE_EQ(m.at("op"), 70e-9);      // {70, 40, 100}
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Tail, FallsBackToTheMedianBelowTwentySamples) {
  const Tail t = tail_of(one_to(19));
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.value, 10.0);
  EXPECT_EQ(t.samples, 19u);
}

TEST(Tail, PicksTheHighestRungWithTenSamplesBeyond) {
  EXPECT_EQ(tail_of(one_to(20)).percentile, 50.0);
  EXPECT_EQ(tail_of(one_to(39)).percentile, 50.0);
  const Tail t40 = tail_of(one_to(40));
  EXPECT_EQ(t40.percentile, 75.0);
  EXPECT_EQ(t40.value, 30.0);  // 10 samples beyond it
  EXPECT_EQ(tail_of(one_to(100)).percentile, 90.0);
  EXPECT_EQ(tail_of(one_to(200)).percentile, 95.0);
  EXPECT_EQ(tail_of(one_to(1000)).percentile, 99.0);
  const Tail t = tail_of(one_to(10'000));
  EXPECT_EQ(t.percentile, 99.9);
  EXPECT_EQ(t.value, 9990.0);
}

TEST(Tail, IgnoresInputOrder) {
  std::vector<double> v = one_to(40);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(tail_of(v).value, 30.0);
}

TEST(Stats, MedianAndPercentile) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
  EXPECT_EQ(percentile(one_to(10), 90), 9.0);
  EXPECT_EQ(percentile(one_to(10), 100), 10.0);
  EXPECT_EQ(percentile(one_to(10), 1), 1.0);
}

TEST(MetricNames, FollowTheGrammar) {
  for (const char* ok : {"setup_s", "epoch_host_s.p50", "fsim.cpu_s.memcopy",
                         "9lives", "a-b_c.d"})
    EXPECT_TRUE(valid_metric_name(ok)) << ok;
  for (const char* bad : {"", "_lead", ".lead", "-lead", "has space",
                          "slash/", "colon:", "quote\""})
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(MetricSet, RejectsBadNamesRepeatsAndNonFiniteValues) {
  MetricSet set;
  set.add("setup_s", 1.5, "s");
  EXPECT_THROW(set.add("setup_s", 2.0, "s"), std::invalid_argument);
  EXPECT_THROW(set.add("bad name", 2.0, "s"), std::invalid_argument);
  EXPECT_THROW(set.add("nan_s", std::nan(""), "s"), std::invalid_argument);
  ASSERT_NE(set.find("setup_s"), nullptr);
  EXPECT_EQ(set.find("setup_s")->value, 1.5);
}

TEST(ResultLine, CarriesEveryDigit) {
  RunResult r;
  r.record_op(true, "");
  r.metrics.add("latency_s", 0.1234567890123, "s");
  r.metrics.add("container_bytes", 2576980377.0, "B");
  EXPECT_EQ(result_line(r),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
            "\"metrics\": {\"latency_s\": {\"value\": 0.12345678901230001, "
            "\"unit\": \"s\"}, \"container_bytes\": {\"value\": 2576980377, "
            "\"unit\": \"B\"}}}");
  r.record_op(false, "restore diverged");
  EXPECT_FALSE(r.correct());
  EXPECT_EQ(r.failed, 1u);
}

}  // namespace
}  // namespace perfbench
