#include "spans.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

Span make(const char* name, double start, double end, std::int64_t parent) {
  return Span{name, start, end, parent, 1};
}

TEST(SelfTime, LeafIsItsDuration) {
  const std::vector<Span> spans = {make("a", 10, 25, -1)};
  EXPECT_DOUBLE_EQ(self_times_us(spans)[0], 15);
}

TEST(SelfTime, SubtractsDisjointChildren) {
  const std::vector<Span> spans = {make("root", 0, 100, -1),
                                   make("c1", 10, 20, 0),
                                   make("c2", 50, 80, 0)};
  const auto self = self_times_us(spans);
  EXPECT_DOUBLE_EQ(self[0], 60);
  EXPECT_DOUBLE_EQ(self[1], 10);
  EXPECT_DOUBLE_EQ(self[2], 30);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Parallel branches: [10,40) and [20,60) cover 50 us of the parent.
  const std::vector<Span> spans = {make("forall", 0, 100, -1),
                                   make("b1", 10, 40, 0),
                                   make("b2", 20, 60, 0),
                                   make("b3", 25, 30, 0)};
  EXPECT_DOUBLE_EQ(self_times_us(spans)[0], 50);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  const std::vector<Span> spans = {make("p", 10, 20, -1),
                                   make("c", 5, 15, 0),
                                   make("late", 18, 30, 0)};
  EXPECT_DOUBLE_EQ(self_times_us(spans)[0], 3);
}

TEST(SelfTime, GrandchildrenDoNotReduceTheGrandparent) {
  const std::vector<Span> spans = {make("a", 0, 100, -1),
                                   make("b", 10, 60, 0),
                                   make("c", 20, 30, 1)};
  const auto self = self_times_us(spans);
  EXPECT_DOUBLE_EQ(self[0], 50);
  EXPECT_DOUBLE_EQ(self[1], 40);
  EXPECT_DOUBLE_EQ(self[2], 10);
}

TEST(SelfTime, TotalsGroupByName) {
  const std::vector<Span> spans = {make("run", 0, 100, -1),
                                   make("chunk", 0, 40, 0),
                                   make("chunk", 40, 90, 0)};
  const auto totals = totals_by_name(spans);
  EXPECT_EQ(totals.at("chunk").count, 2u);
  EXPECT_DOUBLE_EQ(totals.at("chunk").total_us, 90);
  EXPECT_DOUBLE_EQ(totals.at("chunk").self_us, 90);
  EXPECT_DOUBLE_EQ(totals.at("run").self_us, 10);
}

TEST(SpanRecorder, NestsUnderTheOpenSpanAndExports) {
  SpanRecorder recorder;
  {
    SpanRecorder::Scope outer(&recorder, "outer");
    SpanRecorder::Scope inner(&recorder, "inner");
  }
  SpanRecorder::Scope root(&recorder, "next", -1);
  const auto spans = recorder.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_LE(spans[1].end_us, spans[0].end_us);
  const std::string json = recorder.chrome_trace_json();
  EXPECT_NE(json.find("\"name\":\"inner\",\"ph\":\"X\""), std::string::npos);
}

}  // namespace
}  // namespace perfbench
