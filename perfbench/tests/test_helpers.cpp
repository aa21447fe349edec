/// \file test_helpers.cpp
/// Tests of the benchmark's own helpers: the tail-percentile rule, span
/// self-time attribution (including overlapping children on pool
/// threads), the Chrome trace round trip, and failure accounting of
/// planted output mismatches.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>

#include "checks.hpp"
#include "sample_stats.hpp"
#include "span_trace.hpp"
#include "util/thread_pool.hpp"

namespace pb = perfbench;

namespace {

std::vector<double> ramp(int n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

pb::Span span(int id, int parent, const char* name, double start, double end,
              int tid = 0) {
  pb::Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start = start;
  s.end = end;
  s.tid = tid;
  return s;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

}  // namespace

TEST(TailRule, PicksHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(pb::tail(ramp(19)).pct, 50.0);   // nothing qualifies
  EXPECT_EQ(pb::tail(ramp(39)).pct, 50.0);   // p75 has 9.75 beyond
  EXPECT_EQ(pb::tail(ramp(40)).pct, 75.0);
  EXPECT_EQ(pb::tail(ramp(100)).pct, 90.0);
  EXPECT_EQ(pb::tail(ramp(281)).pct, 95.0);  // one simulated hour of steps
  EXPECT_EQ(pb::tail(ramp(999)).pct, 95.0);
  EXPECT_EQ(pb::tail(ramp(1000)).pct, 99.0);
  EXPECT_EQ(pb::tail(ramp(10000)).pct, 99.9);
  const pb::Tail t = pb::tail(ramp(101));
  EXPECT_EQ(t.n, 101u);
  EXPECT_DOUBLE_EQ(t.value, 91.0);  // p90 of 1..101, interpolated
}

TEST(TailRule, MedianInterpolates) {
  EXPECT_DOUBLE_EQ(pb::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(pb::median({}), 0.0);
}

TEST(SelfTime, OverlappingChildrenSplitTheWallTheyShare) {
  // root [0,10]; children a [1,5] and b [3,9] on two pool threads; a has
  // a grandchild g [2,3].
  const std::vector<pb::Span> spans = {
      span(0, -1, "root", 0, 10),     span(1, 0, "a", 1, 5, 1),
      span(2, 0, "b", 3, 9, 2),       span(3, 1, "g", 2, 3, 1)};
  const auto self = pb::self_time_by_name(spans);
  EXPECT_DOUBLE_EQ(self.at("root"), 2.0);  // span minus union of children
  EXPECT_DOUBLE_EQ(self.at("a"), 2.0);     // [1,2] + half of [3,5]
  EXPECT_DOUBLE_EQ(self.at("b"), 5.0);     // half of [3,5] + [5,9]
  EXPECT_DOUBLE_EQ(self.at("g"), 1.0);
  double sum = 0.0;
  for (const auto& [name, seconds] : self) sum += seconds;
  EXPECT_DOUBLE_EQ(sum, 10.0);  // shares add up to the covered wall
}

TEST(SelfTime, DisjointRootsAndGapsAreNotCharged) {
  const std::vector<pb::Span> spans = {span(0, -1, "x", 0, 1),
                                       span(1, -1, "y", 3, 4)};
  const auto self = pb::self_time_by_name(spans);
  EXPECT_DOUBLE_EQ(self.at("x") + self.at("y"), 2.0);
}

TEST(SelfTime, PoolThreadSpansNestUnderTheirExplicitParent) {
  pb::Tracer tracer;
  int root_id = -1;
  {
    pb::Tracer::Scope root(tracer, "root");
    root_id = root.id();
    nestwx::util::ThreadPool pool(4);
    nestwx::util::parallel_for(pool, 8, [&](int i) {
      pb::Tracer::Scope child(tracer, "child", i, root_id);
      pb::Tracer::Scope inner(tracer, "inner", i);  // parent from the thread
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    });
  }
  const std::vector<pb::Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 17u);
  std::map<int, int> parent_of;
  for (const auto& s : spans) parent_of[s.id] = s.parent;
  for (const auto& s : spans) {
    if (s.name == "child") {
      EXPECT_EQ(s.parent, root_id);
    } else if (s.name == "inner") {
      EXPECT_EQ(spans[s.parent].name, "child");
    }
  }
  const auto self = pb::self_time_by_name(spans);
  double sum = 0.0;
  for (const auto& [name, seconds] : self) sum += seconds;
  const double root_wall = pb::durations_of(spans, "root").at(0);
  EXPECT_NEAR(sum, root_wall, 1e-9);
  EXPECT_GT(self.at("inner"), 0.5 * root_wall);  // the sleeps dominate
}

TEST(ChromeTrace, RoundTripsSpans) {
  std::vector<pb::Span> spans = {span(0, -1, "serve.drain", 0.25, 1.5),
                                 span(1, 0, "serve.parse", 0.3, 0.3125, 3)};
  spans[1].op = 42;
  const std::string path = temp_path("perfbench_roundtrip.json");
  pb::write_chrome_trace(path, spans, {{"seed", "7"}, {"commit", "abc"}});
  const std::vector<pb::Span> back = pb::read_chrome_trace(path);
  ASSERT_EQ(back.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(back[i].name, spans[i].name);
    EXPECT_EQ(back[i].id, spans[i].id);
    EXPECT_EQ(back[i].parent, spans[i].parent);
    EXPECT_EQ(back[i].tid, spans[i].tid);
    EXPECT_EQ(back[i].op, spans[i].op);
    EXPECT_NEAR(back[i].start, spans[i].start, 1e-12);
    EXPECT_NEAR(back[i].end, spans[i].end, 1e-12);
  }
  bool ok = false;
  const std::string text = pb::read_file(path, ok);
  ASSERT_TRUE(ok);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"commit\": \"abc\""), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Checks, PlantedReportMismatchCountsAsFailure) {
  pb::CheckLog log;
  log.same_as_first("serve report", "{\"a\": 1}\n");
  log.same_as_first("serve report", "{\"a\": 1}\n");
  EXPECT_EQ(log.failed(), 0u);
  log.same_as_first("serve report", "{\"a\": 2}\n");  // planted
  EXPECT_EQ(log.failed(), 1u);
  EXPECT_EQ(log.attempted(), 2u);
}

TEST(Checks, PlantedChecksumMismatchCountsAsFailure) {
  pb::CheckLog log;
  log.same_as_first("swm state checksum", "1234");
  log.same_as_first("swm state checksum", "1235");  // planted
  EXPECT_EQ(log.failed(), 1u);
}

TEST(Checks, GoldenFileComparisonIsByteExact) {
  const std::string path = temp_path("perfbench_golden.json");
  {
    std::ofstream out(path, std::ios::binary);
    out << "{\"x\": 1}\n";
  }
  pb::CheckLog log;
  log.matches_file(path, "{\"x\": 1}\n");
  EXPECT_EQ(log.failed(), 0u);
  log.matches_file(path, "{\"x\": 1} \n");  // planted trailing space
  EXPECT_EQ(log.failed(), 1u);
  log.matches_file(path + ".missing", "{}");
  EXPECT_EQ(log.failed(), 2u);
  std::filesystem::remove(path);
}

TEST(Checks, FailedOperationsCount) {
  pb::CheckLog log;
  log.operations(200, 0, "in a drain");
  log.operations(200, 3, "in a drain");
  EXPECT_EQ(log.attempted(), 400u);
  EXPECT_EQ(log.failed(), 3u);
}
