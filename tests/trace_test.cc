#include "observability/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

namespace wsk {
namespace {

// Structural well-formedness: balanced braces/brackets outside strings.
// A real JSON parser is overkill for asserting the exporter never emits
// unbalanced output; Perfetto-loading is checked by hand per release.
void ExpectBalancedJson(const std::string& json) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
        ++braces;
        break;
      case '}':
        --braces;
        break;
      case '[':
        ++brackets;
        break;
      case ']':
        --brackets;
        break;
      default:
        break;
    }
    ASSERT_GE(braces, 0) << "unbalanced '}' at offset " << i;
    ASSERT_GE(brackets, 0) << "unbalanced ']' at offset " << i;
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(TraceRecorderTest, SpansAccumulateStageTotalsAndEvents) {
  TraceRecorder recorder;
  { TraceSpan span(&recorder, TraceStage::kEnumeration); }
  { TraceSpan span(&recorder, TraceStage::kEnumeration); }
  { TraceSpan span(&recorder, TraceStage::kRankQuery); }
  EXPECT_EQ(recorder.StageCount(TraceStage::kEnumeration), 2u);
  EXPECT_EQ(recorder.StageCount(TraceStage::kRankQuery), 1u);
  EXPECT_EQ(recorder.StageCount(TraceStage::kQuery), 0u);
  EXPECT_EQ(recorder.num_events(), 3u);
  const std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].stage, TraceStage::kEnumeration);
  EXPECT_EQ(events[2].stage, TraceStage::kRankQuery);
  EXPECT_FALSE(events[0].instant);
}

TEST(TraceRecorderTest, NullRecorderSpanIsANoOp) {
  // Must not crash or record anywhere; this is the disabled hot path.
  TraceSpan span(nullptr, TraceStage::kQuery);
}

TEST(TraceRecorderTest, CountersAccumulate) {
  TraceRecorder recorder;
  recorder.Add(TraceCounter::kNodesVisited);
  recorder.Add(TraceCounter::kNodesVisited, 9);
  recorder.Add(TraceCounter::kKernelInvocations, 3);
  EXPECT_EQ(recorder.counter(TraceCounter::kNodesVisited), 10u);
  EXPECT_EQ(recorder.counter(TraceCounter::kKernelInvocations), 3u);
  EXPECT_EQ(recorder.counter(TraceCounter::kBatches), 0u);
}

TEST(TraceRecorderTest, SpanTimesAreOrderedAndWithinRecorderClock) {
  TraceRecorder recorder;
  const uint64_t before = recorder.NowUs();
  {
    TraceSpan span(&recorder, TraceStage::kTopK);
    // Ensure a measurable (>= 1 us) duration on coarse clocks.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const uint64_t after = recorder.NowUs();
  const std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_GE(events[0].start_us, before);
  EXPECT_GT(events[0].dur_us, 0u);
  EXPECT_LE(events[0].start_us + events[0].dur_us, after);
  EXPECT_EQ(recorder.StageTotalUs(TraceStage::kTopK), events[0].dur_us);
}

TEST(TraceRecorderTest, BufferFullDropsInsteadOfWrapping) {
  TraceRecorder recorder(/*event_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    TraceSpan span(&recorder, TraceStage::kCandidateEval);
  }
  EXPECT_EQ(recorder.num_events(), 4u);
  EXPECT_EQ(recorder.dropped_events(), 6u);
  // Aggregates are not subject to the event-buffer bound.
  EXPECT_EQ(recorder.StageCount(TraceStage::kCandidateEval), 10u);
}

TEST(TraceRecorderTest, ZeroCapacityKeepsAggregatesOnly) {
  TraceRecorder recorder(/*event_capacity=*/0);
  { TraceSpan span(&recorder, TraceStage::kBatch); }
  recorder.Annotate(TraceStage::kExplain, "note", 7);
  recorder.Add(TraceCounter::kBatches);
  EXPECT_EQ(recorder.num_events(), 0u);
  EXPECT_EQ(recorder.dropped_events(), 0u);
  EXPECT_EQ(recorder.StageCount(TraceStage::kBatch), 1u);
  EXPECT_EQ(recorder.StageCount(TraceStage::kExplain), 1u);
  EXPECT_EQ(recorder.counter(TraceCounter::kBatches), 1u);
  // The JSON still carries the counters instant.
  const std::string json = recorder.ToChromeTraceJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"batches\":1"), std::string::npos);
}

TEST(TraceRecorderTest, AnnotationsBecomeInstantEvents) {
  TraceRecorder recorder;
  recorder.Annotate(TraceStage::kExplain, "object 42 is \"far\"", 42);
  const std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].instant);
  EXPECT_EQ(events[0].arg, 42);
  EXPECT_EQ(events[0].detail, "object 42 is \"far\"");

  const std::string json = recorder.ToChromeTraceJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"arg\":42"), std::string::npos);
  // The quote inside the detail must come out escaped.
  EXPECT_NE(json.find("\\\"far\\\""), std::string::npos);
}

// The one JSON escaper behind the trace, slow-log and bench writers.
TEST(TraceRecorderTest, JsonEscaperUsesShortEscapesThenUnicode) {
  constexpr char kRaw[] = "a\"b\\c\nd\te\x01" "f\x1f" "g\0h";
  std::string out = "<";
  AppendJsonEscaped(std::string_view(kRaw, sizeof(kRaw) - 1), &out);
  EXPECT_EQ(out, "<a\\\"b\\\\c\\nd\\te\\u0001f\\u001fg\\u0000h");
}

TEST(TraceRecorderTest, ChromeTraceJsonShape) {
  TraceRecorder recorder;
  { TraceSpan span(&recorder, TraceStage::kQuery); }
  recorder.Add(TraceCounter::kNodesSeen, 5);
  const std::string json = recorder.ToChromeTraceJson();
  ExpectBalancedJson(json);
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\"", 0), 0u);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"wsk\""), std::string::npos);
  // Counters travel as a final global instant.
  EXPECT_NE(json.find("\"name\":\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"nodes_seen\":5"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos);
}

TEST(TraceRecorderTest, WriteChromeTraceRoundTrips) {
  TraceRecorder recorder;
  { TraceSpan span(&recorder, TraceStage::kInitialRank); }
  const std::string path =
      ::testing::TempDir() + "/wsk_trace_test_out.json";
  ASSERT_TRUE(recorder.WriteChromeTrace(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), recorder.ToChromeTraceJson());
  std::remove(path.c_str());
}

TEST(TraceRecorderTest, WriteChromeTraceReportsOpenFailure) {
  TraceRecorder recorder;
  const Status s = recorder.WriteChromeTrace("/nonexistent-dir/trace.json");
  EXPECT_FALSE(s.ok());
}

TEST(TraceRecorderTest, SummaryListsActiveStagesAndAllCounters) {
  TraceRecorder recorder;
  { TraceSpan span(&recorder, TraceStage::kLeafScoring); }
  recorder.Add(TraceCounter::kLeafObjectsScored, 12);
  const std::string summary = recorder.Summary();
  EXPECT_NE(summary.find("leaf_scoring"), std::string::npos);
  // Stages with no spans are omitted; counters always print.
  EXPECT_EQ(summary.find("bound_tightening"), std::string::npos);
  EXPECT_NE(summary.find("leaf_objects_scored"), std::string::npos);
  EXPECT_NE(summary.find("12"), std::string::npos);
}

TEST(TraceRecorderTest, StageAndCounterNamesAreStable) {
  EXPECT_STREQ(TraceStageName(TraceStage::kQuery), "query");
  EXPECT_STREQ(TraceStageName(TraceStage::kBoundTightening),
               "bound_tightening");
  EXPECT_STREQ(TraceCounterName(TraceCounter::kCandidatesEnumerated),
               "candidates_enumerated");
}

TEST(TraceRecorderTest, ConcurrentWritersAreLossless) {
  TraceRecorder recorder(/*event_capacity=*/1 << 12);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder] {
      for (int i = 0; i < kPerThread; ++i) {
        TraceSpan span(&recorder, TraceStage::kCandidateEval);
        recorder.Add(TraceCounter::kCandidatesEnumerated);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  constexpr uint64_t kTotal = uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(recorder.counter(TraceCounter::kCandidatesEnumerated), kTotal);
  EXPECT_EQ(recorder.StageCount(TraceStage::kCandidateEval), kTotal);
  EXPECT_EQ(recorder.num_events() + recorder.dropped_events(), kTotal);
  ExpectBalancedJson(recorder.ToChromeTraceJson());
}

}  // namespace
}  // namespace wsk
