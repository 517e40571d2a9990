// Tests for the perf-ledger module (obs/report.h): the JSON writer's
// escaping and comma discipline, robust statistics, the environment
// fingerprint, the repeat-isolation contract of Report::RunTimed, and the
// canonical serialized ledger shape that tools/bench_diff.py and
// tools/check_trace.py --ledger consume.

#include "obs/report.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace uv::obs {
namespace {

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  // Multi-byte UTF-8 passes through untouched.
  EXPECT_EQ(JsonEscape("\xc3\xa9"), "\xc3\xa9");
}

TEST(JsonWriterTest, NestedStructureIsDeterministic) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a").Int(1);
  w.Key("b").BeginArray();
  w.Double(0.5).Bool(true).String("x");
  w.EndArray();
  w.Key("c").BeginObject();
  w.Key("d").UInt(7);
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"a\":1,\"b\":[0.5,true,\"x\"],\"c\":{\"d\":7}}");
}

TEST(JsonWriterTest, EmptyContainersAndRawSplice) {
  JsonWriter w;
  w.BeginObject();
  w.Key("empty_obj").BeginObject().EndObject();
  w.Key("empty_arr").BeginArray().EndArray();
  w.Key("raw").Raw("[1,2]");
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"empty_obj\":{},\"empty_arr\":[],\"raw\":[1,2]}");
}

TEST(JsonWriterTest, NonFiniteDoublesSerializeAsNull) {
  // A non-finite measurement must stay visible as null (which the ledger
  // validators reject where a number is required), not turn into a
  // plausible-looking 0 that could pass a lower-is-better gate.
  JsonWriter w;
  w.BeginArray();
  w.Double(std::numeric_limits<double>::infinity());
  w.Double(std::numeric_limits<double>::quiet_NaN());
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(RobustStatsTest, KnownSample) {
  const RobustStats s = ComputeRobustStats({100.0, 2.0, 3.0, 1.0, 4.0});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 22.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);  // Nearest rank, robust to the outlier.
  EXPECT_DOUBLE_EQ(s.p95, 100.0);
  // Deviations from the median: {2, 1, 0, 1, 97} -> median 1.
  EXPECT_DOUBLE_EQ(s.mad, 1.0);
}

TEST(RobustStatsTest, EmptyAndSingleton) {
  const RobustStats empty = ComputeRobustStats({});
  EXPECT_DOUBLE_EQ(empty.p50, 0.0);
  EXPECT_DOUBLE_EQ(empty.mad, 0.0);
  const RobustStats one = ComputeRobustStats({4.5});
  EXPECT_DOUBLE_EQ(one.min, 4.5);
  EXPECT_DOUBLE_EQ(one.p50, 4.5);
  EXPECT_DOUBLE_EQ(one.p95, 4.5);
  EXPECT_DOUBLE_EQ(one.mad, 0.0);
}

TEST(EnvFingerprintTest, CapturesHardwareAndToolchain) {
  const EnvFingerprint env = CaptureEnvFingerprint();
  EXPECT_GT(env.hardware_threads, 0);
  EXPECT_FALSE(env.compiler.empty());
  EXPECT_FALSE(env.git_sha.empty());
  EXPECT_FALSE(env.build_type.empty());
}

TEST(ReportTest, SerializesCanonicalSchema) {
  Report report("unit");
  report.SetConfig("scale", 0.25);
  report.SetConfig("epochs", static_cast<int64_t>(7));
  report.SetConfig("city", "Fuzhou");
  auto& entry = report.Bench("alpha");
  entry.AddMetric("auc", 0.9, Direction::kHigherIsBetter);
  entry.AddMetric("wall_seconds", 1.5, Direction::kLowerIsBetter);
  entry.AddMetric("params", 123.0);

  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"schema\":\"uv-perf-ledger-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"suite\":\"unit\""), std::string::npos);
  for (const char* key :
       {"\"hardware_threads\":", "\"compiler\":", "\"build_type\":",
        "\"git_sha\":", "\"uv_threads\":", "\"uv_pool\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Config keys keep call order.
  const size_t scale_pos = json.find("\"scale\":0.25");
  const size_t epochs_pos = json.find("\"epochs\":7");
  const size_t city_pos = json.find("\"city\":\"Fuzhou\"");
  ASSERT_NE(scale_pos, std::string::npos);
  ASSERT_NE(epochs_pos, std::string::npos);
  ASSERT_NE(city_pos, std::string::npos);
  EXPECT_LT(scale_pos, epochs_pos);
  EXPECT_LT(epochs_pos, city_pos);
  // Directions serialize by name.
  EXPECT_NE(json.find("\"auc\":{\"value\":0.9,\"direction\":\"higher\""),
            std::string::npos);
  EXPECT_NE(json.find("\"direction\":\"lower\""), std::string::npos);
  EXPECT_NE(json.find("\"params\":{\"value\":123,\"direction\":\"info\""),
            std::string::npos);
}

TEST(ReportTest, BenchmarkKeysKeepInsertionOrder) {
  Report report("unit");
  report.Bench("zeta").AddMetric("v", 1.0);
  report.Bench("alpha").AddMetric("v", 2.0);
  report.Bench("zeta").AddMetric("w", 3.0);  // Reuses the existing entry.
  const std::string json = report.ToJson();
  const size_t zeta_pos = json.find("\"zeta\":{");
  const size_t alpha_pos = json.find("\"alpha\":{");
  ASSERT_NE(zeta_pos, std::string::npos);
  ASSERT_NE(alpha_pos, std::string::npos);
  EXPECT_LT(zeta_pos, alpha_pos);
  // One entry for zeta, holding both metrics.
  EXPECT_EQ(json.find("\"zeta\":{", zeta_pos + 1), std::string::npos);
  EXPECT_NE(json.find("\"w\":{\"value\":3"), std::string::npos);
}

TEST(ReportTest, RunTimedIsolatesCounterDeltasPerRepeat) {
  Registry::Global().ResetAll();
  Counter& counter = Registry::Global().GetCounter("mem.report_test_events");
  Report report("unit");
  int calls = 0;
  auto& entry = report.RunTimed("timed", /*warmup=*/2, /*repeats=*/3, [&] {
    ++calls;
    counter.Inc(5);
  });
  EXPECT_EQ(calls, 5);  // 2 warmup + 3 timed.
  EXPECT_EQ(entry.warmup(), 2);
  ASSERT_EQ(entry.repeats().size(), 3u);
  uint64_t last_ts = 0;
  for (const RepeatSample& rep : entry.repeats()) {
    EXPECT_GE(rep.seconds, 0.0);
    EXPECT_GE(rep.ts_us, last_ts);
    last_ts = rep.ts_us;
    // The registry is reset before each repeat, so the snapshot holds this
    // repeat's 5 events, not a cumulative total.
    bool found = false;
    for (const auto& [name, value] : rep.counters) {
      if (name == "mem.report_test_events") {
        EXPECT_EQ(value, 5u);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
  const RobustStats stats = entry.Stats();
  EXPECT_LE(stats.min, stats.p50);
  EXPECT_LE(stats.p50, stats.p95);
  EXPECT_LE(stats.p95, stats.max);
  Registry::Global().ResetAll();
}

TEST(ReportTest, RunTimedCapturesRelevantHistograms) {
  Registry::Global().ResetAll();
  Histogram& hist =
      Registry::Global().GetHistogram("threadpool.report_test_us");
  Report report("unit");
  auto& entry = report.RunTimed("hist", /*warmup=*/0, /*repeats=*/2, [&] {
    hist.Record(10);
    hist.Record(100);
  });
  ASSERT_EQ(entry.histograms().size(), 1u);
  EXPECT_EQ(entry.histograms()[0].name, "threadpool.report_test_us");
  // Post-reset, the final repeat's histogram covers that repeat alone.
  EXPECT_EQ(entry.histograms()[0].count, 2u);
  Registry::Global().ResetAll();
}

TEST(ReportTest, RunTimedAppendsAcrossCalls) {
  // Interleaved A/B timing calls RunTimed once per repeat per leg.
  Report report("unit");
  int a_calls = 0, b_calls = 0;
  for (int p = 0; p < 3; ++p) {
    const int warmup = p == 0 ? 1 : 0;
    report.RunTimed("a", warmup, 1, [&] { ++a_calls; });
    report.RunTimed("b", warmup, 1, [&] { ++b_calls; });
  }
  EXPECT_EQ(a_calls, 4);  // 1 warmup + 3 timed.
  EXPECT_EQ(b_calls, 4);
  EXPECT_EQ(report.Bench("a").repeats().size(), 3u);
  EXPECT_EQ(report.Bench("a").warmup(), 1);
  EXPECT_EQ(report.Bench("b").repeats().size(), 3u);
  EXPECT_EQ(report.Bench("b").warmup(), 1);
}

TEST(ReportTest, IgnoresCountersOutsideLedgerFamilies) {
  Registry::Global().ResetAll();
  Counter& other = Registry::Global().GetCounter("unrelated.events");
  Report report("unit");
  auto& entry =
      report.RunTimed("timed", /*warmup=*/0, /*repeats=*/1, [&] { other.Inc(); });
  ASSERT_EQ(entry.repeats().size(), 1u);
  for (const auto& [name, value] : entry.repeats()[0].counters) {
    EXPECT_NE(name, "unrelated.events");
  }
  Registry::Global().ResetAll();
}

TEST(ReportTest, WriteFileRoundTrips) {
  Report report("unit");
  report.Bench("only").AddMetric("v", 1.0);
  const std::string path =
      testing::TempDir() + "/uv_report_test_ledger.json";
  ASSERT_TRUE(report.WriteFile(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string contents = buffer.str();
  EXPECT_EQ(contents, report.ToJson() + "\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace uv::obs
