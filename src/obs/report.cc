#include "obs/report.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace uv::obs {

namespace {

// Shortest round-trip decimal form, so ledgers diff cleanly and re-parsing
// reproduces the exact double. Non-finite values (which JSON cannot carry)
// serialize as null so a broken measurement stays visible — the validators
// (check_trace.py --ledger, bench_diff.py) reject null where a number is
// required instead of letting a silent 0 pass a lower-is-better gate.
std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

const char* DirectionName(Direction d) {
  switch (d) {
    case Direction::kLowerIsBetter: return "lower";
    case Direction::kHigherIsBetter: return "higher";
    case Direction::kInfo: return "info";
  }
  return "info";
}

// Nearest-rank percentile over an already sorted sample vector.
double SortedPercentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size());
  size_t idx = static_cast<size_t>(std::ceil(rank));
  if (idx > 0) --idx;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

bool HasPrefix(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Counters/histograms snapshotted into each repeat: the allocator,
// thread-pool, serving, and model-quality families, where a hot-path
// regression shows first (a dropped pool explodes mem.heap_allocs; a
// serialized GEMM empties threadpool.queue_wait_us; a stalled dispatcher
// inflates serve.latency_us; a monitored serve entry carries its
// quality.score_e6 sketch and drift gauges would surface in export).
bool LedgerRelevant(const std::string& name) {
  return HasPrefix(name, "mem.") || HasPrefix(name, "threadpool.") ||
         HasPrefix(name, "serve.") || HasPrefix(name, "quality.") ||
         HasPrefix(name, "drift.") || HasPrefix(name, "shadow.");
}

std::string EnvOrEmpty(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : std::string();
}

// Set before main() by the kernel dispatcher's static registrar; plain
// atomic because registration and capture never race in practice (capture
// happens from Report construction, well after static init).
std::atomic<const char* (*)()> g_simd_name_provider{nullptr};

}  // namespace

// ---------------------------------------------------------------------------
// JsonEscape / JsonWriter
// ---------------------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    // This value was announced by Key(), which already placed the comma.
    pending_key_ = false;
    return;
  }
  if (!has_value_.empty()) {
    if (has_value_.back()) out_ += ',';
    has_value_.back() = 1;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  has_value_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  has_value_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  has_value_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  has_value_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& name) {
  if (!has_value_.empty()) {
    if (has_value_.back()) out_ += ',';
    has_value_.back() = 1;
  }
  out_ += '"';
  out_ += JsonEscape(name);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& v) {
  BeforeValue();
  out_ += '"';
  out_ += JsonEscape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t v) {
  BeforeValue();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::UInt(uint64_t v) {
  BeforeValue();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Double(double v) {
  BeforeValue();
  out_ += FormatDouble(v);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool v) {
  BeforeValue();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Raw(const std::string& json) {
  BeforeValue();
  out_ += json;
  return *this;
}

// ---------------------------------------------------------------------------
// Environment fingerprint
// ---------------------------------------------------------------------------

EnvFingerprint CaptureEnvFingerprint() {
  EnvFingerprint env;
  env.hardware_threads =
      static_cast<int>(std::thread::hardware_concurrency());
#ifdef __VERSION__
  env.compiler = __VERSION__;
#else
  env.compiler = "unknown";
#endif
#ifdef UV_BUILD_TYPE
  env.build_type = UV_BUILD_TYPE;
#else
  env.build_type = "unknown";
#endif
#ifdef UV_NATIVE_BUILD
  env.build_flags = "native";
#endif
#ifdef UV_SANITIZE_BUILD
  if (!env.build_flags.empty()) env.build_flags += ',';
  env.build_flags += "sanitize";
#endif
#ifdef UV_GIT_SHA
  env.git_sha = UV_GIT_SHA;
#else
  env.git_sha = "unknown";
#endif
  env.uv_threads = EnvOrEmpty("UV_THREADS");
  env.uv_pool = EnvOrEmpty("UV_POOL");
  const auto provider = g_simd_name_provider.load(std::memory_order_acquire);
  env.simd = provider != nullptr ? provider() : "none";
  return env;
}

void RegisterSimdNameProvider(const char* (*provider)()) {
  g_simd_name_provider.store(provider, std::memory_order_release);
}

void ResetAll() { Registry::Global().ResetAll(); }

// ---------------------------------------------------------------------------
// RobustStats
// ---------------------------------------------------------------------------

RobustStats ComputeRobustStats(std::vector<double> samples) {
  RobustStats stats;
  if (samples.empty()) return stats;
  std::sort(samples.begin(), samples.end());
  stats.min = samples.front();
  stats.max = samples.back();
  double sum = 0.0;
  for (const double s : samples) sum += s;
  stats.mean = sum / static_cast<double>(samples.size());
  stats.p50 = SortedPercentile(samples, 50.0);
  stats.p95 = SortedPercentile(samples, 95.0);
  std::vector<double> dev(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    dev[i] = std::abs(samples[i] - stats.p50);
  }
  std::sort(dev.begin(), dev.end());
  stats.mad = SortedPercentile(dev, 50.0);
  return stats;
}

// ---------------------------------------------------------------------------
// BenchmarkEntry
// ---------------------------------------------------------------------------

void BenchmarkEntry::AddRepeat(double seconds) {
  RepeatSample sample;
  sample.ts_us = NowMicros();
  sample.seconds = seconds;
  repeats_.push_back(std::move(sample));
}

void BenchmarkEntry::AddMetric(const std::string& name, double value,
                               Direction direction) {
  metrics_.push_back(MetricSample{name, value, direction});
}

RobustStats BenchmarkEntry::Stats() const {
  std::vector<double> seconds;
  seconds.reserve(repeats_.size());
  for (const RepeatSample& r : repeats_) seconds.push_back(r.seconds);
  return ComputeRobustStats(std::move(seconds));
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

Report::Report(const std::string& suite)
    : suite_(suite), env_(CaptureEnvFingerprint()) {}

Report::~Report() = default;

void Report::SetConfig(const std::string& key, const std::string& value) {
  config_.push_back({key, '"' + JsonEscape(value) + '"'});
}

void Report::SetConfig(const std::string& key, int64_t value) {
  config_.push_back({key, std::to_string(value)});
}

void Report::SetConfig(const std::string& key, double value) {
  config_.push_back({key, FormatDouble(value)});
}

void Report::SetRepeats(int warmup, int repeats) {
  default_warmup_ = warmup < 0 ? 0 : warmup;
  default_repeats_ = repeats < 1 ? 1 : repeats;
}

BenchmarkEntry& Report::Bench(const std::string& name) {
  for (BenchmarkEntry& b : benchmarks_) {
    if (b.name_ == name) return b;
  }
  benchmarks_.push_back(BenchmarkEntry(name));
  return benchmarks_.back();
}

BenchmarkEntry& Report::RunTimed(const std::string& name,
                                 const std::function<void()>& fn) {
  return RunTimed(name, default_warmup_, default_repeats_, fn);
}

BenchmarkEntry& Report::RunTimed(const std::string& name, int warmup,
                                 int repeats,
                                 const std::function<void()>& fn) {
  if (warmup < 0) warmup = 0;
  if (repeats < 1) repeats = 1;
  // Entries live in a deque, so this reference survives any appends fn()
  // might trigger through nested Bench() calls.
  BenchmarkEntry& entry = Bench(name);
  entry.warmup_ += warmup;

  for (int w = 0; w < warmup; ++w) fn();

  for (int r = 0; r < repeats; ++r) {
    // Isolation contract: every repeat starts from zeroed registry state,
    // so the counter deltas attached below describe this repeat alone.
    ResetAll();
    WallTimer timer;
    fn();
    const double seconds = timer.Seconds();

    RepeatSample sample;
    sample.ts_us = NowMicros();
    sample.seconds = seconds;
    const RegistrySnapshot snap = Registry::Global().Snapshot();
    for (const auto& [cname, value] : snap.counters) {
      if (LedgerRelevant(cname)) sample.counters.emplace_back(cname, value);
    }
    entry.repeats_.push_back(std::move(sample));

    if (r == repeats - 1) {
      // The final repeat's histograms (post-reset, so they cover exactly
      // one repeat) supply percentile views where available.
      entry.histograms_.clear();
      for (const HistogramSnapshot& h : snap.histograms) {
        if (!LedgerRelevant(h.name) || h.count == 0) continue;
        entry.histograms_.push_back(
            HistogramStat{h.name, h.count, h.sum, h.p50, h.p95});
      }
    }
  }
  return entry;
}

std::string Report::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("uv-perf-ledger-v1");
  w.Key("suite").String(suite_);

  w.Key("env").BeginObject();
  w.Key("hardware_threads").Int(env_.hardware_threads);
  w.Key("compiler").String(env_.compiler);
  w.Key("build_type").String(env_.build_type);
  w.Key("build_flags").String(env_.build_flags);
  w.Key("git_sha").String(env_.git_sha);
  w.Key("uv_threads").String(env_.uv_threads);
  w.Key("uv_pool").String(env_.uv_pool);
  w.Key("simd").String(env_.simd);
  w.EndObject();

  w.Key("config").BeginObject();
  for (const ConfigEntry& c : config_) {
    // Values were pre-rendered as JSON literals by SetConfig.
    w.Key(c.key);
    w.Raw(c.json_value);
  }
  w.EndObject();

  w.Key("benchmarks").BeginObject();
  for (const BenchmarkEntry& b : benchmarks_) {
    w.Key(b.name_).BeginObject();
    w.Key("warmup").Int(b.warmup_);
    w.Key("repeats").BeginArray();
    for (const RepeatSample& r : b.repeats_) {
      w.BeginObject();
      w.Key("ts_us").UInt(r.ts_us);
      w.Key("seconds").Double(r.seconds);
      if (!r.counters.empty()) {
        w.Key("counters").BeginObject();
        for (const auto& [name, value] : r.counters) {
          w.Key(name).UInt(value);
        }
        w.EndObject();
      }
      w.EndObject();
    }
    w.EndArray();
    if (!b.repeats_.empty()) {
      const RobustStats stats = b.Stats();
      w.Key("stats").BeginObject();
      w.Key("min").Double(stats.min);
      w.Key("p50").Double(stats.p50);
      w.Key("p95").Double(stats.p95);
      w.Key("max").Double(stats.max);
      w.Key("mean").Double(stats.mean);
      w.Key("mad").Double(stats.mad);
      w.EndObject();
    }
    if (!b.histograms_.empty()) {
      w.Key("histograms").BeginObject();
      for (const HistogramStat& h : b.histograms_) {
        w.Key(h.name).BeginObject();
        w.Key("count").UInt(h.count);
        w.Key("sum").UInt(h.sum);
        w.Key("p50").Double(h.p50);
        w.Key("p95").Double(h.p95);
        w.EndObject();
      }
      w.EndObject();
    }
    if (!b.metrics_.empty()) {
      w.Key("metrics").BeginObject();
      for (const MetricSample& m : b.metrics_) {
        w.Key(m.name).BeginObject();
        w.Key("value").Double(m.value);
        w.Key("direction").String(DirectionName(m.direction));
        w.EndObject();
      }
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndObject();

  w.EndObject();
  return w.Take();
}

bool Report::WriteFile(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs::Report: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  const std::string json = ToJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size()
                  && std::fputc('\n', f) != EOF;
  std::fclose(f);
  if (!ok) {
    std::fprintf(stderr, "obs::Report: short write to %s\n", path.c_str());
  }
  return ok;
}

}  // namespace uv::obs
