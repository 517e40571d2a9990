#ifndef UV_OBS_REPORT_H_
#define UV_OBS_REPORT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

namespace uv::obs {

// ---------------------------------------------------------------------------
// Structured benchmark reports ("perf ledgers"). One Report is one run of
// one benchmark binary: an environment fingerprint, the benchmark-level
// configuration, and a sequence of named benchmark entries, each holding
// per-repeat timings plus registry-counter deltas and robust summary
// statistics. Serialized through the shared JsonWriter into the canonical
// ledger schema ("uv-perf-ledger-v1") that tools/bench_diff.py compares
// and tools/check_trace.py --ledger validates.
// ---------------------------------------------------------------------------

// Escapes a string for inclusion inside a JSON string literal (quotes,
// backslashes, and control characters per RFC 8259).
std::string JsonEscape(const std::string& s);

// Minimal streaming JSON writer shared by every benchmark emitter. Key
// order is call order (deterministic), doubles serialize via the shortest
// round-trip representation (non-finite values as null, which the ledger
// validators reject where a number is required), and the writer owns its
// output buffer; it
// performs no validation beyond comma placement, so callers are expected
// to emit well-formed nesting (tests enforce the shapes they build).
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(const std::string& name);
  JsonWriter& String(const std::string& v);
  JsonWriter& Int(int64_t v);
  JsonWriter& UInt(uint64_t v);
  JsonWriter& Double(double v);
  JsonWriter& Bool(bool v);
  // Splices a pre-rendered JSON literal in value position (the Report
  // config table stores values already serialized).
  JsonWriter& Raw(const std::string& json);

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  // Comma bookkeeping shared by every value emitter: places the separator
  // unless this value was announced by a preceding Key().
  void BeforeValue();

  std::string out_;
  std::vector<char> has_value_;  // One flag per open scope.
  bool pending_key_ = false;
};

// Where a run happened: enough to decide whether two ledgers are
// comparable and to pin a regression to a commit. Captured once per
// Report from compile-time defines (UV_GIT_SHA, UV_BUILD_TYPE, UV_NATIVE
// fed through src/obs/CMakeLists.txt) and the process environment.
struct EnvFingerprint {
  int hardware_threads = 0;   // std::thread::hardware_concurrency().
  std::string compiler;       // __VERSION__.
  std::string build_type;     // CMake configuration (Release, ...).
  std::string build_flags;    // Extra toggles, e.g. "native", "sanitize".
  std::string git_sha;        // Configure-time short SHA ("unknown" outside git).
  std::string uv_threads;     // Raw UV_THREADS env value, "" = unset.
  std::string uv_pool;        // Raw UV_POOL env value, "" = unset.
  std::string simd;           // Active kernel backend ("avx2", "scalar").
};

EnvFingerprint CaptureEnvFingerprint();

// Supplies EnvFingerprint.simd without obs depending on the tensor layer:
// the kernel dispatcher registers its ActiveName() at static-init time
// (from a TU that every compute call site links), and ledgers written by
// binaries with no kernel layer at all record "none".
void RegisterSimdNameProvider(const char* (*provider)());

// Zeroes every registered metric (convenience alias for
// Registry::Global().ResetAll(), declared here so benchmark code does not
// need metrics.h for the one call it makes between repeats).
void ResetAll();

// Robust summary of a sample set: nearest-rank percentiles (p50/p95) plus
// the unscaled median absolute deviation, so noise-aware comparisons do
// not depend on outlier-sensitive mean/std. All zero for empty input.
struct RobustStats {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double mad = 0.0;  // median(|x - median|), unscaled.
};

RobustStats ComputeRobustStats(std::vector<double> samples);

// How bench_diff.py should gate a metric: timings shrink, quality metrics
// grow, informational values never gate.
enum class Direction { kLowerIsBetter, kHigherIsBetter, kInfo };

struct RepeatSample {
  uint64_t ts_us = 0;   // NowMicros() at the end of the repeat.
  double seconds = 0.0;
  // Deltas of every mem.* / threadpool.* registry counter over the repeat
  // (the registry is reset before each repeat, so these are isolated
  // per-repeat values, not cumulative totals).
  std::vector<std::pair<std::string, uint64_t>> counters;
};

struct MetricSample {
  std::string name;
  double value = 0.0;
  Direction direction = Direction::kInfo;
};

// p50/p95 of one registry histogram over the final timed repeat.
struct HistogramStat {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  double p50 = 0.0;
  double p95 = 0.0;
};

// One named benchmark inside a Report: timed repeats and/or scalar
// metrics. Entries that only carry metrics (a table bench recording AUC
// per method) are valid; entries produced by Report::RunTimed carry
// repeats, counters, and histogram percentiles.
class BenchmarkEntry {
 public:
  // Appends one timed repeat, stamped with the monotonic clock. Does not
  // snapshot registry counters — Report::RunTimed does that; external
  // timings (RunStats walls) use this directly.
  void AddRepeat(double seconds);

  void AddMetric(const std::string& name, double value,
                 Direction direction = Direction::kInfo);

  const std::string& name() const { return name_; }
  const std::vector<RepeatSample>& repeats() const { return repeats_; }
  const std::vector<MetricSample>& metrics() const { return metrics_; }
  const std::vector<HistogramStat>& histograms() const { return histograms_; }
  int warmup() const { return warmup_; }

  // Robust stats over the recorded repeat seconds.
  RobustStats Stats() const;

 private:
  friend class Report;
  explicit BenchmarkEntry(std::string name) : name_(std::move(name)) {}

  std::string name_;
  int warmup_ = 0;
  std::vector<RepeatSample> repeats_;
  std::vector<MetricSample> metrics_;
  std::vector<HistogramStat> histograms_;
};

class Report {
 public:
  // suite names the ledger ("micro", "table2", "scaling", ...).
  explicit Report(const std::string& suite);
  ~Report();
  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;
  Report(Report&&) = default;

  // Benchmark-level configuration echoed into the ledger (scale, epochs,
  // seed, ...). Key order in the output is call order.
  void SetConfig(const std::string& key, const std::string& value);
  void SetConfig(const std::string& key, int64_t value);
  void SetConfig(const std::string& key, double value);

  // Defaults for the RunTimed overload without explicit counts.
  void SetRepeats(int warmup, int repeats);

  // Finds or creates the entry with this name (insertion order is
  // preserved in the serialized ledger). Entries live in a deque, so the
  // returned reference stays valid across later Bench/RunTimed calls.
  BenchmarkEntry& Bench(const std::string& name);

  // The standard measurement protocol: runs fn `warmup` times untimed,
  // then `repeats` timed repeats. obs::ResetAll() is called before every
  // repeat so the mem.* / threadpool.* counter deltas attached to each
  // repeat are isolated rather than cumulative; after the final repeat
  // the matching registry histograms (threadpool.*) contribute p50/p95.
  // Calling it again with the same name appends to the entry, which is how
  // interleaved A/B pairs are timed: repeats accumulate, the entry's warmup
  // counts every untimed run, and histograms describe the latest repeat.
  BenchmarkEntry& RunTimed(const std::string& name,
                           const std::function<void()>& fn);
  BenchmarkEntry& RunTimed(const std::string& name, int warmup, int repeats,
                           const std::function<void()>& fn);

  const EnvFingerprint& env() const { return env_; }

  // The canonical ledger document.
  std::string ToJson() const;

  // ToJson() to a file (plus trailing newline). Returns false and logs to
  // stderr when the file cannot be written.
  bool WriteFile(const std::string& path) const;

 private:
  struct ConfigEntry {
    std::string key;
    std::string json_value;  // Pre-rendered literal (string/int/double).
  };

  std::string suite_;
  EnvFingerprint env_;
  std::vector<ConfigEntry> config_;
  // Deque, not vector: Bench/RunTimed hand out references to entries, and
  // deque growth never invalidates references to existing elements.
  std::deque<BenchmarkEntry> benchmarks_;
  int default_warmup_ = 1;
  int default_repeats_ = 5;
};

}  // namespace uv::obs

#endif  // UV_OBS_REPORT_H_
