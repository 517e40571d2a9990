// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around each call into a
// library layer: name, start, end, the enclosing span and an operation id
// shared by every span of one training step or served request. Nothing is
// written while the run is measured; WriteJsonl dumps the spans when the
// run ends. With the recorder disabled a ScopedSpan costs one branch, so
// untraced runs use the same code path as traced ones.
#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root.
  uint64_t op = 0;      // Operation (step / request) the span belongs to.
  const char* name = "";
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  double ms() const { return (end_ns - begin_ns) * 1e-6; }
};

// Per-name aggregate: calls, summed duration and summed self time (duration
// minus the time covered by direct children).
struct LayerTotals {
  int64_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class SpanRecorder {
 public:
  static SpanRecorder& Get() {
    static SpanRecorder recorder;
    return recorder;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  void Add(const SpanRecord& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  std::vector<SpanRecord> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  // Durations (ms) of every span called `name`, in recording order.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& s : spans_) {
      if (name == s.name) out.push_back(s.ms());
    }
    return out;
  }

  std::map<std::string, LayerTotals> Totals() const {
    const std::vector<SpanRecord> spans = Snapshot();
    const auto child_ms = ChildMs(spans);
    std::map<std::string, LayerTotals> out;
    for (const auto& s : spans) {
      LayerTotals& t = out[s.name];
      ++t.calls;
      t.total_ms += s.ms();
      const auto it = child_ms.find(s.id);
      t.self_ms += s.ms() - (it == child_ms.end() ? 0.0 : it->second);
    }
    return out;
  }

  // Share of the wall time of all `root` spans covered by their direct
  // children named in `layers` (1 = every nanosecond is inside a layer
  // call). Children outside `layers` (the benchmark's own glue) count as
  // uncovered.
  double Coverage(const std::string& root,
                  const std::vector<std::string>& layers) const {
    const std::vector<SpanRecord> spans = Snapshot();
    std::unordered_map<uint64_t, double> roots;  // Root id -> wall ms.
    for (const auto& s : spans) {
      if (root == s.name) roots[s.id] = s.ms();
    }
    double wall = 0.0, covered = 0.0;
    for (const auto& [id, ms] : roots) wall += ms;
    for (const auto& s : spans) {
      if (roots.count(s.parent) == 0) continue;
      for (const auto& layer : layers) {
        if (layer == s.name) covered += s.ms();
      }
    }
    return wall > 0.0 ? covered / wall : 0.0;
  }

  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const auto& s : Snapshot()) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"name\":\"%s\","
                   "\"begin_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op), s.name,
                   static_cast<long long>(s.begin_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  // Summed duration (ms) of each span's direct children, by parent id.
  static std::unordered_map<uint64_t, double> ChildMs(
      const std::vector<SpanRecord>& spans) {
    std::unordered_map<uint64_t, double> child_ms;
    for (const auto& s : spans) {
      if (s.parent != 0) child_ms[s.parent] += s.ms();
    }
    return child_ms;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// RAII span. Nested spans on one thread become children of the innermost
// open span and inherit its operation id unless given their own.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t op = 0) {
    SpanRecorder& rec = SpanRecorder::Get();
    if (!rec.enabled()) return;
    active_ = true;
    span_.id = rec.NextId();
    span_.name = name;
    if (!Stack().empty()) {
      span_.parent = Stack().back().id;
      span_.op = Stack().back().op;
    }
    if (op != 0) span_.op = op;
    Stack().push_back(span_);
    span_.begin_ns = NowNs();
  }
  ~ScopedSpan() {
    if (!active_) return;
    span_.end_ns = NowNs();
    Stack().pop_back();
    SpanRecorder::Get().Add(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static std::vector<SpanRecord>& Stack() {
    thread_local std::vector<SpanRecord> stack;
    return stack;
  }
  bool active_ = false;
  SpanRecord span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
