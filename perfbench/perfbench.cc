// CMSF benchmark binary: one process runs one workload and prints one JSON
// result line. See perfbench/README.md for the workloads, the metric map
// and why each choice was made; perfbench/run.py builds this binary and
// fixes the environment (UV_THREADS=2, every obs sink off).
//
//   perfbench --workload train_full|train_sharded|serve_mixed --seed N
//             --seconds S --trace 0|1 --tmp-dir DIR
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the same
// workload once untraced and once with benchmark-side spans around every
// layer call, and reports the per-layer metrics. Every run also checks the
// outputs (determinism, bit-identity, quality floors) and exits 1 when a
// check fails.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "core/cmsf_detector.h"
#include "core/cmsf_model.h"
#include "eval/metrics.h"
#include "eval/splits.h"
#include "infer/engine.h"
#include "infer/server.h"
#include "nn/gscm.h"
#include "obs/quality.h"
#include "span_trace.h"
#include "synth/city.h"
#include "synth/city_config.h"
#include "urg/feature_store.h"
#include "urg/neighbor_sampler.h"
#include "urg/urban_region_graph.h"
#include "util/buffer_pool.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using uv::Rng;
using uv::Tensor;
using uv::WallTimer;
namespace ag = uv::ag;
namespace core = uv::core;
namespace urg = uv::urg;

// ---- Fixed benchmark parameters -------------------------------------------

constexpr int kThreads = 2;                // run.py sets UV_THREADS to this.
constexpr double kSmallCityScale = 0.02;   // Quickstart city, ~1.8k regions.
constexpr uint64_t kFoldSalt = 0xf01d;
// train_full
constexpr int kFullSetups = 9;
constexpr int kTrainReps = 2;  // Same seed; the second checks determinism.
// Floor on the train-fold AUC: a trainer that works fits its labels. The
// test-fold AUC cannot carry a floor: the labeled UVs come in whole blobs,
// and on some city seeds fold 0's test ids hold one blob or none.
constexpr double kFullFitAucFloor = 0.90;
// train_sharded
constexpr int kShardedSetups = 3;
constexpr int kShards = 4;
constexpr int kShardedBatch = 256;
constexpr int kShardedFanout = 16;
// One batch of ids, so every epoch is one step and the trainer's per-epoch
// times are step times.
constexpr int kShardedTrainIds = 256;
constexpr int kShardedEpochs = 8;
constexpr int kShardedEvalPos = 32;
constexpr int kShardedEvalNeg = 224;
constexpr uint64_t kShardedSampleSalt = 0x5a3d;
// serve_mixed
constexpr int kServeSetups = 3;
constexpr int kServeMasterEpochs = 12;
constexpr int kServeSlaveEpochs = 4;
constexpr int kClients = 4;
// Short next to a request's ~2 ms round trip, so the server's service time
// sets the pace (doubling the engine's time halves regions_per_s).
constexpr int kThinkUs = 500;
constexpr double kFeedbackShare = 0.1;
// Requests per client per --seconds second, split over the two passes: one
// pass takes about seconds / 2 at ~260 round trips per client per second.
constexpr int kRequestsPerClientPerSecond = 260;
constexpr int kDirectCalls = 200;  // Engine::ScoreInto calls per size.
// Traced runs: the layer calls of a step / request must cover its wall time
// to within kCoverageBound, and traced work must take as long as the same
// work untraced (hand-driven replicas against the library's own loops) to
// within kTracedTimeBound. The latter is loose because the two halves run
// seconds apart, and this kind of shared host changes speed by up to a
// quarter over such spans.
constexpr double kCoverageBound = 0.1;
constexpr double kTracedTimeBound = 0.4;

// ---- Results ---------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux.
}

class Result {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  // Records a failed correctness check; the run's result becomes incorrect.
  void Check(bool ok, const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    char buf[512];
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    std::printf("[check] %s: %s\n", ok ? "ok  " : "FAIL", buf);
    if (!ok) correct_ = false;
  }
  // An ungated figure: printed with its unit, kept out of the JSON result.
  void Note(const std::string& name, double value, const std::string& unit) {
    notes_.push_back({name, value, unit});
  }
  // Operations (training runs, served requests) attempted and failed.
  void Operations(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return correct_ && failed_ == 0 && attempted_ > 0; }

  void Print() const {
    std::printf("[ops] attempted=%lld succeeded=%lld failed=%lld\n",
                static_cast<long long>(attempted_),
                static_cast<long long>(attempted_ - failed_),
                static_cast<long long>(failed_));
    for (const auto& m : notes_) {
      std::printf("[info]   %-28s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    for (const auto& m : metrics_) {
      std::printf("[metric] %-28s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<long long>(attempted_),
                static_cast<long long>(failed_));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                  metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<Metric> notes_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
};

// Per-layer metrics in the traced run. Every name is always reported; a
// layer the workload never calls reads 0.
class LayerMetrics {
 public:
  LayerMetrics() {
    for (const auto& [name, unit] : kLayers) values_[name] = {0.0, unit};
  }
  void Set(const std::string& name, double value) {
    auto it = values_.find(name);
    if (it == values_.end()) {
      std::fprintf(stderr, "perfbench: unknown layer metric %s\n",
                   name.c_str());
      std::abort();
    }
    it->second.first = value;
  }
  // Median span duration of `span`, scaled from ms.
  void SetMedianSpan(const std::string& name, const char* span,
                     double scale) {
    Set(name, Median(SpanRecorder::Get().Durations(span)) * scale);
  }
  void AddTo(Result* r) const {
    for (const auto& [name, unit] : kLayers) {
      r->Add(name, values_.at(name).first, unit);
    }
  }

 private:
  static constexpr std::pair<const char*, const char*> kLayers[] = {
      {"synth.generate_s", "s"},
      {"urg.build_s", "s"},
      {"urg.sample_ms", "ms"},
      {"urg.gather_ms", "ms"},
      {"core.forward_ms", "ms"},
      {"core.slave_forward_ms", "ms"},
      {"autograd.backward_ms", "ms"},
      {"autograd.optimizer_ms", "ms"},
      {"core.master_stage_s", "s"},
      {"core.slave_stage_s", "s"},
      {"urg.subgraph_nodes", "count"},
      {"urg.cache_misses", "count"},
      {"urg.cache_hit_ratio", "ratio"},
      {"util.pool_peak_mb", "MB"},
      {"io.save_ms", "ms"},
      {"io.load_ms", "ms"},
      {"io.checkpoint_bytes", "bytes"},
      {"infer.engine_build_ms", "ms"},
      {"infer.score_us_8", "us"},
      {"infer.score_us_32", "us"},
      {"infer.score_us_256", "us"},
      {"infer.queue_wait_us_p50", "us"},
      {"infer.queue_wait_us_p99", "us"},
      {"infer.batch_regions_mean", "regions"},
      {"obs.feedback_us", "us"},
      {"eval.auc", "auc"},
      {"bench.trace_overhead_ratio", "ratio"},
  };
  std::map<std::string, std::pair<double, std::string>> values_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string tmp_dir = ".";
};

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool AllFinite(const std::vector<float>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](float x) { return std::isfinite(x); });
}

double Auc(const std::vector<float>& scores, const std::vector<int>& labels) {
  return uv::eval::ComputeDetectionMetrics(scores, labels).auc;
}

std::vector<int> LabelsOf(const urg::UrbanRegionGraph& g,
                          const std::vector<int>& ids) {
  std::vector<int> out(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) out[i] = g.labels[ids[i]];
  return out;
}

// AUC of `scores` (indexed by region id) over `ids` with `labels`.
double AucOf(const std::vector<float>& scores, const std::vector<int>& ids,
             const std::vector<int>& labels) {
  std::vector<float> picked(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) picked[i] = scores[ids[i]];
  return Auc(picked, labels);
}

std::vector<int> AllIds(const urg::UrbanRegionGraph& g) {
  std::vector<int> ids(g.num_regions());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

void PrintLayerTable() {
  std::printf("[trace] %-26s %8s %12s %12s\n", "span", "calls", "total_ms",
              "self_ms");
  for (const auto& [name, t] : SpanRecorder::Get().Totals()) {
    std::printf("[trace] %-26s %8lld %12.3f %12.3f\n", name.c_str(),
                static_cast<long long>(t.calls), t.total_ms, t.self_ms);
  }
}

// Checks that the layer calls directly under every `root` span account for
// its wall time to within kCoverageBound.
void CheckCoverage(const char* root, const std::vector<std::string>& layers,
                   Result* r) {
  const double coverage = SpanRecorder::Get().Coverage(root, layers);
  r->Check(coverage >= 1.0 - kCoverageBound,
           "layer calls cover %.1f%% of %s wall time (bound %.0f%%)",
           100.0 * coverage, root, 100.0 * (1.0 - kCoverageBound));
}

// Checks that the traced replica of some work took as long as the untraced
// original, to within kTracedTimeBound.
void CheckTracedTime(const char* what, double traced, double untraced,
                     Result* r) {
  r->Check(std::fabs(traced / untraced - 1.0) <= kTracedTimeBound,
           "traced %s %.4g vs untraced %.4g (bound %.0f%%)", what, traced,
           untraced, 100.0 * kTracedTimeBound);
}

// ---- The quickstart city (train_full, serve_mixed) -------------------------

// Fold 0 of the quickstart's 3-fold block split: the model trains on its
// train ids and is judged on its labeled test ids.
struct SmallCity {
  urg::UrbanRegionGraph urg;
  std::vector<int> train_ids, train_labels, test_ids, test_labels;
};

std::unique_ptr<SmallCity> BuildSmallCity(uint64_t seed) {
  auto c = std::make_unique<SmallCity>();
  uv::synth::City city;
  {
    ScopedSpan span("synth.generate");
    city = uv::synth::GenerateCity(uv::synth::ShenzhenLike(kSmallCityScale,
                                                           seed));
  }
  {
    ScopedSpan span("urg.build");
    c->urg = urg::BuildUrg(city, urg::UrgOptions{});
  }
  Rng rng(urg::MixSeed(seed, kFoldSalt));
  const auto folds = uv::eval::BlockKFold(c->urg.grid, c->urg.LabeledIds(),
                                          /*k=*/3, /*block_size=*/10, &rng);
  c->train_ids = folds[0].train_ids;
  c->train_labels = LabelsOf(c->urg, c->train_ids);
  c->test_ids = folds[0].test_ids;
  c->test_labels = LabelsOf(c->urg, c->test_ids);
  return c;
}

core::CmsfConfig QuickstartConfig() {
  core::CmsfConfig cfg;
  cfg.num_clusters = 30;
  cfg.master_epochs = 80;
  cfg.slave_epochs = 20;
  return cfg;
}

ag::AdamOptimizer::Options AdamOptions(double lr, double clip_norm) {
  ag::AdamOptimizer::Options o;
  o.learning_rate = lr;
  o.clip_norm = clip_norm;
  return o;
}

// ---- train_full -------------------------------------------------------------

// Full-graph CMSF training driven through public calls with one span per
// layer call: TrainMaster + TrainSlave + PredictCmsf, step for step, so the
// scores must equal CmsfDetector's bit for bit.
std::vector<float> TrainFullByHand(const core::CmsfConfig& cfg,
                                   const SmallCity& c) {
  UV_CHECK(cfg.use_hierarchy && cfg.use_gate);
  const urg::UrbanRegionGraph& g = c.urg;
  Rng rng(cfg.seed);
  core::CmsfModel model(cfg, g.PoiDim(), g.ImageDim(), &rng);
  const core::CmsfInputs inputs = core::CmsfInputs::FromUrg(g);
  const auto ids = std::make_shared<const std::vector<int>>(c.train_ids);
  const Tensor labels = core::MakeLabelTensor(c.train_labels);
  const Tensor weights = core::MakeBceWeights(c.train_labels, cfg.pos_weight);
  core::CmsfModel::FrozenAssignment frozen;
  uint64_t op = 0;
  {
    ScopedSpan stage("core.master_stage");
    ag::AdamOptimizer opt(model.MasterParams(),
                          AdamOptions(cfg.learning_rate, cfg.clip_norm));
    for (int epoch = 0; epoch < cfg.master_epochs; ++epoch) {
      ScopedSpan step("train.step", ++op);
      {
        ScopedSpan span("autograd.zero_grad");
        opt.ZeroGradients();
      }
      core::CmsfModel::ForwardResult fwd;
      {
        ScopedSpan span("core.forward");
        fwd = model.Forward(inputs, nullptr);
      }
      ag::VarPtr loss;
      {
        ScopedSpan span("autograd.loss");
        loss = ag::BceWithLogits(ag::GatherRows(fwd.master_logits, ids),
                                 labels, &weights);
      }
      {
        ScopedSpan span("autograd.backward");
        ag::Backward(loss);
      }
      {
        ScopedSpan span("autograd.optimizer");
        opt.Step();
      }
      opt.DecayLearningRate(cfg.lr_decay_per_epoch);
    }
    ScopedSpan span("core.freeze_assignment");
    const auto fwd = model.Forward(inputs, nullptr);
    frozen.soft = fwd.assignment->value;
    frozen.hard = fwd.hard_assignment;
    std::vector<int> full_labels(g.num_regions(), -1);
    for (size_t i = 0; i < c.train_ids.size(); ++i) {
      full_labels[c.train_ids[i]] = c.train_labels[i];
    }
    frozen.pseudo_labels = uv::nn::ComputeClusterPseudoLabels(
        frozen.hard, full_labels, cfg.num_clusters);
  }
  {
    ScopedSpan stage("core.slave_stage");
    std::vector<int> positive, unlabeled;
    for (int k = 0; k < cfg.num_clusters; ++k) {
      (frozen.pseudo_labels[k] == 1 ? positive : unlabeled).push_back(k);
    }
    ag::AdamOptimizer opt(model.AllParams(),
                          AdamOptions(cfg.learning_rate * 0.1, cfg.clip_norm));
    for (int epoch = 0; epoch < cfg.slave_epochs; ++epoch) {
      ScopedSpan step("train.step", ++op);
      {
        ScopedSpan span("autograd.zero_grad");
        opt.ZeroGradients();
      }
      core::CmsfModel::ForwardResult fwd;
      {
        ScopedSpan span("core.forward");
        fwd = model.Forward(inputs, &frozen);
      }
      ag::VarPtr inclusion, slave_logits;
      {
        ScopedSpan span("core.slave_forward");
        slave_logits = model.SlaveLogits(fwd, &inclusion);
      }
      ag::VarPtr loss;
      {
        ScopedSpan span("autograd.loss");
        ag::VarPtr loss_c = ag::BceWithLogits(
            ag::GatherRows(slave_logits, ids), labels, &weights);
        ag::VarPtr loss_p = ag::PuRankLoss(inclusion, positive, unlabeled);
        loss = ag::Add(loss_c,
                       ag::ScalarMul(loss_p, static_cast<float>(cfg.lambda)));
      }
      {
        ScopedSpan span("autograd.backward");
        ag::Backward(loss);
      }
      {
        ScopedSpan span("autograd.optimizer");
        opt.Step();
      }
      opt.DecayLearningRate(cfg.lr_decay_per_epoch);
    }
  }
  ScopedSpan span("core.predict");
  return core::PredictCmsf(model, inputs, &frozen, AllIds(g));
}

// One full-graph training: the calls CmsfDetector::Train and Score make on
// a full-graph config (TrainMaster, TrainSlave, PredictCmsf), made directly
// so the trainer's per-epoch times of both stages are kept.
struct FullRun {
  std::vector<float> scores;  // Every region.
  std::vector<double> master_ms, slave_ms;
  double seconds = 0.0;
};

FullRun TrainFullOnce(const core::CmsfConfig& cfg, const SmallCity& c) {
  FullRun run;
  WallTimer t;
  Rng rng(cfg.seed);
  core::CmsfModel model(cfg, c.urg.PoiDim(), c.urg.ImageDim(), &rng);
  const core::CmsfInputs inputs = core::CmsfInputs::FromUrg(c.urg);
  const core::MasterTrainResult master =
      core::TrainMaster(&model, inputs, c.train_ids, c.train_labels);
  const core::SlaveTrainResult slave = core::TrainSlave(
      &model, inputs, master.frozen, c.train_ids, c.train_labels);
  run.scores = core::PredictCmsf(model, inputs, &master.frozen, AllIds(c.urg));
  run.seconds = t.Seconds();
  for (double s : master.epoch_seconds) run.master_ms.push_back(1e3 * s);
  for (double s : slave.epoch_seconds) run.slave_ms.push_back(1e3 * s);
  return run;
}

void RunTrainFull(const Args& a, Result* r) {
  std::vector<double> setup_s;
  std::unique_ptr<SmallCity> city;
  for (int i = 0; i < kFullSetups; ++i) {
    city.reset();
    SpanRecorder::Get().set_enabled(a.trace);
    WallTimer t;
    city = BuildSmallCity(a.seed);
    setup_s.push_back(t.Seconds());
    SpanRecorder::Get().set_enabled(false);
  }
  const SmallCity& c = *city;
  const core::CmsfConfig cfg = QuickstartConfig();
  std::printf("[train_full] %d regions, %zu train / %zu test ids\n",
              c.urg.num_regions(), c.train_ids.size(), c.test_ids.size());

  std::vector<float> first;
  // Epoch times of both trainings, and each training's p99 epoch.
  std::vector<double> master_ms, slave_ms, epoch_ms, run_p99_ms;
  double first_auc = 0.0, untraced_s = 0.0, traced_s = 0.0;
  uint64_t pool_peak = 0;
  for (int rep = 0; rep < kTrainReps; ++rep) {
    const bool traced = a.trace && rep == 1;
    uv::BufferPool::ResetPeak();
    FullRun run;
    if (traced) {
      SpanRecorder::Get().set_enabled(true);
      WallTimer t;
      run.scores = TrainFullByHand(cfg, c);
      run.seconds = t.Seconds();
      SpanRecorder::Get().set_enabled(false);
      traced_s = run.seconds;
    } else {
      run = TrainFullOnce(cfg, c);
      untraced_s = run.seconds;
      master_ms.insert(master_ms.end(), run.master_ms.begin(),
                       run.master_ms.end());
      slave_ms.insert(slave_ms.end(), run.slave_ms.begin(),
                      run.slave_ms.end());
      epoch_ms.insert(epoch_ms.end(), run.master_ms.begin(),
                      run.master_ms.end());
      epoch_ms.insert(epoch_ms.end(), run.slave_ms.begin(),
                      run.slave_ms.end());
      std::vector<double> run_epochs = run.master_ms;
      run_epochs.insert(run_epochs.end(), run.slave_ms.begin(),
                        run.slave_ms.end());
      run_p99_ms.push_back(Percentile(run_epochs, 0.99));
    }
    pool_peak = std::max(pool_peak, uv::BufferPool::Stats().pool_bytes_peak);

    const std::vector<float>& scores = run.scores;
    const bool finite = AllFinite(scores);
    const double auc = finite ? AucOf(scores, c.test_ids, c.test_labels) : 0.0;
    const double fit =
        finite ? AucOf(scores, c.train_ids, c.train_labels) : 0.0;
    r->Check(finite, "rep %d: all %zu scores finite", rep, scores.size());
    r->Check(fit >= kFullFitAucFloor,
             "rep %d: train-fold AUC %.4f >= floor %.2f (test-fold AUC %.4f)",
             rep, fit, kFullFitAucFloor, auc);
    bool ok = finite && fit >= kFullFitAucFloor;
    if (rep == 0) {
      first = scores;
      first_auc = auc;
    } else {
      const bool same = BitEqual(scores, first);
      r->Check(same, "rep %d (%s, same seed) scores bit-identical to rep 0",
               rep, traced ? "traced, hand-driven" : "untraced");
      ok = ok && same;
    }
    r->Operations(1, ok ? 0 : 1);
    std::printf("[train_full] rep %d%s: %.3f s, auc %.6f\n", rep,
                traced ? " (traced)" : "", run.seconds, auc);
    if (!traced) {
      std::printf("[train_full] rep %d epochs: master median %.2f ms max "
                  "%.2f ms, slave median %.2f ms max %.2f ms\n",
                  rep, Median(run.master_ms), Percentile(run.master_ms, 1.0),
                  Median(run.slave_ms), Percentile(run.slave_ms, 1.0));
    }
  }
  r->Note("auc", first_auc, "auc");

  if (!a.trace) {
    // Steady-state epoch throughput: the median epoch of each stage, so a
    // host hiccup shorter than half a stage does not move it. Every epoch
    // forwards the whole graph, so the work is regions x epochs; the fold's
    // labeled count varies +-15% between seeds, the cost does not.
    const double med_master = Median(master_ms), med_slave = Median(slave_ms);
    const double epoch_total_ms =
        cfg.master_epochs * med_master + cfg.slave_epochs * med_slave;
    r->Add("setup_s", Median(setup_s), "s");
    r->Add("regions_per_s",
           1e3 * c.urg.num_regions() * (cfg.master_epochs + cfg.slave_epochs) /
               epoch_total_ms,
           "regions/s");
    r->Add("latency_p50_ms", Median(epoch_ms), "ms");
    r->Add("latency_p99_ms", Median(run_p99_ms), "ms");
    r->Add("peak_rss_mb", PeakRssMb(), "MB");
    std::printf("[train_full] latency = trainer epoch time, n=%zu; p99 per "
                "training, median over the trainings\n",
                epoch_ms.size());
    return;
  }
  CheckTracedTime("hand-driven training s", traced_s, untraced_s, r);
  CheckCoverage("train.step",
                {"core.forward", "core.slave_forward", "autograd.backward",
                 "autograd.optimizer"},
                r);
  LayerMetrics m;
  m.SetMedianSpan("synth.generate_s", "synth.generate", 1e-3);
  m.SetMedianSpan("urg.build_s", "urg.build", 1e-3);
  m.SetMedianSpan("core.forward_ms", "core.forward", 1.0);
  m.SetMedianSpan("core.slave_forward_ms", "core.slave_forward", 1.0);
  m.SetMedianSpan("autograd.backward_ms", "autograd.backward", 1.0);
  m.SetMedianSpan("autograd.optimizer_ms", "autograd.optimizer", 1.0);
  m.SetMedianSpan("core.master_stage_s", "core.master_stage", 1e-3);
  m.SetMedianSpan("core.slave_stage_s", "core.slave_stage", 1e-3);
  m.Set("util.pool_peak_mb", pool_peak / (1024.0 * 1024.0));
  m.Set("eval.auc", first_auc);
  m.Set("bench.trace_overhead_ratio", traced_s / untraced_s);
  m.AddTo(r);
}

// ---- train_sharded ----------------------------------------------------------

urg::UrbanRegionGraph BuildShardedCity(uint64_t seed) {
  uv::synth::CityConfig config;
  UV_CHECK(uv::synth::CityScalePreset("93k", seed, &config));
  std::shared_ptr<const uv::synth::City> city;
  {
    ScopedSpan span("synth.generate");
    city = std::make_shared<const uv::synth::City>(
        uv::synth::GenerateCity(config));
  }
  ScopedSpan span("urg.build");
  urg::ShardOptions shard_options;
  shard_options.num_shards = kShards;
  return urg::BuildShardedUrg(city, urg::UrgOptions{}, shard_options);
}

core::CmsfConfig ShardedConfig() {
  core::CmsfConfig cfg;
  cfg.master_epochs = kShardedEpochs;
  cfg.batch_size = kShardedBatch;
  cfg.fanout = kShardedFanout;
  cfg.use_gate = false;
  return cfg;
}

// Seeded sample of labeled training ids plus a disjoint, class-stratified
// sample of labeled evaluation ids.
struct ShardedSample {
  std::vector<int> train_ids, train_labels, eval_ids, eval_labels;
};

ShardedSample SampleLabeled(const urg::UrbanRegionGraph& g, uint64_t seed) {
  std::vector<int> ids = g.LabeledIds();
  Rng rng(urg::MixSeed(seed, kShardedSampleSalt));
  rng.Shuffle(&ids);
  UV_CHECK_GT(ids.size(), static_cast<size_t>(kShardedTrainIds));
  ShardedSample s;
  s.train_ids.assign(ids.begin(), ids.begin() + kShardedTrainIds);
  std::sort(s.train_ids.begin(), s.train_ids.end());
  s.train_labels = LabelsOf(g, s.train_ids);
  int pos = 0, neg = 0;
  for (size_t i = kShardedTrainIds; i < ids.size(); ++i) {
    const bool uv = g.labels[ids[i]] > 0;
    int& count = uv ? pos : neg;
    if (count < (uv ? kShardedEvalPos : kShardedEvalNeg)) {
      ++count;
      s.eval_ids.push_back(ids[i]);
    }
  }
  std::sort(s.eval_ids.begin(), s.eval_ids.end());
  s.eval_labels = LabelsOf(g, s.eval_ids);
  return s;
}

// Mirrors of TrainMasterMinibatch's private helpers (same seeds, same
// order), so the hand-driven loop replays the real one exactly.
void EpochOrder(const ShardedSample& s, uint64_t seed, int epoch,
                std::vector<std::pair<int, int>>* order) {
  order->resize(s.train_ids.size());
  for (size_t i = 0; i < s.train_ids.size(); ++i) {
    (*order)[i] = {s.train_ids[i], s.train_labels[i]};
  }
  std::sort(order->begin(), order->end());
  Rng rng(urg::MixSeed(seed ^ 0xba7c4u, epoch));
  rng.Shuffle(order);
}

urg::MinibatchConfig EpochSampling(const core::CmsfConfig& cfg, int epoch) {
  urg::MinibatchConfig m;
  m.batch_size = cfg.batch_size;
  m.fanout = cfg.fanout;
  m.hops = cfg.maga_layers;
  m.seed = urg::MixSeed(cfg.seed, epoch);
  return m;
}

// Seeds of every step, in training order.
std::vector<std::vector<std::pair<int, int>>> StepBatches(
    const core::CmsfConfig& cfg, const ShardedSample& s) {
  std::vector<std::vector<std::pair<int, int>>> steps;
  std::vector<std::pair<int, int>> order;
  const int n = static_cast<int>(s.train_ids.size());
  for (int epoch = 0; epoch < cfg.master_epochs; ++epoch) {
    EpochOrder(s, cfg.seed, epoch, &order);
    for (int b = 0; b < n; b += cfg.batch_size) {
      steps.emplace_back(order.begin() + b,
                         order.begin() + std::min(n, b + cfg.batch_size));
    }
  }
  return steps;
}

// Model inputs of one sampled subgraph: its feature rows (rendered and
// encoded on an LRU miss) and its edge context.
core::CmsfInputs SubgraphInputs(const urg::UrbanRegionGraph& g,
                                const urg::SampledSubgraph& sg) {
  const urg::SubgraphFeatures f = urg::GatherSubgraphFeatures(g, sg);
  core::CmsfInputs inputs;
  inputs.poi = f.poi;
  inputs.image = f.image;
  inputs.ctx = urg::ContextFromSubgraph(sg);
  return inputs;
}

struct ShardedRun {
  double seconds = 0.0;
  std::vector<double> step_ms;  // Each step.
  double final_loss = 0.0;
  uint64_t hits = 0, misses = 0;
  int64_t subgraph_nodes = 0;
  double auc = 0.0;
};

// TrainMasterMinibatch (gate off) driven through public calls, one span per
// layer call and one operation id per step.
double TrainShardedByHand(core::CmsfModel* model, const urg::UrbanRegionGraph& g,
                          const ShardedSample& s, std::vector<double>* step_ms,
                          int64_t* nodes) {
  const core::CmsfConfig& cfg = model->config();
  const urg::NeighborView view(g);
  const Tensor all_w = core::MakeBceWeights(s.train_labels, cfg.pos_weight);
  float pos_w = 1.0f;
  for (size_t i = 0; i < s.train_labels.size(); ++i) {
    if (s.train_labels[i] > 0) {
      pos_w = all_w.at(static_cast<int>(i), 0);
      break;
    }
  }
  ag::AdamOptimizer opt(model->MasterParams(),
                        AdamOptions(cfg.learning_rate, cfg.clip_norm));
  const auto steps = StepBatches(cfg, s);
  const int per_epoch = static_cast<int>(steps.size()) / cfg.master_epochs;
  double last_loss = 0.0;
  ScopedSpan stage("core.master_stage");
  for (size_t step = 0; step < steps.size(); ++step) {
    const int64_t t0 = NowNs();
    {
      ScopedSpan step_span("train.step", step + 1);
      {
        ScopedSpan span("autograd.zero_grad");
        opt.ZeroGradients();
      }
      std::vector<int> seeds, seed_labels;
      for (const auto& [id, label] : steps[step]) {
        seeds.push_back(id);
        seed_labels.push_back(label);
      }
      urg::SampledSubgraph sg;
      {
        ScopedSpan span("urg.sample");
        sg = urg::SampleKHop(view, seeds,
                             EpochSampling(cfg, step / per_epoch));
      }
      *nodes += sg.num_nodes();
      core::CmsfInputs inputs;
      {
        ScopedSpan span("urg.gather");
        inputs = SubgraphInputs(g, sg);
      }
      core::CmsfModel::ForwardResult fwd;
      {
        ScopedSpan span("core.forward");
        fwd = model->Forward(inputs, nullptr);
      }
      ag::VarPtr loss;
      {
        ScopedSpan span("autograd.loss");
        auto rows = std::make_shared<std::vector<int>>(sg.num_seeds);
        std::iota(rows->begin(), rows->end(), 0);
        Tensor w(sg.num_seeds, 1);
        for (int i = 0; i < sg.num_seeds; ++i) {
          w.at(i, 0) = seed_labels[i] > 0 ? pos_w : 1.0f;
        }
        loss = ag::BceWithLogits(ag::GatherRows(fwd.master_logits, rows),
                                 core::MakeLabelTensor(seed_labels), &w);
        last_loss = loss->value.at(0, 0);
      }
      {
        ScopedSpan span("autograd.backward");
        ag::Backward(loss);
      }
      {
        ScopedSpan span("autograd.optimizer");
        opt.Step();
      }
      if ((step + 1) % per_epoch == 0) {
        opt.DecayLearningRate(cfg.lr_decay_per_epoch);
      }
    }
    step_ms->push_back((NowNs() - t0) * 1e-6);
  }
  return last_loss;
}

// Master logits of `ids` (AUC needs only their order) from the same
// fanout-sampled forward the model trained with, one batch at a time:
// cheap next to the exact fanout-unlimited PredictCmsfMinibatch at this
// city size.
std::vector<float> ScoreSampled(const core::CmsfModel& model,
                                const urg::UrbanRegionGraph& g,
                                const std::vector<int>& ids) {
  const core::CmsfConfig& cfg = model.config();
  const urg::NeighborView view(g);
  urg::MinibatchConfig mcfg = EpochSampling(cfg, cfg.master_epochs);
  std::vector<float> out;
  for (size_t b = 0; b < ids.size(); b += cfg.batch_size) {
    const std::vector<int> seeds(
        ids.begin() + b,
        ids.begin() + std::min(ids.size(), b + cfg.batch_size));
    const urg::SampledSubgraph sg = urg::SampleKHop(view, seeds, mcfg);
    const auto fwd = model.Forward(SubgraphInputs(g, sg), nullptr);
    for (int i = 0; i < sg.num_seeds; ++i) {
      out.push_back(fwd.master_logits->value.at(i, 0));
    }
  }
  return out;
}

ShardedRun TrainShardedOnce(const urg::UrbanRegionGraph& g,
                            const ShardedSample& s, bool traced,
                            bool evaluate) {
  const core::CmsfConfig cfg = ShardedConfig();
  auto store = std::dynamic_pointer_cast<urg::LazyFeatureStore>(g.features);
  UV_CHECK(store != nullptr);
  const uint64_t h0 = store->cache_hits(), m0 = store->cache_misses();
  Rng rng(cfg.seed);
  core::CmsfModel model(cfg, g.PoiDim(), g.ImageDim(), &rng);
  ShardedRun run;
  WallTimer t;
  if (traced) {
    SpanRecorder::Get().set_enabled(true);
    run.final_loss =
        TrainShardedByHand(&model, g, s, &run.step_ms, &run.subgraph_nodes);
    SpanRecorder::Get().set_enabled(false);
    run.seconds = t.Seconds();
  } else {
    const core::MasterTrainResult res =
        core::TrainMasterMinibatch(&model, g, s.train_ids, s.train_labels);
    run.seconds = t.Seconds();
    run.final_loss = res.final_loss;
    for (double sec : res.epoch_seconds) run.step_ms.push_back(1e3 * sec);
    const auto steps = StepBatches(cfg, s);
    const int per_epoch = static_cast<int>(steps.size()) / cfg.master_epochs;
    // Replay the sampler (untimed) for the determinism count.
    const urg::NeighborView view(g);
    for (size_t i = 0; i < steps.size(); ++i) {
      std::vector<int> seeds;
      for (const auto& p : steps[i]) seeds.push_back(p.first);
      run.subgraph_nodes +=
          urg::SampleKHop(view, seeds, EpochSampling(cfg, i / per_epoch))
              .num_nodes();
    }
  }
  run.hits = store->cache_hits() - h0;
  run.misses = store->cache_misses() - m0;
  if (evaluate) {
    const std::vector<float> scores = ScoreSampled(model, g, s.eval_ids);
    run.auc = AllFinite(scores) ? Auc(scores, s.eval_labels) : -1.0;
  }
  return run;
}

void RunTrainSharded(const Args& a, Result* r) {
  const core::CmsfConfig cfg = ShardedConfig();
  // Step times of both trainings, and each training's p99 (slowest) step.
  std::vector<double> setup_s, rates, step_ms, run_p99_ms;
  std::vector<ShardedRun> runs;
  uint64_t pool_peak = 0;
  // Every training run gets a freshly built URG, so its LRU starts cold and
  // the cache counts of the runs are comparable. The first URG only warms
  // the buffer pool with one untimed step, so both timed runs start from
  // the same allocator state.
  for (int i = 0; i < kShardedSetups; ++i) {
    SpanRecorder::Get().set_enabled(a.trace);
    WallTimer t;
    urg::UrbanRegionGraph g = BuildShardedCity(a.seed);
    setup_s.push_back(t.Seconds());
    SpanRecorder::Get().set_enabled(false);
    const ShardedSample s = SampleLabeled(g, a.seed);
    if (i == 0) {
      core::CmsfConfig warm = cfg;
      warm.master_epochs = 1;
      Rng rng(warm.seed);
      core::CmsfModel model(warm, g.PoiDim(), g.ImageDim(), &rng);
      const int n = std::min<int>(warm.batch_size, s.train_ids.size());
      core::TrainMasterMinibatch(
          &model, g,
          std::vector<int>(s.train_ids.begin(), s.train_ids.begin() + n),
          std::vector<int>(s.train_labels.begin(),
                           s.train_labels.begin() + n));
      continue;
    }
    const int rep = i - 1;
    const bool traced = a.trace && rep == 1;
    uv::BufferPool::ResetPeak();
    runs.push_back(TrainShardedOnce(g, s, traced, /*evaluate=*/rep == 0));
    pool_peak = std::max(pool_peak, uv::BufferPool::Stats().pool_bytes_peak);
    const ShardedRun& run = runs.back();
    const double work = static_cast<double>(s.train_ids.size()) *
                        cfg.master_epochs;
    rates.push_back(work / run.seconds);
    if (!traced) {
      step_ms.insert(step_ms.end(), run.step_ms.begin(), run.step_ms.end());
      run_p99_ms.push_back(Percentile(run.step_ms, 0.99));
    }
    std::printf("[train_sharded] rep %d%s: %d regions, %.3f s, %.1f "
                "regions/s, hits %llu misses %llu nodes %lld loss %.9g\n",
                rep, traced ? " (traced)" : "", g.num_regions(), run.seconds,
                work / run.seconds, static_cast<unsigned long long>(run.hits),
                static_cast<unsigned long long>(run.misses),
                static_cast<long long>(run.subgraph_nodes), run.final_loss);
    bool ok = std::isfinite(run.final_loss) && run.auc >= 0.0;
    r->Check(ok, "rep %d: finite loss%s", rep,
             rep == 0 ? " and held-out scores" : "");
    if (rep == 1) {
      const ShardedRun& ref = runs[0];
      const bool same = run.misses == ref.misses && run.hits == ref.hits &&
                        run.subgraph_nodes == ref.subgraph_nodes &&
                        run.final_loss == ref.final_loss;
      r->Check(same,
               "rep 1 (%s, same seed) matches rep 0: cache hits/misses, "
               "subgraph nodes, final loss",
               traced ? "traced, hand-driven" : "untraced");
      ok = ok && same;
    }
    r->Operations(1, ok ? 0 : 1);
    std::printf("[train_sharded] rep %d step ms:", rep);
    for (double ms : run.step_ms) std::printf(" %.1f", ms);
    std::printf("\n");
  }

  const ShardedRun& ref = runs[0];
  r->Note("auc", ref.auc, "auc");
  if (!a.trace) {
    r->Add("setup_s", Median(setup_s), "s");
    r->Add("regions_per_s", Median(rates), "regions/s");
    r->Add("latency_p50_ms", Median(step_ms), "ms");
    r->Add("latency_p99_ms", Median(run_p99_ms), "ms");
    r->Add("peak_rss_mb", PeakRssMb(), "MB");
    std::printf("[train_sharded] latency = trainer step time, n=%zu; p99 per "
                "training, median over the trainings\n",
                step_ms.size());
    return;
  }
  const ShardedRun& traced = runs[1];
  const double steps = static_cast<double>(traced.step_ms.size());
  const double untraced_step = ref.seconds * 1000.0 / steps;
  const double traced_step =
      std::accumulate(traced.step_ms.begin(), traced.step_ms.end(), 0.0) /
      steps;
  CheckTracedTime("hand-driven step ms", traced_step, untraced_step, r);
  CheckCoverage("train.step",
                {"urg.sample", "urg.gather", "core.forward",
                 "autograd.backward", "autograd.optimizer"},
                r);
  LayerMetrics m;
  m.SetMedianSpan("synth.generate_s", "synth.generate", 1e-3);
  m.SetMedianSpan("urg.build_s", "urg.build", 1e-3);
  m.SetMedianSpan("urg.sample_ms", "urg.sample", 1.0);
  m.SetMedianSpan("urg.gather_ms", "urg.gather", 1.0);
  m.SetMedianSpan("core.forward_ms", "core.forward", 1.0);
  m.SetMedianSpan("autograd.backward_ms", "autograd.backward", 1.0);
  m.SetMedianSpan("autograd.optimizer_ms", "autograd.optimizer", 1.0);
  m.SetMedianSpan("core.master_stage_s", "core.master_stage", 1e-3);
  m.Set("urg.subgraph_nodes", static_cast<double>(traced.subgraph_nodes));
  m.Set("urg.cache_misses", static_cast<double>(traced.misses));
  m.Set("urg.cache_hit_ratio",
        static_cast<double>(traced.hits) / (traced.hits + traced.misses));
  m.Set("util.pool_peak_mb", pool_peak / (1024.0 * 1024.0));
  m.Set("eval.auc", ref.auc);
  m.Set("bench.trace_overhead_ratio", traced.seconds / ref.seconds);
  m.AddTo(r);
}

// ---- serve_mixed ------------------------------------------------------------

struct ServeStack {
  std::unique_ptr<SmallCity> city;
  std::unique_ptr<core::CmsfDetector> trained, loaded;
  std::unique_ptr<uv::infer::Engine> engine;
  std::unique_ptr<uv::obs::QualityMonitor> monitor;
  int64_t checkpoint_bytes = 0;
};

core::CmsfConfig ServeConfig() {
  core::CmsfConfig cfg = QuickstartConfig();
  cfg.master_epochs = kServeMasterEpochs;
  cfg.slave_epochs = kServeSlaveEpochs;
  return cfg;
}

// City, short training, checkpoint round trip, engine and monitor.
ServeStack BuildServeStack(const Args& a, Result* r) {
  ServeStack s;
  s.city = BuildSmallCity(a.seed);
  const SmallCity& c = *s.city;
  s.trained = std::make_unique<core::CmsfDetector>(ServeConfig());
  {
    ScopedSpan span("core.train");
    s.trained->Train(c.urg, c.train_ids, c.train_labels);
  }
  const std::string path = a.tmp_dir + "/serve-" +
                           std::to_string(getpid()) + ".uvck";
  {
    ScopedSpan span("io.save");
    const uv::Status st = s.trained->SaveModel(c.urg, path);
    r->Check(st.ok(), "SaveModel: %s", st.ToString().c_str());
  }
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fseek(f, 0, SEEK_END);
    s.checkpoint_bytes = std::ftell(f);
    std::fclose(f);
  }
  s.loaded = std::make_unique<core::CmsfDetector>(core::CmsfConfig{});
  {
    ScopedSpan span("io.load");
    const uv::Status st = s.loaded->LoadModel(c.urg, path);
    r->Check(st.ok(), "LoadModel: %s", st.ToString().c_str());
  }
  std::remove(path.c_str());
  {
    ScopedSpan span("infer.engine_build");
    s.engine = uv::infer::MakeCmsfEngine(*s.loaded->model(),
                                         &s.loaded->frozen(), c.urg);
  }
  s.monitor = std::make_unique<uv::obs::QualityMonitor>(
      s.loaded->baseline(c.urg), uv::obs::QualityOptions{});
  s.engine->SetQualityMonitor(s.monitor.get());
  return s;
}

struct ClientStream {
  std::vector<int> ids;      // Concatenated request ids.
  std::vector<int> sizes;    // Ids per request.
  std::vector<char> feedback;
  int64_t regions = 0;
};

std::vector<ClientStream> MakeStreams(const Args& a, int num_regions) {
  const int per_pass =
      std::max(50, a.seconds * kRequestsPerClientPerSecond / 2);
  std::vector<ClientStream> streams(kClients);
  for (int cl = 0; cl < kClients; ++cl) {
    ClientStream& s = streams[cl];
    Rng rng(urg::MixSeed(a.seed, 0xc11e47 + cl));
    // Exact 70/25/5 shares in a seeded order, so every seed sends the same
    // number of large requests.
    for (int i = 0; i < per_pass; ++i) {
      const int slot = i % 20;
      s.sizes.push_back(slot < 14 ? 8 : (slot < 19 ? 32 : 256));
    }
    rng.Shuffle(&s.sizes);
    for (int n : s.sizes) {
      for (int k = 0; k < n; ++k) s.ids.push_back(rng.UniformInt(num_regions));
      s.feedback.push_back(rng.Uniform() < kFeedbackShare);
      s.regions += n;
    }
  }
  return streams;
}

struct PassResult {
  double seconds = 0.0;
  std::vector<double> latency_ms;  // Every request, send to reply.
  int64_t requests = 0, regions = 0, failed = 0;
  uint64_t checksum = 0;
};

// One closed-loop pass: every client sends its stream, waiting for each
// reply and then a fixed think time. Replies are checked against the
// reference scores bit for bit.
PassResult RunPass(uv::infer::ScoringServer* server,
                   const std::vector<ClientStream>& streams,
                   const std::vector<float>& reference,
                   const std::vector<int>& labels, uint64_t op_base) {
  struct ClientOut {
    std::vector<double> latency_ms;
    int64_t failed = 0;
    uint64_t checksum = 0;
  };
  std::vector<ClientOut> outs(streams.size());
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t cl = 0; cl < streams.size(); ++cl) {
    threads.emplace_back([&, cl] {
      const ClientStream& s = streams[cl];
      ClientOut& o = outs[cl];
      std::vector<float> out(256);
      std::vector<float> fb_scores;
      std::vector<int> fb_labels;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      size_t offset = 0;
      for (size_t i = 0; i < s.sizes.size(); ++i) {
        const int n = s.sizes[i];
        const int* ids = s.ids.data() + offset;
        offset += n;
        bool ok = true;
        {
          ScopedSpan request("serve.request",
                             op_base + (cl << 32) + i + 1);
          const int64_t t0 = NowNs();
          {
            ScopedSpan span("infer.server_score");
            server->Score(ids, n, out.data());
          }
          o.latency_ms.push_back((NowNs() - t0) * 1e-6);
          fb_scores.clear();
          fb_labels.clear();
          for (int k = 0; k < n; ++k) {
            uint32_t bits;
            std::memcpy(&bits, &out[k], sizeof(bits));
            o.checksum = o.checksum * 1000003u + bits;
            if (std::memcmp(&out[k], &reference[ids[k]], sizeof(float)) != 0) {
              ok = false;
            }
            if (labels[ids[k]] >= 0) {
              fb_scores.push_back(out[k]);
              fb_labels.push_back(labels[ids[k]]);
            }
          }
          if (s.feedback[i] && !fb_scores.empty()) {
            ScopedSpan span("obs.feedback");
            ok = server->Feedback(fb_scores.data(), fb_labels.data(),
                                  static_cast<int>(fb_scores.size())) &&
                 ok;
          }
        }
        if (!ok) ++o.failed;
        std::this_thread::sleep_for(std::chrono::microseconds(kThinkUs));
      }
    });
  }
  const int64_t start_ns = NowNs();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  PassResult p;
  p.seconds = (NowNs() - start_ns) * 1e-9;
  for (size_t cl = 0; cl < streams.size(); ++cl) {
    const ClientOut& o = outs[cl];
    p.latency_ms.insert(p.latency_ms.end(), o.latency_ms.begin(),
                        o.latency_ms.end());
    p.failed += outs[cl].failed;
    p.checksum = p.checksum * 31 + outs[cl].checksum;
    p.requests += static_cast<int64_t>(streams[cl].sizes.size());
    p.regions += streams[cl].regions;
  }
  return p;
}

void RunServeMixed(const Args& a, Result* r) {
  std::vector<double> setup_s;
  std::vector<int64_t> ckpt_bytes;
  ServeStack stack;
  for (int i = 0; i < kServeSetups; ++i) {
    stack = ServeStack();
    SpanRecorder::Get().set_enabled(a.trace);
    WallTimer t;
    stack = BuildServeStack(a, r);
    setup_s.push_back(t.Seconds());
    SpanRecorder::Get().set_enabled(false);
    ckpt_bytes.push_back(stack.checkpoint_bytes);
  }
  const SmallCity& c = *stack.city;
  const int n = c.urg.num_regions();
  const std::vector<int> all = AllIds(c.urg);

  // Correctness before any load: the served engine equals the autograd
  // Score path of both the trained and the reloaded detector, bit for bit.
  const std::vector<float> reference = stack.trained->Score(c.urg, all);
  const std::vector<float> reloaded = stack.loaded->Score(c.urg, all);
  const std::vector<float> engine_scores = stack.engine->Score(all);
  r->Check(BitEqual(engine_scores, reference) && BitEqual(reloaded, reference),
           "engine scores bit-identical to CmsfDetector::Score over all %d "
           "regions (trained and reloaded)", n);
  r->Check(AllFinite(reference), "reference scores finite");
  r->Check(std::all_of(ckpt_bytes.begin(), ckpt_bytes.end(),
                       [&](int64_t b) { return b == ckpt_bytes[0] && b > 0; }),
           "checkpoint size identical over %d same-seed set-ups (%lld bytes)",
           kServeSetups, static_cast<long long>(ckpt_bytes[0]));
  const double auc = AucOf(engine_scores, c.test_ids, c.test_labels);
  r->Note("auc", auc, "auc");

  // Direct engine calls (traced run only): the engine is single-caller, so
  // they run before the server takes it over.
  LayerMetrics m;
  if (a.trace) {
    Rng rng(urg::MixSeed(a.seed, 0xd12ec7));
    std::vector<float> out(256);
    for (int size : {8, 32, 256}) {
      std::vector<double> us;
      std::vector<int> ids(size);
      for (int call = 0; call < kDirectCalls; ++call) {
        for (int& id : ids) id = rng.UniformInt(n);
        const int64_t t0 = NowNs();
        stack.engine->ScoreInto(ids.data(), size, out.data());
        us.push_back((NowNs() - t0) * 1e-3);
      }
      m.Set("infer.score_us_" + std::to_string(size), Median(us));
    }
  }

  const std::vector<ClientStream> streams = MakeStreams(a, n);
  uv::BufferPool::ResetPeak();
  uv::infer::ScoringServer server(stack.engine.get(),
                                  uv::infer::ServerOptions{});
  // The same seeded stream is sent twice; in the traced run the second
  // pass records spans.
  PassResult passes[2];
  uv::infer::ServerStats after[2];
  for (int p = 0; p < 2; ++p) {
    if (a.trace && p == 1) SpanRecorder::Get().set_enabled(true);
    passes[p] = RunPass(&server, streams, reference, c.urg.labels,
                        static_cast<uint64_t>(p) << 48);
    SpanRecorder::Get().set_enabled(false);
    after[p] = server.Stats();
    std::printf("[serve_mixed] pass %d: %lld requests, %lld regions, %.3f s, "
                "checksum %016llx\n",
                p, static_cast<long long>(passes[p].requests),
                static_cast<long long>(passes[p].regions), passes[p].seconds,
                static_cast<unsigned long long>(passes[p].checksum));
  }
  const uint64_t pool_peak = uv::BufferPool::Stats().pool_bytes_peak;
  server.Shutdown();

  for (const PassResult& pass : passes) {
    r->Operations(pass.requests, pass.failed);
  }
  r->Check(passes[0].failed + passes[1].failed == 0,
           "%lld served replies differ from the reference scores",
           static_cast<long long>(passes[0].failed + passes[1].failed));
  const uint64_t req0 = after[0].requests_total;
  const uint64_t reg0 = after[0].regions_total;
  const uint64_t req1 = after[1].requests_total - req0;
  const uint64_t reg1 = after[1].regions_total - reg0;
  r->Check(req0 == req1 && reg0 == reg1 &&
               req0 == static_cast<uint64_t>(passes[0].requests) &&
               reg0 == static_cast<uint64_t>(passes[0].regions) &&
               passes[0].checksum == passes[1].checksum,
           "same-seed passes agree: requests %llu/%llu, regions %llu/%llu, "
           "reply checksums",
           static_cast<unsigned long long>(req0),
           static_cast<unsigned long long>(req1),
           static_cast<unsigned long long>(reg0),
           static_cast<unsigned long long>(reg1));
  const uv::obs::DriftReport drift = stack.monitor->ComputeDrift();
  r->Check(!drift.alert,
           "no drift on the unshifted city (feature psi max %.4f, score psi "
           "%.4f)",
           drift.feature_psi_max, drift.score_psi);

  // Percentiles over every request of both passes: ~170 requests lie
  // beyond the p99. Per-window percentiles (~2,000 requests each, median
  // over the windows) spread more between runs.
  std::vector<double> latency_ms = passes[0].latency_ms;
  latency_ms.insert(latency_ms.end(), passes[1].latency_ms.begin(),
                    passes[1].latency_ms.end());
  if (!a.trace) {
    r->Add("setup_s", Median(setup_s), "s");
    r->Add("regions_per_s",
           (passes[0].regions + passes[1].regions) /
               (passes[0].seconds + passes[1].seconds),
           "regions/s");
    r->Add("latency_p50_ms", Percentile(latency_ms, 0.5), "ms");
    r->Add("latency_p99_ms", Percentile(latency_ms, 0.99), "ms");
    r->Add("peak_rss_mb", PeakRssMb(), "MB");
    std::printf("[serve_mixed] latency = Score() send to reply, n=%zu\n",
                latency_ms.size());
    return;
  }
  CheckTracedTime("pass s", passes[1].seconds, passes[0].seconds, r);
  CheckCoverage("serve.request", {"infer.server_score", "obs.feedback"}, r);
  m.SetMedianSpan("synth.generate_s", "synth.generate", 1e-3);
  m.SetMedianSpan("urg.build_s", "urg.build", 1e-3);
  m.SetMedianSpan("io.save_ms", "io.save", 1.0);
  m.SetMedianSpan("io.load_ms", "io.load", 1.0);
  m.SetMedianSpan("infer.engine_build_ms", "infer.engine_build", 1.0);
  m.SetMedianSpan("obs.feedback_us", "obs.feedback", 1e3);
  m.Set("io.checkpoint_bytes", static_cast<double>(ckpt_bytes[0]));
  m.Set("infer.queue_wait_us_p50", after[1].queue_wait_p50_us);
  m.Set("infer.queue_wait_us_p99", after[1].queue_wait_p99_us);
  m.Set("infer.batch_regions_mean",
        static_cast<double>(after[1].regions_total) /
            std::max<uint64_t>(1, after[1].batches_total));
  m.Set("util.pool_peak_mb", pool_peak / (1024.0 * 1024.0));
  m.Set("eval.auc", auc);
  m.Set("bench.trace_overhead_ratio", passes[1].seconds / passes[0].seconds);
  m.AddTo(r);
}

// ---- main -------------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload train_full|train_sharded|"
               "serve_mixed --seed N --seconds S --trace 0|1 "
               "[--tmp-dir DIR] [--trace-out FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args a;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atoi(v);
    } else if (flag == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else if (flag == "--tmp-dir") {
      a.tmp_dir = v;
    } else if (flag == "--trace-out") {
      trace_out = v;
    } else {
      return Usage();
    }
  }
  if (a.seconds < 1) return Usage();
  // The figures are only comparable at the fixed thread count with every
  // obs sink off.
  if (uv::ThreadPool::NumThreadsFromEnv() != kThreads) {
    std::fprintf(stderr, "perfbench: UV_THREADS must be %d\n", kThreads);
    return 2;
  }
  for (const char* var : {"UV_TRACE", "UV_METRICS", "UV_EXPORT"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: %s must be unset\n", var);
      return 2;
    }
  }
  std::printf("[perfbench] workload=%s seed=%llu seconds=%d trace=%d "
              "threads=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, kThreads);
  Result r;
  if (a.workload == "train_full") {
    RunTrainFull(a, &r);
  } else if (a.workload == "train_sharded") {
    RunTrainSharded(a, &r);
  } else if (a.workload == "serve_mixed") {
    RunServeMixed(a, &r);
  } else {
    return Usage();
  }
  if (a.trace) {
    PrintLayerTable();
    if (!trace_out.empty() && !SpanRecorder::Get().WriteJsonl(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    }
  }
  r.Print();
  return r.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
