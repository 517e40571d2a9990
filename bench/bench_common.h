#ifndef UV_BENCH_BENCH_COMMON_H_
#define UV_BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "core/cmsf_config.h"
#include "eval/runner.h"
#include "obs/report.h"
#include "synth/city.h"
#include "urg/urban_region_graph.h"
#include "util/rng.h"

namespace uv::bench {

// Knobs shared by every table/figure benchmark, overridable via environment
// variables so one run can trade fidelity for wall-clock:
//   UV_BENCH_SCALE   city size as a fraction of the paper's region counts
//                    (default 0.015; 1.0 approximates Table I magnitudes)
//   UV_BENCH_EPOCHS  training epochs per stage-one/baseline (default 70)
//   UV_BENCH_RUNS    repeated random runs (paper: 5; default 1)
//   UV_BENCH_FOLDS   cross-validation folds (paper: 3; default 3)
//   UV_BENCH_SEED    master seed (default 2023)
//   UV_BENCH_REPEATS timed repeats per ledger benchmark (default 5)
//   UV_BENCH_WARMUP  untimed warmup executions before the repeats (default 1)
//
// repeats/warmup are also CLI flags (--repeats N / --repeats=N, --warmup
// likewise) parsed by FromArgs; flags win over the environment. Between
// repeats the measurement harness (obs::Report::RunTimed) calls
// obs::ResetAll() so per-repeat counter deltas (mem.pool_hits,
// threadpool.queue_wait_us, ...) are isolated rather than cumulative.
//
// Orthogonally, UV_THREADS sizes the global worker pool every kernel and
// the fold-parallel runner execute on (default: hardware_concurrency;
// UV_THREADS=1 forces serial execution). Results are bit-identical for
// any UV_THREADS value — see "Parallel execution" in DESIGN.md.
struct BenchConfig {
  double scale = 0.015;
  int epochs = 70;
  int runs = 1;
  int folds = 3;
  uint64_t seed = 2023;
  int repeats = 5;
  int warmup = 1;

  static BenchConfig FromEnv() {
    BenchConfig config;
    if (const char* v = std::getenv("UV_BENCH_SCALE")) config.scale = atof(v);
    if (const char* v = std::getenv("UV_BENCH_EPOCHS")) config.epochs = atoi(v);
    if (const char* v = std::getenv("UV_BENCH_RUNS")) config.runs = atoi(v);
    if (const char* v = std::getenv("UV_BENCH_FOLDS")) config.folds = atoi(v);
    if (const char* v = std::getenv("UV_BENCH_SEED")) config.seed = strtoull(v, nullptr, 10);
    if (const char* v = std::getenv("UV_BENCH_REPEATS")) config.repeats = atoi(v);
    if (const char* v = std::getenv("UV_BENCH_WARMUP")) config.warmup = atoi(v);
    if (config.repeats < 1) config.repeats = 1;
    if (config.warmup < 0) config.warmup = 0;
    return config;
  }

  // Environment first, then CLI flags override. Unrecognized arguments are
  // left alone (bench_suite parses its own mode flags).
  static BenchConfig FromArgs(int argc, char** argv) {
    BenchConfig config = FromEnv();
    auto value_of = [&](int* i, const char* flag) -> const char* {
      const size_t flag_len = std::strlen(flag);
      if (std::strncmp(argv[*i], flag, flag_len) != 0) return nullptr;
      if (argv[*i][flag_len] == '=') return argv[*i] + flag_len + 1;
      if (argv[*i][flag_len] == '\0' && *i + 1 < argc) return argv[++*i];
      return nullptr;
    };
    for (int i = 1; i < argc; ++i) {
      if (const char* v = value_of(&i, "--repeats")) {
        config.repeats = atoi(v);
      } else if (const char* v = value_of(&i, "--warmup")) {
        config.warmup = atoi(v);
      }
    }
    if (config.repeats < 1) config.repeats = 1;
    if (config.warmup < 0) config.warmup = 0;
    return config;
  }
};

// Builds the ledger for one bench binary with the shared config echoed in,
// repeat/warmup defaults applied, and the suite named after the binary.
inline obs::Report MakeReport(const std::string& suite,
                              const BenchConfig& bench) {
  obs::Report report(suite);
  report.SetConfig("scale", bench.scale);
  report.SetConfig("epochs", static_cast<int64_t>(bench.epochs));
  report.SetConfig("runs", static_cast<int64_t>(bench.runs));
  report.SetConfig("folds", static_cast<int64_t>(bench.folds));
  report.SetConfig("seed", static_cast<int64_t>(bench.seed));
  report.SetConfig("repeats", static_cast<int64_t>(bench.repeats));
  report.SetConfig("warmup", static_cast<int64_t>(bench.warmup));
  report.SetRepeats(bench.warmup, bench.repeats);
  return report;
}

// Resolves where a bench binary writes its ledger: --out/-o flag, then
// UV_BENCH_OUT, then the per-binary default (BENCH_<suite>.json).
inline std::string LedgerPath(const std::string& default_path, int argc = 0,
                              char** argv = nullptr) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 || std::strcmp(argv[i], "-o") == 0) {
      return argv[i + 1];
    }
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) return argv[i] + 6;
  }
  if (const char* v = std::getenv("UV_BENCH_OUT")) return v;
  return default_path;
}

// Writes the ledger and announces it on stderr (stdout carries the
// human-readable tables and must stay byte-comparable across runs).
inline void WriteLedger(const obs::Report& report, const std::string& path) {
  if (report.WriteFile(path)) {
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }
}

inline const std::vector<std::string>& CityNames() {
  static const std::vector<std::string>* names =
      new std::vector<std::string>{"Fuzhou", "Shenzhen", "Beijing"};
  return *names;
}

// The sensitivity/ablation figures default to the two cheaper cities to
// bound single-core wall-clock; set UV_BENCH_ALL_CITIES=1 to sweep all
// three as in the paper.
inline const std::vector<std::string>& AblationCityNames() {
  static const std::vector<std::string>* names = [] {
    if (std::getenv("UV_BENCH_ALL_CITIES") != nullptr) {
      return new std::vector<std::string>{"Fuzhou", "Shenzhen", "Beijing"};
    }
    return new std::vector<std::string>{"Fuzhou", "Shenzhen"};
  }();
  return *names;
}

inline synth::CityConfig CityPreset(const std::string& name,
                                    const BenchConfig& bench) {
  if (name == "Shenzhen") return synth::ShenzhenLike(bench.scale, bench.seed);
  if (name == "Fuzhou") return synth::FuzhouLike(bench.scale, bench.seed + 1);
  return synth::BeijingLike(bench.scale, bench.seed + 2);
}

// Per-city CMSF architecture settings following Section VI-A (heads = 2 /
// 2 / 1; GSCM AGG = sum / sum / concat), with the cluster count scaled
// alongside the city. The paper's per-city tau (0.1 / 0.01 / 0.1) and
// lambda (0.01 / 1.0 / 0.001) were tuned on the full-scale proprietary
// datasets; at reduced synthetic scale the sharp tau = 0.01 saturates the
// assignment softmax and starves W_B of gradient, so all cities use the
// stable tau = 0.1 / lambda = 0.01 here (overridable via CmsfConfig).
inline core::CmsfConfig CmsfPreset(const std::string& name,
                                   const BenchConfig& bench) {
  core::CmsfConfig config;
  config.seed = bench.seed;
  config.master_epochs = bench.epochs;
  config.temperature = 0.1f;
  config.lambda = 0.01;
  const double k_scale = std::max(0.2, std::sqrt(bench.scale / 0.02) * 0.6);
  if (name == "Shenzhen") {
    config.num_clusters = std::max(10, static_cast<int>(50 * k_scale));
    config.maga_heads = 2;
    config.gscm_agg = nn::AggKind::kSum;
  } else if (name == "Fuzhou") {
    config.num_clusters = std::max(10, static_cast<int>(100 * k_scale));
    config.maga_heads = 2;
    config.gscm_agg = nn::AggKind::kSum;
  } else {  // Beijing
    config.num_clusters = std::max(10, static_cast<int>(100 * k_scale));
    config.maga_heads = 1;
    config.gscm_agg = nn::AggKind::kConcat;
  }
  return config;
}

inline urg::UrbanRegionGraph BuildCityUrg(const std::string& name,
                                          const BenchConfig& bench) {
  synth::City city = synth::GenerateCity(CityPreset(name, bench));
  urg::UrgOptions options;
  return urg::BuildUrg(city, options);
}

inline eval::DetectorFactory MakeFactory(const std::string& method,
                                         const std::string& city,
                                         const BenchConfig& bench) {
  core::CmsfConfig cmsf = CmsfPreset(city, bench);
  return [method, cmsf, bench](uint64_t seed) {
    baselines::TrainOptions options;
    options.epochs = bench.epochs;
    // The CNN baselines train on 256-tile mini-batches per epoch and
    // dominate single-core wall-clock; 50 epochs (~12.8k samples) is past
    // their convergence point at bench scale.
    if (method == "UVLens" || method == "MUVFCN") {
      options.epochs = std::min(options.epochs, 50);
    }
    options.seed = seed;
    return baselines::MakeDetector(method, options, cmsf);
  };
}

inline eval::RunnerOptions MakeRunnerOptions(const BenchConfig& bench) {
  eval::RunnerOptions options;
  options.num_folds = bench.folds;
  options.num_runs = bench.runs;
  options.seed = bench.seed;
  return options;
}

// Destination-grouped random graph for the edge-op kernels: each of
// num_nodes destination segments gets 4-11 in-edges from uniformly drawn
// source nodes, so sources repeat across segments as in a real URG.
struct RandomEdgeList {
  std::shared_ptr<const std::vector<int>> offsets;  // num_nodes + 1.
  std::shared_ptr<const std::vector<int>> src_ids;
  std::shared_ptr<const std::vector<int>> dst_ids;
};

inline RandomEdgeList MakeRandomEdgeList(int num_nodes, uint64_t seed) {
  auto offsets = std::make_shared<std::vector<int>>(1, 0);
  auto src = std::make_shared<std::vector<int>>();
  auto dst = std::make_shared<std::vector<int>>();
  Rng rng(seed);
  for (int i = 0; i < num_nodes; ++i) {
    const int deg = 4 + rng.UniformInt(8);
    for (int k = 0; k < deg; ++k) {
      src->push_back(rng.UniformInt(num_nodes));
      dst->push_back(i);
    }
    offsets->push_back(static_cast<int>(src->size()));
  }
  return {std::move(offsets), std::move(src), std::move(dst)};
}

inline void PrintBenchHeader(const char* title, const BenchConfig& bench) {
  std::printf("=== %s ===\n", title);
  std::printf(
      "(synthetic cities; scale=%.3f of paper region counts, epochs=%d, "
      "runs=%d, folds=%d, seed=%llu)\n\n",
      bench.scale, bench.epochs, bench.runs, bench.folds,
      static_cast<unsigned long long>(bench.seed));
}

}  // namespace uv::bench

#endif  // UV_BENCH_BENCH_COMMON_H_
