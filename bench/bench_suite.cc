// Unified benchmark driver: runs the micro kernel suite (and optionally a
// small end-to-end eval leg) under the standard measurement protocol —
// warmup + N timed repeats with obs::ResetAll() isolation between repeats —
// and writes one canonical perf ledger (default BENCH_core.json) through
// obs::Report. The committed BENCH_core.json at the repo root is the
// regression baseline: CI re-runs `bench_suite --micro` and gates the fresh
// ledger with tools/bench_diff.py.
//
//   bench_suite --micro [--eval] [--repeats N] [--warmup N] [--out FILE]
//
// UV_BENCH_REPEATS / UV_BENCH_WARMUP / UV_BENCH_OUT are the env fallbacks;
// UV_BENCH_SCALE etc. shape the --eval leg (see bench_common.h).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "bench_common.h"
#include "core/cmsf_detector.h"
#include "core/cmsf_model.h"
#include "eval/splits.h"
#include "features/image_encoder.h"
#include "graph/csr_graph.h"
#include "graph/grid.h"
#include "infer/engine.h"
#include "infer/server.h"
#include "nn/graph_context.h"
#include "nn/gscm.h"
#include "nn/linear.h"
#include "nn/maga.h"
#include "nn/ms_gate.h"
#include "obs/quality.h"
#include "tensor/tensor_ops.h"
#include "urg/neighbor_sampler.h"
#include "util/buffer_pool.h"
#include "util/rng.h"

namespace {

uv::Tensor RandomTensor(int r, int c, uint64_t seed) {
  uv::Rng rng(seed);
  uv::Tensor t(r, c);
  t.RandomNormal(&rng, 1.0f);
  return t;
}

uv::nn::GraphContext GridContext(int side) {
  uv::graph::GridSpec grid{side, side, 128.0};
  auto csr = uv::graph::CsrGraph::FromEdges(
      grid.num_regions(), uv::graph::BuildSpatialProximityEdges(grid), false,
      true);
  return uv::nn::GraphContext::FromCsr(csr);
}

// The micro suite: one entry per hot kernel family and per model layer.
// Sizes keep a repeat between a fraction of a millisecond and a few tens
// of milliseconds on one core, so CI's warmup + 5 repeats of every entry
// stays under a minute.
void RunMicroSuite(uv::obs::Report* report) {
  {
    const uv::Tensor a = RandomTensor(256, 256, 1);
    const uv::Tensor b = RandomTensor(256, 256, 2);
    uv::Tensor c(256, 256);
    report->RunTimed("gemm_nn_256", [&] {
      uv::Gemm(false, false, 1.0f, a, b, 0.0f, &c);
    });
    report->RunTimed("gemm_tn_256", [&] {
      uv::Gemm(true, false, 1.0f, a, b, 0.0f, &c);
    });
    report->RunTimed("gemm_nt_256", [&] {
      uv::Gemm(false, true, 1.0f, a, b, 0.0f, &c);
    });
  }
  {
    // Vectorized elementwise: y += alpha * x over 1M floats.
    const uv::Tensor x = RandomTensor(1024, 1024, 19);
    uv::Tensor y = RandomTensor(1024, 1024, 20);
    report->RunTimed("axpy_1m", [&] {
      uv::Axpy(0.5f, x, &y);
    });
  }
  {
    // Fused dense + bias + ReLU epilogue (the Linear::Forward hot path).
    const uv::Tensor x = RandomTensor(512, 256, 21);
    const uv::Tensor w = RandomTensor(256, 128, 22);
    const uv::Tensor bias = RandomTensor(1, 128, 23);
    uv::Tensor out(512, 128);
    report->RunTimed("dense_bias_relu", [&] {
      uv::GemmBiasAct(false, false, 1.0f, x, w, 0.0f, &out, &bias,
                      uv::kern::Activation::kRelu);
    });
  }
  {
    const uv::Tensor a = RandomTensor(8192, 50, 3);
    report->RunTimed("row_softmax_8192x50", [&] {
      uv::Tensor s = uv::RowSoftmax(a, 0.1f);
    });
  }
  {
    // Attention message passing (the per-epoch inner loop of every GNN).
    auto ctx = GridContext(64);
    auto x = uv::ag::MakeConst(RandomTensor(64 * 64, 64, 4));
    auto w = uv::ag::MakeConst(RandomTensor(64, 32, 5));
    auto a_src = uv::ag::MakeConst(RandomTensor(32, 1, 6));
    auto a_dst = uv::ag::MakeConst(RandomTensor(32, 1, 7));
    report->RunTimed("attention_pass_grid64", [&] {
      auto h = uv::ag::MatMul(x, w);
      auto alpha = uv::ag::EdgeSoftmax(uv::ag::MatMul(h, a_dst),
                                       uv::ag::MatMul(h, a_src), 0.2f,
                                       ctx.offsets, ctx.src_ids);
      auto out = uv::ag::EdgeWeightedSum(alpha, h, ctx.offsets, ctx.src_ids,
                                         ctx.dst_ids);
      (void)out->value.data();
    });
  }
  {
    // GSCM regions->clusters->regions round trip.
    const int n = 4096, k = 50;
    auto x = uv::ag::MakeConst(RandomTensor(n, 64, 8));
    auto wb = uv::ag::MakeConst(RandomTensor(64, k, 9));
    auto seg = std::make_shared<std::vector<int>>(n);
    uv::Rng rng(10);
    for (auto& s : *seg) s = rng.UniformInt(k);
    report->RunTimed("cluster_roundtrip_4096", [&] {
      auto soft = uv::ag::RowSoftmax(uv::ag::MatMul(x, wb), 0.1f);
      auto clusters = uv::ag::SegmentSumByIds(x, seg, k);
      auto back = uv::ag::MatMul(soft, clusters);
      (void)back->value.data();
    });
  }
  {
    // Conv2d forward + backward over an 8-image batch.
    const uv::ag::Conv2dSpec spec{3, 32, 32, 16, 3, 1, 1};
    const uv::Tensor x0 = RandomTensor(8, 3 * 32 * 32, 11);
    const uv::Tensor w0 = RandomTensor(16, 3 * 9, 12);
    const uv::Tensor b0 = RandomTensor(1, 16, 13);
    report->RunTimed("conv2d_fwd_bwd_b8", [&] {
      auto x = uv::ag::MakeParam(x0);
      auto w = uv::ag::MakeParam(w0);
      auto b = uv::ag::MakeParam(b0);
      auto y = uv::ag::Conv2d(x, w, b, spec);
      uv::ag::Backward(uv::ag::SumAll(uv::ag::Mul(y, y)));
    });
  }
  {
    // Frozen image encoder (most of the cost of every lazy-store miss):
    // 256 seeded 32x32 tiles through the grad-free forward.
    const uv::features::ConvEncoder encoder(
        uv::features::ConvEncoder::Options{});
    uv::Rng rng(25);
    uv::Tensor tiles(256, 3 * 32 * 32);
    for (int64_t i = 0; i < tiles.size(); ++i) {
      tiles[i] = static_cast<float>(rng.Uniform());
    }
    report->RunTimed("conv_encode_b256", [&] {
      uv::Tensor f = encoder.Encode(tiles);
    });
  }
  {
    // Fused edge softmax + weighted sum over 20k destination segments of
    // 4-11 random in-edges each, forward and backward.
    const int num_segments = 20000;
    const auto edges = uv::bench::MakeRandomEdgeList(num_segments, 14);
    const uv::Tensor s_dst0 = RandomTensor(num_segments, 1, 15);
    const uv::Tensor s_src0 = RandomTensor(num_segments, 1, 24);
    const uv::Tensor h0 = RandomTensor(num_segments, 64, 16);
    report->RunTimed("segment_fwd_bwd_20k", [&] {
      auto s_dst = uv::ag::MakeParam(s_dst0);
      auto s_src = uv::ag::MakeParam(s_src0);
      auto h = uv::ag::MakeParam(h0);
      auto alpha = uv::ag::EdgeSoftmax(s_dst, s_src, 0.2f, edges.offsets,
                                       edges.src_ids);
      auto y = uv::ag::EdgeWeightedSum(alpha, h, edges.offsets, edges.src_ids,
                                       edges.dst_ids);
      uv::ag::Backward(uv::ag::SumAll(uv::ag::Mul(y, y)));
    });
  }
  {
    // Full reverse-mode pass over a graph model (allocation-heavy path:
    // exercises the graph arena and the buffer pool).
    auto ctx = GridContext(64);
    auto x = uv::ag::MakeConst(RandomTensor(64 * 64, 64, 17));
    report->RunTimed("backward_graph_grid64", [&] {
      auto w = uv::ag::MakeParam(RandomTensor(64, 32, 18));
      auto h = uv::ag::Relu(uv::ag::MatMul(x, w));
      auto agg = uv::ag::EdgeWeightedSum(ctx.gcn_norm, h, ctx.offsets,
                                         ctx.src_ids, ctx.dst_ids);
      auto loss = uv::ag::MeanAll(uv::ag::Mul(agg, agg));
      uv::ag::Backward(loss);
      (void)w->grad.data();
    });
  }
  // Model layers and URG construction, the per-epoch building blocks of
  // CMSF. The two-point pairs (grid32/grid64, 1024/4096) check the linear
  // cost in |V| and |E| of the paper's complexity analysis (Section V-D,
  // eq. 25-28): 4x the regions should cost about 4x the time.
  for (const int side : {32, 64}) {
    const int n = side * side;
    auto ctx = GridContext(side);
    uv::Rng rng(1);
    uv::nn::MagaLayer layer(64, 128, 64, 2, uv::nn::AggKind::kAttention, &rng);
    auto p = uv::ag::MakeConst(RandomTensor(n, 64, 2));
    auto i = uv::ag::MakeConst(RandomTensor(n, 128, 3));
    report->RunTimed("maga_forward_grid" + std::to_string(side), [&] {
      auto out = layer.Forward(p, i, ctx);
      (void)out.p->value.data();
    });
  }
  for (const int n : {1024, 4096}) {
    uv::Rng rng(4);
    uv::nn::Gscm::Options options;
    options.in_dim = 128;
    options.num_clusters = 50;
    uv::nn::Gscm gscm(options, &rng);
    auto x = uv::ag::MakeConst(RandomTensor(n, 128, 5));
    report->RunTimed("gscm_forward_" + std::to_string(n), [&] {
      auto out = gscm.Forward(x);
      (void)out.region_repr->value.data();
    });
  }
  {
    const int n = 2048;
    uv::Rng rng(6);
    uv::nn::MsGate::Options options;
    options.num_clusters = 50;
    options.cluster_repr_dim = 128;
    options.context_dim = 16;
    options.classifier_in = 128;
    options.classifier_hidden = 32;
    uv::nn::MsGate gate(options, &rng);
    uv::nn::Mlp master(128, 32, 1, &rng);
    auto x = uv::ag::MakeConst(RandomTensor(n, 128, 7));
    auto b = uv::ag::MakeConst(uv::RowSoftmax(RandomTensor(n, 50, 8), 0.1f));
    auto h = uv::ag::MakeConst(RandomTensor(50, 128, 9));
    report->RunTimed("ms_gate_forward_2048", [&] {
      auto inclusion = gate.EstimateInclusion(h);
      auto logits = gate.Forward(x, b, inclusion, master);
      (void)logits->value.data();
    });
  }
  {
    auto config = uv::synth::ShenzhenLike(0.005, 11);
    config.generate_images = false;
    const uv::synth::City city = uv::synth::GenerateCity(config);
    report->RunTimed("urg_build_shenzhen_0005", [&] {
      auto urg = uv::urg::BuildUrg(city, uv::urg::UrgOptions{});
    });
    report->RunTimed("city_generate_shenzhen_0005", [&] {
      auto generated = uv::synth::GenerateCity(config);
    });
  }
}

// Optional end-to-end leg: one small cross-validated GCN run, recorded via
// the same AppendRunStats path the table benches use.
void RunEvalSuite(uv::obs::Report* report, uv::bench::BenchConfig bench) {
  bench.epochs = std::min(bench.epochs, 20);
  bench.runs = 1;
  const std::string city = "Fuzhou";
  auto urg = uv::bench::BuildCityUrg(city, bench);
  const auto stats = uv::eval::RunCrossValidation(
      urg, uv::bench::MakeFactory("GCN", city, bench),
      uv::bench::MakeRunnerOptions(bench));
  uv::eval::AppendRunStats(report, "eval/cross_validation_gcn_fuzhou", stats);
}

// Paper-scale leg: builds one city-scale preset ("93k" / "175k" / "354k",
// generate_images = false) through the sharded URG + lazy feature store
// path and records the four gated entries of the city_scale.* family:
//   city_scale.urg_build_<tag>       regions_per_sec, peak pool bytes
//   city_scale.sampler_<tag>         subgraphs_per_sec
//   city_scale.train_step_cmsf_<tag> per-batch master step, peak pool bytes
//   city_scale.train_step_gcn_<tag>  per-batch GCN step, peak pool bytes
// Each train-step closure resets the pool high-water mark first, so
// mem.pool_peak_delta isolates the per-batch transient footprint — the
// number that must stay flat from 93k to 354k at fixed batch / fanout.
void RunCityScaleSuite(uv::obs::Report* report,
                       const uv::bench::BenchConfig& bench,
                       const std::string& tag) {
  uv::synth::CityConfig config;
  if (!uv::synth::CityScalePreset(tag, bench.seed, &config)) {
    std::fprintf(stderr, "unknown --city-scale tag '%s' (93k|175k|354k)\n",
                 tag.c_str());
    std::exit(2);
  }
  constexpr int kBatch = 256;
  constexpr int kFanout = 16;
  std::printf("--- city_scale %s: %d x %d = %d regions ---\n", tag.c_str(),
              config.height, config.width, config.num_regions());
  auto city = std::make_shared<const uv::synth::City>(
      uv::synth::GenerateCity(config));
  const int n = config.num_regions();

  uv::urg::UrbanRegionGraph urg;
  {
    uv::BufferPool::ResetPeak();
    auto& e = report->RunTimed("city_scale.urg_build_" + tag, [&] {
      urg = uv::urg::BuildShardedUrg(city, uv::urg::UrgOptions{},
                                     uv::urg::ShardOptions{});
    });
    const double secs = e.Stats().p50;
    e.AddMetric("regions_per_sec", secs > 0.0 ? n / secs : 0.0,
                uv::obs::Direction::kHigherIsBetter);
    e.AddMetric("mem.pool_bytes_peak",
                static_cast<double>(uv::BufferPool::Stats().pool_bytes_peak),
                uv::obs::Direction::kLowerIsBetter);
    e.AddMetric("num_regions", static_cast<double>(n));
    e.AddMetric("num_edges", static_cast<double>(urg.num_edges));
  }

  {
    const uv::urg::NeighborView view(urg);
    uv::urg::MinibatchConfig mcfg;
    mcfg.batch_size = kBatch;
    mcfg.fanout = kFanout;
    mcfg.seed = bench.seed;
    // Strided seed batches: batch b draws {b, b + stride, b + 2*stride, ...},
    // all distinct, spread across the whole grid.
    constexpr int kBatches = 8;
    const int stride = n / kBatch;
    int64_t edges_sampled = 0;
    auto& e = report->RunTimed("city_scale.sampler_" + tag, [&] {
      edges_sampled = 0;
      std::vector<int> seeds(kBatch);
      for (int b = 0; b < kBatches; ++b) {
        for (int i = 0; i < kBatch; ++i) seeds[i] = b + i * stride;
        const auto sg = uv::urg::SampleKHop(view, seeds, mcfg);
        edges_sampled += sg.num_edges();
      }
    });
    const double secs = e.Stats().p50;
    e.AddMetric("subgraphs_per_sec", secs > 0.0 ? kBatches / secs : 0.0,
                uv::obs::Direction::kHigherIsBetter);
    e.AddMetric("edges_per_subgraph",
                static_cast<double>(edges_sampled) / kBatches);
  }

  std::vector<int> train_ids = urg.LabeledIds();
  std::vector<int> train_labels(train_ids.size());
  for (size_t i = 0; i < train_ids.size(); ++i) {
    train_labels[i] = urg.labels[train_ids[i]];
  }
  const int bs = std::min<int>(kBatch, static_cast<int>(train_ids.size()));
  const int num_batches = (static_cast<int>(train_ids.size()) + bs - 1) / bs;

  // Train steps are the expensive closures (one full minibatch epoch per
  // repeat); cap their repeats so a --repeats 5 micro run does not spend an
  // hour here.
  const int step_repeats = std::min(bench.repeats, 2);

  {
    uv::core::CmsfConfig cfg;
    cfg.seed = bench.seed;
    cfg.master_epochs = 1;
    cfg.batch_size = kBatch;
    cfg.fanout = kFanout;
    // Gate off: the step keeps the full master path (MAGA trunk + GSCM +
    // classifier) but skips the end-of-training freeze sweep, which is a
    // one-time cost amortized over real multi-epoch runs.
    cfg.use_gate = false;
    double step_ms = 0.0;
    uint64_t peak_delta = 0, peak = 0;
    auto& e = report->RunTimed("city_scale.train_step_cmsf_" + tag,
                               /*warmup=*/0, step_repeats, [&] {
      uv::BufferPool::ResetPeak();
      const uint64_t base = uv::BufferPool::Stats().pool_bytes;
      uv::Rng rng(bench.seed);
      uv::core::CmsfModel model(cfg, urg.PoiDim(), urg.ImageDim(), &rng);
      const auto result =
          uv::core::TrainMasterMinibatch(&model, urg, train_ids, train_labels);
      step_ms = result.seconds_per_epoch * 1000.0 / num_batches;
      peak = uv::BufferPool::Stats().pool_bytes_peak;
      peak_delta = peak > base ? peak - base : 0;
    });
    e.AddMetric("train_step_ms", step_ms, uv::obs::Direction::kLowerIsBetter);
    e.AddMetric("mem.pool_bytes_peak", static_cast<double>(peak),
                uv::obs::Direction::kLowerIsBetter);
    e.AddMetric("mem.pool_peak_delta", static_cast<double>(peak_delta));
    e.AddMetric("batches_per_epoch", static_cast<double>(num_batches));
  }

  {
    uv::baselines::TrainOptions options;
    options.epochs = 1;
    options.seed = bench.seed;
    options.batch_size = kBatch;
    options.fanout = kFanout;
    double step_ms = 0.0;
    uint64_t peak_delta = 0, peak = 0;
    auto& e = report->RunTimed("city_scale.train_step_gcn_" + tag,
                               /*warmup=*/0, step_repeats, [&] {
      uv::BufferPool::ResetPeak();
      const uint64_t base = uv::BufferPool::Stats().pool_bytes;
      auto detector = uv::baselines::MakeDetector("GCN", options,
                                                  uv::core::CmsfConfig{});
      detector->Train(urg, train_ids, train_labels);
      step_ms = detector->TrainSecondsPerEpoch() * 1000.0 / num_batches;
      peak = uv::BufferPool::Stats().pool_bytes_peak;
      peak_delta = peak > base ? peak - base : 0;
    });
    e.AddMetric("train_step_ms", step_ms, uv::obs::Direction::kLowerIsBetter);
    e.AddMetric("mem.pool_bytes_peak", static_cast<double>(peak),
                uv::obs::Direction::kLowerIsBetter);
    e.AddMetric("mem.pool_peak_delta", static_cast<double>(peak_delta));
    e.AddMetric("batches_per_epoch", static_cast<double>(num_batches));
  }
}

// Serving leg: trains CMSF on the quickstart-shaped city (a Shenzhen-like
// synthetic at quickstart scale), then serves the same 32-id request
// stream through both scoring paths and records the serve.* ledger family:
//   serve.autograd_quickstart  the training-path Score. It has no way to
//                              reuse work across requests — the
//                              master-slave coupling is global, so every
//                              request replays the full-graph autograd
//                              forward and slices out its rows.
//   serve.engine_quickstart    the grad-free engine behind the concurrent
//                              micro-batching ScoringServer; the globally
//                              coupled state is computed once at engine
//                              construction and each request only pays for
//                              its own rows' tail.
// The engine entry carries regions_per_sec and speedup_vs_autograd plus the
// serve.queue_wait_us / serve.batch_size / serve.latency_us histogram
// percentiles captured from the final timed repeat. Both paths are
// verified bit-identical before anything is recorded.
void RunServeSuite(uv::obs::Report* report,
                   const uv::bench::BenchConfig& bench) {
  const uv::synth::CityConfig config =
      uv::synth::ShenzhenLike(/*scale=*/0.02, /*seed=*/42);
  const uv::urg::UrbanRegionGraph urg =
      uv::urg::BuildUrg(uv::synth::GenerateCity(config), uv::urg::UrgOptions{});
  const int n = urg.num_regions();
  std::printf("--- serve: quickstart city, %d regions ---\n", n);

  uv::Rng rng(7);
  const auto folds =
      uv::eval::BlockKFold(urg.grid, urg.LabeledIds(), 3, 10, &rng);
  std::vector<int> train_labels(folds[0].train_ids.size());
  for (size_t i = 0; i < train_labels.size(); ++i) {
    train_labels[i] = urg.labels[folds[0].train_ids[i]];
  }
  uv::core::CmsfConfig cmsf;
  cmsf.num_clusters = 30;
  cmsf.master_epochs = std::min(bench.epochs, 40);
  cmsf.slave_epochs = 10;
  cmsf.seed = bench.seed;
  uv::core::CmsfDetector detector(cmsf);
  detector.Train(urg, folds[0].train_ids, train_labels);

  std::vector<int> all_ids(n);
  for (int id = 0; id < n; ++id) all_ids[id] = id;

  static constexpr int kClients = 4;
  static constexpr int kRequestSize = 32;

  // Autograd serving baseline: each request pays a full-graph forward. A
  // handful of requests is enough to price that per-request cost without
  // stalling CI; regions_per_sec is ids actually served over wall time.
  static constexpr int kAutogradRequests = 8;
  auto& autograd_entry = report->RunTimed("serve.autograd_quickstart", [&] {
    std::vector<int> ids(kRequestSize);
    for (int r = 0; r < kAutogradRequests; ++r) {
      for (int i = 0; i < kRequestSize; ++i) {
        ids[i] = (r * kRequestSize + i) % n;
      }
      (void)detector.Score(urg, ids);
    }
  });
  const double autograd_secs = autograd_entry.Stats().p50;
  const double autograd_rps =
      autograd_secs > 0.0 ? kAutogradRequests * kRequestSize / autograd_secs
                          : 0.0;
  autograd_entry.AddMetric("regions_per_sec", autograd_rps,
                           uv::obs::Direction::kHigherIsBetter);
  autograd_entry.AddMetric("request_size", kRequestSize);
  autograd_entry.AddMetric("requests",
                           static_cast<double>(kAutogradRequests));

  const std::vector<float> autograd_scores = detector.Score(urg, all_ids);

  auto engine = uv::infer::MakeCmsfEngine(*detector.model(),
                                          &detector.frozen(), urg);
  // Bit-identity guard: a ledger entry for a wrong-answer engine would be
  // worse than no entry at all.
  const std::vector<float> engine_scores = engine->Score(all_ids);
  for (int i = 0; i < n; ++i) {
    if (engine_scores[i] != autograd_scores[i]) {
      std::fprintf(stderr,
                   "FATAL: engine/autograd mismatch at region %d (%g vs %g)\n",
                   i, engine_scores[i], autograd_scores[i]);
      std::exit(1);
    }
  }

  // Concurrent serving: 4 clients submit 32-id micro-batches covering every
  // region once per repeat, through the batching dispatcher.
  // Throughput leg: flush as soon as work is queued. With 4 synchronous
  // clients at most 32 ids are ever in flight, so a non-zero deadline just
  // stalls every batch waiting for a 64-id fill that can never happen.
  uv::infer::ServerOptions server_options;
  server_options.deadline_us = 0;
  const auto serve_one_repeat = [&] {
    uv::infer::ScoringServer server(engine.get(), server_options);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([c, n, &server] {
        int ids[kRequestSize];
        float out[kRequestSize];
        // Client c scores ids congruent to c mod kClients, 32 at a time.
        int filled = 0;
        for (int id = c; id < n; id += kClients) {
          ids[filled++] = id;
          if (filled == kRequestSize) {
            server.Score(ids, filled, out);
            filled = 0;
          }
        }
        if (filled > 0) server.Score(ids, filled, out);
      });
    }
    for (auto& c : clients) c.join();
  };
  // Plain and monitored serving run as interleaved pairs: each pair times
  // one plain repeat and then one repeat with a QualityMonitor attached
  // (the wait-free drift sketches on the hot path), so host drift between
  // the two legs cancels in the pair's ratio. throughput_vs_plain is the
  // median per-pair ratio, gated with its own MAD against the 0.9x budget
  // (tools/check_trace.py --ledger).
  uv::obs::QualityMonitor monitor(detector.baseline(urg));
  const int pairs = std::max(1, bench.repeats);
  std::vector<double> pair_ratios;
  pair_ratios.reserve(pairs);
  uv::obs::BenchmarkEntry* engine_entry = nullptr;
  uv::obs::BenchmarkEntry* monitored_entry = nullptr;
  for (int p = 0; p < pairs; ++p) {
    const int warmup = p == 0 ? bench.warmup : 0;
    engine->SetQualityMonitor(nullptr);
    engine_entry = &report->RunTimed("serve.engine_quickstart", warmup, 1,
                                     serve_one_repeat);
    engine->SetQualityMonitor(&monitor);
    monitored_entry = &report->RunTimed("serve.engine_monitored_quickstart",
                                        warmup, 1, serve_one_repeat);
    const double plain_s = engine_entry->repeats().back().seconds;
    const double monitored_s = monitored_entry->repeats().back().seconds;
    pair_ratios.push_back(monitored_s > 0.0 ? plain_s / monitored_s : 0.0);
  }
  engine->SetQualityMonitor(nullptr);

  const double engine_secs = engine_entry->Stats().p50;
  const double engine_rps = engine_secs > 0.0 ? n / engine_secs : 0.0;
  engine_entry->AddMetric("regions_per_sec", engine_rps,
                          uv::obs::Direction::kHigherIsBetter);
  engine_entry->AddMetric(
      "speedup_vs_autograd", autograd_rps > 0.0 ? engine_rps / autograd_rps : 0.0,
      uv::obs::Direction::kHigherIsBetter);
  engine_entry->AddMetric("num_regions", static_cast<double>(n));
  engine_entry->AddMetric("clients", kClients);
  engine_entry->AddMetric("request_size", kRequestSize);

  // Serving the training city: PSI must come out exactly 0, with no alert.
  // A monitored bench entry whose monitor misreports drift would poison
  // the ledger, so treat that like the bit-identity guard above.
  const uv::obs::DriftReport drift = monitor.ComputeDrift();
  if (drift.feature_psi_max != 0.0 || drift.score_psi != 0.0 || drift.alert) {
    std::fprintf(stderr,
                 "FATAL: monitored serve of the training city reported "
                 "drift (feature PSI %.9f, score PSI %.9f, alert %d)\n",
                 drift.feature_psi_max, drift.score_psi, drift.alert ? 1 : 0);
    std::exit(1);
  }
  const double monitored_secs = monitored_entry->Stats().p50;
  const double monitored_rps =
      monitored_secs > 0.0 ? n / monitored_secs : 0.0;
  const uv::obs::RobustStats ratio = uv::obs::ComputeRobustStats(pair_ratios);
  const double vs_plain = ratio.p50;
  monitored_entry->AddMetric("regions_per_sec", monitored_rps,
                             uv::obs::Direction::kHigherIsBetter);
  monitored_entry->AddMetric("throughput_vs_plain", vs_plain,
                             uv::obs::Direction::kHigherIsBetter);
  monitored_entry->AddMetric("throughput_vs_plain_mad", ratio.mad);
  monitored_entry->AddMetric("pairs", static_cast<double>(pairs));
  monitored_entry->AddMetric("num_regions", static_cast<double>(n));
  monitored_entry->AddMetric("clients", kClients);
  monitored_entry->AddMetric("request_size", kRequestSize);

  std::printf("autograd : %10.0f regions/sec\n", autograd_rps);
  std::printf("engine   : %10.0f regions/sec (%.1fx)\n", engine_rps,
              autograd_rps > 0.0 ? engine_rps / autograd_rps : 0.0);
  std::printf("monitored: %10.0f regions/sec (%.2fx vs plain, MAD %.3f over "
              "%d pairs)\n",
              monitored_rps, vs_plain, ratio.mad, pairs);
}

// Telemetry demo: runs a ScoringServer under continuous client load for a
// couple of seconds and prints ScoringServer::Stats() ticks — live rolling
// window percentiles, queue depth, in-flight count, dispatcher state —
// plus the tail of the request-event ring. With UV_EXPORT set, the same
// numbers land in the Prometheus/JSON files while this runs; the point of
// the demo is seeing Stats() agree with the exporter. Not a ledger entry
// (it measures nothing; it exercises the introspection surface).
void RunServeMonitor(const uv::bench::BenchConfig& bench) {
  const uv::synth::CityConfig config =
      uv::synth::ShenzhenLike(/*scale=*/0.02, /*seed=*/42);
  const uv::urg::UrbanRegionGraph urg =
      uv::urg::BuildUrg(uv::synth::GenerateCity(config), uv::urg::UrgOptions{});
  const int n = urg.num_regions();
  std::printf("--- serve-monitor: quickstart city, %d regions ---\n", n);

  uv::Rng rng(7);
  const auto folds =
      uv::eval::BlockKFold(urg.grid, urg.LabeledIds(), 3, 10, &rng);
  std::vector<int> train_labels(folds[0].train_ids.size());
  for (size_t i = 0; i < train_labels.size(); ++i) {
    train_labels[i] = urg.labels[folds[0].train_ids[i]];
  }
  uv::core::CmsfConfig cmsf;
  cmsf.num_clusters = 30;
  cmsf.master_epochs = std::min(bench.epochs, 10);
  cmsf.slave_epochs = 5;
  cmsf.seed = bench.seed;
  uv::core::CmsfDetector detector(cmsf);
  detector.Train(urg, folds[0].train_ids, train_labels);
  auto engine = uv::infer::MakeCmsfEngine(*detector.model(),
                                          &detector.frozen(), urg);

  uv::infer::ServerOptions server_options = uv::infer::ServerOptions::FromEnv();
  server_options.slo_window_s = 2;  // Short window so ticks visibly roll.
  if (server_options.event_capacity <= 0) server_options.event_capacity = 256;
  uv::infer::ScoringServer server(engine.get(), server_options);

  static constexpr int kMonitorClients = 2;
  static constexpr int kRequestSize = 32;
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  clients.reserve(kMonitorClients);
  for (int c = 0; c < kMonitorClients; ++c) {
    clients.emplace_back([c, n, &server, &stop] {
      int ids[kRequestSize];
      float out[kRequestSize];
      int cursor = c * kRequestSize;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < kRequestSize; ++i) {
          ids[i] = (cursor + i) % n;
        }
        cursor = (cursor + kRequestSize) % n;
        server.Score(ids, kRequestSize, out);
      }
    });
  }

  static constexpr int kTicks = 3;
  for (int t = 0; t < kTicks; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const uv::infer::ServerStats s = server.Stats();
    std::printf(
        "tick %d: reqs=%llu batches=%llu depth=%lld inflight=%lld state=%lld "
        "| window(%llus, %llu reqs) latency p50/p95/p99 = %.0f/%.0f/%.0f us, "
        "queue_wait p99 = %.0f us\n",
        t + 1, static_cast<unsigned long long>(s.requests_total),
        static_cast<unsigned long long>(s.batches_total),
        static_cast<long long>(s.queue_depth),
        static_cast<long long>(s.inflight),
        static_cast<long long>(s.dispatcher_state),
        static_cast<unsigned long long>(s.window_us / 1000000),
        static_cast<unsigned long long>(s.window_count), s.latency_p50_us,
        s.latency_p95_us, s.latency_p99_us, s.queue_wait_p99_us);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& c : clients) c.join();
  server.Shutdown();

  const auto events = server.RecentEvents();
  const size_t tail = events.size() < 4 ? events.size() : size_t{4};
  std::printf("last %zu of %zu ring events:\n", tail, events.size());
  for (size_t i = events.size() - tail; i < events.size(); ++i) {
    const auto& e = events[i];
    std::printf("  req=%llu batch=%llu n=%d queue_wait=%lluus latency=%lluus\n",
                static_cast<unsigned long long>(e.id),
                static_cast<unsigned long long>(e.batch), e.n,
                static_cast<unsigned long long>(e.queue_wait_us),
                static_cast<unsigned long long>(e.latency_us));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool micro = false, eval = false, serve = false, serve_monitor = false;
  std::vector<std::string> city_scales;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--micro") == 0) micro = true;
    if (std::strcmp(argv[i], "--eval") == 0) eval = true;
    if (std::strcmp(argv[i], "--serve") == 0) serve = true;
    if (std::strcmp(argv[i], "--serve-monitor") == 0) serve_monitor = true;
    if (std::strncmp(argv[i], "--city-scale=", 13) == 0) {
      city_scales.emplace_back(argv[i] + 13);
    } else if (std::strcmp(argv[i], "--city-scale") == 0 && i + 1 < argc) {
      city_scales.emplace_back(argv[++i]);
    }
  }
  if (!micro && !eval && !serve && !serve_monitor && city_scales.empty()) {
    std::fprintf(stderr,
                 "usage: bench_suite --micro [--eval] [--serve] "
                 "[--serve-monitor] [--city-scale TAG]... "
                 "[--repeats N] [--warmup N] [--out FILE]\n"
                 "       TAG in {93k, 175k, 354k}; repeatable\n");
    return 2;
  }

  const auto bench = uv::bench::BenchConfig::FromArgs(argc, argv);
  auto report = uv::bench::MakeReport("core", bench);
  std::printf("=== bench_suite (warmup=%d, repeats=%d) ===\n", bench.warmup,
              bench.repeats);

  if (micro) RunMicroSuite(&report);
  if (eval) RunEvalSuite(&report, bench);
  if (serve) RunServeSuite(&report, bench);
  if (serve_monitor) RunServeMonitor(bench);
  for (const auto& tag : city_scales) RunCityScaleSuite(&report, bench, tag);

  // The monitor demo records no benchmarks; running it alone must not
  // clobber an existing ledger with an empty one.
  if (micro || eval || serve || !city_scales.empty()) {
    const std::string path =
        uv::bench::LedgerPath("BENCH_core.json", argc, argv);
    uv::bench::WriteLedger(report, path);
  }
  return 0;
}
