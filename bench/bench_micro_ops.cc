// Microbenchmarks for the numeric substrate: tensor kernels and the graph
// message-passing autograd ops. These also empirically confirm the linear
// scaling in |V| and |E| claimed by the paper's complexity analysis
// (Section V-D, eq. 25-28).

#include <benchmark/benchmark.h>

#include "autograd/ops.h"
#include "bench_gbench.h"
#include "graph/csr_graph.h"
#include "graph/grid.h"
#include "nn/graph_context.h"
#include "tensor/tensor_ops.h"
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

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  uv::Tensor a = RandomTensor(n, 64, 1);
  uv::Tensor b = RandomTensor(64, 64, 2);
  uv::Tensor c(n, 64);
  for (auto _ : state) {
    uv::Gemm(false, false, 1.0f, a, b, 0.0f, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n) * 64 *
                          64);
}
BENCHMARK(BM_Gemm)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_RowSoftmax(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  uv::Tensor a = RandomTensor(n, 50, 3);
  for (auto _ : state) {
    uv::Tensor s = uv::RowSoftmax(a, 0.1f);
    benchmark::DoNotOptimize(s.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RowSoftmax)->Arg(1024)->Arg(8192);

// Attention message passing over a grid graph: the per-epoch inner loop of
// every GNN in this library. Linear in |E| per eq. 25.
void BM_AttentionPass(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  auto ctx = GridContext(side);
  const int n = side * side;
  auto x = uv::ag::MakeConst(RandomTensor(n, 64, 4));
  auto w = uv::ag::MakeConst(RandomTensor(64, 32, 5));
  auto a_src = uv::ag::MakeConst(RandomTensor(32, 1, 6));
  auto a_dst = uv::ag::MakeConst(RandomTensor(32, 1, 7));
  for (auto _ : state) {
    auto h = uv::ag::MatMul(x, w);
    auto alpha = uv::ag::EdgeSoftmax(uv::ag::MatMul(h, a_dst),
                                     uv::ag::MatMul(h, a_src), 0.2f,
                                     ctx.offsets, ctx.src_ids);
    auto out = uv::ag::EdgeWeightedSum(alpha, h, ctx.offsets, ctx.src_ids,
                                       ctx.dst_ids);
    benchmark::DoNotOptimize(out->value.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ctx.src_ids->size()));
}
BENCHMARK(BM_AttentionPass)->Arg(32)->Arg(64)->Arg(128);

// regions->clusters->regions round trip of GSCM. Linear in |V|*K (eq. 26).
void BM_ClusterRoundTrip(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = 50;
  auto x = uv::ag::MakeConst(RandomTensor(n, 64, 8));
  auto wb = uv::ag::MakeConst(RandomTensor(64, k, 9));
  auto seg = std::make_shared<std::vector<int>>(n);
  uv::Rng rng(10);
  for (auto& s : *seg) s = rng.UniformInt(k);
  for (auto _ : state) {
    auto soft = uv::ag::RowSoftmax(uv::ag::MatMul(x, wb), 0.1f);
    auto clusters = uv::ag::SegmentSumByIds(x, seg, k);
    auto back = uv::ag::MatMul(soft, clusters);
    benchmark::DoNotOptimize(back->value.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n) * k);
}
BENCHMARK(BM_ClusterRoundTrip)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_BackwardPass(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  auto ctx = GridContext(side);
  const int n = side * side;
  auto x = uv::ag::MakeConst(RandomTensor(n, 64, 11));
  for (auto _ : state) {
    auto w = uv::ag::MakeParam(RandomTensor(64, 32, 12));
    auto h = uv::ag::Relu(uv::ag::MatMul(x, w));
    auto agg = uv::ag::EdgeWeightedSum(ctx.gcn_norm, h, ctx.offsets,
                                       ctx.src_ids, ctx.dst_ids);
    auto loss = uv::ag::MeanAll(uv::ag::Mul(agg, agg));
    uv::ag::Backward(loss);
    benchmark::DoNotOptimize(w->grad.data());
  }
}
BENCHMARK(BM_BackwardPass)->Arg(32)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  return uv::bench::GBenchLedgerMain("micro_ops", "BENCH_micro_ops.json",
                                     argc, argv);
}
