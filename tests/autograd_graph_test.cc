#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "util/rng.h"

namespace uv::ag {
namespace {

Tensor RandomTensor(int r, int c, uint64_t seed) {
  Rng rng(seed);
  Tensor t(r, c);
  t.RandomNormal(&rng, 1.0f);
  return t;
}

std::shared_ptr<const std::vector<int>> Ids(std::vector<int> v) {
  return std::make_shared<const std::vector<int>>(std::move(v));
}

VarPtr SquaredReadout(const VarPtr& x) { return SumAll(Mul(x, x)); }

// A small 3-node graph grouped by destination:
//   node0 <- {1, 2}; node1 <- {0}; node2 <- {} (empty segment).
struct TinyGraph {
  std::shared_ptr<const std::vector<int>> offsets = Ids({0, 2, 3, 3});
  std::shared_ptr<const std::vector<int>> src = Ids({1, 2, 0});
  std::shared_ptr<const std::vector<int>> dst = Ids({0, 0, 1});
};

// A 4-node graph with every shape the fused edge ops must handle: repeated
// sources (node 0 feeds three edges, node 2 feeds one segment twice), self
// loops (0 <- 0, 3 <- 3), an empty segment (node 1) and a source that feeds
// nothing (node 1 again).
//   node0 <- {0, 2, 2}; node1 <- {}; node2 <- {0, 3}; node3 <- {3, 0}.
struct EdgeCaseGraph {
  static constexpr int kNodes = 4;
  std::shared_ptr<const std::vector<int>> offsets = Ids({0, 3, 3, 5, 7});
  std::shared_ptr<const std::vector<int>> src = Ids({0, 2, 2, 0, 3, 3, 0});
  std::shared_ptr<const std::vector<int>> dst = Ids({0, 0, 0, 2, 2, 3, 3});
};

TEST(GatherRowsTest, Forward) {
  auto x = MakeConst(Tensor(3, 2, {1, 2, 3, 4, 5, 6}));
  auto g = GatherRows(x, Ids({2, 2, 0}));
  EXPECT_EQ(g->rows(), 3);
  EXPECT_FLOAT_EQ(g->value.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(g->value.at(2, 1), 2.0f);
}

TEST(GatherRowsTest, BackwardScatterAdds) {
  auto x = MakeParam(Tensor(3, 1, {1, 2, 3}));
  // Row 2 gathered twice: its gradient doubles.
  auto loss = SumAll(GatherRows(x, Ids({2, 2, 0})));
  Backward(loss);
  EXPECT_FLOAT_EQ(x->grad.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(x->grad.at(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(x->grad.at(2, 0), 2.0f);
}

TEST(GatherRowsTest, GradCheck) {
  auto x = MakeParam(RandomTensor(4, 3, 5));
  auto idx = Ids({1, 3, 3, 0, 2});
  auto result = CheckGradients(
      {x}, [&]() { return SquaredReadout(GatherRows(x, idx)); });
  EXPECT_TRUE(result.ok) << result.detail;
}

// The segment softmax and segment weighted sum are produced by the fused
// edge ops. With slope 1 the LeakyRelu is the identity and s_dst = 0, so the
// per-edge score of edge e is exactly s_src[src[e]].
TEST(SegmentSoftmaxTest, SegmentsSumToOne) {
  TinyGraph g;
  auto s_dst = MakeConst(Tensor(3, 1));
  // Edge scores {1.0, -2.0, 0.5} through sources {1, 2, 0}.
  auto s_src = MakeConst(Tensor(3, 1, {0.5f, 1.0f, -2.0f}));
  auto alpha = EdgeSoftmax(s_dst, s_src, 1.0f, g.offsets, g.src);
  EXPECT_NEAR(alpha->value.at(0, 0) + alpha->value.at(1, 0), 1.0f, 1e-6f);
  EXPECT_NEAR(alpha->value.at(2, 0), 1.0f, 1e-6f);  // Singleton segment.
}

TEST(SegmentSoftmaxTest, LargeScoresStable) {
  TinyGraph g;
  auto s_dst = MakeConst(Tensor(3, 1));
  // Edge scores {500, -500, 900}.
  auto s_src = MakeConst(Tensor(3, 1, {900.0f, 500.0f, -500.0f}));
  auto alpha = EdgeSoftmax(s_dst, s_src, 1.0f, g.offsets, g.src);
  EXPECT_FALSE(alpha->value.HasNonFinite());
  EXPECT_NEAR(alpha->value.at(0, 0), 1.0f, 1e-5f);
}

TEST(SegmentSoftmaxTest, GradCheck) {
  TinyGraph g;
  auto s_dst = MakeParam(RandomTensor(3, 1, 6));
  auto s_src = MakeParam(RandomTensor(3, 1, 16));
  auto result = CheckGradients({s_dst, s_src}, [&]() {
    return SquaredReadout(EdgeSoftmax(s_dst, s_src, 0.2f, g.offsets, g.src));
  });
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(SegmentWeightedSumTest, Forward) {
  TinyGraph g;
  auto alpha = MakeConst(Tensor(3, 1, {0.25f, 0.75f, 1.0f}));
  // Source rows: edge 0 reads row 1 (4, 0), edge 1 row 2 (0, 8), edge 2
  // row 0 (2, 2).
  auto h = MakeConst(Tensor(3, 2, {2, 2, 4, 0, 0, 8}));
  auto out = EdgeWeightedSum(alpha, h, g.offsets, g.src, g.dst);
  EXPECT_EQ(out->rows(), 3);
  EXPECT_FLOAT_EQ(out->value.at(0, 0), 1.0f);   // 0.25*4.
  EXPECT_FLOAT_EQ(out->value.at(0, 1), 6.0f);   // 0.75*8.
  EXPECT_FLOAT_EQ(out->value.at(1, 0), 2.0f);   // 1.0*2.
  EXPECT_FLOAT_EQ(out->value.at(2, 0), 0.0f);   // Empty segment.
}

TEST(SegmentWeightedSumTest, GradCheckBothInputs) {
  TinyGraph g;
  auto alpha = MakeParam(RandomTensor(3, 1, 7));
  auto h = MakeParam(RandomTensor(3, 2, 8));
  auto result = CheckGradients({alpha, h}, [&]() {
    return SquaredReadout(EdgeWeightedSum(alpha, h, g.offsets, g.src, g.dst));
  });
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(EdgeSoftmaxTest, GradCheckRepeatedSourcesSelfLoopsEmptySegment) {
  EdgeCaseGraph g;
  auto s_dst = MakeParam(RandomTensor(EdgeCaseGraph::kNodes, 1, 21));
  auto s_src = MakeParam(RandomTensor(EdgeCaseGraph::kNodes, 1, 22));
  auto result = CheckGradients({s_dst, s_src}, [&]() {
    return SquaredReadout(EdgeSoftmax(s_dst, s_src, 0.2f, g.offsets, g.src));
  });
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(EdgeWeightedSumTest, GradCheckRepeatedSourcesSelfLoopsEmptySegment) {
  EdgeCaseGraph g;
  auto alpha = MakeParam(RandomTensor(7, 1, 23));
  auto h = MakeParam(RandomTensor(EdgeCaseGraph::kNodes, 3, 24));
  auto result = CheckGradients({alpha, h}, [&]() {
    return SquaredReadout(EdgeWeightedSum(alpha, h, g.offsets, g.src, g.dst));
  });
  EXPECT_TRUE(result.ok) << result.detail;
  // The source that feeds no edge gets an all-zero gradient row.
  Backward(SquaredReadout(EdgeWeightedSum(alpha, h, g.offsets, g.src, g.dst)));
  for (int c = 0; c < 3; ++c) EXPECT_EQ(h->grad.at(1, c), 0.0f);
}

// Plain scalar reference for the unfused composition the edge ops replace:
// gather both score halves per edge, add, LeakyRelu, segment softmax,
// gather an E x d message copy of the source rows, segment weighted sum;
// backward through a zero-filled E x d message gradient scattered back to
// the source rows in ascending edge order. Every formula and accumulation
// order is spelled out so the fused ops can be compared bit for bit.
struct UnfusedAttention {
  std::vector<float> alpha, out;            // E, N x d.
  std::vector<float> g_dst, g_src, g_h;     // N, N, N x d.
};

UnfusedAttention RunUnfusedAttention(const std::vector<int>& offsets,
                                     const std::vector<int>& src,
                                     const std::vector<int>& dst,
                                     const Tensor& s_dst, const Tensor& s_src,
                                     const Tensor& h, const Tensor& gout,
                                     float slope) {
  const int n = static_cast<int>(offsets.size()) - 1;
  const int e_count = static_cast<int>(src.size());
  const int d = h.cols();
  UnfusedAttention r;
  std::vector<float> pre(e_count), scores(e_count);
  for (int e = 0; e < e_count; ++e) {
    pre[e] = s_dst.at(dst[e], 0) + s_src.at(src[e], 0);
    scores[e] = pre[e] > 0.0f ? pre[e] : slope * pre[e];
  }
  r.alpha.assign(e_count, 0.0f);
  for (int i = 0; i < n; ++i) {
    const int lo = offsets[i], hi = offsets[i + 1];
    if (lo == hi) continue;
    float mx = -1e30f;
    for (int e = lo; e < hi; ++e) mx = std::max(mx, scores[e]);
    double total = 0.0;
    for (int e = lo; e < hi; ++e) {
      r.alpha[e] = std::exp(scores[e] - mx);
      total += r.alpha[e];
    }
    const float inv = total > 0.0 ? static_cast<float>(1.0 / total) : 0.0f;
    for (int e = lo; e < hi; ++e) r.alpha[e] *= inv;
  }
  std::vector<float> msgs(static_cast<size_t>(e_count) * d);
  for (int e = 0; e < e_count; ++e) {
    for (int c = 0; c < d; ++c) msgs[e * d + c] = h.at(src[e], c);
  }
  r.out.assign(static_cast<size_t>(n) * d, 0.0f);
  for (int i = 0; i < n; ++i) {
    for (int e = offsets[i]; e < offsets[i + 1]; ++e) {
      for (int c = 0; c < d; ++c) {
        r.out[i * d + c] += r.alpha[e] * msgs[e * d + c];
      }
    }
  }
  // Backward of the weighted sum into a zero-filled alpha gradient and a
  // zero-filled E x d message gradient.
  std::vector<float> g_alpha(e_count, 0.0f);
  std::vector<float> g_msgs(static_cast<size_t>(e_count) * d, 0.0f);
  for (int i = 0; i < n; ++i) {
    for (int e = offsets[i]; e < offsets[i + 1]; ++e) {
      float acc = 0.0f;
      for (int c = 0; c < d; ++c) acc += gout.at(i, c) * msgs[e * d + c];
      g_alpha[e] += acc;
      for (int c = 0; c < d; ++c) {
        g_msgs[e * d + c] += r.alpha[e] * gout.at(i, c);
      }
    }
  }
  r.g_h.assign(static_cast<size_t>(h.rows()) * d, 0.0f);
  for (int e = 0; e < e_count; ++e) {
    for (int c = 0; c < d; ++c) r.g_h[src[e] * d + c] += g_msgs[e * d + c];
  }
  // Segment softmax backward, LeakyRelu backward, Add (identity), then the
  // two score-half gathers scattered back in ascending edge order.
  std::vector<float> g_pre(e_count);
  for (int i = 0; i < n; ++i) {
    const int lo = offsets[i], hi = offsets[i + 1];
    float dot = 0.0f;
    for (int e = lo; e < hi; ++e) dot += r.alpha[e] * g_alpha[e];
    for (int e = lo; e < hi; ++e) {
      const float gs = r.alpha[e] * (g_alpha[e] - dot);
      g_pre[e] = gs * (pre[e] > 0.0f ? 1.0f : slope);
    }
  }
  r.g_dst.assign(s_dst.rows(), 0.0f);
  r.g_src.assign(s_src.rows(), 0.0f);
  for (int e = 0; e < e_count; ++e) {
    r.g_dst[dst[e]] += g_pre[e];
    r.g_src[src[e]] += g_pre[e];
  }
  return r;
}

uint32_t Bits(float v) {
  uint32_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void ExpectSameBits(const Tensor& got, const std::vector<float>& want) {
  ASSERT_EQ(static_cast<size_t>(got.size()), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(Bits(got.data()[i]), Bits(want[i])) << "element " << i;
  }
}

class EdgeOpsBitIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(EdgeOpsBitIdentityTest, MatchesUnfusedComposition) {
  // Random destination-grouped graph with empty segments, repeated
  // sources and self loops; sizes span several parallel chunks.
  const int n = 400;
  const int d = 5;
  const float slope = 0.2f;
  Rng rng(GetParam());
  std::vector<int> offsets = {0}, src, dst;
  for (int i = 0; i < n; ++i) {
    const int deg = rng.UniformInt(6);  // 0 = empty segment.
    for (int k = 0; k < deg; ++k) {
      src.push_back(k == 0 ? i : rng.UniformInt(n));  // Self loop first.
      dst.push_back(i);
    }
    offsets.push_back(static_cast<int>(src.size()));
  }
  const Tensor sd0 = RandomTensor(n, 1, 100 + GetParam());
  const Tensor ss0 = RandomTensor(n, 1, 200 + GetParam());
  const Tensor h0 = RandomTensor(n, d, 300 + GetParam());
  const Tensor gout = RandomTensor(n, d, 400 + GetParam());

  auto off = Ids(offsets), src_ids = Ids(src), dst_ids = Ids(dst);
  auto s_dst = MakeParam(sd0);
  auto s_src = MakeParam(ss0);
  auto h = MakeParam(h0);
  auto alpha = EdgeSoftmax(s_dst, s_src, slope, off, src_ids);
  auto out = EdgeWeightedSum(alpha, h, off, src_ids, dst_ids);
  // d loss / d out == gout exactly (the Mul backward forms 1.0f * gout).
  Backward(SumAll(Mul(out, MakeConst(gout))));

  const UnfusedAttention want =
      RunUnfusedAttention(offsets, src, dst, sd0, ss0, h0, gout, slope);
  ExpectSameBits(alpha->value, want.alpha);
  ExpectSameBits(out->value, want.out);
  ExpectSameBits(s_dst->grad, want.g_dst);
  ExpectSameBits(s_src->grad, want.g_src);
  ExpectSameBits(h->grad, want.g_h);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdgeOpsBitIdentityTest, ::testing::Range(1, 4));

TEST(SegmentSumByIdsTest, ForwardDropsNegativeIds) {
  auto x = MakeConst(Tensor(4, 2, {1, 1, 2, 2, 3, 3, 4, 4}));
  auto ids = Ids({0, 1, 0, -1});
  auto out = SegmentSumByIds(x, ids, 2);
  EXPECT_FLOAT_EQ(out->value.at(0, 0), 4.0f);  // rows 0 + 2.
  EXPECT_FLOAT_EQ(out->value.at(1, 1), 2.0f);  // row 1.
}

TEST(SegmentSumByIdsTest, GradCheck) {
  auto x = MakeParam(RandomTensor(5, 3, 9));
  auto ids = Ids({0, 2, 1, 2, 0});
  auto result = CheckGradients({x}, [&]() {
    return SquaredReadout(SegmentSumByIds(x, ids, 3));
  });
  EXPECT_TRUE(result.ok) << result.detail;
}

// Attention-style composition over a random graph: the fused per-edge score
// softmax -> weighted aggregation path used by GAT/MAGA, with h feeding both
// the score halves and the messages.
class AttentionPathTest : public ::testing::TestWithParam<int> {};

TEST_P(AttentionPathTest, GradCheckOnRandomGraph) {
  const int n = 5;
  Rng rng(GetParam());
  // Random edges grouped by destination.
  std::vector<int> offsets = {0};
  std::vector<int> src;
  for (int i = 0; i < n; ++i) {
    const int deg = 1 + rng.UniformInt(3);
    for (int e = 0; e < deg; ++e) src.push_back(rng.UniformInt(n));
    offsets.push_back(static_cast<int>(src.size()));
  }
  auto off = Ids(offsets);
  auto src_ids = Ids(src);
  std::vector<int> dst;
  for (int i = 0; i < n; ++i) {
    for (int e = offsets[i]; e < offsets[i + 1]; ++e) dst.push_back(i);
  }
  auto dst_ids = Ids(dst);

  auto x = MakeConst(RandomTensor(n, 3, 50 + GetParam()));
  auto w = MakeParam(RandomTensor(3, 2, 60 + GetParam()));
  auto a_src = MakeParam(RandomTensor(2, 1, 70 + GetParam()));
  auto a_dst = MakeParam(RandomTensor(2, 1, 80 + GetParam()));

  auto build = [&]() {
    auto h = MatMul(x, w);
    auto alpha =
        EdgeSoftmax(MatMul(h, a_dst), MatMul(h, a_src), 0.2f, off, src_ids);
    auto out = EdgeWeightedSum(alpha, h, off, src_ids, dst_ids);
    return SquaredReadout(out);
  };
  auto result = CheckGradients({w, a_src, a_dst}, build, 1e-3, 3e-2);
  EXPECT_TRUE(result.ok) << result.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttentionPathTest, ::testing::Range(1, 6));

}  // namespace
}  // namespace uv::ag
