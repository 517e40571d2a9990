#include "nn/gat.h"

#include "tensor/forward_ops.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace uv::nn {

namespace {
constexpr float kAttentionSlope = 0.2f;  // LeakyReLU slope for scores.
}  // namespace

AttentionHead::AttentionHead(int in_dst, int in_src, int out_dim,
                             bool share_transform, Rng* rng)
    : shared_(share_transform) {
  if (shared_) UV_CHECK_EQ(in_dst, in_src);
  {
    Tensor w(in_dst, out_dim);
    w.GlorotUniform(rng);
    w_dst_ = ag::MakeParam(std::move(w));
  }
  if (shared_) {
    w_src_ = w_dst_;
  } else {
    Tensor w(in_src, out_dim);
    w.GlorotUniform(rng);
    w_src_ = ag::MakeParam(std::move(w));
  }
  Tensor ad(out_dim, 1), as(out_dim, 1);
  ad.GlorotUniform(rng);
  as.GlorotUniform(rng);
  a_dst_ = ag::MakeParam(std::move(ad));
  a_src_ = ag::MakeParam(std::move(as));
}

ag::VarPtr AttentionHead::Forward(const ag::VarPtr& x_dst,
                                  const ag::VarPtr& x_src,
                                  const GraphContext& ctx) const {
  // Per-node projected features and score halves.
  ag::VarPtr h_dst = ag::MatMul(x_dst, w_dst_);
  ag::VarPtr h_src = shared_ && x_dst.get() == x_src.get()
                         ? h_dst
                         : ag::MatMul(x_src, w_src_);
  ag::VarPtr s_dst = ag::MatMul(h_dst, a_dst_);  // (N x 1)
  ag::VarPtr s_src = ag::MatMul(h_src, a_src_);  // (N x 1)

  // Per-edge weights softmax(leakyrelu(s_dst[dst(e)] + s_src[src(e)])) and
  // the weighted sum of source rows, without per-edge copies.
  ag::VarPtr alpha = ag::EdgeSoftmax(s_dst, s_src, kAttentionSlope,
                                     ctx.offsets, ctx.src_ids);
  return ag::EdgeWeightedSum(alpha, h_src, ctx.offsets, ctx.src_ids,
                             ctx.dst_ids);
}

Tensor AttentionHead::ForwardRaw(const Tensor& x_dst, const Tensor& x_src,
                                 const GraphContext& ctx) const {
  // Mirrors Forward step for step through the shared raw kernels; the
  // h_src == h_dst reuse keys on object identity like the VarPtr path.
  Tensor h_dst = MatMul(x_dst, w_dst_->value);
  const bool reuse = shared_ && &x_dst == &x_src;
  Tensor h_src_own;
  if (!reuse) h_src_own = MatMul(x_src, w_src_->value);
  const Tensor& h_src = reuse ? h_dst : h_src_own;
  const Tensor s_dst = MatMul(h_dst, a_dst_->value);  // (N x 1)
  const Tensor s_src = MatMul(h_src, a_src_->value);  // (N x 1)

  Tensor alpha;
  EdgeSoftmaxInto(s_dst, s_src, kAttentionSlope, *ctx.offsets, *ctx.src_ids,
                  &alpha);
  Tensor out;
  EdgeWeightedSumInto(alpha, h_src, *ctx.offsets, *ctx.src_ids, &out);
  return out;
}

std::vector<ag::VarPtr> AttentionHead::Params() const {
  std::vector<ag::VarPtr> params = {w_dst_};
  if (!shared_) params.push_back(w_src_);
  params.push_back(a_dst_);
  params.push_back(a_src_);
  return params;
}

GatLayer::GatLayer(int in_dim, int out_dim, int num_heads, Rng* rng) {
  UV_CHECK_GT(num_heads, 0);
  UV_CHECK_EQ(out_dim % num_heads, 0);
  const int head_dim = out_dim / num_heads;
  heads_.reserve(num_heads);
  for (int h = 0; h < num_heads; ++h) {
    heads_.emplace_back(in_dim, in_dim, head_dim, /*share_transform=*/true,
                        rng);
  }
}

ag::VarPtr GatLayer::Forward(const ag::VarPtr& x,
                             const GraphContext& ctx) const {
  ag::VarPtr out;
  for (const auto& head : heads_) {
    ag::VarPtr h = head.Forward(x, x, ctx);
    out = out ? ag::ConcatCols(out, h) : h;
  }
  return out;
}

Tensor GatLayer::ForwardRaw(const Tensor& x, const GraphContext& ctx) const {
  Tensor out;
  bool first = true;
  for (const auto& head : heads_) {
    Tensor h = head.ForwardRaw(x, x, ctx);
    out = first ? std::move(h) : ConcatCols(out, h);
    first = false;
  }
  return out;
}

std::vector<ag::VarPtr> GatLayer::Params() const {
  std::vector<ag::VarPtr> params;
  for (const auto& head : heads_) {
    auto p = head.Params();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

}  // namespace uv::nn
