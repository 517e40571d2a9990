#include "nn/gcn.h"

#include "tensor/forward_ops.h"

namespace uv::nn {

ag::VarPtr GcnLayer::Forward(const ag::VarPtr& x,
                             const GraphContext& ctx) const {
  // Transform first (cheaper when out_dim <= in_dim), then aggregate.
  ag::VarPtr h = lin_.Forward(x);
  return ag::EdgeWeightedSum(ctx.gcn_norm, h, ctx.offsets, ctx.src_ids,
                             ctx.dst_ids);
}

Tensor GcnLayer::ForwardRaw(const Tensor& x, const GraphContext& ctx) const {
  const Tensor h = lin_.ForwardRaw(x);
  Tensor out;
  EdgeWeightedSumInto(ctx.gcn_norm->value, h, *ctx.offsets, *ctx.src_ids,
                      &out);
  return out;
}

}  // namespace uv::nn
