#ifndef UV_TENSOR_FORWARD_OPS_H_
#define UV_TENSOR_FORWARD_OPS_H_

// Raw forward-only kernels shared by the autograd ops (src/autograd) and
// the grad-free inference engine (src/infer). Bit-identical serving depends
// on both callers evaluating the exact same scalar formulas in the exact
// same accumulation order, so this header is the single source of truth:
// the autograd ops call these for their forward values and keep only the
// backward logic local. Every parallel loop here chunks by a fixed grain,
// never by thread count, so results are identical for every UV_THREADS.

#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace uv {

// Segments (CSR rows) per parallel chunk in the segment kernels below.
inline constexpr int64_t kSegmentGrain = 64;

// Scalar activation formulas. The sigmoid is the numerically stable
// two-branch form: exp is never evaluated on a positive argument.
inline float ReluScalar(float x) { return x > 0.0f ? x : 0.0f; }
inline float LeakyReluScalar(float x, float negative_slope) {
  return x > 0.0f ? x : negative_slope * x;
}
inline float SigmoidScalar(float x) {
  return x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                   : std::exp(x) / (1.0f + std::exp(x));
}

void ReluInPlace(Tensor* t);
void LeakyReluInPlace(float negative_slope, Tensor* t);
void SigmoidInPlace(Tensor* t);

// Fused edge softmax (the GAT/MAGA attention weights). Edges are grouped by
// destination: `offsets` (num_segments + 1) tiles [0, E) and edge e of
// segment i comes from source src_ids[e]. For every edge the score is
//   LeakyRelu(s_dst[i] + s_src[src_ids[e]], negative_slope)
// and `out` (resized to E x 1) holds its softmax over segment i. These are
// the scalar formulas, in the order, of gathering both score halves per
// edge, adding, activating and running a per-segment softmax, without the
// per-edge intermediates. s_dst is (num_segments x 1), s_src is
// (num_sources x 1); empty segments are skipped.
void EdgeSoftmaxInto(const Tensor& s_dst, const Tensor& s_src,
                     float negative_slope, const std::vector<int>& offsets,
                     const std::vector<int>& src_ids, Tensor* out);

// out[i] = sum over edges e of segment i of alpha[e] * h_src.row(src_ids[e]).
// Source rows are read in place, so no per-edge (E x d) message copy is
// ever built. Resizes `out` to num_segments x h_src.cols() and zero-fills
// it first, so the accumulation order matches the zero-initialized serial
// walk over each segment's edges.
void EdgeWeightedSumInto(const Tensor& alpha, const Tensor& h_src,
                         const std::vector<int>& offsets,
                         const std::vector<int>& src_ids, Tensor* out);

// Inverse of a scatter map: for each destination row, the ascending list
// of source rows that write to it. Lets scatter-sums run partitioned by
// destination (race-free) while keeping the per-destination accumulation
// order identical to the serial ascending-source walk. Negative ids are
// dropped (unassigned rows).
struct SegmentDestIndex {
  std::vector<int> offsets;  // num_destinations + 1
  std::vector<int> sources;  // ascending within each destination
};

SegmentDestIndex BuildSegmentDestIndex(const std::vector<int>& dest_of_source,
                                       int num_destinations);

// out[k] = sum of x rows whose destination is k (ascending source order).
// Resizes `out` to dest.num_destinations x x.cols() and zero-fills it.
void SegmentSumInto(const Tensor& x, const SegmentDestIndex& dest,
                    Tensor* out);

// Row/column broadcast products (forward halves of ag::MulColBroadcast and
// ag::MulRowVector). `scale` is rows x 1; `v` is 1 x cols.
void MulColBroadcastInPlace(const Tensor& scale, Tensor* x);
void MulRowVectorInPlace(const Tensor& v, Tensor* x);

// Dynamic-filtered gated MLP (the slave classifier): per-row elementwise
// filter over a 2-layer ReLU MLP's weights. Filter layout per row:
// [w1 (d_in*d_hidden) | b1 (d_hidden) | w2 (d_hidden) | b2 (1)].
int GatedMlpFilterSize(int d_in, int d_hidden);

// Writes logits (n x 1) into `out`; if `hidden` is non-null, also writes
// the post-ReLU hidden activations (n x d_hidden) for the backward pass.
void GatedMlpForward(const Tensor& x, const Tensor& filter, const Tensor& w1,
                     const Tensor& b1, const Tensor& w2, const Tensor& b2,
                     Tensor* out, Tensor* hidden);

}  // namespace uv

#endif  // UV_TENSOR_FORWARD_OPS_H_
