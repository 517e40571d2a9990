#ifndef UV_AUTOGRAD_OPS_H_
#define UV_AUTOGRAD_OPS_H_

#include <memory>
#include <vector>

#include "autograd/variable.h"
#include "tensor/kernels/kernel_dispatch.h"

namespace uv::ag {

// ---------------------------------------------------------------------------
// Dense ops (ops_dense.cc)
// ---------------------------------------------------------------------------

// C = A * B.
VarPtr MatMul(const VarPtr& a, const VarPtr& b);

// Fused dense layer: act(x * w + b) in one kernel pass — the bias row and
// activation run inside the GEMM output tiles (kern::GemmBiasAct) instead
// of as separate full-matrix ops. b is (1 x out_dim). leaky_slope is only
// read for kLeakyRelu and must be > 0 (the backward recovers the
// activation derivative from the output's sign).
VarPtr DenseBiasAct(const VarPtr& x, const VarPtr& w, const VarPtr& b,
                    kern::Activation act, float leaky_slope = 0.0f);

// Elementwise (same shape).
VarPtr Add(const VarPtr& a, const VarPtr& b);
VarPtr Sub(const VarPtr& a, const VarPtr& b);
VarPtr Mul(const VarPtr& a, const VarPtr& b);

// out = s * a.
VarPtr ScalarMul(const VarPtr& a, float s);

// Adds a (1 x d) bias row to every row of x (N x d).
VarPtr AddRowBroadcast(const VarPtr& x, const VarPtr& bias);

// Scales row r of x (N x d) by scale(r, 0) where scale is (N x 1).
VarPtr MulColBroadcast(const VarPtr& x, const VarPtr& scale);

// Elementwise product of every row of x (N x d) with a row vector (1 x d).
VarPtr MulRowVector(const VarPtr& x, const VarPtr& v);

// Matrix transpose.
VarPtr Transpose(const VarPtr& a);

// Horizontal concatenation [a | b].
VarPtr ConcatCols(const VarPtr& a, const VarPtr& b);

// Vertical concatenation [a ; b] (same column count).
VarPtr ConcatRows(const VarPtr& a, const VarPtr& b);

// Column slice [col_begin, col_end).
VarPtr SliceCols(const VarPtr& a, int col_begin, int col_end);

// Row-wise softmax(x / temperature).
VarPtr RowSoftmax(const VarPtr& a, float temperature);

// Activations.
VarPtr Relu(const VarPtr& a);
VarPtr LeakyRelu(const VarPtr& a, float negative_slope);
VarPtr Sigmoid(const VarPtr& a);
VarPtr Tanh(const VarPtr& a);

// Reductions to a 1x1 scalar node.
VarPtr SumAll(const VarPtr& a);
VarPtr MeanAll(const VarPtr& a);

// ---------------------------------------------------------------------------
// Graph message-passing ops (ops_graph.cc)
//
// Edges are stored grouped by destination: `offsets` has size N+1 and edge e
// with offsets[i] <= e < offsets[i+1] points *into* node i. This matches the
// CSR layout produced by uv::graph::CsrGraph.
// ---------------------------------------------------------------------------

// out[e] = x[indices[e]] (row gather); backward scatter-adds.
VarPtr GatherRows(const VarPtr& x,
                  const std::shared_ptr<const std::vector<int>>& indices);

// Fused attention weights: alpha[e] = softmax over destination segment i of
// LeakyRelu(s_dst[i] + s_src[src_ids[e]], negative_slope). s_dst is
// (N x 1) with N = offsets->size()-1, s_src is (N_src x 1), result is
// (E x 1). Replaces gathering both score halves per edge + Add + LeakyRelu
// + segment softmax with bit-identical values and gradients; backward
// reads the op's own output and keeps one E x 1 scratch column.
VarPtr EdgeSoftmax(const VarPtr& s_dst, const VarPtr& s_src,
                   float negative_slope,
                   const std::shared_ptr<const std::vector<int>>& offsets,
                   const std::shared_ptr<const std::vector<int>>& src_ids);

// Fused message aggregation: out[i] = sum over edges e of segment i of
// alpha[e] * h_src[src_ids[e]]; alpha is (E x 1), h_src is (N_src x d),
// result is (N x d). Source rows are read in place and the backward
// scatters alpha[e] * grad[dst_ids[e]] straight into h_src's gradient, so
// no per-edge E x d message tensor exists in either direction. Values and
// gradients are bit-identical to gathering h_src per edge and summing the
// weighted rows per segment.
VarPtr EdgeWeightedSum(const VarPtr& alpha, const VarPtr& h_src,
                       const std::shared_ptr<const std::vector<int>>& offsets,
                       const std::shared_ptr<const std::vector<int>>& src_ids,
                       const std::shared_ptr<const std::vector<int>>& dst_ids);

// out[k] = sum of rows r of x with seg_ids[r] == k; rows with seg id -1 are
// dropped. Result is (num_segments x d). Used for the binarized
// regions->clusters collection (paper eq. 10).
VarPtr SegmentSumByIds(const VarPtr& x,
                       const std::shared_ptr<const std::vector<int>>& seg_ids,
                       int num_segments);

// ---------------------------------------------------------------------------
// Convolution ops (ops_conv.cc). Images are stored one per row, flattened in
// CHW order; shapes are passed explicitly.
// ---------------------------------------------------------------------------

struct Conv2dSpec {
  int in_channels = 0;
  int in_h = 0;
  int in_w = 0;
  int out_channels = 0;
  int kernel = 0;
  int stride = 1;
  int pad = 0;

  int out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  int out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
};

// x: (N x in_c*in_h*in_w), w: (out_c x in_c*k*k), b: (1 x out_c).
// Result: (N x out_c*out_h*out_w).
VarPtr Conv2d(const VarPtr& x, const VarPtr& w, const VarPtr& b,
              const Conv2dSpec& spec);

// 2x2/stride max pooling over (channels x h x w) rows.
VarPtr MaxPool2d(const VarPtr& x, int channels, int h, int w, int kernel,
                 int stride);

// Per-channel global average pooling: (N x c*h*w) -> (N x c).
VarPtr GlobalAvgPool(const VarPtr& x, int channels, int h, int w);

// ---------------------------------------------------------------------------
// Losses (ops_loss.cc)
// ---------------------------------------------------------------------------

// Mean binary cross entropy with logits over rows. labels is a constant
// (N x 1) of {0,1}; optional per-sample weights (N x 1, pass nullptr for
// uniform). Numerically stable log-sum-exp formulation.
VarPtr BceWithLogits(const VarPtr& logits, const Tensor& labels,
                     const Tensor* sample_weights);

// PU rank loss (paper eq. 18): sum over (i in positive, j in unlabeled) of
// (1 - (s_i - s_j))^2 on scores (K x 1), normalized by the pair count.
VarPtr PuRankLoss(const VarPtr& scores, const std::vector<int>& positive,
                  const std::vector<int>& unlabeled);

}  // namespace uv::ag

#endif  // UV_AUTOGRAD_OPS_H_
