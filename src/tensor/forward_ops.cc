#include "tensor/forward_ops.h"

#include <algorithm>

#include "util/check.h"
#include "util/thread_pool.h"

namespace uv {

void ReluInPlace(Tensor* t) {
  float* d = t->data();
  for (int64_t i = 0; i < t->size(); ++i) d[i] = ReluScalar(d[i]);
}

void LeakyReluInPlace(float negative_slope, Tensor* t) {
  float* d = t->data();
  for (int64_t i = 0; i < t->size(); ++i) {
    d[i] = LeakyReluScalar(d[i], negative_slope);
  }
}

void SigmoidInPlace(Tensor* t) {
  float* d = t->data();
  for (int64_t i = 0; i < t->size(); ++i) d[i] = SigmoidScalar(d[i]);
}

void EdgeSoftmaxInto(const Tensor& s_dst, const Tensor& s_src,
                     float negative_slope, const std::vector<int>& offsets,
                     const std::vector<int>& src_ids, Tensor* out) {
  UV_CHECK_EQ(s_dst.cols(), 1);
  UV_CHECK_EQ(s_src.cols(), 1);
  const int num_segments = static_cast<int>(offsets.size()) - 1;
  UV_CHECK_EQ(s_dst.rows(), num_segments);
  // Segments must tile [0, E) exactly: that guarantees every element of
  // the uninitialized output below is written by exactly one segment.
  UV_CHECK_EQ(offsets.front(), 0);
  UV_CHECK_EQ(static_cast<size_t>(offsets.back()), src_ids.size());
  out->ResizeUninit(offsets.back(), 1);
  const float* sd = s_dst.data();
  const float* ss = s_src.data();
  const int* src = src_ids.data();
  const unsigned num_sources = static_cast<unsigned>(s_src.rows());
  float* o = out->data();
  const auto& off = offsets;
  ParallelFor(0, num_segments, kSegmentGrain, [&](int64_t s0, int64_t s1) {
    for (int64_t i = s0; i < s1; ++i) {
      const int lo = off[i], hi = off[i + 1];
      if (lo == hi) continue;
      // The output doubles as the score buffer: scores first, then their
      // exponentials, then the normalized weights.
      for (int e = lo; e < hi; ++e) {
        UV_CHECK_LT(static_cast<unsigned>(src[e]), num_sources);
        o[e] = LeakyReluScalar(sd[i] + ss[src[e]], negative_slope);
      }
      float mx = -1e30f;
      for (int e = lo; e < hi; ++e) mx = std::max(mx, o[e]);
      double total = 0.0;
      for (int e = lo; e < hi; ++e) {
        o[e] = std::exp(o[e] - mx);
        total += o[e];
      }
      const float inv = total > 0.0 ? static_cast<float>(1.0 / total) : 0.0f;
      for (int e = lo; e < hi; ++e) o[e] *= inv;
    }
  });
}

void EdgeWeightedSumInto(const Tensor& alpha, const Tensor& h_src,
                         const std::vector<int>& offsets,
                         const std::vector<int>& src_ids, Tensor* out) {
  UV_CHECK_EQ(alpha.cols(), 1);
  UV_CHECK_EQ(static_cast<size_t>(alpha.rows()), src_ids.size());
  const int num_segments = static_cast<int>(offsets.size()) - 1;
  UV_CHECK_EQ(offsets.back(), alpha.rows());
  const int d = h_src.cols();
  out->ResizeUninit(num_segments, d);
  out->Zero();
  const float* a = alpha.data();
  const int* src = src_ids.data();
  const unsigned num_sources = static_cast<unsigned>(h_src.rows());
  const auto& off = offsets;
  ParallelFor(0, num_segments, kSegmentGrain, [&](int64_t s0, int64_t s1) {
    for (int64_t i = s0; i < s1; ++i) {
      float* dst = out->row(static_cast<int>(i));
      for (int e = off[i]; e < off[i + 1]; ++e) {
        UV_CHECK_LT(static_cast<unsigned>(src[e]), num_sources);
        const float w = a[e];
        const float* f = h_src.row(src[e]);
        for (int c = 0; c < d; ++c) dst[c] += w * f[c];
      }
    }
  });
}

SegmentDestIndex BuildSegmentDestIndex(const std::vector<int>& dest_of_source,
                                       int num_destinations) {
  SegmentDestIndex index;
  index.offsets.assign(num_destinations + 1, 0);
  for (const int d : dest_of_source) {
    if (d >= 0) ++index.offsets[d + 1];
  }
  for (int d = 0; d < num_destinations; ++d) {
    index.offsets[d + 1] += index.offsets[d];
  }
  index.sources.resize(index.offsets.back());
  std::vector<int> cursor(index.offsets.begin(), index.offsets.end() - 1);
  for (size_t s = 0; s < dest_of_source.size(); ++s) {
    const int d = dest_of_source[s];
    if (d >= 0) index.sources[cursor[d]++] = static_cast<int>(s);
  }
  return index;
}

void SegmentSumInto(const Tensor& x, const SegmentDestIndex& dest,
                    Tensor* out) {
  const int num_segments = static_cast<int>(dest.offsets.size()) - 1;
  const int cols = x.cols();
  out->ResizeUninit(num_segments, cols);
  out->Zero();
  ParallelFor(0, num_segments, kSegmentGrain, [&](int64_t k0, int64_t k1) {
    for (int64_t k = k0; k < k1; ++k) {
      float* dst = out->row(static_cast<int>(k));
      const int lo = dest.offsets[k];
      const int hi = dest.offsets[k + 1];
      for (int s = lo; s < hi; ++s) {
        const float* src = x.row(dest.sources[s]);
        for (int c = 0; c < cols; ++c) dst[c] += src[c];
      }
    }
  });
}

void MulColBroadcastInPlace(const Tensor& scale, Tensor* x) {
  UV_CHECK_EQ(scale.rows(), x->rows());
  UV_CHECK_EQ(scale.cols(), 1);
  for (int r = 0; r < x->rows(); ++r) {
    const float s = scale.at(r, 0);
    float* row = x->row(r);
    for (int c = 0; c < x->cols(); ++c) row[c] *= s;
  }
}

void MulRowVectorInPlace(const Tensor& v, Tensor* x) {
  UV_CHECK_EQ(v.rows(), 1);
  UV_CHECK_EQ(v.cols(), x->cols());
  const float* vd = v.data();
  for (int r = 0; r < x->rows(); ++r) {
    float* row = x->row(r);
    for (int c = 0; c < x->cols(); ++c) row[c] *= vd[c];
  }
}

int GatedMlpFilterSize(int d_in, int d_hidden) {
  return d_in * d_hidden + 2 * d_hidden + 1;
}

void GatedMlpForward(const Tensor& x, const Tensor& filter, const Tensor& w1,
                     const Tensor& b1, const Tensor& w2, const Tensor& b2,
                     Tensor* out, Tensor* hidden) {
  const int n = x.rows();
  const int d_in = x.cols();
  const int d_hidden = w1.cols();
  UV_CHECK_EQ(w1.rows(), d_in);
  UV_CHECK_EQ(b1.rows(), 1);
  UV_CHECK_EQ(b1.cols(), d_hidden);
  UV_CHECK_EQ(w2.rows(), d_hidden);
  UV_CHECK_EQ(w2.cols(), 1);
  UV_CHECK_EQ(b2.rows(), 1);
  UV_CHECK_EQ(b2.cols(), 1);
  UV_CHECK_EQ(filter.rows(), n);
  UV_CHECK_EQ(filter.cols(), GatedMlpFilterSize(d_in, d_hidden));

  // Filter row offsets for each parameter block.
  const int off_w1 = 0;
  const int off_b1 = d_in * d_hidden;
  const int off_w2 = off_b1 + d_hidden;
  const int off_b2 = off_w2 + d_hidden;

  out->ResizeUninit(n, 1);
  if (hidden != nullptr) hidden->ResizeUninit(n, d_hidden);
  // Small scratch row when the caller does not need the hidden activations.
  std::vector<float> scratch(hidden == nullptr ? d_hidden : 0);
  for (int i = 0; i < n; ++i) {
    const float* xi = x.row(i);
    const float* fi = filter.row(i);
    float* hi = hidden != nullptr ? hidden->row(i) : scratch.data();
    for (int c = 0; c < d_hidden; ++c) {
      float z = b1.at(0, c) * fi[off_b1 + c];
      for (int r = 0; r < d_in; ++r) {
        z += xi[r] * w1.at(r, c) * fi[off_w1 + r * d_hidden + c];
      }
      hi[c] = z > 0.0f ? z : 0.0f;
    }
    float logit = b2.at(0, 0) * fi[off_b2];
    for (int c = 0; c < d_hidden; ++c) {
      logit += hi[c] * w2.at(c, 0) * fi[off_w2 + c];
    }
    out->at(i, 0) = logit;
  }
}

}  // namespace uv
