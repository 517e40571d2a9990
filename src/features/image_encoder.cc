#include "features/image_encoder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "obs/trace.h"
#include "tensor/forward_ops.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace uv::features {
namespace {

// Images per parallel chunk. Each output row depends only on its own image,
// so the chunk size sets the GEMM shapes and scratch footprint, never the
// values.
constexpr int64_t kEncodeImageGrain = 8;

// Activations live channel-major (CHW) per image, in planes of side
// p = size + 2 whose one-pixel frame is zero: the frame is the conv's zero
// padding, so im2col is plain row copies with no bounds checks. Channel-
// major also makes the GEMM the (out_c x patch) * (patch x pixels) product
// ag::Conv2d forms, whose B operand packs by contiguous row copies; the
// pixel-major orientation instead transposes every element twice (im2row
// gather, then the A-panel pack) and ran about 20% slower at 1-2 threads
// on a 4-core Xeon.

// Zeroes the frame of `planes` framed planes; callers write the interior.
void ZeroFrame(float* framed, int64_t planes, int p) {
  for (int64_t q = 0; q < planes; ++q) {
    float* plane = framed + q * p * p;
    std::fill(plane, plane + p, 0.0f);
    for (int y = 1; y + 1 < p; ++y) {
      plane[y * p] = 0.0f;
      plane[y * p + p - 1] = 0.0f;
    }
    std::fill(plane + (p - 1) * p, plane + p * p, 0.0f);
  }
}

// Copies `planes` unframed size x size planes into framed ones.
void FramePlanes(const float* src, int64_t planes, int size, float* framed) {
  const int p = size + 2;
  ZeroFrame(framed, planes, p);
  for (int64_t q = 0; q < planes; ++q) {
    for (int y = 0; y < size; ++y) {
      std::copy(src + (q * size + y) * size, src + (q * size + y + 1) * size,
                framed + q * p * p + (y + 1) * p + 1);
    }
  }
}

// The im2col matrix of a whole chunk: row (c, ky, kx) — the order the
// weight columns use — holds that patch element for every output pixel of
// image 0, then image 1, ... (3x3 kernel, stride 1, pad 1).
void Im2Col(const float* framed, int count, int channels, int size,
            Tensor* col) {
  const int p = size + 2;
  for (int c = 0; c < channels; ++c) {
    for (int ky = 0; ky < 3; ++ky) {
      for (int kx = 0; kx < 3; ++kx) {
        float* dst = col->row((c * 3 + ky) * 3 + kx);
        for (int i = 0; i < count; ++i) {
          const float* plane =
              framed + (static_cast<int64_t>(i) * channels + c) * p * p;
          for (int oy = 0; oy < size; ++oy) {
            const float* src = plane + (oy + ky) * p + kx;
            std::copy(src, src + size, dst);
            dst += size;
          }
        }
      }
    }
  }
}

// Where pooled element (image, channel, oy, ox) goes: out + image*at.image
// + channel*at.channel + oy*at.row + ox.
struct PoolStrides {
  int64_t image;
  int64_t channel;
  int64_t row;
};

// Bias add and ReLU (the formulas of ag::Conv2d's bias add and ag::Relu),
// then a 2x2 stride-2 max pool with floor sizing and the window scan and
// strict '>' of ag::MaxPool2d. conv is the chunk's (channels x count*size^2)
// GEMM product.
void BiasReluPool(const Tensor& conv, const Tensor& bias, int count, int size,
                  float* out, const PoolStrides& at) {
  const int os = (size - 2) / 2 + 1;
  for (int c = 0; c < conv.rows(); ++c) {
    const float b = bias.at(0, c);
    for (int i = 0; i < count; ++i) {
      const float* plane = conv.row(c) + static_cast<int64_t>(i) * size * size;
      float* dst = out + i * at.image + c * at.channel;
      for (int oy = 0; oy < os; ++oy) {
        for (int ox = 0; ox < os; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          for (int ky = 0; ky < 2; ++ky) {
            for (int kx = 0; kx < 2; ++kx) {
              const float v =
                  ReluScalar(plane[(oy * 2 + ky) * size + ox * 2 + kx] + b);
              if (v > best) best = v;
            }
          }
          dst[oy * at.row + ox] = best;
        }
      }
    }
  }
}

}  // namespace

ConvEncoder::ConvEncoder(const Options& options) : options_(options) {
  UV_CHECK_GE(options.image_size, 8);
  Rng rng(options.seed);
  constexpr int kChannels[kNumLayers + 1] = {3, 8, 16, 32};
  int size = options.image_size;
  for (int l = 0; l < kNumLayers; ++l) {
    ConvLayer& layer = layers_[l];
    layer.in_channels = kChannels[l];
    layer.out_channels = kChannels[l + 1];
    layer.in_size = size;
    const int patch = layer.in_channels * 9;
    layer.w = Tensor(layer.out_channels, patch);
    // He-style init keeps activation magnitudes stable through the stack.
    layer.w.RandomNormal(&rng, std::sqrt(2.0f / patch));
    layer.b = Tensor(1, layer.out_channels);
    size /= 2;
  }
  flat_dim_ = kChannels[kNumLayers] * size * size;
  proj_ = Tensor(flat_dim_, options.out_dim);
  proj_.GlorotUniform(&rng);
}

Tensor ConvEncoder::Encode(const Tensor& images) const {
  const int s = options_.image_size;
  UV_CHECK_EQ(images.cols(), 3 * s * s);
  const int n = images.rows();
  obs::SpanGuard span("conv_encode", obs::SpanLevel::kFine, "n", n);
  Tensor flat = Tensor::Uninit(n, flat_dim_);
  ParallelFor(0, n, kEncodeImageGrain, [&](int64_t i0, int64_t i1) {
    // Per-thread scratch, one set per layer so each keeps a fixed shape
    // (no reallocation in steady state). Declared in the lambda body, so
    // each worker resolves its own instances; every element read is
    // written first.
    thread_local Tensor framed[kNumLayers], col[kNumLayers], conv[kNumLayers];
    const int count = static_cast<int>(i1 - i0);
    framed[0].ResizeUninit(count, 3 * (s + 2) * (s + 2));
    FramePlanes(images.row(static_cast<int>(i0)), 3LL * count, s,
                framed[0].data());
    for (int l = 0; l < kNumLayers; ++l) {
      const ConvLayer& layer = layers_[l];
      const int size = layer.in_size;
      const int out_c = layer.out_channels;
      col[l].ResizeUninit(layer.in_channels * 9, count * size * size);
      conv[l].ResizeUninit(out_c, count * size * size);
      Im2Col(framed[l].data(), count, layer.in_channels, size, &col[l]);
      // The same product ag::Conv2d forms per image, over the whole chunk.
      Gemm(false, false, 1.0f, layer.w, col[l], 0.0f, &conv[l]);
      const int os = (size - 2) / 2 + 1;
      if (l + 1 < kNumLayers) {
        // Pool into the next layer's framed planes.
        const int p = os + 2;
        framed[l + 1].ResizeUninit(count, out_c * p * p);
        ZeroFrame(framed[l + 1].data(), static_cast<int64_t>(count) * out_c,
                  p);
        BiasReluPool(conv[l], layer.b, count, size,
                     framed[l + 1].data() + p + 1,
                     {static_cast<int64_t>(out_c) * p * p,
                      static_cast<int64_t>(p) * p, p});
      } else {
        // Pool into CHW rows, the flatten order of the projection.
        BiasReluPool(conv[l], layer.b, count, size,
                     flat.row(static_cast<int>(i0)),
                     {flat_dim_, static_cast<int64_t>(os) * os, os});
      }
    }
  });
  return MatMul(flat, proj_);
}

Tensor HistogramEqualize(const Tensor& images, int channels) {
  UV_CHECK_GT(channels, 0);
  UV_CHECK_EQ(images.cols() % channels, 0);
  const int plane = images.cols() / channels;
  constexpr int kBins = 64;
  Tensor out(images.rows(), images.cols());
  std::vector<int> hist(kBins);
  for (int i = 0; i < images.rows(); ++i) {
    const float* src = images.row(i);
    float* dst = out.row(i);
    for (int c = 0; c < channels; ++c) {
      const float* p = src + static_cast<size_t>(c) * plane;
      float* q = dst + static_cast<size_t>(c) * plane;
      std::fill(hist.begin(), hist.end(), 0);
      for (int k = 0; k < plane; ++k) {
        const int bin = std::min(
            kBins - 1, static_cast<int>(std::clamp(p[k], 0.0f, 1.0f) *
                                        kBins));
        ++hist[bin];
      }
      // Cumulative distribution -> equalized intensity.
      std::vector<float> cdf(kBins);
      int acc = 0;
      for (int b = 0; b < kBins; ++b) {
        acc += hist[b];
        cdf[b] = static_cast<float>(acc) / plane;
      }
      for (int k = 0; k < plane; ++k) {
        const int bin = std::min(
            kBins - 1, static_cast<int>(std::clamp(p[k], 0.0f, 1.0f) *
                                        kBins));
        q[k] = cdf[bin];
      }
    }
  }
  return out;
}

}  // namespace uv::features
