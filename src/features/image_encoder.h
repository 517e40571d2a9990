#ifndef UV_FEATURES_IMAGE_ENCODER_H_
#define UV_FEATURES_IMAGE_ENCODER_H_

#include <cstdint>

#include "tensor/tensor.h"

namespace uv::features {

// Frozen convolutional feature extractor standing in for the paper's
// ImageNet-pretrained VGG16 (with top FC layers removed). Like VGG16 in the
// paper, it is *not* trained with the detector: it is seeded once,
// independent of any city, and used purely as a fixed feature map.
//
// Architecture: [conv3x3 -> relu -> maxpool2]x3 over 3 x S x S tiles, then a
// fixed random projection of the flattened activation to `out_dim`.
// The paper's 4096-d output is reachable via out_dim=4096; the default 256
// keeps laptop-scale runtime (see DESIGN.md section 1).
//
// Encode is a grad-free forward (no autograd tape, no per-op tensors): per
// fixed-size image chunk, each layer is one im2col, one GEMM and one fused
// bias/ReLU/max-pool pass. It is bit-identical to the ag::Conv2d/Relu/
// MaxPool2d/MatMul composition of the same weights, and every output row
// depends only on its own image, so chunking never changes a value.
class ConvEncoder {
 public:
  struct Options {
    int image_size = 32;
    int out_dim = 256;
    uint64_t seed = 7;   // Plays the role of "ImageNet pretraining".
  };

  // One conv3x3 (stride 1, pad 1) layer; in_size is its input side length.
  struct ConvLayer {
    int in_channels = 0;
    int out_channels = 0;
    int in_size = 0;
    Tensor w;  // out_channels x (in_channels * 9), patch order (c, ky, kx).
    Tensor b;  // 1 x out_channels.
  };
  static constexpr int kNumLayers = 3;

  explicit ConvEncoder(const Options& options);

  // Encodes (N x 3*S*S) raw CHW tiles into (N x out_dim) features.
  Tensor Encode(const Tensor& images) const;

  int out_dim() const { return options_.out_dim; }

  // The frozen weights, exposed so tests can rebuild the forward from them.
  const ConvLayer& layer(int i) const { return layers_[i]; }
  const Tensor& projection() const { return proj_; }

 private:
  Options options_;
  ConvLayer layers_[kNumLayers];
  Tensor proj_;
  int flat_dim_ = 0;
};

// Per-channel histogram equalization, the preprocessing UVLens applies to
// satellite imagery before its CNN backbone (paper Appendix I-A).
Tensor HistogramEqualize(const Tensor& images, int channels);

}  // namespace uv::features

#endif  // UV_FEATURES_IMAGE_ENCODER_H_
