#include "baselines/uvlens_baseline.h"

#include <cmath>

#include "core/train_loop.h"
#include "features/image_encoder.h"
#include "util/check.h"
#include "util/timer.h"

namespace uv::baselines {

namespace {
// The paper's adapted UVLens stacks FC layers of 4096, 4096, 128, 64 units
// on the backbone features; at 32x32 tiles we keep the same shape scaled to
// the flattened map (1024 -> 512 -> 128 -> 64 -> 1).
constexpr int kFc1 = 512;
constexpr int kFc2 = 128;
constexpr int kFc3 = 64;
constexpr int kBatch = 256;
}  // namespace

ag::VarPtr UvLensBaseline::ForwardTiles(const ag::VarPtr& tiles) const {
  ag::VarPtr x = ag::Relu(ag::Conv2d(tiles, conv1_w_, conv1_b_, spec1_));
  x = ag::MaxPool2d(x, spec1_.out_channels, spec1_.out_h(), spec1_.out_w(), 2,
                    2);
  x = ag::Relu(ag::Conv2d(x, conv2_w_, conv2_b_, spec2_));
  x = ag::MaxPool2d(x, spec2_.out_channels, spec2_.out_h(), spec2_.out_w(), 2,
                    2);
  x = fc1_->Forward(x, kern::Activation::kRelu);
  x = fc2_->Forward(x, kern::Activation::kRelu);
  x = fc3_->Forward(x, kern::Activation::kRelu);
  return head_->Forward(x);
}

std::vector<ag::VarPtr> UvLensBaseline::Params() const {
  std::vector<ag::VarPtr> params = {conv1_w_, conv1_b_, conv2_w_, conv2_b_};
  auto add = [&params](std::vector<ag::VarPtr> p) {
    params.insert(params.end(), p.begin(), p.end());
  };
  add(fc1_->Params());
  add(fc2_->Params());
  add(fc3_->Params());
  add(head_->Params());
  return params;
}

void UvLensBaseline::Train(const urg::UrbanRegionGraph& urg,
                           const std::vector<int>& train_ids,
                           const std::vector<int>& train_labels) {
  UV_CHECK(urg.images != nullptr);
  Rng rng(options_.seed);
  const int s = urg.image_size;
  equalized_ = features::HistogramEqualize(*urg.images, 3);

  spec1_ = {3, s, s, 8, 3, 1, 1};
  spec2_ = {8, s / 2, s / 2, 16, 3, 1, 1};
  auto make_conv = [&rng](int out_c, int in_c, int k, ag::VarPtr* w,
                          ag::VarPtr* b) {
    Tensor wt(out_c, in_c * k * k);
    wt.RandomNormal(&rng, std::sqrt(2.0f / (in_c * k * k)));
    *w = ag::MakeParam(std::move(wt));
    *b = ag::MakeParam(Tensor(1, out_c));
  };
  make_conv(8, 3, 3, &conv1_w_, &conv1_b_);
  make_conv(16, 8, 3, &conv2_w_, &conv2_b_);
  const int flat = 16 * (s / 4) * (s / 4);
  fc1_ = std::make_unique<nn::Linear>(flat, kFc1, &rng);
  fc2_ = std::make_unique<nn::Linear>(kFc1, kFc2, &rng);
  fc3_ = std::make_unique<nn::Linear>(kFc2, kFc3, &rng);
  head_ = std::make_unique<nn::Linear>(kFc3, 1, &rng);

  ag::AdamOptimizer::Options aopt;
  aopt.learning_rate = options_.learning_rate;
  aopt.clip_norm = options_.clip_norm;
  ag::AdamOptimizer opt(Params(), aopt);

  const int n_train = static_cast<int>(train_ids.size());
  core::EpochStats stats = core::RunEpochs(
      &opt, options_.epochs, options_.lr_decay_per_epoch, "UVLens", 1,
      [&](int, int) {
        // Mini-batch sampled per epoch keeps single-core cost bounded.
        const int batch = std::min(kBatch, n_train);
        std::vector<int> pick_ids(batch);
        std::vector<int> pick_labels(batch);
        for (int i = 0; i < batch; ++i) {
          const int j = rng.UniformInt(n_train);
          pick_ids[i] = train_ids[j];
          pick_labels[i] = train_labels[j];
        }
        const Tensor labels = core::MakeLabelTensor(pick_labels);
        const Tensor weights =
            core::MakeBceWeights(pick_labels, options_.pos_weight);
        ag::VarPtr tiles = GatherConstRows(equalized_, pick_ids);
        return ag::BceWithLogits(ForwardTiles(tiles), labels, &weights);
      });
  epoch_seconds_ = stats.seconds_per_epoch;
  epoch_history_ = std::move(stats.epoch_seconds);
}

std::vector<float> UvLensBaseline::Score(const urg::UrbanRegionGraph& urg,
                                         const std::vector<int>& eval_ids) {
  (void)urg;
  WallTimer timer;
  std::vector<float> out;
  out.reserve(eval_ids.size());
  for (size_t begin = 0; begin < eval_ids.size(); begin += kBatch) {
    const size_t end = std::min(eval_ids.size(), begin + kBatch);
    std::vector<int> chunk(eval_ids.begin() + begin, eval_ids.begin() + end);
    ag::VarPtr logits = ForwardTiles(GatherConstRows(equalized_, chunk));
    for (int i = 0; i < logits->rows(); ++i) {
      out.push_back(1.0f / (1.0f + std::exp(-logits->value.at(i, 0))));
    }
  }
  inference_seconds_ = timer.Seconds();
  return out;
}

int64_t UvLensBaseline::NumParameters() const {
  return fc1_ ? CountParams(Params()) : 0;
}

}  // namespace uv::baselines
