#include "baselines/muvfcn_baseline.h"

#include <cmath>

#include "core/train_loop.h"
#include "util/check.h"
#include "util/timer.h"

namespace uv::baselines {

namespace {
constexpr int kBatch = 256;
}  // namespace

ag::VarPtr MuvfcnBaseline::ForwardTiles(const ag::VarPtr& tiles) const {
  ag::VarPtr x = ag::Relu(ag::Conv2d(tiles, c1w_, c1b_, spec1_));
  x = ag::MaxPool2d(x, spec1_.out_channels, spec1_.out_h(), spec1_.out_w(), 2,
                    2);
  x = ag::Relu(ag::Conv2d(x, c2w_, c2b_, spec2_));
  x = ag::MaxPool2d(x, spec2_.out_channels, spec2_.out_h(), spec2_.out_w(), 2,
                    2);
  x = ag::Relu(ag::Conv2d(x, c3w_, c3b_, spec3_));
  // FCN output maps -> average pooling -> 32-d feature vector (paper).
  x = ag::GlobalAvgPool(x, spec3_.out_channels, spec3_.out_h(),
                        spec3_.out_w());
  return head_->Forward(x);
}

std::vector<ag::VarPtr> MuvfcnBaseline::Params() const {
  std::vector<ag::VarPtr> params = {c1w_, c1b_, c2w_, c2b_, c3w_, c3b_};
  auto head = head_->Params();
  params.insert(params.end(), head.begin(), head.end());
  return params;
}

void MuvfcnBaseline::Train(const urg::UrbanRegionGraph& urg,
                           const std::vector<int>& train_ids,
                           const std::vector<int>& train_labels) {
  UV_CHECK(urg.images != nullptr);
  Rng rng(options_.seed);
  const int s = urg.image_size;
  spec1_ = {3, s, s, 16, 3, 1, 1};
  spec2_ = {16, s / 2, s / 2, 32, 3, 1, 1};
  spec3_ = {32, s / 4, s / 4, 32, 3, 1, 1};
  auto make_conv = [&rng](int out_c, int in_c, int k, ag::VarPtr* w,
                          ag::VarPtr* b) {
    Tensor wt(out_c, in_c * k * k);
    wt.RandomNormal(&rng, std::sqrt(2.0f / (in_c * k * k)));
    *w = ag::MakeParam(std::move(wt));
    *b = ag::MakeParam(Tensor(1, out_c));
  };
  make_conv(16, 3, 3, &c1w_, &c1b_);
  make_conv(32, 16, 3, &c2w_, &c2b_);
  make_conv(32, 32, 3, &c3w_, &c3b_);
  head_ = std::make_unique<nn::Linear>(32, 1, &rng);

  ag::AdamOptimizer::Options aopt;
  aopt.learning_rate = options_.learning_rate;
  aopt.clip_norm = options_.clip_norm;
  ag::AdamOptimizer opt(Params(), aopt);

  const Tensor& images = *urg.images;
  const int n_train = static_cast<int>(train_ids.size());
  core::EpochStats stats = core::RunEpochs(
      &opt, options_.epochs, options_.lr_decay_per_epoch, "MUVFCN", 1,
      [&](int, int) {
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
        ag::VarPtr tiles = GatherConstRows(images, pick_ids);
        return ag::BceWithLogits(ForwardTiles(tiles), labels, &weights);
      });
  epoch_seconds_ = stats.seconds_per_epoch;
  epoch_history_ = std::move(stats.epoch_seconds);
}

std::vector<float> MuvfcnBaseline::Score(const urg::UrbanRegionGraph& urg,
                                         const std::vector<int>& eval_ids) {
  WallTimer timer;
  std::vector<float> out;
  out.reserve(eval_ids.size());
  for (size_t begin = 0; begin < eval_ids.size(); begin += kBatch) {
    const size_t end = std::min(eval_ids.size(), begin + kBatch);
    std::vector<int> chunk(eval_ids.begin() + begin, eval_ids.begin() + end);
    ag::VarPtr logits = ForwardTiles(GatherConstRows(*urg.images, chunk));
    for (int i = 0; i < logits->rows(); ++i) {
      out.push_back(1.0f / (1.0f + std::exp(-logits->value.at(i, 0))));
    }
  }
  inference_seconds_ = timer.Seconds();
  return out;
}

int64_t MuvfcnBaseline::NumParameters() const {
  return head_ ? CountParams(Params()) : 0;
}

}  // namespace uv::baselines
