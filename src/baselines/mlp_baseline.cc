#include "baselines/mlp_baseline.h"

#include "autograd/ops.h"
#include "core/train_loop.h"
#include "util/timer.h"

namespace uv::baselines {

namespace {
constexpr int kHidden = 64;  // Section VI-A hidden size.
}  // namespace

ag::VarPtr MlpBaseline::ForwardRows(const urg::UrbanRegionGraph& urg,
                                    const std::vector<int>& ids) const {
  ag::VarPtr poi = GatherConstRows(urg.poi_features, ids);
  ag::VarPtr img = GatherConstRows(urg.image_features, ids);
  ag::VarPtr hp = poi_fc_->Forward(poi, kern::Activation::kRelu);
  ag::VarPtr hi = img_fc_->Forward(img, kern::Activation::kRelu);
  return head_->Forward(ag::ConcatCols(hp, hi));
}

void MlpBaseline::Train(const urg::UrbanRegionGraph& urg,
                        const std::vector<int>& train_ids,
                        const std::vector<int>& train_labels) {
  Rng rng(options_.seed);
  poi_fc_ = std::make_unique<nn::Linear>(urg.poi_features.cols(), kHidden,
                                         &rng);
  img_fc_ = std::make_unique<nn::Linear>(urg.image_features.cols(), kHidden,
                                         &rng);
  head_ = std::make_unique<nn::Linear>(2 * kHidden, 1, &rng);

  const Tensor labels = core::MakeLabelTensor(train_labels);
  const Tensor weights =
      core::MakeBceWeights(train_labels, options_.pos_weight);
  std::vector<ag::VarPtr> params = poi_fc_->Params();
  auto add = [&params](std::vector<ag::VarPtr> p) {
    params.insert(params.end(), p.begin(), p.end());
  };
  add(img_fc_->Params());
  add(head_->Params());

  ag::AdamOptimizer::Options aopt;
  aopt.learning_rate = options_.learning_rate;
  aopt.clip_norm = options_.clip_norm;
  ag::AdamOptimizer opt(params, aopt);
  core::EpochStats stats = core::RunEpochs(
      &opt, options_.epochs, options_.lr_decay_per_epoch, "MLP", 1,
      [&](int, int) {
        return ag::BceWithLogits(ForwardRows(urg, train_ids), labels,
                                 &weights);
      });
  epoch_seconds_ = stats.seconds_per_epoch;
  epoch_history_ = std::move(stats.epoch_seconds);
}

std::vector<float> MlpBaseline::Score(const urg::UrbanRegionGraph& urg,
                                      const std::vector<int>& eval_ids) {
  WallTimer timer;
  ag::VarPtr logits = ForwardRows(urg, eval_ids);
  std::vector<int> all(eval_ids.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  auto out = SigmoidRows(logits->value, all);
  inference_seconds_ = timer.Seconds();
  return out;
}

int64_t MlpBaseline::NumParameters() const {
  if (!poi_fc_) return 0;
  std::vector<ag::VarPtr> params = poi_fc_->Params();
  auto p2 = img_fc_->Params();
  auto p3 = head_->Params();
  params.insert(params.end(), p2.begin(), p2.end());
  params.insert(params.end(), p3.begin(), p3.end());
  return CountParams(params);
}

}  // namespace uv::baselines
