#include "baselines/gat_baseline.h"

#include "autograd/ops.h"
#include "core/train_loop.h"
#include "tensor/forward_ops.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/timer.h"

namespace uv::baselines {

namespace {
constexpr int kHidden = 64;
constexpr int kImageReduce = 128;
constexpr int kHeads = 2;
}  // namespace

ag::VarPtr GatBaseline::Forward(const core::CmsfInputs& in) const {
  ag::VarPtr p = ag::Relu(poi_g1_->Forward(in.poi, in.ctx));
  p = ag::Relu(poi_g2_->Forward(p, in.ctx));
  ag::VarPtr i = img_reduce_->Forward(in.image, kern::Activation::kRelu);
  i = ag::Relu(img_g1_->Forward(i, in.ctx));
  i = ag::Relu(img_g2_->Forward(i, in.ctx));
  ag::VarPtr fused =
      fuse_->Forward(ag::ConcatCols(p, i), kern::Activation::kRelu);
  return head_->Forward(fused);
}

std::vector<ag::VarPtr> GatBaseline::Params() const {
  std::vector<ag::VarPtr> params;
  auto add = [&params](std::vector<ag::VarPtr> p) {
    params.insert(params.end(), p.begin(), p.end());
  };
  add(img_reduce_->Params());
  add(poi_g1_->Params());
  add(poi_g2_->Params());
  add(img_g1_->Params());
  add(img_g2_->Params());
  add(fuse_->Params());
  add(head_->Params());
  return params;
}

void GatBaseline::Train(const urg::UrbanRegionGraph& urg,
                        const std::vector<int>& train_ids,
                        const std::vector<int>& train_labels) {
  Rng rng(options_.seed);
  img_reduce_ = std::make_unique<nn::Linear>(urg.ImageDim(), kImageReduce,
                                             &rng);
  poi_g1_ = std::make_unique<nn::GatLayer>(urg.PoiDim(), kHidden, kHeads,
                                           &rng);
  poi_g2_ = std::make_unique<nn::GatLayer>(kHidden, kHidden, kHeads, &rng);
  img_g1_ = std::make_unique<nn::GatLayer>(kImageReduce, kHidden, kHeads,
                                           &rng);
  img_g2_ = std::make_unique<nn::GatLayer>(kHidden, kHidden, kHeads, &rng);
  fuse_ = std::make_unique<nn::Linear>(2 * kHidden, kHidden, &rng);
  head_ = std::make_unique<nn::Linear>(kHidden, 1, &rng);

  ag::AdamOptimizer::Options aopt;
  aopt.learning_rate = options_.learning_rate;
  aopt.clip_norm = options_.clip_norm;
  ag::AdamOptimizer opt(Params(), aopt);

  core::EpochStats stats = TrainGraphBce(
      &opt, options_, urg, train_ids, train_labels, "GAT",
      [this](const core::CmsfInputs& in) { return Forward(in); }, &whole_);
  epoch_seconds_ = stats.seconds_per_epoch;
  epoch_history_ = std::move(stats.epoch_seconds);
}

std::vector<float> GatBaseline::Score(const urg::UrbanRegionGraph& urg,
                                      const std::vector<int>& eval_ids) {
  WallTimer timer;
  std::vector<float> out =
      ScoreGraph(urg, whole_, eval_ids,
                 [this](const core::CmsfInputs& in) { return Forward(in); });
  inference_seconds_ = timer.Seconds();
  return out;
}

int64_t GatBaseline::NumParameters() const {
  return img_reduce_ ? CountParams(Params()) : 0;
}

std::unique_ptr<infer::Engine> GatBaseline::MakeEngine(
    const urg::UrbanRegionGraph& urg) const {
  UV_CHECK(img_reduce_ != nullptr);  // Train first.
  const nn::GraphContext ctx = nn::GraphContext::FromCsr(urg.adjacency);
  Tensor p = poi_g1_->ForwardRaw(urg.poi_features, ctx);
  ReluInPlace(&p);
  p = poi_g2_->ForwardRaw(p, ctx);
  ReluInPlace(&p);
  Tensor i = img_reduce_->ForwardRaw(urg.image_features,
                                     kern::Activation::kRelu);
  i = img_g1_->ForwardRaw(i, ctx);
  ReluInPlace(&i);
  i = img_g2_->ForwardRaw(i, ctx);
  ReluInPlace(&i);
  return infer::MakeDenseTailEngine(
      ConcatCols(p, i), fuse_->w()->value, fuse_->b()->value,
      kern::Activation::kRelu, head_->w()->value, head_->b()->value);
}

}  // namespace uv::baselines
