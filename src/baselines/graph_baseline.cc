#include "baselines/graph_baseline.h"

#include <optional>
#include <string>

#include "autograd/ops.h"
#include "core/train_loop.h"
#include "nn/gat.h"
#include "nn/gcn.h"
#include "nn/graph_context.h"
#include "nn/linear.h"
#include "tensor/forward_ops.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/timer.h"

namespace uv::baselines {

namespace {
constexpr int kHidden = 64;
constexpr int kImageReduce = 128;
constexpr int kGatHeads = 2;

// The shared layout of both baselines, over Layer = nn::GcnLayer or
// nn::GatLayer; make_layer supplies the per-layer constructor arguments.
template <typename Layer>
class LayerBaseline final : public GraphBaseline {
 public:
  using MakeLayer = std::unique_ptr<Layer> (*)(int in_dim, int out_dim,
                                               Rng* rng);

  LayerBaseline(std::string name, MakeLayer make_layer,
                const TrainOptions& options)
      : name_(std::move(name)), make_layer_(make_layer), options_(options) {}

  std::string name() const override { return name_; }

  void Train(const urg::UrbanRegionGraph& urg,
             const std::vector<int>& train_ids,
             const std::vector<int>& train_labels) override {
    // Construction order fixes the RNG draws of every layer.
    Rng rng(options_.seed);
    img_reduce_ = std::make_unique<nn::Linear>(urg.ImageDim(), kImageReduce,
                                               &rng);
    poi_g1_ = make_layer_(urg.PoiDim(), kHidden, &rng);
    poi_g2_ = make_layer_(kHidden, kHidden, &rng);
    img_g1_ = make_layer_(kImageReduce, kHidden, &rng);
    img_g2_ = make_layer_(kHidden, kHidden, &rng);
    fuse_ = std::make_unique<nn::Linear>(2 * kHidden, kHidden, &rng);
    head_ = std::make_unique<nn::Linear>(kHidden, 1, &rng);

    ag::AdamOptimizer::Options aopt;
    aopt.learning_rate = options_.learning_rate;
    aopt.clip_norm = options_.clip_norm;
    ag::AdamOptimizer opt(Params(), aopt);

    core::EpochStats stats = TrainGraphBce(
        &opt, options_, urg, train_ids, train_labels, name_.c_str(),
        [this](const core::CmsfInputs& in) { return Forward(in); }, &whole_);
    epoch_seconds_ = stats.seconds_per_epoch;
    epoch_history_ = std::move(stats.epoch_seconds);
  }

  std::vector<float> Score(const urg::UrbanRegionGraph& urg,
                           const std::vector<int>& eval_ids) override {
    WallTimer timer;
    std::vector<float> out =
        ScoreGraph(urg, whole_, eval_ids,
                   [this](const core::CmsfInputs& in) { return Forward(in); });
    inference_seconds_ = timer.Seconds();
    return out;
  }

  int64_t NumParameters() const override {
    return img_reduce_ ? CountParams(Params()) : 0;
  }
  double TrainSecondsPerEpoch() const override { return epoch_seconds_; }
  std::vector<double> EpochSecondsHistory() const override {
    return epoch_history_;
  }
  double LastInferenceSeconds() const override { return inference_seconds_; }

  std::unique_ptr<infer::Engine> MakeEngine(
      const urg::UrbanRegionGraph& urg) const override {
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

 private:
  ag::VarPtr Forward(const core::CmsfInputs& in) const {
    ag::VarPtr p = ag::Relu(poi_g1_->Forward(in.poi, in.ctx));
    p = ag::Relu(poi_g2_->Forward(p, in.ctx));
    ag::VarPtr i = img_reduce_->Forward(in.image, kern::Activation::kRelu);
    i = ag::Relu(img_g1_->Forward(i, in.ctx));
    i = ag::Relu(img_g2_->Forward(i, in.ctx));
    ag::VarPtr fused =
        fuse_->Forward(ag::ConcatCols(p, i), kern::Activation::kRelu);
    return head_->Forward(fused);
  }

  std::vector<ag::VarPtr> Params() const {
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

  std::string name_;
  MakeLayer make_layer_;
  TrainOptions options_;
  // Whole-graph inputs kept from Train; empty when trained sampled.
  std::optional<core::CmsfInputs> whole_;
  std::unique_ptr<nn::Linear> img_reduce_;
  std::unique_ptr<Layer> poi_g1_, poi_g2_, img_g1_, img_g2_;
  std::unique_ptr<nn::Linear> fuse_;
  std::unique_ptr<nn::Linear> head_;
  double epoch_seconds_ = 0.0;
  std::vector<double> epoch_history_;
  double inference_seconds_ = 0.0;
};

}  // namespace

std::unique_ptr<GraphBaseline> MakeGcnBaseline(const TrainOptions& options) {
  return std::make_unique<LayerBaseline<nn::GcnLayer>>(
      "GCN",
      [](int in_dim, int out_dim, Rng* rng) {
        return std::make_unique<nn::GcnLayer>(in_dim, out_dim, rng);
      },
      options);
}

std::unique_ptr<GraphBaseline> MakeGatBaseline(const TrainOptions& options) {
  return std::make_unique<LayerBaseline<nn::GatLayer>>(
      "GAT",
      [](int in_dim, int out_dim, Rng* rng) {
        return std::make_unique<nn::GatLayer>(in_dim, out_dim, kGatHeads, rng);
      },
      options);
}

}  // namespace uv::baselines
