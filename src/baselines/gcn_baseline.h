#ifndef UV_BASELINES_GCN_BASELINE_H_
#define UV_BASELINES_GCN_BASELINE_H_

#include <memory>
#include <optional>

#include "baselines/common.h"
#include "infer/engine.h"
#include "nn/gcn.h"
#include "nn/graph_context.h"
#include "nn/linear.h"

namespace uv::baselines {

// GCN baseline (paper Appendix I-A): image features linearly reduced, one
// 2-layer GCN per modality on the URG, linear multi-modal fusion, logistic
// head. Full-graph training by default; TrainOptions::batch_size > 0
// switches to neighborhood-sampled minibatches (required for sharded URGs,
// which have no global adjacency to forward over).
class GcnBaseline : public eval::Detector {
 public:
  explicit GcnBaseline(const TrainOptions& options) : options_(options) {}

  std::string name() const override { return "GCN"; }

  void Train(const urg::UrbanRegionGraph& urg,
             const std::vector<int>& train_ids,
             const std::vector<int>& train_labels) override;
  std::vector<float> Score(const urg::UrbanRegionGraph& urg,
                           const std::vector<int>& eval_ids) override;
  int64_t NumParameters() const override;
  double TrainSecondsPerEpoch() const override { return epoch_seconds_; }
  std::vector<double> EpochSecondsHistory() const override {
    return epoch_history_;
  }
  double LastInferenceSeconds() const override { return inference_seconds_; }

  // Grad-free inference engine over this trained model (full-graph
  // semantics): precomputes the fused trunk features once, then serves the
  // dense fuse+head tail per request, bit-identical to full-graph Score.
  std::unique_ptr<infer::Engine> MakeEngine(
      const urg::UrbanRegionGraph& urg) const;

 private:
  ag::VarPtr Forward(const core::CmsfInputs& in) const;
  std::vector<ag::VarPtr> Params() const;

  TrainOptions options_;
  // Whole-graph inputs kept from Train; empty when trained sampled.
  std::optional<core::CmsfInputs> whole_;
  std::unique_ptr<nn::Linear> img_reduce_;
  std::unique_ptr<nn::GcnLayer> poi_g1_, poi_g2_, img_g1_, img_g2_;
  std::unique_ptr<nn::Linear> fuse_;
  std::unique_ptr<nn::Linear> head_;
  double epoch_seconds_ = 0.0;
  std::vector<double> epoch_history_;
  double inference_seconds_ = 0.0;
};

}  // namespace uv::baselines

#endif  // UV_BASELINES_GCN_BASELINE_H_
