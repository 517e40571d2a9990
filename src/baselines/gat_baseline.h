#ifndef UV_BASELINES_GAT_BASELINE_H_
#define UV_BASELINES_GAT_BASELINE_H_

#include <memory>
#include <optional>

#include "baselines/common.h"
#include "infer/engine.h"
#include "nn/gat.h"
#include "nn/linear.h"

namespace uv::baselines {

// GAT baseline (paper Appendix I-A): identical layout to the GCN baseline
// with attention-based aggregation.
class GatBaseline : public eval::Detector {
 public:
  explicit GatBaseline(const TrainOptions& options) : options_(options) {}

  std::string name() const override { return "GAT"; }

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
  // semantics), as GcnBaseline::MakeEngine.
  std::unique_ptr<infer::Engine> MakeEngine(
      const urg::UrbanRegionGraph& urg) const;

 private:
  ag::VarPtr Forward(const core::CmsfInputs& in) const;
  std::vector<ag::VarPtr> Params() const;

  TrainOptions options_;
  // Whole-graph inputs kept from Train; empty when trained sampled.
  std::optional<core::CmsfInputs> whole_;
  std::unique_ptr<nn::Linear> img_reduce_;
  std::unique_ptr<nn::GatLayer> poi_g1_, poi_g2_, img_g1_, img_g2_;
  std::unique_ptr<nn::Linear> fuse_;
  std::unique_ptr<nn::Linear> head_;
  double epoch_seconds_ = 0.0;
  std::vector<double> epoch_history_;
  double inference_seconds_ = 0.0;
};

}  // namespace uv::baselines

#endif  // UV_BASELINES_GAT_BASELINE_H_
