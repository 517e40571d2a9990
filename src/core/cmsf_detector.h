#ifndef UV_CORE_CMSF_DETECTOR_H_
#define UV_CORE_CMSF_DETECTOR_H_

#include <memory>
#include <optional>
#include <string>

#include "core/cmsf_model.h"
#include "eval/detector.h"
#include "io/checkpoint.h"
#include "util/status.h"

namespace uv::core {

// eval::Detector adapter for CMSF and its Fig. 5(a) ablation variants.
// Constructed per fold; Train runs both stages (Algorithms 1 and 2).
class CmsfDetector : public eval::Detector {
 public:
  CmsfDetector(const CmsfConfig& config, std::string name = "CMSF")
      : config_(config), name_(std::move(name)) {}

  std::string name() const override { return name_; }

  void Train(const urg::UrbanRegionGraph& urg,
             const std::vector<int>& train_ids,
             const std::vector<int>& train_labels) override;

  std::vector<float> Score(const urg::UrbanRegionGraph& urg,
                           const std::vector<int>& eval_ids) override;

  int64_t NumParameters() const override;
  double TrainSecondsPerEpoch() const override { return train_epoch_seconds_; }
  double LastInferenceSeconds() const override { return inference_seconds_; }
  std::vector<double> EpochSecondsHistory() const override {
    return epoch_seconds_;
  }

  const CmsfModel* model() const { return model_.get(); }
  const CmsfModel::FrozenAssignment& frozen() const { return frozen_; }

  // Persists the trained model as a v2 UVCK checkpoint: all parameters
  // plus the frozen stage-one assignment, the serialized config, a
  // fingerprint of the URG the model was trained on, and the training-time
  // quality baseline (built on first save from the grad-free trunk over
  // the full graph — the same representation serving engines observe — and
  // cached thereafter, so save -> load -> save stays byte-identical).
  Status SaveModel(const urg::UrbanRegionGraph& urg, const std::string& path);
  // Restores a saved checkpoint: validates version / model name / URG
  // fingerprint, adopts the checkpoint's config and quality baseline, and
  // rebuilds the model. A rejected load leaves the detector unchanged.
  Status LoadModel(const urg::UrbanRegionGraph& urg, const std::string& path);

  // The training-time baseline for drift monitors. Built lazily by
  // SaveModel (or explicitly here); empty() until the detector has been
  // trained or loaded from a v2 checkpoint.
  const obs::QualityBaseline& baseline(const urg::UrbanRegionGraph& urg) {
    EnsureBaseline(urg);
    return baseline_;
  }

 private:
  void EnsureBaseline(const urg::UrbanRegionGraph& urg);
  // Keeps whole-graph inputs of `urg` unless the config trains sampled.
  void ResetInputs(const urg::UrbanRegionGraph& urg);
  // The resident whole-graph inputs when kept, else `urg` to sample from.
  BatchGraph Graph(const urg::UrbanRegionGraph& urg) const;

  CmsfConfig config_;
  std::string name_;
  std::unique_ptr<CmsfModel> model_;
  std::optional<CmsfInputs> inputs_;
  CmsfModel::FrozenAssignment frozen_;
  io::UrgFingerprint fingerprint_;
  obs::QualityBaseline baseline_;
  // Retained from Train so the baseline's calibration bins can pair
  // training scores with ground truth; empty after LoadModel (the loaded
  // baseline already carries them).
  std::vector<int> train_ids_;
  std::vector<int> train_labels_;
  double train_epoch_seconds_ = 0.0;
  double inference_seconds_ = 0.0;
  // Master-stage epochs only, matching train_epoch_seconds_ (Table III
  // quotes the master stage as the training time).
  std::vector<double> epoch_seconds_;
};

}  // namespace uv::core

#endif  // UV_CORE_CMSF_DETECTOR_H_
