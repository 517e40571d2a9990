#include "core/cmsf_detector.h"

#include <cmath>
#include <numeric>
#include <string>

#include "core/config_codec.h"
#include "io/checkpoint.h"
#include "nn/graph_context.h"
#include "obs/quality.h"
#include "util/timer.h"

namespace uv::core {
namespace {

// A checkpoint's frozen stage-one assignment is all empty (nothing was
// frozen), or soft B is N x k, hard B~ is 1 x N with integral entries in
// [0, k) and the pseudo labels are 1 x k with entries in {0, 1}. Hard ids
// index per-cluster arrays unchecked downstream, so anything else is
// rejected here.
Status ValidateFrozen(const Tensor& soft, const Tensor& hard,
                      const Tensor& pseudo, int num_regions, int k) {
  if (soft.size() == 0 && hard.size() == 0 && pseudo.size() == 0) {
    return Status::Ok();
  }
  if (soft.rows() != num_regions || soft.cols() != k || hard.rows() != 1 ||
      hard.cols() != num_regions || pseudo.rows() != 1 || pseudo.cols() != k) {
    return Status::InvalidArgument("frozen assignment shape mismatch");
  }
  for (int i = 0; i < num_regions; ++i) {
    const float h = hard.at(0, i);
    if (!(h >= 0.0f && h < static_cast<float>(k)) || h != std::floor(h)) {
      return Status::InvalidArgument(
          "frozen hard assignment of region " + std::to_string(i) +
          " is not a cluster id in [0, " + std::to_string(k) + ")");
    }
  }
  for (int c = 0; c < k; ++c) {
    const float p = pseudo.at(0, c);
    if (p != 0.0f && p != 1.0f) {
      return Status::InvalidArgument("frozen pseudo label of cluster " +
                                     std::to_string(c) + " is not 0 or 1");
    }
  }
  return Status::Ok();
}

}  // namespace

void CmsfDetector::Train(const urg::UrbanRegionGraph& urg,
                         const std::vector<int>& train_ids,
                         const std::vector<int>& train_labels) {
  Rng rng(config_.seed);
  fingerprint_ = io::UrgFingerprint::FromUrg(urg);
  // A new training run invalidates any cached quality baseline; the ids
  // and labels are retained so the baseline's calibration bins can pair
  // training scores with ground truth at save time.
  baseline_ = obs::QualityBaseline();
  train_ids_ = train_ids;
  train_labels_ = train_labels;
  model_ = std::make_unique<CmsfModel>(config_, urg.PoiDim(), urg.ImageDim(),
                                       &rng);
  ResetInputs(urg);
  MasterTrainResult master =
      TrainMaster(model_.get(), Graph(urg), train_ids, train_labels);
  frozen_ = std::move(master.frozen);
  // Table III reports the master stage as the training time: it dominates,
  // and the slave stage "only needs very few iterations" (paper VI-G).
  train_epoch_seconds_ = master.seconds_per_epoch;
  epoch_seconds_ = std::move(master.epoch_seconds);
  TrainSlave(model_.get(), Graph(urg), frozen_, train_ids, train_labels);
}

void CmsfDetector::ResetInputs(const urg::UrbanRegionGraph& urg) {
  inputs_.reset();
  // Sampled training (batch_size > 0) never materializes whole-graph inputs.
  if (config_.batch_size <= 0) inputs_ = CmsfInputs::FromUrg(urg);
}

BatchGraph CmsfDetector::Graph(const urg::UrbanRegionGraph& urg) const {
  return BatchGraph{inputs_ ? &*inputs_ : nullptr, &urg};
}

std::vector<float> CmsfDetector::Score(const urg::UrbanRegionGraph& urg,
                                       const std::vector<int>& eval_ids) {
  WallTimer timer;
  const CmsfModel::FrozenAssignment* frozen =
      config_.use_hierarchy ? &frozen_ : nullptr;
  std::vector<float> scores =
      PredictCmsf(*model_, Graph(urg), frozen, eval_ids);
  inference_seconds_ = timer.Seconds();
  return scores;
}

void CmsfDetector::EnsureBaseline(const urg::UrbanRegionGraph& urg) {
  if (!baseline_.empty() || !model_) return;
  // The baseline observes exactly what serving engines observe: the
  // grad-free trunk over the full graph (engine workspaces gather rows of
  // this matrix) and the full-graph predicted scores, which are
  // bit-identical to the engine's by the inference-engine contract. The
  // full-graph path is used even for minibatch-trained detectors — the
  // baseline is a property of the model over the whole training city, not
  // of how training happened to be batched.
  const nn::GraphContext ctx = nn::GraphContext::FromCsr(urg.adjacency);
  const Tensor trunk =
      model_->TrunkRaw(urg.poi_features, urg.image_features, ctx);
  const CmsfModel::FrozenAssignment* frozen =
      config_.use_hierarchy ? &frozen_ : nullptr;
  std::vector<int> all_ids(static_cast<size_t>(urg.num_regions()));
  std::iota(all_ids.begin(), all_ids.end(), 0);
  const CmsfInputs whole = inputs_ ? *inputs_ : CmsfInputs::FromUrg(urg);
  const std::vector<float> scores =
      PredictCmsf(*model_, whole, frozen, all_ids);
  std::vector<float> labeled_scores(train_ids_.size());
  for (size_t i = 0; i < train_ids_.size(); ++i) {
    labeled_scores[i] = scores[static_cast<size_t>(train_ids_[i])];
  }
  baseline_ = obs::BuildQualityBaseline(
      trunk.data(), trunk.rows(), trunk.cols(), scores.data(),
      static_cast<int64_t>(scores.size()), labeled_scores.data(),
      train_labels_.data(), static_cast<int64_t>(train_ids_.size()));
}

Status CmsfDetector::SaveModel(const urg::UrbanRegionGraph& urg,
                               const std::string& path) {
  if (!model_) return Status::FailedPrecondition("detector is not trained");
  EnsureBaseline(urg);
  io::Checkpoint ck;
  ck.model_name = name_;
  ck.config = EncodeCmsfConfig(config_);
  ck.fingerprint = fingerprint_;
  ck.baseline = baseline_;
  for (const auto& p : model_->AllParams()) ck.tensors.push_back(p->value);
  // Frozen stage-one assignment rides along as three extra tensors.
  ck.tensors.push_back(frozen_.soft);
  Tensor hard(1, static_cast<int>(frozen_.hard.size()));
  for (size_t i = 0; i < frozen_.hard.size(); ++i) {
    hard.at(0, static_cast<int>(i)) = static_cast<float>(frozen_.hard[i]);
  }
  ck.tensors.push_back(std::move(hard));
  Tensor pseudo(1, static_cast<int>(frozen_.pseudo_labels.size()));
  for (size_t i = 0; i < frozen_.pseudo_labels.size(); ++i) {
    pseudo.at(0, static_cast<int>(i)) =
        static_cast<float>(frozen_.pseudo_labels[i]);
  }
  ck.tensors.push_back(std::move(pseudo));
  return io::SaveCheckpoint(path, ck);
}

Status CmsfDetector::LoadModel(const urg::UrbanRegionGraph& urg,
                               const std::string& path) {
  auto loaded = io::LoadCheckpoint(path);
  if (!loaded.ok()) return loaded.status();
  io::Checkpoint& ck = loaded.value();
  const io::UrgFingerprint fingerprint = io::UrgFingerprint::FromUrg(urg);
  Status valid = io::ValidateCheckpoint(ck, name_, fingerprint);
  if (!valid.ok()) return valid;
  auto decoded = DecodeCmsfConfig(ck.config);
  if (!decoded.ok()) return decoded.status();
  const CmsfConfig& config = decoded.value();
  std::vector<Tensor>& tensors = ck.tensors;

  // Decode into locals and commit only after every check has passed, so a
  // rejected load leaves the detector scoring exactly as before.
  Rng rng(config.seed);
  auto model = std::make_unique<CmsfModel>(config, urg.PoiDim(),
                                           urg.ImageDim(), &rng);
  auto params = model->AllParams();
  if (tensors.size() != params.size() + 3) {
    return Status::InvalidArgument("checkpoint layout mismatch");
  }
  Status frozen_valid = ValidateFrozen(tensors[params.size()],
                                       tensors[params.size() + 1],
                                       tensors[params.size() + 2],
                                       urg.num_regions(), config.num_clusters);
  if (!frozen_valid.ok()) return frozen_valid;
  for (size_t i = 0; i < params.size(); ++i) {
    if (!tensors[i].SameShape(params[i]->value)) {
      return Status::InvalidArgument("parameter shape mismatch");
    }
    params[i]->value = std::move(tensors[i]);
  }
  CmsfModel::FrozenAssignment frozen;
  frozen.soft = std::move(tensors[params.size()]);
  const Tensor& hard = tensors[params.size() + 1];
  frozen.hard.resize(hard.cols());
  for (int i = 0; i < hard.cols(); ++i) {
    frozen.hard[i] = static_cast<int>(hard.at(0, i));
  }
  const Tensor& pseudo = tensors[params.size() + 2];
  frozen.pseudo_labels.resize(pseudo.cols());
  for (int i = 0; i < pseudo.cols(); ++i) {
    frozen.pseudo_labels[i] = static_cast<int>(pseudo.at(0, i));
  }

  config_ = config;
  fingerprint_ = fingerprint;
  model_ = std::move(model);
  frozen_ = std::move(frozen);
  ResetInputs(urg);
  // Adopt the checkpoint's baseline verbatim (never recompute: the counts
  // must stay byte-identical across save -> load -> save). The training
  // ids/labels belong to whatever run produced the file, not this process.
  baseline_ = std::move(ck.baseline);
  train_ids_.clear();
  train_labels_.clear();
  return Status::Ok();
}

int64_t CmsfDetector::NumParameters() const {
  if (!model_) return 0;
  int64_t total = 0;
  for (const auto& p : model_->AllParams()) total += p->value.size();
  return total;
}

}  // namespace uv::core
