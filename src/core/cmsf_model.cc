#include "core/cmsf_model.h"

#include <cstring>
#include <numeric>

#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "tensor/forward_ops.h"
#include "tensor/tensor_ops.h"
#include "obs/trace.h"
#include "util/check.h"

namespace uv::core {
namespace {

// The frozen assignment a batch's forward pins: the whole assignment on the
// whole graph, otherwise its rows for the batch's nodes (row i = frozen
// rows of nodes[i]), built into *slice.
const CmsfModel::FrozenAssignment* FrozenFor(
    const CmsfModel::FrozenAssignment& frozen, const Batch& batch,
    CmsfModel::FrozenAssignment* slice) {
  if (batch.whole_graph()) return &frozen;
  const int k = frozen.soft.cols();
  slice->soft = Tensor::Uninit(static_cast<int>(batch.nodes.size()), k);
  slice->hard.resize(batch.nodes.size());
  for (size_t i = 0; i < batch.nodes.size(); ++i) {
    std::memcpy(slice->soft.row(static_cast<int>(i)),
                frozen.soft.row(batch.nodes[i]),
                sizeof(float) * static_cast<size_t>(k));
    slice->hard[i] = frozen.hard[batch.nodes[i]];
  }
  slice->pseudo_labels = frozen.pseudo_labels;
  return slice;
}

urg::MinibatchConfig Sampling(const CmsfConfig& cfg, uint64_t seed) {
  urg::MinibatchConfig sampling;
  sampling.batch_size = cfg.batch_size;
  sampling.fanout = cfg.fanout;
  sampling.hops = cfg.maga_layers;
  sampling.seed = seed;
  return sampling;
}

ag::AdamOptimizer::Options AdamOptions(const CmsfConfig& cfg,
                                       double learning_rate) {
  ag::AdamOptimizer::Options aopt;
  aopt.learning_rate = learning_rate;
  aopt.clip_norm = cfg.clip_norm;
  return aopt;
}

// The learned membership over every region, with cluster pseudo labels
// (eq. 16) from the labels of *training* regions only (test labels stay
// unseen). Assignment rows depend only on a region's own trunk output, so
// the exact forward reproduces the whole-graph rows bit for bit.
CmsfModel::FrozenAssignment FreezeAssignment(
    const CmsfModel& model, const BatchGraph& graph,
    const std::vector<int>& train_ids, const std::vector<int>& train_labels) {
  obs::SpanGuard freeze_span("freeze_assignment", obs::SpanLevel::kCoarse);
  const CmsfConfig& cfg = model.config();
  const int n = graph.whole != nullptr ? graph.whole->poi->rows()
                                       : graph.urg->num_regions();
  std::vector<int> all_ids(n);
  std::iota(all_ids.begin(), all_ids.end(), 0);
  CmsfModel::FrozenAssignment frozen;
  frozen.soft = Tensor::Uninit(n, cfg.num_clusters);
  frozen.hard.assign(n, 0);
  ForEachExactBatch(
      graph, cfg.maga_layers, all_ids, [&](const Batch& batch, size_t first) {
        const auto fwd = model.Forward(batch.inputs, nullptr);
        for (size_t i = 0; i < batch.rows->size(); ++i) {
          const int row = (*batch.rows)[i];
          std::memcpy(frozen.soft.row(static_cast<int>(first + i)),
                      fwd.assignment->value.row(row),
                      sizeof(float) * static_cast<size_t>(cfg.num_clusters));
          frozen.hard[first + i] = fwd.hard_assignment[row];
        }
      });
  std::vector<int> full_labels(n, -1);
  for (size_t i = 0; i < train_ids.size(); ++i) {
    full_labels[train_ids[i]] = train_labels[i];
  }
  frozen.pseudo_labels = nn::ComputeClusterPseudoLabels(
      frozen.hard, full_labels, cfg.num_clusters);
  return frozen;
}

}  // namespace

CmsfModel::CmsfModel(const CmsfConfig& config, int poi_dim, int image_dim,
                     Rng* rng)
    : config_(config) {
  UV_CHECK_GT(config.maga_layers, 0);
  image_reduce_ = std::make_unique<nn::Linear>(
      image_dim, config.image_reduce_dim, rng);

  int width = 0;
  if (config.use_maga) {
    int in_p = poi_dim;
    int in_i = config.image_reduce_dim;
    for (int l = 0; l < config.maga_layers; ++l) {
      maga_.emplace_back(in_p, in_i, config.hidden_dim, config.maga_heads,
                         config.maga_agg, rng);
      in_p = in_i = maga_.back().out_width();
    }
    width = maga_.back().out_width();
  } else {
    // CMSF-M: vanilla GAT stacks per modality, no inter-modal context.
    int in_p = poi_dim;
    int in_i = config.image_reduce_dim;
    for (int l = 0; l < config.maga_layers; ++l) {
      gat_p_.emplace_back(in_p, config.hidden_dim, config.maga_heads, rng);
      gat_i_.emplace_back(in_i, config.hidden_dim, config.maga_heads, rng);
      in_p = in_i = config.hidden_dim;
    }
    width = config.hidden_dim;
  }
  gscm_in_dim_ = 2 * width;  // x^ = x^P ⊕ x^I.

  if (config.use_hierarchy) {
    nn::Gscm::Options gopt;
    gopt.in_dim = gscm_in_dim_;
    gopt.num_clusters = config.num_clusters;
    gopt.temperature = config.temperature;
    gopt.agg = config.gscm_agg;
    gscm_ = std::make_unique<nn::Gscm>(gopt, rng);
    classifier_in_ = gscm_->out_width();
  } else {
    classifier_in_ = gscm_in_dim_;
  }

  classifier_ = std::make_unique<nn::Mlp>(classifier_in_,
                                          config.classifier_hidden, 1, rng);

  if (config.use_hierarchy && config.use_gate) {
    nn::MsGate::Options mopt;
    mopt.num_clusters = config.num_clusters;
    mopt.cluster_repr_dim = gscm_in_dim_;
    mopt.context_dim = config.context_dim;
    mopt.classifier_in = classifier_in_;
    mopt.classifier_hidden = config.classifier_hidden;
    gate_ = std::make_unique<nn::MsGate>(mopt, rng);
  }
}

ag::VarPtr CmsfModel::Trunk(const CmsfInputs& inputs) const {
  obs::SpanGuard span("trunk", obs::SpanLevel::kFine);
  ag::VarPtr p = inputs.poi;
  ag::VarPtr i =
      image_reduce_->Forward(inputs.image, kern::Activation::kRelu);
  if (config_.use_maga) {
    int64_t l = 0;
    for (const auto& layer : maga_) {
      obs::SpanGuard layer_span("maga_layer", obs::SpanLevel::kFine, "layer",
                                l++);
      auto out = layer.Forward(p, i, inputs.ctx);
      p = out.p;
      i = out.i;
    }
  } else {
    for (size_t l = 0; l < gat_p_.size(); ++l) {
      obs::SpanGuard layer_span("maga_layer", obs::SpanLevel::kFine, "layer",
                                static_cast<int64_t>(l));
      p = ag::Relu(gat_p_[l].Forward(p, inputs.ctx));
      i = ag::Relu(gat_i_[l].Forward(i, inputs.ctx));
    }
  }
  return ag::ConcatCols(p, i);
}

Tensor CmsfModel::TrunkRaw(const Tensor& poi, const Tensor& image,
                           const nn::GraphContext& ctx) const {
  Tensor p = poi;
  Tensor i = image_reduce_->ForwardRaw(image, kern::Activation::kRelu);
  if (config_.use_maga) {
    for (const auto& layer : maga_) {
      auto out = layer.ForwardRaw(p, i, ctx);
      p = std::move(out.p);
      i = std::move(out.i);
    }
  } else {
    for (size_t l = 0; l < gat_p_.size(); ++l) {
      p = gat_p_[l].ForwardRaw(p, ctx);
      uv::ReluInPlace(&p);
      i = gat_i_[l].ForwardRaw(i, ctx);
      uv::ReluInPlace(&i);
    }
  }
  return uv::ConcatCols(p, i);
}

CmsfModel::ForwardResult CmsfModel::Forward(
    const CmsfInputs& inputs, const FrozenAssignment* frozen) const {
  obs::SpanGuard span("forward", obs::SpanLevel::kCoarse);
  ForwardResult result;
  ag::VarPtr fused = Trunk(inputs);
  if (config_.use_hierarchy) {
    obs::SpanGuard gscm_span("gscm", obs::SpanLevel::kFine);
    nn::Gscm::Output g =
        frozen != nullptr
            ? gscm_->ForwardFrozen(fused, frozen->soft, frozen->hard)
            : gscm_->Forward(fused);
    result.region_repr = g.region_repr;
    result.assignment = g.assignment;
    result.hard_assignment = std::move(g.hard_assignment);
    result.cluster_repr = g.cluster_repr;
  } else {
    result.region_repr = fused;
  }
  {
    obs::SpanGuard cls_span("classifier", obs::SpanLevel::kFine);
    result.master_logits = classifier_->Forward(result.region_repr);
  }
  return result;
}

ag::VarPtr CmsfModel::SlaveLogits(const ForwardResult& master,
                                  ag::VarPtr* out_inclusion) const {
  obs::SpanGuard span("ms_gate", obs::SpanLevel::kFine);
  UV_CHECK(gate_ != nullptr);
  UV_CHECK(master.cluster_repr != nullptr);
  ag::VarPtr inclusion = gate_->EstimateInclusion(master.cluster_repr);
  if (out_inclusion != nullptr) *out_inclusion = inclusion;
  return gate_->Forward(master.region_repr, master.assignment, inclusion,
                        *classifier_);
}

std::vector<ag::VarPtr> CmsfModel::MasterParams() const {
  std::vector<ag::VarPtr> params = image_reduce_->Params();
  auto absorb = [&params](std::vector<ag::VarPtr> p) {
    params.insert(params.end(), p.begin(), p.end());
  };
  for (const auto& l : maga_) absorb(l.Params());
  for (const auto& l : gat_p_) absorb(l.Params());
  for (const auto& l : gat_i_) absorb(l.Params());
  if (gscm_) absorb(gscm_->Params());
  absorb(classifier_->Params());
  return params;
}

std::vector<ag::VarPtr> CmsfModel::GateParams() const {
  return gate_ ? gate_->Params() : std::vector<ag::VarPtr>{};
}

std::vector<ag::VarPtr> CmsfModel::AllParams() const {
  std::vector<ag::VarPtr> params = MasterParams();
  auto gate = GateParams();
  params.insert(params.end(), gate.begin(), gate.end());
  return params;
}

MasterTrainResult TrainMaster(CmsfModel* model, const BatchGraph& graph,
                              const std::vector<int>& train_ids,
                              const std::vector<int>& train_labels) {
  const CmsfConfig& cfg = model->config();
  ag::AdamOptimizer opt(model->MasterParams(),
                        AdamOptions(cfg, cfg.learning_rate));
  MasterTrainResult result;
  obs::SpanGuard stage_span("train_master", obs::SpanLevel::kCoarse, "epochs",
                            cfg.master_epochs);
  {
    TrainBatches batches(graph, train_ids, train_labels, cfg.pos_weight,
                         Sampling(cfg, cfg.seed));
    static_cast<EpochStats&>(result) = RunEpochs(
        &opt, cfg.master_epochs, cfg.lr_decay_per_epoch, "master",
        batches.num_batches(), [&](int epoch, int b) {
          const Batch& batch = batches.Get(epoch, b);
          const auto fwd = model->Forward(batch.inputs, nullptr);
          return ag::BceWithLogits(
              ag::GatherRows(fwd.master_logits, batch.rows), batch.labels,
              &batch.weights);
        });
  }
  if (cfg.use_hierarchy && (graph.whole != nullptr || cfg.use_gate)) {
    result.frozen = FreezeAssignment(*model, graph, train_ids, train_labels);
  }
  return result;
}

MasterTrainResult TrainMaster(CmsfModel* model, const CmsfInputs& inputs,
                              const std::vector<int>& train_ids,
                              const std::vector<int>& train_labels) {
  return TrainMaster(model, BatchGraph{&inputs, nullptr}, train_ids,
                     train_labels);
}

MasterTrainResult TrainMasterMinibatch(CmsfModel* model,
                                       const urg::UrbanRegionGraph& urg,
                                       const std::vector<int>& train_ids,
                                       const std::vector<int>& train_labels) {
  return TrainMaster(model, BatchGraph{nullptr, &urg}, train_ids,
                     train_labels);
}

SlaveTrainResult TrainSlave(CmsfModel* model, const BatchGraph& graph,
                            const CmsfModel::FrozenAssignment& frozen,
                            const std::vector<int>& train_ids,
                            const std::vector<int>& train_labels) {
  const CmsfConfig& cfg = model->config();
  if (!cfg.use_hierarchy || !cfg.use_gate) return SlaveTrainResult();
  UV_CHECK_EQ(frozen.pseudo_labels.size(),
              static_cast<size_t>(cfg.num_clusters));
  // Gentle fine-tuning stage.
  ag::AdamOptimizer opt(model->AllParams(),
                        AdamOptions(cfg, cfg.learning_rate * 0.1));
  obs::SpanGuard stage_span("train_slave", obs::SpanLevel::kCoarse, "epochs",
                            cfg.slave_epochs);
  TrainBatches batches(graph, train_ids, train_labels, cfg.pos_weight,
                       Sampling(cfg, cfg.seed ^ 0x51a7eull));
  return RunEpochs(
      &opt, cfg.slave_epochs, cfg.lr_decay_per_epoch, "slave",
      batches.num_batches(), [&](int epoch, int b) {
        const Batch& batch = batches.Get(epoch, b);
        CmsfModel::FrozenAssignment slice;
        const CmsfModel::FrozenAssignment* pinned =
            FrozenFor(frozen, batch, &slice);
        const auto fwd = model->Forward(batch.inputs, pinned);
        ag::VarPtr inclusion;
        ag::VarPtr slave_logits = model->SlaveLogits(fwd, &inclusion);
        ag::VarPtr loss =
            ag::BceWithLogits(ag::GatherRows(slave_logits, batch.rows),
                              batch.labels, &batch.weights);
        // PU rank loss between clusters with known UVs (C1) and the rest
        // (C0). A sampled batch ranks only the clusters it populates: the
        // rest have all-zero (empty) cluster representations, so ranking
        // their inclusion scores would only inject noise. Without a
        // rankable pair the rank loss is identically zero.
        std::vector<char> present(cfg.num_clusters, batch.whole_graph());
        if (!batch.whole_graph()) {
          for (int h : pinned->hard) present[h] = 1;
        }
        std::vector<int> positive, unlabeled;
        for (int k = 0; k < cfg.num_clusters; ++k) {
          if (!present[k]) continue;
          (frozen.pseudo_labels[k] == 1 ? positive : unlabeled).push_back(k);
        }
        if (!positive.empty() && !unlabeled.empty()) {
          ag::VarPtr loss_p = ag::PuRankLoss(inclusion, positive, unlabeled);
          loss = ag::Add(
              loss, ag::ScalarMul(loss_p, static_cast<float>(cfg.lambda)));
        }
        return loss;
      });
}

SlaveTrainResult TrainSlave(CmsfModel* model, const CmsfInputs& inputs,
                            const CmsfModel::FrozenAssignment& frozen,
                            const std::vector<int>& train_ids,
                            const std::vector<int>& train_labels) {
  return TrainSlave(model, BatchGraph{&inputs, nullptr}, frozen, train_ids,
                    train_labels);
}

std::vector<float> PredictCmsf(const CmsfModel& model, const BatchGraph& graph,
                               const CmsfModel::FrozenAssignment* frozen,
                               const std::vector<int>& eval_ids) {
  obs::SpanGuard span("inference", obs::SpanLevel::kCoarse);
  const CmsfConfig& cfg = model.config();
  const bool use_slave =
      cfg.use_hierarchy && cfg.use_gate && frozen != nullptr;
  return ExactScores(
      graph, cfg.maga_layers, eval_ids, [&](const Batch& batch) {
        CmsfModel::FrozenAssignment slice;
        const auto fwd = model.Forward(
            batch.inputs,
            use_slave ? FrozenFor(*frozen, batch, &slice) : nullptr);
        return use_slave ? model.SlaveLogits(fwd, nullptr) : fwd.master_logits;
      });
}

std::vector<float> PredictCmsf(const CmsfModel& model,
                               const CmsfInputs& inputs,
                               const CmsfModel::FrozenAssignment* frozen,
                               const std::vector<int>& eval_ids) {
  return PredictCmsf(model, BatchGraph{&inputs, nullptr}, frozen, eval_ids);
}

}  // namespace uv::core
