#ifndef UV_CORE_CMSF_MODEL_H_
#define UV_CORE_CMSF_MODEL_H_

#include <memory>
#include <vector>

#include "core/cmsf_config.h"
#include "core/train_loop.h"
#include "nn/gat.h"
#include "nn/graph_context.h"
#include "nn/gscm.h"
#include "nn/linear.h"
#include "nn/ms_gate.h"
#include "urg/urban_region_graph.h"

namespace uv::core {

// The Contextual Master-Slave Framework (paper Section V): a hierarchical
// GNN master model (MAGA + GSCM + MLP classifier) trained in stage one, and
// the MS-Gate slave derivation trained in stage two.
class CmsfModel {
 public:
  CmsfModel(const CmsfConfig& config, int poi_dim, int image_dim, Rng* rng);

  struct ForwardResult {
    ag::VarPtr region_repr;   // x~' fed to the classifier.
    ag::VarPtr master_logits; // (N x 1) master-model logits.
    ag::VarPtr assignment;    // Soft B (null when hierarchy disabled).
    std::vector<int> hard_assignment;
    ag::VarPtr cluster_repr;  // H' (null when hierarchy disabled).
  };

  // Full forward pass of the master path. When `frozen` is non-null the
  // GSCM membership is pinned to the given stage-one assignment (slave
  // stage semantics).
  struct FrozenAssignment {
    Tensor soft;             // B at the end of master training.
    std::vector<int> hard;   // B~ (argmax) at the end of master training.
    std::vector<int> pseudo_labels;  // Cluster pseudo labels y^h (eq. 16).
  };
  ForwardResult Forward(const CmsfInputs& inputs,
                        const FrozenAssignment* frozen) const;

  // Slave-path logits (eq. 22) given a master forward result; requires the
  // hierarchy and gate to be enabled.
  ag::VarPtr SlaveLogits(const ForwardResult& master,
                         ag::VarPtr* out_inclusion) const;

  // Parameter sets: theta_1 (master) and theta_2 \ theta_1 (gate + pseudo
  // predictor), mirroring Algorithms 1 and 2.
  std::vector<ag::VarPtr> MasterParams() const;
  std::vector<ag::VarPtr> GateParams() const;
  std::vector<ag::VarPtr> AllParams() const;

  const CmsfConfig& config() const { return config_; }
  const nn::Mlp& classifier() const { return *classifier_; }
  const nn::MsGate& gate() const { return *gate_; }
  const nn::Gscm* gscm() const { return gscm_.get(); }
  int gscm_in_dim() const { return gscm_in_dim_; }
  int classifier_in() const { return classifier_in_; }

  // Grad-free trunk forward on raw tensors, bit-identical to Trunk's value
  // (the fused x^ entering GSCM). Used by the inference engine; builds no
  // autograd graph and emits no spans.
  Tensor TrunkRaw(const Tensor& poi, const Tensor& image,
                  const nn::GraphContext& ctx) const;

 private:
  // Representation trunk shared by all variants: returns x^ (the fused
  // multi-modal representation entering GSCM).
  ag::VarPtr Trunk(const CmsfInputs& inputs) const;

  CmsfConfig config_;
  int gscm_in_dim_ = 0;      // Width of x^.
  int classifier_in_ = 0;    // Width of x~'.

  std::unique_ptr<nn::Linear> image_reduce_;
  std::vector<nn::MagaLayer> maga_;
  // CMSF-M replacement trunk: per-modality vanilla GAT stacks.
  std::vector<nn::GatLayer> gat_p_;
  std::vector<nn::GatLayer> gat_i_;
  std::unique_ptr<nn::Gscm> gscm_;
  std::unique_ptr<nn::Mlp> classifier_;
  std::unique_ptr<nn::MsGate> gate_;
};

// Stage-one training (Algorithm 1): optimizes the master model with BCE on
// the labeled training regions of each batch of `graph`, then freezes the
// assignment and derives the pseudo labels stage two uses. The freeze is an
// exact forward over every region: always on the whole graph (one forward),
// and on a sampled graph only when the gate consumes it, since the sweep
// touches every region.
struct MasterTrainResult : EpochStats {
  CmsfModel::FrozenAssignment frozen;
};
MasterTrainResult TrainMaster(CmsfModel* model, const BatchGraph& graph,
                              const std::vector<int>& train_ids,
                              const std::vector<int>& train_labels);
// Whole-graph stage one over resident inputs.
MasterTrainResult TrainMaster(CmsfModel* model, const CmsfInputs& inputs,
                              const std::vector<int>& train_ids,
                              const std::vector<int>& train_labels);
// Sampled stage one (CmsfConfig::batch_size > 0): every step samples the
// k-hop neighborhood of a train-id batch and gathers its features through
// the URG (feature store at paper scale).
MasterTrainResult TrainMasterMinibatch(CmsfModel* model,
                                       const urg::UrbanRegionGraph& urg,
                                       const std::vector<int>& train_ids,
                                       const std::vector<int>& train_labels);

// Stage-two training (Algorithm 2): optimizes theta_2 with the joint loss
// L'_c + lambda * L_p, the GSCM membership pinned to the frozen assignment.
// A sampled batch pins its subgraph nodes' frozen rows, so cluster
// representations (and the PU rank loss on their inclusion scores)
// aggregate over the batch's regions only: the minibatch approximation of
// eq. 10/18. No-op when the gate is disabled.
using SlaveTrainResult = EpochStats;
SlaveTrainResult TrainSlave(CmsfModel* model, const BatchGraph& graph,
                            const CmsfModel::FrozenAssignment& frozen,
                            const std::vector<int>& train_ids,
                            const std::vector<int>& train_labels);
SlaveTrainResult TrainSlave(CmsfModel* model, const CmsfInputs& inputs,
                            const CmsfModel::FrozenAssignment& frozen,
                            const std::vector<int>& train_ids,
                            const std::vector<int>& train_labels);

// Inference (Section V-C): probabilities for eval_ids using the slave path
// when enabled, the master path otherwise. Exact on either kind of graph
// (ForEachExactBatch); a sampled chunk's slave path reads the chunk's
// frozen membership rows.
std::vector<float> PredictCmsf(const CmsfModel& model, const BatchGraph& graph,
                               const CmsfModel::FrozenAssignment* frozen,
                               const std::vector<int>& eval_ids);
std::vector<float> PredictCmsf(const CmsfModel& model,
                               const CmsfInputs& inputs,
                               const CmsfModel::FrozenAssignment* frozen,
                               const std::vector<int>& eval_ids);

}  // namespace uv::core

#endif  // UV_CORE_CMSF_MODEL_H_
