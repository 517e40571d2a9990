#ifndef UV_BASELINES_COMMON_H_
#define UV_BASELINES_COMMON_H_

#include <functional>
#include <optional>
#include <vector>

#include "autograd/optimizer.h"
#include "autograd/variable.h"
#include "core/train_loop.h"
#include "eval/detector.h"
#include "tensor/tensor.h"
#include "urg/urban_region_graph.h"

namespace uv::baselines {

// Hyper-parameters shared by every baseline (Section VI-A: Adam, initial
// learning rate 1e-4, hidden size 64; we default to the same faster rate as
// CmsfConfig for single-core budgets).
struct TrainOptions {
  int epochs = 120;
  double learning_rate = 2e-3;
  double lr_decay_per_epoch = 0.999;
  double pos_weight = 0.0;  // 0 = auto class balancing (num_neg/num_pos).
  double clip_norm = 5.0;
  uint64_t seed = 1;
  // Neighborhood-sampled minibatch training (paper-scale cities): > 0
  // switches the graph baselines to per-batch k-hop subgraphs of
  // O(batch_size * fanout^hops) nodes instead of a full-graph forward.
  int batch_size = 0;
  int fanout = 16;  // Sampled in-neighbors per node; 0 keeps them all.
};

// A two-modality graph forward over any batch's inputs (the whole graph or
// a sampled subgraph): returns per-row logits. GCN and GAT share it.
using GraphForward = std::function<ag::VarPtr(const core::CmsfInputs&)>;

// Trains `forward` with weighted BCE on each batch's training rows through
// the shared epoch driver. Batches are the whole graph, whose inputs are
// kept in *whole for scoring, or 2-hop samples when options.batch_size > 0
// (required for sharded URGs, which have no global adjacency).
core::EpochStats TrainGraphBce(ag::Optimizer* optimizer,
                               const TrainOptions& options,
                               const urg::UrbanRegionGraph& urg,
                               const std::vector<int>& train_ids,
                               const std::vector<int>& train_labels,
                               const char* stage, const GraphForward& forward,
                               std::optional<core::CmsfInputs>* whole);

// Exact scores of eval_ids (core::ExactScores): over `whole` when kept,
// else over fanout-0 2-hop chunks of `urg`.
std::vector<float> ScoreGraph(const urg::UrbanRegionGraph& urg,
                              const std::optional<core::CmsfInputs>& whole,
                              const std::vector<int>& eval_ids,
                              const GraphForward& forward);

// Copies the given rows of a feature matrix into a constant variable.
ag::VarPtr GatherConstRows(const Tensor& features,
                           const std::vector<int>& ids);

// Sigmoid over the given rows of a logit column (N x 1).
std::vector<float> SigmoidRows(const Tensor& logits,
                               const std::vector<int>& ids);

// Total scalar parameter count.
int64_t CountParams(const std::vector<ag::VarPtr>& params);

}  // namespace uv::baselines

#endif  // UV_BASELINES_COMMON_H_
