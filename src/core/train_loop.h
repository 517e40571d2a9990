#ifndef UV_CORE_TRAIN_LOOP_H_
#define UV_CORE_TRAIN_LOOP_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "autograd/optimizer.h"
#include "autograd/variable.h"
#include "nn/graph_context.h"
#include "tensor/tensor.h"
#include "urg/neighbor_sampler.h"
#include "urg/urban_region_graph.h"

namespace uv::core {

// Constant model inputs over a set of regions: the two feature modalities
// and the edge-index structures of the graph over them.
struct CmsfInputs {
  ag::VarPtr poi;    // (N x d_poi) constant.
  ag::VarPtr image;  // (N x d_img) constant.
  nn::GraphContext ctx;

  static CmsfInputs FromUrg(const urg::UrbanRegionGraph& urg);
};

// The graph a model trains and scores on. With `whole` set, every batch is
// the resident whole-graph inputs. Otherwise batches are k-hop subgraphs
// sampled from `urg`; this is the batch_size > 0 path, which never
// materializes whole-graph inputs.
struct BatchGraph {
  const CmsfInputs* whole = nullptr;
  const urg::UrbanRegionGraph* urg = nullptr;
};

// One batch: model inputs plus the rows of its forward output that belong
// to the batch's ids, in the caller's id order.
struct Batch {
  CmsfInputs inputs;
  // Global region id of each input row; empty for the whole graph, whose
  // row i is region i.
  std::vector<int> nodes;
  // Forward-output rows of the batch's ids: the ids themselves on the
  // whole graph, the seed rows [0, #ids) of a sampled subgraph.
  std::shared_ptr<const std::vector<int>> rows;
  Tensor labels;   // (#rows x 1) targets; training batches only.
  Tensor weights;  // (#rows x 1) BCE weights; training batches only.

  bool whole_graph() const { return nodes.empty(); }
};

// The training batches of one stage over (ids, labels). The BCE positive
// weight is resolved once from the whole training set, so the loss never
// depends on batch composition.
//   Whole graph: one batch per epoch, built once, so an epoch does no
//     sampling work.
//   Sampled: each epoch reshuffles the (id, label) pairs from ascending
//     order with Rng(MixSeed(sampling.seed ^ 0xba7c4, epoch)), cuts them
//     into batches of sampling.batch_size seeds, and samples each batch's
//     sampling.hops-hop subgraph with seed MixSeed(sampling.seed, epoch).
//     The order depends only on (seed, epoch), never on earlier epochs.
class TrainBatches {
 public:
  TrainBatches(const BatchGraph& graph, const std::vector<int>& ids,
               const std::vector<int>& labels, double pos_weight,
               const urg::MinibatchConfig& sampling);

  int num_batches() const { return num_batches_; }

  // Batch `batch` of `epoch`; valid until the next call.
  const Batch& Get(int epoch, int batch);

 private:
  const urg::UrbanRegionGraph* urg_ = nullptr;  // Null on the whole graph.
  urg::MinibatchConfig sampling_;
  float pos_weight_ = 1.0f;
  int num_batches_ = 1;
  std::vector<std::pair<int, int>> order_;  // (id, label), sampled only.
  int shuffled_epoch_ = -1;
  Batch batch_;
};

// The exact forward shared by scoring and the end-of-stage-one freeze:
// calls visit(batch, first) for batches whose rows hold ids[first, first +
// rows->size()), covering `ids` in order. The whole graph is one batch.
// Otherwise ids are cut into chunks of 64 whose `hops`-hop closures keep
// every in-neighbor (fanout 0), so their seed rows equal the whole-graph
// forward bit for bit while memory stays O(chunk * deg^hops).
void ForEachExactBatch(
    const BatchGraph& graph, int hops, const std::vector<int>& ids,
    const std::function<void(const Batch& batch, size_t first)>& visit);

// Probabilities sigmoid(z) of `ids` through ForEachExactBatch, z read from
// the forward-output rows of each batch: logits(batch) returns the batch's
// (#input rows x 1) logits.
std::vector<float> ExactScores(
    const BatchGraph& graph, int hops, const std::vector<int>& ids,
    const std::function<ag::VarPtr(const Batch& batch)>& logits);

// Labels as an (n x 1) float tensor.
Tensor MakeLabelTensor(const std::vector<int>& labels);
// Per-sample BCE weights: `pos_weight` on positives, or num_neg/num_pos
// when pos_weight <= 0; 1 on negatives. Shared by CMSF and every baseline
// so class balancing is uniform across methods.
Tensor MakeBceWeights(const std::vector<int>& labels, double pos_weight);

// Wall time and loss of a training run.
struct EpochStats {
  double seconds_per_epoch = 0.0;
  double final_loss = 0.0;  // Loss of the last step.
  // Monotonic wall time of every epoch, in order; seconds_per_epoch is
  // their mean. Kept per epoch so callers can report p50/p95.
  std::vector<double> epoch_seconds;
};

// The epoch loop every trainer shares: each epoch runs `num_batches` steps
// of zero grads -> loss(epoch, batch) -> backward -> step, then decays the
// learning rate once, so the schedule does not depend on the batch count.
// Each epoch is traced as an "epoch" span and, when a UV_METRICS log is
// live, emitted as an "epoch" JSONL record tagged `stage` with the batch
// count, the mean batch loss, the last step's grad norm, the learning rate
// the epoch used and its wall time.
EpochStats RunEpochs(
    ag::Optimizer* optimizer, int epochs, double lr_decay_per_epoch,
    const char* stage, int num_batches,
    const std::function<ag::VarPtr(int epoch, int batch)>& loss);

}  // namespace uv::core

#endif  // UV_CORE_TRAIN_LOOP_H_
