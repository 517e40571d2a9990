#include "baselines/common.h"

#include <algorithm>
#include <cmath>

#include "autograd/ops.h"
#include "util/check.h"

namespace uv::baselines {

core::EpochStats TrainGraphBce(ag::Optimizer* optimizer,
                               const TrainOptions& options,
                               const urg::UrbanRegionGraph& urg,
                               const std::vector<int>& train_ids,
                               const std::vector<int>& train_labels,
                               const char* stage, const GraphForward& forward,
                               std::optional<core::CmsfInputs>* whole) {
  whole->reset();
  if (options.batch_size <= 0) *whole = core::CmsfInputs::FromUrg(urg);
  urg::MinibatchConfig sampling;
  sampling.batch_size = options.batch_size;
  sampling.fanout = options.fanout;
  sampling.seed = options.seed;
  core::TrainBatches batches(
      core::BatchGraph{*whole ? &**whole : nullptr, &urg}, train_ids,
      train_labels, options.pos_weight, sampling);
  return core::RunEpochs(
      optimizer, options.epochs, options.lr_decay_per_epoch, stage,
      batches.num_batches(), [&](int epoch, int b) {
        const core::Batch& batch = batches.Get(epoch, b);
        return ag::BceWithLogits(
            ag::GatherRows(forward(batch.inputs), batch.rows), batch.labels,
            &batch.weights);
      });
}

std::vector<float> ScoreGraph(const urg::UrbanRegionGraph& urg,
                              const std::optional<core::CmsfInputs>& whole,
                              const std::vector<int>& eval_ids,
                              const GraphForward& forward) {
  return core::ExactScores(
      core::BatchGraph{whole ? &*whole : nullptr, &urg}, /*hops=*/2,
      eval_ids,
      [&](const core::Batch& batch) { return forward(batch.inputs); });
}

ag::VarPtr GatherConstRows(const Tensor& features,
                           const std::vector<int>& ids) {
  Tensor out(static_cast<int>(ids.size()), features.cols());
  for (size_t i = 0; i < ids.size(); ++i) {
    const int src = ids[i];
    UV_CHECK_GE(src, 0);
    UV_CHECK_LT(src, features.rows());
    std::copy(features.row(src), features.row(src) + features.cols(),
              out.row(static_cast<int>(i)));
  }
  return ag::MakeConst(std::move(out));
}

std::vector<float> SigmoidRows(const Tensor& logits,
                               const std::vector<int>& ids) {
  std::vector<float> out(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const float z = logits.at(ids[i], 0);
    out[i] = 1.0f / (1.0f + std::exp(-z));
  }
  return out;
}

int64_t CountParams(const std::vector<ag::VarPtr>& params) {
  int64_t total = 0;
  for (const auto& p : params) total += p->value.size();
  return total;
}

}  // namespace uv::baselines
