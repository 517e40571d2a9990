#include "core/train_loop.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "autograd/ops.h"
#include "obs/metrics_log.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace uv::core {
namespace {

// Inputs of the k-hop subgraph around `seeds`: features gathered through
// the URG (feature store at paper scale), context over the subgraph's
// arrays, rows = the seed rows.
Batch SampleBatch(const urg::UrbanRegionGraph& urg,
                  const std::vector<int>& seeds,
                  const urg::MinibatchConfig& cfg) {
  const urg::SampledSubgraph sg =
      urg::SampleKHop(urg::NeighborView(urg), seeds, cfg);
  const urg::SubgraphFeatures features = urg::GatherSubgraphFeatures(urg, sg);
  Batch batch;
  batch.inputs.poi = features.poi;
  batch.inputs.image = features.image;
  batch.inputs.ctx = urg::ContextFromSubgraph(sg);
  batch.nodes = sg.nodes;
  auto rows = std::make_shared<std::vector<int>>(sg.num_seeds);
  std::iota(rows->begin(), rows->end(), 0);
  batch.rows = std::move(rows);
  return batch;
}

Tensor BatchWeights(const std::vector<int>& labels, float pos_weight) {
  Tensor out(static_cast<int>(labels.size()), 1);
  for (size_t i = 0; i < labels.size(); ++i) {
    out.at(static_cast<int>(i), 0) = labels[i] > 0 ? pos_weight : 1.0f;
  }
  return out;
}

}  // namespace

CmsfInputs CmsfInputs::FromUrg(const urg::UrbanRegionGraph& urg) {
  CmsfInputs inputs;
  inputs.poi = ag::MakeConst(urg.poi_features);
  inputs.image = ag::MakeConst(urg.image_features);
  inputs.ctx = nn::GraphContext::FromCsr(urg.adjacency);
  return inputs;
}

TrainBatches::TrainBatches(const BatchGraph& graph,
                           const std::vector<int>& ids,
                           const std::vector<int>& labels, double pos_weight,
                           const urg::MinibatchConfig& sampling)
    : sampling_(sampling) {
  UV_CHECK_EQ(ids.size(), labels.size());
  const Tensor weights = MakeBceWeights(labels, pos_weight);
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] > 0) {
      pos_weight_ = weights.at(static_cast<int>(i), 0);
      break;
    }
  }
  if (graph.whole != nullptr) {
    batch_.inputs = *graph.whole;
    batch_.rows = std::make_shared<const std::vector<int>>(ids);
    batch_.labels = MakeLabelTensor(labels);
    batch_.weights = weights;
    return;
  }
  UV_CHECK(graph.urg != nullptr);
  UV_CHECK_GT(sampling.batch_size, 0);
  UV_CHECK(!ids.empty());
  urg_ = graph.urg;
  const int n = static_cast<int>(ids.size());
  sampling_.batch_size = std::min(sampling.batch_size, n);
  num_batches_ = (n + sampling_.batch_size - 1) / sampling_.batch_size;
  order_.resize(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) order_[i] = {ids[i], labels[i]};
}

const Batch& TrainBatches::Get(int epoch, int batch) {
  if (urg_ == nullptr) return batch_;
  if (epoch != shuffled_epoch_) {
    shuffled_epoch_ = epoch;
    std::sort(order_.begin(), order_.end());
    Rng rng(urg::MixSeed(sampling_.seed ^ 0xba7c4u, epoch));
    rng.Shuffle(&order_);
  }
  const int bs = sampling_.batch_size;
  const int begin = batch * bs;
  const int end = std::min(static_cast<int>(order_.size()), begin + bs);
  std::vector<int> seeds, labels;
  seeds.reserve(end - begin);
  labels.reserve(end - begin);
  for (int i = begin; i < end; ++i) {
    seeds.push_back(order_[i].first);
    labels.push_back(order_[i].second);
  }
  urg::MinibatchConfig cfg = sampling_;
  cfg.seed = urg::MixSeed(sampling_.seed, epoch);
  batch_ = Batch();  // Release the previous batch before sampling the next.
  batch_ = SampleBatch(*urg_, seeds, cfg);
  batch_.labels = MakeLabelTensor(labels);
  batch_.weights = BatchWeights(labels, pos_weight_);
  return batch_;
}

void ForEachExactBatch(
    const BatchGraph& graph, int hops, const std::vector<int>& ids,
    const std::function<void(const Batch& batch, size_t first)>& visit) {
  if (graph.whole != nullptr) {
    Batch batch;
    batch.inputs = *graph.whole;
    batch.rows = std::make_shared<const std::vector<int>>(ids);
    visit(batch, 0);
    return;
  }
  UV_CHECK(graph.urg != nullptr);
  constexpr size_t kChunk = 64;
  urg::MinibatchConfig cfg;
  cfg.fanout = 0;
  cfg.hops = hops;
  for (size_t begin = 0; begin < ids.size(); begin += kChunk) {
    const size_t end = std::min(ids.size(), begin + kChunk);
    const std::vector<int> chunk(ids.begin() + begin, ids.begin() + end);
    visit(SampleBatch(*graph.urg, chunk, cfg), begin);
  }
}

std::vector<float> ExactScores(
    const BatchGraph& graph, int hops, const std::vector<int>& ids,
    const std::function<ag::VarPtr(const Batch& batch)>& logits) {
  std::vector<float> out(ids.size());
  ForEachExactBatch(graph, hops, ids, [&](const Batch& batch, size_t first) {
    const ag::VarPtr z = logits(batch);
    for (size_t i = 0; i < batch.rows->size(); ++i) {
      const float zi = z->value.at((*batch.rows)[i], 0);
      out[first + i] = 1.0f / (1.0f + std::exp(-zi));
    }
  });
  return out;
}

Tensor MakeLabelTensor(const std::vector<int>& labels) {
  Tensor out(static_cast<int>(labels.size()), 1);
  for (size_t i = 0; i < labels.size(); ++i) {
    out.at(static_cast<int>(i), 0) = labels[i] > 0 ? 1.0f : 0.0f;
  }
  return out;
}

Tensor MakeBceWeights(const std::vector<int>& labels, double pos_weight) {
  int num_pos = 0;
  for (int l : labels) num_pos += (l > 0);
  const int num_neg = static_cast<int>(labels.size()) - num_pos;
  double w = pos_weight;
  if (w <= 0.0) {
    w = num_pos > 0 ? static_cast<double>(num_neg) /
                          std::max(1, num_pos)
                    : 1.0;
  }
  return BatchWeights(labels, static_cast<float>(w));
}

EpochStats RunEpochs(
    ag::Optimizer* optimizer, int epochs, double lr_decay_per_epoch,
    const char* stage, int num_batches,
    const std::function<ag::VarPtr(int epoch, int batch)>& loss) {
  UV_CHECK_GT(num_batches, 0);
  EpochStats stats;
  stats.epoch_seconds.reserve(epochs > 0 ? epochs : 0);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    obs::SpanGuard epoch_span("epoch", obs::SpanLevel::kCoarse, "epoch",
                              epoch);
    WallTimer epoch_timer;
    double loss_sum = 0.0;
    double grad_norm = 0.0;
    for (int batch = 0; batch < num_batches; ++batch) {
      optimizer->ZeroGradients();
      const ag::VarPtr step_loss = loss(epoch, batch);
      stats.final_loss = step_loss->value.at(0, 0);
      loss_sum += stats.final_loss;
      ag::Backward(step_loss);
      // Grad norm is an extra pass over every parameter; only pay for it
      // when the metrics log is live (it never feeds back into training).
      if (obs::MetricsLogEnabled()) {
        grad_norm = ag::GlobalGradNorm(optimizer->params());
      }
      optimizer->Step();
    }
    const double lr = optimizer->learning_rate();
    optimizer->DecayLearningRate(lr_decay_per_epoch);
    stats.epoch_seconds.push_back(epoch_timer.Seconds());
    obs::MetricsRecord("epoch")
        .Str("stage", stage)
        .Int("epoch", epoch)
        .Int("batches", num_batches)
        .Num("loss", loss_sum / num_batches)
        .Num("grad_norm", grad_norm)
        .Num("lr", lr)
        .Num("seconds", stats.epoch_seconds.back())
        .Emit();
  }
  if (epochs > 0) {
    stats.seconds_per_epoch =
        std::accumulate(stats.epoch_seconds.begin(),
                        stats.epoch_seconds.end(), 0.0) /
        epochs;
  }
  return stats;
}

}  // namespace uv::core
