#include "baselines/imgagn_baseline.h"

#include <algorithm>
#include <cmath>

#include "autograd/ops.h"
#include "core/train_loop.h"
#include "obs/metrics_log.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/timer.h"

namespace uv::baselines {

namespace {
constexpr int kHidden = 64;
constexpr int kNoiseDim = 32;
constexpr int kLinksPerFake = 5;  // Fake nodes link to their top-5 weights.

// Extracts the (src, dst) edge list of a CSR graph, self loops included.
std::vector<graph::Edge> EdgeList(const graph::CsrGraph& g) {
  std::vector<graph::Edge> edges;
  edges.reserve(g.num_edges());
  const auto& off = *g.offsets();
  const auto& src = *g.neighbors();
  for (int i = 0; i < g.num_nodes(); ++i) {
    for (int e = off[i]; e < off[i + 1]; ++e) edges.emplace_back(src[e], i);
  }
  return edges;
}

}  // namespace

void ImGagnBaseline::Train(const urg::UrbanRegionGraph& urg,
                           const std::vector<int>& train_ids,
                           const std::vector<int>& train_labels) {
  Rng rng(options_.seed);
  const int n = urg.num_regions();
  features_ = ConcatCols(urg.poi_features, urg.image_features);
  const int d = features_.cols();

  // Minority (UV) training nodes the generator imitates.
  std::vector<int> minority;
  for (size_t i = 0; i < train_ids.size(); ++i) {
    if (train_labels[i] == 1) minority.push_back(train_ids[i]);
  }
  const int m = static_cast<int>(minority.size());
  UV_CHECK_GT(m, 0);
  const int num_fake = m;  // lambda1 = 1.0.

  gen1_ = std::make_unique<nn::Linear>(kNoiseDim, kHidden, &rng);
  gen2_ = std::make_unique<nn::Linear>(kHidden, kHidden, &rng);
  gen3_ = std::make_unique<nn::Linear>(kHidden, m, &rng);
  disc_g1_ = std::make_unique<nn::GcnLayer>(d, kHidden, &rng);
  disc_g2_ = std::make_unique<nn::GcnLayer>(kHidden, kHidden, &rng);
  head_uv_ = std::make_unique<nn::Linear>(kHidden, 1, &rng);
  head_fake_ = std::make_unique<nn::Linear>(kHidden, 1, &rng);

  std::vector<ag::VarPtr> gen_params;
  std::vector<ag::VarPtr> disc_params;
  auto add = [](std::vector<ag::VarPtr>* dst, std::vector<ag::VarPtr> p) {
    dst->insert(dst->end(), p.begin(), p.end());
  };
  add(&gen_params, gen1_->Params());
  add(&gen_params, gen2_->Params());
  add(&gen_params, gen3_->Params());
  add(&disc_params, disc_g1_->Params());
  add(&disc_params, disc_g2_->Params());
  add(&disc_params, head_uv_->Params());
  add(&disc_params, head_fake_->Params());

  ag::AdamOptimizer::Options aopt;
  aopt.learning_rate = options_.learning_rate;
  aopt.clip_norm = options_.clip_norm;
  ag::AdamOptimizer opt_gen(gen_params, aopt);
  ag::AdamOptimizer opt_disc(disc_params, aopt);

  const std::vector<graph::Edge> base_edges = EdgeList(urg.adjacency);
  const ag::VarPtr real_features = ag::MakeConst(features_);
  const Tensor minority_features = GatherRows(features_, minority);

  // Generator forward: softmax weights over minority nodes -> fake features.
  auto generate = [&](Rng* noise_rng) {
    Tensor z(num_fake, kNoiseDim);
    z.RandomNormal(noise_rng, 1.0f);
    ag::VarPtr w = ag::RowSoftmax(
        gen3_->Forward(gen2_->Forward(
            gen1_->Forward(ag::MakeConst(z), kern::Activation::kRelu),
            kern::Activation::kRelu)),
        1.0f);
    ag::VarPtr fake = ag::MatMul(w, ag::MakeConst(minority_features));
    return std::make_pair(w, fake);
  };

  // Builds the augmented graph context from current fake->minority links.
  auto build_ctx = [&](const Tensor& weights) {
    std::vector<graph::Edge> edges = base_edges;
    for (int f = 0; f < num_fake; ++f) {
      // Top-k linked minority nodes per fake node.
      std::vector<int> order(m);
      for (int j = 0; j < m; ++j) order[j] = j;
      const int k = std::min(kLinksPerFake, m);
      std::partial_sort(order.begin(), order.begin() + k, order.end(),
                        [&](int a, int b) {
                          return weights.at(f, a) > weights.at(f, b);
                        });
      for (int j = 0; j < k; ++j) {
        edges.emplace_back(n + f, minority[order[j]]);
        edges.emplace_back(minority[order[j]], n + f);
      }
      edges.emplace_back(n + f, n + f);
    }
    return nn::GraphContext::FromCsr(graph::CsrGraph::FromEdges(
        n + num_fake, edges, /*symmetrize=*/false, /*add_self_loops=*/false));
  };

  // Discriminator forward on the augmented graph.
  auto discriminate = [&](const ag::VarPtr& fake_feats,
                          const nn::GraphContext& ctx) {
    ag::VarPtr x = ag::ConcatRows(real_features, fake_feats);
    x = ag::Relu(disc_g1_->Forward(x, ctx));
    x = ag::Relu(disc_g2_->Forward(x, ctx));
    return std::make_pair(head_uv_->Forward(x), head_fake_->Forward(x));
  };

  // Supervision tensors. UV head: labeled train nodes with their labels,
  // fake nodes counted as UVs. Fake head: labeled real nodes 0, fakes 1.
  auto uv_ids = std::make_shared<std::vector<int>>(train_ids);
  std::vector<int> uv_labels = train_labels;
  for (int f = 0; f < num_fake; ++f) {
    uv_ids->push_back(n + f);
    uv_labels.push_back(1);
  }
  const Tensor uv_label_tensor = core::MakeLabelTensor(uv_labels);
  const Tensor uv_weights =
      core::MakeBceWeights(uv_labels, options_.pos_weight);

  auto fake_ids = std::make_shared<std::vector<int>>();
  std::vector<int> fake_labels;
  for (int id : train_ids) {
    fake_ids->push_back(id);
    fake_labels.push_back(0);
  }
  for (int f = 0; f < num_fake; ++f) {
    fake_ids->push_back(n + f);
    fake_labels.push_back(1);
  }
  const Tensor fake_label_tensor = core::MakeLabelTensor(fake_labels);
  // Generator wants fakes classified as real (label 0 on fake rows).
  auto gen_target_ids = std::make_shared<std::vector<int>>();
  for (int f = 0; f < num_fake; ++f) gen_target_ids->push_back(n + f);
  Tensor gen_targets(num_fake, 1);  // All zeros = "real".

  const int outer = std::max(10, options_.epochs / 2);
  epoch_history_.clear();
  epoch_history_.reserve(outer);
  double gan_loss = 0.0;
  for (int epoch = 0; epoch < outer; ++epoch) {
    obs::SpanGuard epoch_span("epoch", obs::SpanLevel::kCoarse, "epoch",
                              epoch);
    WallTimer epoch_timer;
    // --- Discriminator step (fake features detached). ---
    auto [w_var, fake_var] = generate(&rng);
    const nn::GraphContext ctx = build_ctx(w_var->value);
    {
      ag::ZeroGrads(disc_params);
      ag::VarPtr detached = ag::MakeConst(fake_var->value);
      auto [uv_logits, fake_logits] = discriminate(detached, ctx);
      ag::VarPtr loss = ag::Add(
          ag::BceWithLogits(ag::GatherRows(uv_logits, uv_ids),
                            uv_label_tensor, &uv_weights),
          ag::BceWithLogits(ag::GatherRows(fake_logits, fake_ids),
                            fake_label_tensor, nullptr));
      gan_loss = loss->value.at(0, 0);
      ag::Backward(loss);
      opt_disc.Step();
    }
    // --- Generator step (discriminator gradients discarded). ---
    {
      ag::ZeroGrads(gen_params);
      ag::ZeroGrads(disc_params);
      auto [w2, fake2] = generate(&rng);
      auto [uv_logits, fake_logits] = discriminate(fake2, ctx);
      (void)uv_logits;
      ag::VarPtr loss = ag::BceWithLogits(
          ag::GatherRows(fake_logits, gen_target_ids), gen_targets, nullptr);
      ag::Backward(loss);
      opt_gen.Step();
    }
    opt_disc.DecayLearningRate(options_.lr_decay_per_epoch);
    opt_gen.DecayLearningRate(options_.lr_decay_per_epoch);
    epoch_history_.push_back(epoch_timer.Seconds());
    obs::MetricsRecord("epoch")
        .Str("stage", "ImGAGN")
        .Int("epoch", epoch)
        .Num("loss", gan_loss)
        .Num("seconds", epoch_history_.back())
        .Emit();
  }
  double total = 0.0;
  for (const double s : epoch_history_) total += s;
  epoch_seconds_ = total / outer;

  // Final scores from the UV head on the *original* graph (no fakes).
  {
    const nn::GraphContext plain_ctx =
        nn::GraphContext::FromCsr(urg.adjacency);
    ag::VarPtr x = ag::Relu(disc_g1_->Forward(real_features, plain_ctx));
    x = ag::Relu(disc_g2_->Forward(x, plain_ctx));
    ag::VarPtr logits = head_uv_->Forward(x);
    scores_all_.resize(n);
    for (int i = 0; i < n; ++i) {
      scores_all_[i] = 1.0f / (1.0f + std::exp(-logits->value.at(i, 0)));
    }
  }
}

std::vector<float> ImGagnBaseline::Score(const urg::UrbanRegionGraph& urg,
                                         const std::vector<int>& eval_ids) {
  (void)urg;
  WallTimer timer;
  std::vector<float> out(eval_ids.size());
  for (size_t i = 0; i < eval_ids.size(); ++i) {
    out[i] = scores_all_[eval_ids[i]];
  }
  inference_seconds_ = timer.Seconds();
  return out;
}

int64_t ImGagnBaseline::NumParameters() const {
  if (!gen1_) return 0;
  std::vector<ag::VarPtr> params;
  auto add = [&params](std::vector<ag::VarPtr> p) {
    params.insert(params.end(), p.begin(), p.end());
  };
  add(gen1_->Params());
  add(gen2_->Params());
  add(gen3_->Params());
  add(disc_g1_->Params());
  add(disc_g2_->Params());
  add(head_uv_->Params());
  add(head_fake_->Params());
  return CountParams(params);
}

}  // namespace uv::baselines
