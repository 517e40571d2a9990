#ifndef UV_BASELINES_GRAPH_BASELINE_H_
#define UV_BASELINES_GRAPH_BASELINE_H_

#include <memory>

#include "baselines/common.h"
#include "infer/engine.h"

namespace uv::baselines {

// GCN and GAT baselines (paper Appendix I-A): image features linearly
// reduced, one 2-layer GNN per modality on the URG (GCN layers, or 2-head
// GAT layers), linear multi-modal fusion, logistic head. Full-graph
// training by default; TrainOptions::batch_size > 0 switches to
// neighborhood-sampled minibatches (required for sharded URGs, which have
// no global adjacency to forward over).
class GraphBaseline : public eval::Detector {
 public:
  // Grad-free inference engine over this trained model (full-graph
  // semantics): precomputes the fused trunk features once, then serves the
  // dense fuse+head tail per request, bit-identical to full-graph Score.
  virtual std::unique_ptr<infer::Engine> MakeEngine(
      const urg::UrbanRegionGraph& urg) const = 0;
};

// Named "GCN" / "GAT" (the registry names and training-stage tags).
std::unique_ptr<GraphBaseline> MakeGcnBaseline(const TrainOptions& options);
std::unique_ptr<GraphBaseline> MakeGatBaseline(const TrainOptions& options);

}  // namespace uv::baselines

#endif  // UV_BASELINES_GRAPH_BASELINE_H_
