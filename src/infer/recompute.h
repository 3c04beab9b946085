// RC: the custom layer-wise recompute baseline (§4.2, §6).
//
// Updates are applied to a lightweight edge-list graph (cheap update phase);
// propagation recomputes the embedding of every affected vertex by pulling
// ALL of its in-neighbors' previous-layer embeddings — the wasted work
// Ripple's incremental messages avoid.
#pragma once

#include <vector>

#include "infer/engine.h"

namespace ripple {

class RecomputeEngine : public InferenceEngine {
 public:
  RecomputeEngine(const GnnModel& model, DynamicGraph snapshot,
                  const Matrix& features, ThreadPool* pool = nullptr);

  const char* name() const override { return "RC"; }
  BatchResult apply_batch(UpdateBatch batch) override;

  const EmbeddingStore& embeddings() const override { return store_; }
  const DynamicGraph& graph() const override { return graph_; }
  const GnnModel& model() const override { return model_; }
  std::size_t memory_bytes() const override;

 private:
  GnnModel model_;
  DynamicGraph graph_;
  EmbeddingStore store_;
  std::vector<float> x_scratch_;
};

// Applies a batch's raw changes to graph topology and H^0 through
// apply_updates_seeding (stream/update_apply.h), so the recompute baselines
// share the incremental engines' batch guards.
void apply_updates_to_graph(DynamicGraph& graph, Matrix& features,
                            UpdateBatch batch);

}  // namespace ripple
