// DNC: vertex-wise inference baseline (Fig. 1 center, §2.1).
//
// Every target vertex materializes its own L-hop computation tree and
// recomputes bottom-up. Proximate targets redo overlapping work — the
// redundancy layer-wise inference removes (Fig. 8). Supports the fanout
// sampling of Fig. 2a: sampled neighborhoods are cheaper but give
// non-deterministic, approximate predictions.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "gnn/sampler.h"
#include "infer/engine.h"

namespace ripple {

class VertexWiseEngine : public InferenceEngine {
 public:
  // fanout == 0: exact full-neighborhood inference (deterministic).
  VertexWiseEngine(const GnnModel& model, DynamicGraph snapshot,
                   const Matrix& features, std::size_t fanout = 0,
                   std::uint64_t sampler_seed = 99,
                   ThreadPool* pool = nullptr);

  const char* name() const override { return "DNC"; }
  BatchResult apply_batch(UpdateBatch batch) override;

  const EmbeddingStore& embeddings() const override { return store_; }
  const DynamicGraph& graph() const override { return graph_; }
  const GnnModel& model() const override { return model_; }
  std::size_t memory_bytes() const override;

  // Fig. 2a probe: inference of a single vertex from scratch; returns the
  // final-layer logits and reports the number of (layer, vertex) embeddings
  // materialized in its computation tree.
  std::vector<float> infer_vertex(VertexId v, std::size_t* tree_size = nullptr);

 private:
  // Memoized recursive computation of h^l_v within one target's tree.
  using Memo = std::unordered_map<std::uint64_t, std::vector<float>>;
  const std::vector<float>& compute_embedding(std::size_t l, VertexId v,
                                              Memo& memo);

  GnnModel model_;
  DynamicGraph graph_;
  EmbeddingStore store_;
  std::size_t fanout_;
  NeighborSampler sampler_;
};

}  // namespace ripple
