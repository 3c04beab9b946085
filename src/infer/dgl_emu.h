// DRC: DGL-emulated layer-wise recompute baseline (§6, Fig. 8).
//
// DGL v1.9 stores graphs in immutable CSR/COO form, so a streaming update
// forces a full structure rebuild; its layer-wise inference additionally
// materializes a message-flow-graph "block" (frontier subgraph) per layer.
// This engine reproduces both mechanisms: the update phase rebuilds the CSR
// from an edge-list mirror on every batch, and the propagate phase copies
// each hop's frontier adjacency into a block before computing. The paper's
// observation — DRC's update phase dominating its batch latency — follows
// directly.
#pragma once

#include <vector>

#include "graph/csr.h"
#include "infer/engine.h"

namespace ripple {

class DglEmuEngine : public InferenceEngine {
 public:
  DglEmuEngine(const GnnModel& model, DynamicGraph snapshot,
               const Matrix& features, ThreadPool* pool = nullptr);

  const char* name() const override { return "DRC"; }
  BatchResult apply_batch(UpdateBatch batch) override;

  const EmbeddingStore& embeddings() const override { return store_; }
  const DynamicGraph& graph() const override { return mirror_; }
  const GnnModel& model() const override { return model_; }
  std::size_t memory_bytes() const override;

 private:
  GnnModel model_;
  DynamicGraph mirror_;  // edge-list mirror used to regenerate the CSR
  Csr csr_;
  EmbeddingStore store_;
};

}  // namespace ripple
