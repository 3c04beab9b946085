// Fraud detection on a streaming transaction graph — the paper's motivating
// fintech scenario (§1): accounts are vertices, transactions create edges,
// and account balances are vertex features that change constantly. The
// application is trigger-based: it must learn about label flips (account
// classified as suspicious) immediately after each update batch.
//
// Run:  ./fraud_detection [--accounts=4000] [--updates=2000] [--batch=25]
#include <cstdio>
#include <memory>

#include "common/flags.h"
#include "tensor/kernels.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/ripple_engine.h"
#include "core/serving.h"
#include "gnn/trainer.h"
#include "graph/datasets.h"
#include "stream/generator.h"

using namespace ripple;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  apply_kernel_flag(flags);
  const auto accounts =
      static_cast<std::size_t>(flags.get_int("accounts", 4000));
  const auto updates = static_cast<std::size_t>(flags.get_int("updates", 2000));
  const auto batch_size = static_cast<std::size_t>(flags.get_int("batch", 25));
  set_log_level(log_level::warn);

  // Transaction network: two behavioural communities ("normal", "abnormal")
  // so a trained GNN genuinely separates them. Features model account
  // activity statistics.
  std::printf("building transaction graph (%zu accounts)...\n", accounts);
  auto ds = build_sbm_dataset(accounts, /*classes=*/2, /*feat_dim=*/16,
                              /*avg_in_degree=*/12.0, 6.0, 1.0, 2024);

  // Train a 2-layer GraphConv-sum fraud classifier on the initial snapshot.
  auto config = workload_config(Workload::gc_s, 16, 2, 2, 32);
  auto model = GnnModel::random(config, 1);
  TrainConfig train_config;
  train_config.epochs = 60;
  const auto trained =
      train_full_batch(model, ds.graph, ds.features, ds.labels, train_config);
  std::printf("fraud model trained: test accuracy %.1f%%\n",
              trained.test_accuracy * 100);

  // New transactions arrive as edge additions; balance changes as feature
  // updates; chargebacks as deletions.
  StreamConfig stream_config;
  stream_config.num_updates = updates;
  stream_config.feat_dim = 16;
  stream_config.seed = 99;
  const auto stream = generate_stream(ds.graph, stream_config);

  // Trigger-based serving: the server diffs labels on the rows each batch
  // rewrote at the final hop and calls back on every flip.
  StreamingServer::Options options;
  options.batch_size = batch_size;
  options.adaptive_options.flush_after_sec = 0;  // size-based batches only
  StreamingServer server(
      std::make_unique<RippleEngine>(model, ds.graph, ds.features), options);
  std::size_t flips = 0;
  std::size_t flagged = 0;
  server.set_label_callback(
      [&](VertexId, std::uint32_t, std::uint32_t new_label) {
        ++flips;
        if (new_label == 1) ++flagged;
      });
  for (const auto& update : stream) server.submit(update);
  server.flush();

  const auto& stats = server.stats();
  std::printf(
      "processed %zu updates in %zu batches: %.1f updates/sec\n"
      "label flips observed: %zu (%zu newly flagged accounts)\n"
      "mean batch latency: %.2f ms — fresh predictions after every batch\n",
      stats.updates_processed, stats.batches_processed,
      static_cast<double>(stats.updates_processed) / stats.total_sec, flips,
      flagged,
      stats.total_sec / static_cast<double>(stats.batches_processed) * 1e3);
  return 0;
}
