// Shared types of the end-to-end benchmark (see ../README.md).
//
// A run repeats ROUNDS until its time budget is spent. A round is a full,
// independent repetition of one workload from its seed, in fresh processes:
// build the dataset and stream, bootstrap the engine (and, for dist, fork
// the ranks and connect the mesh), apply untimed warm-up batches, then a
// fixed number of timed batches. Every round therefore does identical work,
// which is what lets the benchmark assert that the exact counters repeat
// bit-for-bit.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/timer.h"
#include "gnn/model.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // scratch space for traces and checkpoints
};

struct Check {
  bool ok = false;
  std::string detail;
};

struct RoundResult {
  bool traced = false;
  double setup_sec = 0;
  // Wall seconds from the first submit of the first timed batch to the
  // commit of the last one.
  double timed_sec = 0;
  std::size_t committed = 0;  // updates committed in the timed phase
  std::size_t attempted = 0;  // updates submitted in the round
  std::size_t failed = 0;     // submitted but not committed
  std::vector<double> latency_ms;  // one per timed batch
  // Counters that depend only on the seed; they must repeat exactly in
  // every round, traced or not.
  std::map<std::string, std::uint64_t> exact;
  // Per-layer figures of a traced round (means per batch or per call).
  std::map<std::string, double> layer;
  std::uint64_t state_hash = 0;  // FNV-1a of the final embeddings
  std::vector<Span> spans;
  double peak_rss_mb = 0;  // of the processes that ran the round
  // Correctness verdict, set by round 0 (and by dist's traced rounds):
  // every other round must reproduce round 0's state_hash, so it passes
  // or fails with round 0.
  Check check;
};

struct RunResult {
  std::vector<RoundResult> rounds;
  std::vector<std::string> track_names;
};

RunResult run_serve_arxiv(const Options& options);
RunResult run_bulk_products(const Options& options);
RunResult run_dist_tcp_drift(const Options& options);

// Runs round(index, traced), each in a fresh forked process, until
// `options.seconds` of wall time have been spent and at least three rounds
// (four when tracing) have run. With tracing on, odd rounds are traced and
// even rounds are not, so the two interleave and the tracing overhead is
// measured under the same conditions.
std::vector<RoundResult> run_rounds(
    const Options& options,
    const std::function<RoundResult(std::size_t, bool)>& round);

// Peak resident set of this process so far, in MiB (getrusage maxrss).
double peak_rss_mb();

// FNV-1a over raw bytes, chained through `h`.
std::uint64_t hash_bytes(const void* data, std::size_t len,
                         std::uint64_t h = 1469598103934665603ull);
// FNV-1a over every embedding layer's bytes, layer by layer.
std::uint64_t hash_store(const ripple::EmbeddingStore& store);

// Runs body() in a forked child and returns the blob it produced; a child
// that throws or dies fails the call with its message. Running each round
// in a fresh process keeps one round's heap from shaping the next round's
// peak resident set. Call only while no other thread is running.
std::vector<std::uint8_t> run_forked(
    const std::function<std::vector<std::uint8_t>()>& body);

std::vector<std::uint8_t> encode_round(const RoundResult& round);
RoundResult decode_round(const std::vector<std::uint8_t>& blob);

// Batch ids shared by all spans of one batch, unique across rounds.
inline std::uint64_t batch_id(std::size_t round, std::size_t batch) {
  return static_cast<std::uint64_t>(round) * 1000000u + batch;
}

}  // namespace perfbench
