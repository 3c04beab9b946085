// Transport conformance suite (src/dist/tcp_transport.h):
//  1. Wire-format round trips: payload/opaque/barrier frames survive
//     encode → (arbitrarily chunked) decode exactly, including NaN and
//     denormal floats — the frames ARE the bits.
//  2. Sim-vs-TCP conformance: for both engines, across num_parts {1, 2, 4}
//     × pool on/off, a fork-based loopback cluster produces owned
//     embedding rows BIT-IDENTICAL to the single-machine engines and to
//     the SimTransport run; the per-rank egress counters SUM to sim's
//     global wire_bytes / wire_messages (owner routing counts each
//     transfer once, at its source); the leader's collective
//     gather_embeddings() reassembles the full table bit-exactly over
//     real sockets; and every rank reports measured (comm_measured)
//     timing.
//  3. RIPPLE_TRANSPORT=tcp additionally routes the multi-workload
//     exactness property over loopback ranks (ci.sh's dedicated tcp pass;
//     skipped otherwise to keep the default dist tier fast).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "../test_util.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/thread_pool.h"
#include "core/ripple_engine.h"
#include "dist/dist_engine.h"
#include "dist/loopback.h"
#include "dist/tcp_transport.h"
#include "dist/wire_format.h"
#include "infer/recompute.h"
#include "stream/generator.h"
#include "tensor/precision.h"

namespace ripple {
namespace {

// ---------------------------------------------------------------- framing

TEST(WireFormat, PayloadRoundTripIsBitExact) {
  const std::vector<float> row = {1.0f, -0.0f, std::nanf("0x5f3759df"),
                                  std::numeric_limits<float>::denorm_min(),
                                  -std::numeric_limits<float>::infinity()};
  std::vector<std::uint8_t> buf;
  wire::append_payload_frame(buf, /*sender=*/41, /*src_part=*/3, row);
  wire::FrameDecoder decoder;
  decoder.feed(buf);
  wire::Frame frame;
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.type, wire::FrameType::payload);
  EXPECT_EQ(frame.sender, 41u);
  EXPECT_EQ(frame.src_part, 3u);
  ASSERT_EQ(frame.row.size(), row.size());
  // Bit comparison, not value comparison: NaN != NaN but its bits match.
  EXPECT_EQ(std::memcmp(frame.row.data(), row.data(),
                        row.size() * sizeof(float)),
            0);
  EXPECT_FALSE(decoder.next(frame));
}

TEST(WireFormat, MixedFramesSurviveOneByteChunks) {
  std::vector<std::uint8_t> buf;
  wire::append_opaque_frame(buf, 1, 2, 4096, 7);
  wire::append_payload_frame(buf, 9, 1, std::vector<float>{2.5f});
  wire::append_barrier_frame(buf, 2, 12);
  wire::append_payload_frame(buf, 10, 0, {});  // empty row is legal

  wire::FrameDecoder decoder;
  std::vector<wire::Frame> frames;
  wire::Frame frame;
  for (const std::uint8_t byte : buf) {  // worst-case fragmentation
    decoder.feed(std::span<const std::uint8_t>(&byte, 1));
    while (decoder.next(frame)) frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].type, wire::FrameType::opaque);
  EXPECT_EQ(frames[0].src_part, 1u);
  EXPECT_EQ(frames[0].dst_part, 2u);
  EXPECT_EQ(frames[0].payload_bytes, 4096u);
  EXPECT_EQ(frames[0].num_messages, 7u);
  EXPECT_EQ(frames[1].type, wire::FrameType::payload);
  EXPECT_EQ(frames[1].sender, 9u);
  ASSERT_EQ(frames[1].row.size(), 1u);
  EXPECT_EQ(frames[1].row[0], 2.5f);
  EXPECT_EQ(frames[2].type, wire::FrameType::barrier);
  EXPECT_EQ(frames[2].src_part, 2u);
  EXPECT_EQ(frames[2].superstep, 12u);
  EXPECT_EQ(frames[3].type, wire::FrameType::payload);
  EXPECT_EQ(frames[3].row.size(), 0u);
}

TEST(WireFormat, Bf16PayloadRoundTripIsExactOnPreRoundedRows) {
  // The transport rounds rows to bf16 BEFORE framing, so the values the
  // encoder sees always narrow losslessly: the decoded row must be
  // bit-identical to the pre-rounded input, NaN included (the quiet bit
  // is already set on a rounded NaN, so re-narrowing is a fixed point).
  std::vector<float> row = {1.0f, -0.0f, std::nanf("1"), 0.33333f,
                            -2.5f, std::numeric_limits<float>::infinity()};
  for (auto& v : row) v = bf16_round(v);
  std::vector<std::uint8_t> buf;
  wire::append_payload_frame_bf16(buf, /*sender=*/17, /*src_part=*/1, row);
  // [u32 len][u8 type][3 x u32][n x u16]: half the f32 frame's row bytes.
  EXPECT_EQ(buf.size(), 4 + 1 + 12 + row.size() * sizeof(std::uint16_t));
  wire::FrameDecoder decoder;
  decoder.feed(buf);
  wire::Frame frame;
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.type, wire::FrameType::payload_bf16);
  EXPECT_EQ(frame.sender, 17u);
  EXPECT_EQ(frame.src_part, 1u);
  ASSERT_EQ(frame.row.size(), row.size());
  EXPECT_EQ(std::memcmp(frame.row.data(), row.data(),
                        row.size() * sizeof(float)),
            0);
  EXPECT_FALSE(decoder.next(frame));
}

TEST(WireFormat, MalformedFrameThrows) {
  std::vector<std::uint8_t> buf;
  wire::append_barrier_frame(buf, 0, 1);
  buf[4] = 0x77;  // clobber the type byte
  wire::FrameDecoder decoder;
  decoder.feed(buf);
  wire::Frame frame;
  EXPECT_THROW(decoder.next(frame), check_error);

  // Retired frame types 5, 6 and 7, each with a body sized for the layout
  // it once had (token: u32 + u64 + i64 + 2 x u8; row: four u32 and no
  // floats; 7: an empty body), are unknown types now: typed kCorrupt.
  for (const auto& [type, body_bytes] :
       std::vector<std::pair<std::uint8_t, std::uint32_t>>{
           {5, 22}, {6, 16}, {7, 0}}) {
    SCOPED_TRACE("frame type " + std::to_string(type));
    std::vector<std::uint8_t> retired(sizeof(std::uint32_t) + 1 + body_bytes,
                                      0);
    const std::uint32_t len = body_bytes + 1;
    std::memcpy(retired.data(), &len, sizeof(len));
    retired[sizeof(len)] = type;
    wire::FrameDecoder retired_decoder;
    retired_decoder.feed(retired);
    try {
      retired_decoder.next(frame);
      ADD_FAILURE() << "retired frame type decoded";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.kind(), TransportErrorKind::kCorrupt);
    }
  }
}

// ----------------------------------------------------- loopback conformance

struct RmatCase {
  DynamicGraph snapshot;
  Matrix features;
  std::vector<GraphUpdate> stream;
};

RmatCase make_rmat_case(std::uint64_t seed) {
  Rng rng(seed);
  RmatCase c;
  c.snapshot = rmat(96, 640, 0.55, 0.2, 0.2, 0.05, rng);
  c.features = testing::random_features(c.snapshot.num_vertices(), 8, seed + 1);
  StreamConfig stream_config;
  stream_config.num_updates = 110;
  stream_config.feat_dim = 8;
  stream_config.seed = seed + 2;
  c.stream = generate_stream(c.snapshot, stream_config);
  return c;
}

// One rank's report, shipped through the loopback result pipe: counters +
// raw bits of every owned row of every layer. The leader additionally
// ships the FULL store its collective gather_embeddings() assembled from
// the owned-row collection frames — the satellite assertion that the
// leader-side gather is bit-correct over real sockets.
struct RankReport {
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_messages = 0;
  std::uint8_t comm_measured = 0;
  std::vector<VertexId> owned;
  std::vector<float> rows;  // owned-major, layer-major concatenation
  std::vector<float> full;  // leader only: gathered store, vertex-major
};

template <typename T>
void blob_put(std::vector<std::uint8_t>& blob, const T& value) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
  blob.insert(blob.end(), bytes, bytes + sizeof(T));
}

template <typename T>
T blob_get(const std::vector<std::uint8_t>& blob, std::size_t& at) {
  T value;
  std::memcpy(&value, blob.data() + at, sizeof(T));
  at += sizeof(T);
  return value;
}

std::vector<std::uint8_t> encode_report(const EmbeddingStore& store,
                                        const Partition& partition,
                                        std::size_t rank,
                                        std::uint64_t wire_bytes,
                                        std::uint64_t wire_messages,
                                        bool comm_measured) {
  std::vector<std::uint8_t> blob;
  blob_put(blob, wire_bytes);
  blob_put(blob, wire_messages);
  blob_put(blob, static_cast<std::uint8_t>(comm_measured));
  std::uint64_t num_owned = 0;
  for (VertexId v = 0; v < store.num_vertices(); ++v) {
    if (partition.part_of(v) == rank) ++num_owned;
  }
  blob_put(blob, num_owned);
  for (VertexId v = 0; v < store.num_vertices(); ++v) {
    if (partition.part_of(v) != rank) continue;
    blob_put(blob, v);
    for (std::size_t l = 0; l <= store.num_layers(); ++l) {
      const auto row = store.layer(l).row(v);
      const auto* bytes = reinterpret_cast<const std::uint8_t*>(row.data());
      blob.insert(blob.end(), bytes, bytes + row.size() * sizeof(float));
    }
  }
  // The leader ships the whole gathered table (its collective gather
  // collected every rank's owned rows over send_exact frames).
  blob_put(blob, static_cast<std::uint8_t>(rank == 0));
  if (rank == 0) {
    for (VertexId v = 0; v < store.num_vertices(); ++v) {
      for (std::size_t l = 0; l <= store.num_layers(); ++l) {
        const auto row = store.layer(l).row(v);
        const auto* bytes = reinterpret_cast<const std::uint8_t*>(row.data());
        blob.insert(blob.end(), bytes, bytes + row.size() * sizeof(float));
      }
    }
  }
  return blob;
}

RankReport decode_report(const std::vector<std::uint8_t>& blob,
                         const std::vector<std::size_t>& layer_dims,
                         std::size_t num_vertices) {
  RankReport report;
  std::size_t at = 0;
  report.wire_bytes = blob_get<std::uint64_t>(blob, at);
  report.wire_messages = blob_get<std::uint64_t>(blob, at);
  report.comm_measured = blob_get<std::uint8_t>(blob, at);
  const auto num_owned = blob_get<std::uint64_t>(blob, at);
  std::size_t floats_per_vertex = 0;
  for (const std::size_t dim : layer_dims) floats_per_vertex += dim;
  for (std::uint64_t i = 0; i < num_owned; ++i) {
    report.owned.push_back(blob_get<VertexId>(blob, at));
    const std::size_t begin = report.rows.size();
    report.rows.resize(begin + floats_per_vertex);
    std::memcpy(report.rows.data() + begin, blob.data() + at,
                floats_per_vertex * sizeof(float));
    at += floats_per_vertex * sizeof(float);
  }
  if (blob_get<std::uint8_t>(blob, at) != 0) {
    report.full.resize(num_vertices * floats_per_vertex);
    std::memcpy(report.full.data(), blob.data() + at,
                report.full.size() * sizeof(float));
    at += report.full.size() * sizeof(float);
  }
  EXPECT_EQ(at, blob.size());
  return report;
}

std::vector<std::size_t> layer_dims_of(const ModelConfig& config) {
  std::vector<std::size_t> dims;
  for (std::size_t l = 0; l <= config.num_layers; ++l) {
    dims.push_back(config.embedding_dim(l));
  }
  return dims;
}

// Runs `key` over a tcp loopback cluster (one forked process per rank) and
// assembles the authoritative owned rows of every rank into one store;
// checks every rank reported measured timing, that the leader's collective
// gather reproduced the assembled owned rows bit-for-bit, and returns the
// SUM of the per-rank egress counters (owner routing counts each transfer
// exactly once at its source, so the sum equals sim's global totals).
EmbeddingStore run_tcp_cluster(const char* key, const GnnModel& model,
                               const RmatCase& c, const Partition& partition,
                               bool use_pool, std::size_t batch_size,
                               std::uint64_t& wire_bytes,
                               std::uint64_t& wire_messages,
                               const TransportOptions& options = {}) {
  const std::size_t num_parts = partition.num_parts();
  const auto results = run_loopback_ranks(
      num_parts, [&](const TcpConfig& config) -> std::vector<std::uint8_t> {
        const auto pool =
            use_pool ? std::make_unique<ThreadPool>(3) : nullptr;
        auto transport = std::make_unique<TcpTransport>(
            num_parts, options, config);
        auto engine =
            make_dist_engine(key, model, c.snapshot, c.features, partition,
                             pool.get(), std::move(transport));
        std::uint64_t bytes = 0;
        std::uint64_t messages = 0;
        bool measured = true;
        for (const auto& batch : make_batches(c.stream, batch_size)) {
          const DistBatchResult result = engine->apply_batch(batch);
          bytes += result.wire_bytes;
          messages += result.wire_messages;
          measured = measured && result.comm_measured &&
                     result.comm_sec >= 0;
        }
        return encode_report(engine->gather_embeddings(), partition,
                             config.rank, bytes, messages, measured);
      });
  EmbeddingStore assembled(model.config(), c.snapshot.num_vertices());
  const auto dims = layer_dims_of(model.config());
  wire_bytes = 0;
  wire_messages = 0;
  std::vector<float> leader_full;
  for (std::size_t r = 0; r < num_parts; ++r) {
    const RankReport report =
        decode_report(results[r], dims, c.snapshot.num_vertices());
    EXPECT_EQ(report.comm_measured, 1u) << "rank " << r;
    std::size_t cursor = 0;
    for (const VertexId v : report.owned) {
      for (std::size_t l = 0; l < dims.size(); ++l) {
        std::memcpy(assembled.layer(l).row(v).data(),
                    report.rows.data() + cursor, dims[l] * sizeof(float));
        cursor += dims[l];
      }
    }
    wire_bytes += report.wire_bytes;
    wire_messages += report.wire_messages;
    if (r == 0) leader_full = report.full;
  }
  // The leader's gather_embeddings() — owned rows collected over real
  // sockets via exact-bit frames — reconstructed the identical table.
  std::size_t floats_per_vertex = 0;
  for (const std::size_t dim : dims) floats_per_vertex += dim;
  EXPECT_EQ(leader_full.size(),
            c.snapshot.num_vertices() * floats_per_vertex);
  if (leader_full.size() != c.snapshot.num_vertices() * floats_per_vertex) {
    return assembled;
  }
  std::size_t at = 0;
  std::size_t full_mismatches = 0;
  for (VertexId v = 0; v < c.snapshot.num_vertices(); ++v) {
    for (std::size_t l = 0; l < dims.size(); ++l) {
      const auto row = assembled.layer(l).row(v);
      if (std::memcmp(row.data(), leader_full.data() + at,
                      dims[l] * sizeof(float)) != 0) {
        ++full_mismatches;
      }
      at += dims[l];
    }
  }
  EXPECT_EQ(full_mismatches, 0u) << "leader gather diverged from owned rows";
  return assembled;
}

TEST(TcpConformance, BitIdenticalToSimAndSingleMachineWithEqualCounters) {
  const auto c = make_rmat_case(77);
  const auto config = workload_config(Workload::gc_s, 8, 4, 2, 12);
  const auto model = GnnModel::random(config, 79);
  constexpr std::size_t kBatch = 9;
  const auto batches = make_batches(c.stream, kBatch);

  RippleEngine ripple_ref(model, c.snapshot, c.features);
  RecomputeEngine rc_ref(model, c.snapshot, c.features);
  for (const auto& batch : batches) {
    ripple_ref.apply_batch(batch);
    rc_ref.apply_batch(batch);
  }

  for (const std::size_t num_parts : {1, 2, 4}) {
    auto partition = ldg_partition(c.snapshot, num_parts);
    refine_partition(c.snapshot, partition, 1);
    for (const char* key : {"ripple", "rc"}) {
      for (const bool use_pool : {false, true}) {
        SCOPED_TRACE(std::string(key) + ", " + std::to_string(num_parts) +
                     " parts, pool " + (use_pool ? "on" : "off"));
        // The forked ranks must not inherit live pool threads: run the tcp
        // cluster first, then the (scoped) pooled sim run.
        std::uint64_t tcp_bytes = 0;
        std::uint64_t tcp_messages = 0;
        const EmbeddingStore tcp_store =
            run_tcp_cluster(key, model, c, partition, use_pool, kBatch,
                            tcp_bytes, tcp_messages);

        std::uint64_t sim_bytes = 0;
        std::uint64_t sim_messages = 0;
        EmbeddingStore sim_store;
        {
          ThreadPool pool(3);
          auto sim = make_dist_engine(key, model, c.snapshot, c.features,
                                      partition, use_pool ? &pool : nullptr,
                                      TransportOptions{});
          for (const auto& batch : batches) {
            const DistBatchResult result = sim->apply_batch(batch);
            sim_bytes += result.wire_bytes;
            sim_messages += result.wire_messages;
            EXPECT_FALSE(result.comm_measured);
          }
          sim_store = sim->gather_embeddings();
        }

        // The rows assembled from the ranks' owned partitions — whose
        // remote inputs arrived exclusively over real sockets — match the
        // sim backend and the single-machine engine bit for bit.
        EXPECT_EQ(testing::max_store_diff(tcp_store, sim_store), 0.0f);
        const EmbeddingStore& ref = std::string(key) == "ripple"
                                        ? ripple_ref.embeddings()
                                        : rc_ref.embeddings();
        EXPECT_EQ(testing::max_store_diff(tcp_store, ref), 0.0f);
        // Identical protocol → identical global wire traffic.
        EXPECT_EQ(tcp_bytes, sim_bytes);
        EXPECT_EQ(tcp_messages, sim_messages);
        if (num_parts == 1) {
          EXPECT_EQ(tcp_bytes, 0u);
          EXPECT_EQ(tcp_messages, 0u);
        } else {
          EXPECT_GT(tcp_messages, 0u);
        }
      }
    }
  }
}

// ------------------------------------------------- migration supersteps

// The deterministic mid-stream migration schedule of the conformance test:
// every replica derives it from ITS OWN engine's replicated partition
// state, so forked tcp ranks and the in-process sim run agree on every
// plan without any out-of-band channel (the agreement real deployments
// must provide is exactly this determinism; docs/repartition.md).
MigrationPlan conformance_plan(const DistEngineBase& engine, std::size_t b) {
  const std::size_t k = engine.partition().num_parts();
  const std::size_t n = engine.graph().num_vertices();
  MigrationPlan plan;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto v = static_cast<VertexId>((b * 17 + i * 31) % n);
    plan.moves.push_back({v, 0, static_cast<std::uint32_t>(
                                    (engine.partition().part_of(v) + 1) % k)});
  }
  return plan;
}

TEST(TcpConformance, MigrationSuperstepsBitIdenticalToSimWithEqualCounters) {
  // The tentpole's transport headline: with a migration superstep after
  // EVERY batch, forked loopback ranks produce owned rows — keyed on the
  // POST-migration assignment — bit-identical to the sim backend and to
  // the never-migrated single-machine engines, and the per-rank egress
  // sums still equal sim's totals (migration frames charge the cumulative
  // transport counters, batch results on both backends exclude them
  // identically).
  const auto c = make_rmat_case(77);
  const auto config = workload_config(Workload::gc_s, 8, 4, 2, 12);
  const auto model = GnnModel::random(config, 79);
  constexpr std::size_t kBatch = 9;
  const auto batches = make_batches(c.stream, kBatch);

  RippleEngine ripple_ref(model, c.snapshot, c.features);
  RecomputeEngine rc_ref(model, c.snapshot, c.features);
  for (const auto& batch : batches) {
    ripple_ref.apply_batch(batch);
    rc_ref.apply_batch(batch);
  }

  for (const std::size_t num_parts : {2, 4}) {
    auto partition = ldg_partition(c.snapshot, num_parts);
    refine_partition(c.snapshot, partition, 1);
    for (const char* key : {"ripple", "rc"}) {
      SCOPED_TRACE(std::string(key) + ", " + std::to_string(num_parts) +
                   " parts");
      std::uint64_t tcp_bytes = 0;
      std::uint64_t tcp_messages = 0;
      const auto results = run_loopback_ranks(
          num_parts,
          [&](const TcpConfig& config_) -> std::vector<std::uint8_t> {
            auto transport = std::make_unique<TcpTransport>(
                num_parts, TransportOptions{}, config_);
            auto engine = make_dist_engine(key, model, c.snapshot,
                                           c.features, partition, nullptr,
                                           std::move(transport));
            std::uint64_t bytes = 0;
            std::uint64_t messages = 0;
            bool measured = true;
            for (std::size_t b = 0; b < batches.size(); ++b) {
              const DistBatchResult result = engine->apply_batch(batches[b]);
              bytes += result.wire_bytes;
              messages += result.wire_messages;
              measured = measured && result.comm_measured;
              engine->migrate(conformance_plan(*engine, b));
            }
            // Report keyed on the engine's CURRENT (migrated) partition —
            // the load-time table no longer describes ownership.
            return encode_report(engine->gather_embeddings(),
                                 engine->partition(), config_.rank, bytes,
                                 messages, measured);
          });

      std::uint64_t sim_bytes = 0;
      std::uint64_t sim_messages = 0;
      std::size_t sim_moves = 0;
      auto sim = make_dist_engine(key, model, c.snapshot, c.features,
                                  partition, nullptr, TransportOptions{});
      for (std::size_t b = 0; b < batches.size(); ++b) {
        const DistBatchResult result = sim->apply_batch(batches[b]);
        sim_bytes += result.wire_bytes;
        sim_messages += result.wire_messages;
        sim_moves += sim->migrate(conformance_plan(*sim, b));
      }
      EXPECT_GT(sim_moves, 0u);
      const EmbeddingStore sim_store = sim->gather_embeddings();

      EmbeddingStore assembled(model.config(), c.snapshot.num_vertices());
      const auto dims = layer_dims_of(model.config());
      std::vector<VertexId> claimed;
      for (std::size_t r = 0; r < num_parts; ++r) {
        const RankReport report =
            decode_report(results[r], dims, c.snapshot.num_vertices());
        EXPECT_EQ(report.comm_measured, 1u) << "rank " << r;
        std::size_t cursor = 0;
        for (const VertexId v : report.owned) {
          // Each rank claims exactly its post-migration owned set.
          EXPECT_EQ(sim->partition().part_of(v), r);
          claimed.push_back(v);
          for (std::size_t l = 0; l < dims.size(); ++l) {
            std::memcpy(assembled.layer(l).row(v).data(),
                        report.rows.data() + cursor, dims[l] * sizeof(float));
            cursor += dims[l];
          }
        }
        tcp_bytes += report.wire_bytes;
        tcp_messages += report.wire_messages;
      }
      // Ownership after the schedule is a partition: every vertex claimed
      // exactly once across the ranks.
      EXPECT_EQ(claimed.size(), c.snapshot.num_vertices());

      EXPECT_EQ(testing::max_store_diff(assembled, sim_store), 0.0f);
      const EmbeddingStore& ref = std::string(key) == "ripple"
                                      ? ripple_ref.embeddings()
                                      : rc_ref.embeddings();
      EXPECT_EQ(testing::max_store_diff(assembled, ref), 0.0f);
      EXPECT_EQ(tcp_bytes, sim_bytes);
      EXPECT_EQ(tcp_messages, sim_messages);
    }
  }
}

// ------------------------------------------------- wire precision (bf16)

TEST(WirePrecision, ParsingAndNames) {
  EXPECT_EQ(parse_wire_precision("f32"), WirePrecision::kF32);
  EXPECT_EQ(parse_wire_precision("bf16"), WirePrecision::kBf16);
  EXPECT_THROW(parse_wire_precision("int8"), check_error);
  EXPECT_STREQ(wire_precision_name(WirePrecision::kF32), "f32");
  EXPECT_STREQ(wire_precision_name(WirePrecision::kBf16), "bf16");
  EXPECT_EQ(wire_precision_choices().size(), 2u);
}

TEST(WirePrecision, SimTransportRoundsInboxRowsAndHalvesPayloadBytes) {
  TransportOptions f32_opts;
  TransportOptions bf16_opts;
  bf16_opts.wire_precision = WirePrecision::kBf16;
  SimTransport f32_sim(2, f32_opts);
  SimTransport bf16_sim(2, bf16_opts);
  const std::vector<float> row = {1.0f, 1.0f / 3.0f, -0.1234567f, 2.5f};

  f32_sim.begin_superstep();
  bf16_sim.begin_superstep();
  f32_sim.send(0, 1, /*sender=*/5, row);
  bf16_sim.send(0, 1, /*sender=*/5, row);

  // row_wire_bytes: 4 B/value at f32, 2 at bf16; counters add the header.
  EXPECT_EQ(f32_sim.row_wire_bytes(row.size()), row.size() * 4);
  EXPECT_EQ(bf16_sim.row_wire_bytes(row.size()), row.size() * 2);
  EXPECT_EQ(f32_sim.wire_bytes(),
            f32_opts.header_bytes + row.size() * sizeof(float));
  EXPECT_EQ(bf16_sim.wire_bytes(),
            bf16_opts.header_bytes + row.size() * sizeof(std::uint16_t));
  EXPECT_EQ(f32_sim.wire_messages(), 1u);
  EXPECT_EQ(bf16_sim.wire_messages(), 1u);

  // The f32 inbox carries the exact bits; the bf16 inbox carries the
  // SENDER-rounded row — what a tcp receiver would decode.
  const auto& f32_inbox = f32_sim.inbox(1);
  const auto& bf16_inbox = bf16_sim.inbox(1);
  ASSERT_EQ(f32_inbox.messages.size(), 1u);
  ASSERT_EQ(bf16_inbox.messages.size(), 1u);
  const auto f32_row = f32_inbox.payload_of(f32_inbox.messages[0]);
  const auto bf16_row = bf16_inbox.payload_of(bf16_inbox.messages[0]);
  for (std::size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(f32_row[i], row[i]) << i;
    EXPECT_EQ(bf16_row[i], bf16_round(row[i])) << i;
  }
  // Rounding genuinely narrowed something on this row.
  EXPECT_NE(bf16_row[1], row[1]);
}

TEST(WirePrecision, OptionsFromFlagsReadsWirePrecision) {
  const char* argv_bf16[] = {"test", "--wire-precision=bf16"};
  Flags flags(2, const_cast<char**>(argv_bf16));
  EXPECT_EQ(TransportOptions::from_flags(flags).wire_precision,
            WirePrecision::kBf16);
  const char* argv_default[] = {"test"};
  Flags defaults(1, const_cast<char**>(argv_default));
  EXPECT_EQ(TransportOptions::from_flags(defaults).wire_precision,
            WirePrecision::kF32);
}

TEST(TcpConformance, Bf16WireBitIdenticalToSimWithHalvedPayload) {
  // --wire-precision=bf16 axis of the conformance property: tcp and sim
  // agree bit-for-bit and counter-for-counter at reduced wire precision,
  // the message count matches the f32 protocol (rounding changes VALUES,
  // never the message pattern), and the payload byte volume — counters
  // minus the per-message header envelope — is exactly halved (every
  // row-shaped transfer in these models has even float counts).
  const auto c = make_rmat_case(77);
  const auto config = workload_config(Workload::gc_s, 8, 4, 2, 12);
  const auto model = GnnModel::random(config, 79);
  constexpr std::size_t kBatch = 9;
  const auto batches = make_batches(c.stream, kBatch);
  auto partition = ldg_partition(c.snapshot, 2);
  refine_partition(c.snapshot, partition, 1);

  TransportOptions bf16_opts;
  bf16_opts.wire_precision = WirePrecision::kBf16;

  auto run_sim = [&](const TransportOptions& options, std::uint64_t& bytes,
                     std::uint64_t& messages) {
    bytes = 0;
    messages = 0;
    auto sim = make_dist_engine("ripple", model, c.snapshot, c.features,
                                partition, nullptr, options);
    for (const auto& batch : batches) {
      const DistBatchResult result = sim->apply_batch(batch);
      bytes += result.wire_bytes;
      messages += result.wire_messages;
    }
    return sim->gather_embeddings();
  };

  std::uint64_t f32_bytes = 0, f32_messages = 0;
  run_sim(TransportOptions{}, f32_bytes, f32_messages);
  std::uint64_t sim_bytes = 0, sim_messages = 0;
  const EmbeddingStore sim_store = run_sim(bf16_opts, sim_bytes, sim_messages);

  std::uint64_t tcp_bytes = 0, tcp_messages = 0;
  const EmbeddingStore tcp_store =
      run_tcp_cluster("ripple", model, c, partition, /*use_pool=*/false,
                      kBatch, tcp_bytes, tcp_messages, bf16_opts);

  EXPECT_EQ(testing::max_store_diff(tcp_store, sim_store), 0.0f);
  EXPECT_EQ(tcp_bytes, sim_bytes);
  EXPECT_EQ(tcp_messages, sim_messages);
  ASSERT_GT(sim_messages, 0u);

  // Same protocol, and every ROW-SHAPED byte halved exactly. The only
  // payload that stays f32 is the leader→worker update-routing broadcast
  // (control plane, not embedding rows) — subtract it and the remainder
  // must be exactly half of the f32 remainder (all row widths here are
  // even).
  EXPECT_EQ(sim_messages, f32_messages);
  std::uint64_t routing_bytes = 0;
  for (const auto& batch : batches) {
    std::uint64_t batch_bytes = 0;
    for (const GraphUpdate& update : batch) {
      batch_bytes += update.wire_bytes();
    }
    routing_bytes += batch_bytes * (partition.num_parts() - 1);
  }
  const std::uint64_t header = TransportOptions{}.header_bytes;
  const std::uint64_t f32_rows =
      f32_bytes - header * f32_messages - routing_bytes;
  const std::uint64_t bf16_rows =
      sim_bytes - header * sim_messages - routing_bytes;
  EXPECT_EQ(bf16_rows, f32_rows / 2);
  EXPECT_LT(sim_bytes, f32_bytes);
}

// ci.sh's dedicated tcp pass (RIPPLE_TRANSPORT=tcp): the multi-workload
// exactness property routed over loopback ranks. Skipped by default so the
// regular dist tier stays fast.
TEST(TcpConformance, MultiWorkloadExactnessOverTcp) {
  const char* env = std::getenv("RIPPLE_TRANSPORT");
  if (env == nullptr || std::string(env) != "tcp") {
    GTEST_SKIP() << "set RIPPLE_TRANSPORT=tcp to run the heavy tcp pass";
  }
  for (const Workload workload :
       {Workload::gc_s, Workload::gs_s, Workload::gc_m}) {
    SCOPED_TRACE(workload_name(workload));
    const auto c = make_rmat_case(53);
    const auto config = workload_config(workload, 8, 4, 2, 12);
    const auto model = GnnModel::random(config, 55);
    constexpr std::size_t kBatch = 11;
    RippleEngine ripple_ref(model, c.snapshot, c.features);
    RecomputeEngine rc_ref(model, c.snapshot, c.features);
    for (const auto& batch : make_batches(c.stream, kBatch)) {
      ripple_ref.apply_batch(batch);
      rc_ref.apply_batch(batch);
    }
    auto partition = ldg_partition(c.snapshot, 4);
    refine_partition(c.snapshot, partition, 1);
    for (const char* key : {"ripple", "rc"}) {
      SCOPED_TRACE(key);
      std::uint64_t bytes = 0;
      std::uint64_t messages = 0;
      const EmbeddingStore tcp_store = run_tcp_cluster(
          key, model, c, partition, /*use_pool=*/true, kBatch, bytes,
          messages);
      const EmbeddingStore& ref = std::string(key) == "ripple"
                                      ? ripple_ref.embeddings()
                                      : rc_ref.embeddings();
      EXPECT_EQ(testing::max_store_diff(tcp_store, ref), 0.0f);
      EXPECT_GT(messages, 0u);
    }
  }
}

}  // namespace
}  // namespace ripple
