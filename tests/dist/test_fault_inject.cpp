// Fault-injection property tests (dist/fault_inject.h,
// docs/fault_tolerance.md):
//  1. A seeded kill schedule is deterministic — two runs of the same plan
//     fail at the same point with the same typed error (kPeerLost).
//  2. A truncated payload surfaces as TransportError{kCorrupt}, never as
//     an abort, on both the halo-fill and the delta-seed validation paths.
//  3. Owned-row installs check every frame against the shipping schedule:
//     a wrong sender, a wrong width, a missing frame and an unclaimed frame
//     each raise TransportError{kCorrupt}.
//  4. FrameDecoder fuzz: random truncations and bit flips of a valid frame
//     stream either decode or raise TransportError{kCorrupt} — never any
//     other failure — and a wire-declared length beyond kMaxFrameBytes is
//     rejected the moment the header is visible.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <optional>
#include <random>
#include <tuple>

#include "../test_util.h"
#include "dist/dist_engine.h"
#include "dist/fault_inject.h"
#include "dist/transport.h"
#include "dist/wire_format.h"
#include "stream/generator.h"

namespace ripple {
namespace {

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

// Same 4-vertex 2-part fixture as test_dist_engine.cpp: vertices 0,1 on
// partition 0; 2,3 on partition 1; edges 0->1, 1->2 (cut), 2->3, 2->0 (cut);
// every model width is 2. Small enough that the send() index of each
// protocol frame is known exactly, so a fault can target a specific frame:
// for the edge_add(0, 2) batch, payload send 0 is the halo fetch (h^0,h^1
// of vertex 0 -> partition 1) and payload send 1 is the hop-1 delta row
// (sender 2 -> partition 0).
struct TinyDist {
  DynamicGraph graph{4};
  Matrix features;
  GnnModel model;
  Partition partition;

  TinyDist(std::size_t num_parts, std::vector<std::uint32_t> part_of)
      : features(testing::random_features(4, 2, 5)),
        model(GnnModel::random(workload_config(Workload::gc_s, 2, 2, 2, 2), 6)),
        partition(num_parts, std::move(part_of)) {
    graph.add_edge(0, 1);
    graph.add_edge(1, 2);
    graph.add_edge(2, 3);
    graph.add_edge(2, 0);
  }
};

// Runs fn and returns the kind of the TransportError it threw, if any.
std::optional<TransportErrorKind> thrown_kind(
    const std::function<void()>& fn) {
  try {
    fn();
  } catch (const TransportError& e) {
    return e.kind();
  }
  return std::nullopt;
}

std::unique_ptr<DistEngineBase> make_faulted_tiny(TinyDist& t,
                                                  const FaultPlan& plan) {
  return make_dist_engine("ripple", t.model, t.graph, t.features, t.partition,
                          nullptr,
                          make_fault_inject_sim(2, TransportOptions{}, plan));
}

// ---- seeded kill: deterministic, typed ----

struct KillRun {
  bool threw = false;
  TransportErrorKind kind = TransportErrorKind::kTimeout;
  std::string error;                // carries the injection step
  std::size_t batches_applied = 0;  // how far the stream got
};

KillRun run_seeded_kill(const RmatCase& c, const GnnModel& model,
                        const Partition& partition, std::uint64_t seed) {
  KillRun r;
  try {
    auto engine = make_dist_engine(
        "ripple", model, c.snapshot, c.features, partition, nullptr,
        make_fault_inject_sim(partition.num_parts(),
                              default_transport_options(),
                              FaultPlan::seeded_kill(seed, 24)));
    for (const auto& batch : make_batches(c.stream, 9)) {
      engine->apply_batch(batch);
      ++r.batches_applied;
    }
  } catch (const TransportError& e) {
    r.threw = true;
    r.kind = e.kind();
    r.error = e.what();
  }
  return r;
}

TEST(FaultInject, SeededKillIsDeterministicAndTyped) {
  auto c = make_rmat_case(77);
  const auto config = workload_config(Workload::gc_s, 8, 4, 2, 12);
  const auto model = GnnModel::random(config, 79);
  auto partition = ldg_partition(c.snapshot, 2);
  refine_partition(c.snapshot, partition, 1);
  for (const std::uint64_t seed : {11ull, 12ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const KillRun a = run_seeded_kill(c, model, partition, seed);
    const KillRun b = run_seeded_kill(c, model, partition, seed);
    ASSERT_TRUE(a.threw);
    EXPECT_EQ(a.kind, TransportErrorKind::kPeerLost);
    // Determinism: the identical plan against the identical protocol run
    // dies at the identical step (the step number rides in the message).
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.batches_applied, b.batches_applied);
  }
}

// ---- corrupt payload: surfaces as its documented typed error ----

TEST(FaultInject, CorruptBspPayloadRaisesCorrupt) {
  // Payload send 0 is the halo fetch (validated by the replay-phase
  // halo-fill width check), send 1 the hop-1 delta row (validated by the
  // BSP seed phase) — both corruption sites must surface kCorrupt.
  for (const std::uint64_t frame_index : {0ull, 1ull}) {
    SCOPED_TRACE("payload send " + std::to_string(frame_index));
    TinyDist t(2, {0, 0, 1, 1});
    FaultPlan plan;
    plan.actions.push_back({FaultKind::kCorruptPayload, 0, frame_index});
    auto engine = make_faulted_tiny(t, plan);
    const std::vector<GraphUpdate> batch = {GraphUpdate::edge_add(0, 2)};
    const auto kind = thrown_kind([&] { engine->apply_batch(batch); });
    ASSERT_TRUE(kind.has_value());
    EXPECT_EQ(*kind, TransportErrorKind::kCorrupt);
  }
}

// ---- owned-row install cursors: schedule vs what arrived ----

// Runs one sim superstep of `sends` (src, dst, sender, width) and then pops
// the schedule (dst, src, sender, width) through InboxCursors, checking
// that nothing is left over.
std::optional<TransportErrorKind> install_kind(
    const std::vector<std::tuple<std::size_t, std::size_t, VertexId,
                                 std::size_t>>& sends,
    const std::vector<std::tuple<std::size_t, std::size_t, VertexId,
                                 std::size_t>>& schedule) {
  SimTransport transport(3, TransportOptions{});
  transport.begin_superstep();
  for (const auto& [src, dst, sender, width] : sends) {
    transport.send_exact(src, dst, sender, std::vector<float>(width, 1.0f));
  }
  transport.end_superstep();
  return thrown_kind([&] {
    InboxCursors cursors(transport);
    for (const auto& [dst, src, sender, width] : schedule) {
      EXPECT_EQ(cursors.pop(dst, src, sender, width).size(), width);
    }
    cursors.expect_drained();
  });
}

TEST(OwnedRowShipper, InstallMatchesTheScheduleOrRaisesCorrupt) {
  // Two sources interleave into partition 0; cursors are per (dst, src).
  const std::vector<std::tuple<std::size_t, std::size_t, VertexId,
                               std::size_t>>
      sends = {{1, 0, 10, 4}, {2, 0, 20, 4}, {1, 0, 11, 4}};
  EXPECT_FALSE(install_kind(sends, {{0, 2, 20, 4}, {0, 1, 10, 4},
                                    {0, 1, 11, 4}})
                   .has_value());
  // Wrong sender: the second frame from 1 carries vertex 11, not 12.
  EXPECT_EQ(install_kind(sends, {{0, 1, 10, 4}, {0, 1, 12, 4},
                                 {0, 2, 20, 4}}),
            TransportErrorKind::kCorrupt);
  // Wrong width: the schedule expects 5 floats.
  EXPECT_EQ(install_kind(sends, {{0, 1, 10, 4}, {0, 1, 11, 5},
                                 {0, 2, 20, 4}}),
            TransportErrorKind::kCorrupt);
  // Missing frame (underflow): a third row from 1 never arrived.
  EXPECT_EQ(install_kind(sends, {{0, 1, 10, 4}, {0, 1, 11, 4},
                                 {0, 1, 12, 4}, {0, 2, 20, 4}}),
            TransportErrorKind::kCorrupt);
  // Extra frame (leftovers): nothing in the schedule claims 2's row.
  EXPECT_EQ(install_kind(sends, {{0, 1, 10, 4}, {0, 1, 11, 4}}),
            TransportErrorKind::kCorrupt);
}

// ---- FrameDecoder fuzz (wire_format.h) ----

std::vector<std::uint8_t> valid_frame_stream() {
  std::vector<std::uint8_t> bytes;
  const std::vector<float> row = {1.5f, -2.25f, 0.125f, 3.0f};
  wire::append_payload_frame(bytes, 7, 0, row);
  wire::append_payload_frame_bf16(bytes, 9, 1, row);
  wire::append_opaque_frame(bytes, 0, 1, 128, 2);
  wire::append_barrier_frame(bytes, 1, 4);
  wire::append_heartbeat_frame(bytes, 1);
  return bytes;
}

TEST(FrameFuzz, MutatedStreamsDecodeOrRaiseCorruptNeverCrash) {
  const std::vector<std::uint8_t> valid = valid_frame_stream();
  std::mt19937_64 rng(20260808);
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<std::uint8_t> bytes = valid;
    if (rng() % 2 == 0) {
      bytes.resize(rng() % (bytes.size() + 1));  // random truncation
    }
    const std::size_t flips = rng() % 9;
    for (std::size_t f = 0; f < flips && !bytes.empty(); ++f) {
      bytes[rng() % bytes.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    wire::FrameDecoder decoder;
    wire::Frame frame;
    try {
      std::size_t at = 0;
      while (at < bytes.size()) {
        const std::size_t chunk =
            std::min<std::size_t>(1 + rng() % 7, bytes.size() - at);
        decoder.feed(
            std::span<const std::uint8_t>(bytes.data() + at, chunk));
        at += chunk;
        while (decoder.next(frame)) ++decoded;
      }
    } catch (const TransportError& e) {
      // The ONLY acceptable failure: typed corruption. (A flip inside a
      // row's float payload is undetectable without a row checksum and
      // legitimately decodes; a flipped length/type must land here.)
      EXPECT_EQ(e.kind(), TransportErrorKind::kCorrupt);
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "decoder raised a non-transport error: " << e.what();
    }
  }
  // The fuzz run must have exercised both outcomes to mean anything.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(FrameFuzz, OversizedWireLengthRejectedAtHeader) {
  // A corrupt u32 length can claim up to 4 GiB; the decoder must reject it
  // as soon as the header is visible instead of buffering toward it.
  wire::FrameDecoder decoder;
  const std::uint32_t len =
      static_cast<std::uint32_t>(wire::kMaxFrameBytes) + 1;
  std::uint8_t header[sizeof(len)];
  std::memcpy(header, &len, sizeof(len));
  decoder.feed(header);
  wire::Frame frame;
  const auto kind = thrown_kind([&] { decoder.next(frame); });
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, TransportErrorKind::kCorrupt);
}

TEST(FrameFuzz, ZeroLengthFrameRejected) {
  wire::FrameDecoder decoder;
  const std::uint8_t header[4] = {0, 0, 0, 0};
  decoder.feed(header);
  wire::Frame frame;
  const auto kind = thrown_kind([&] { decoder.next(frame); });
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, TransportErrorKind::kCorrupt);
}

}  // namespace
}  // namespace ripple
