#include "core/mailbox.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <span>
#include <vector>

#include "common/rng.h"
#include "tensor/ops.h"

namespace ripple {
namespace {

TEST(Mailbox, EntryCreatedLazily) {
  Mailbox box(3, 16);
  EXPECT_TRUE(box.empty());
  box.entry(5);
  EXPECT_EQ(box.size(), 1u);
  EXPECT_EQ(box.entry(5).delta_agg.size(), 3u);
}

TEST(Mailbox, AccumulateNewMinusOld) {
  Mailbox box(2, 16);
  const std::vector<float> h_new = {3.0f, 4.0f};
  const std::vector<float> h_old = {1.0f, 1.0f};
  box.accumulate(0, 1.0f, h_new, h_old);
  const auto& entry = box.entry(0);
  EXPECT_TRUE(entry.touched_agg);
  EXPECT_FLOAT_EQ(entry.delta_agg[0], 2.0f);
  EXPECT_FLOAT_EQ(entry.delta_agg[1], 3.0f);
}

TEST(Mailbox, EdgeAddOnlyNewContribution) {
  Mailbox box(2, 16);
  const std::vector<float> h_new = {5.0f, -1.0f};
  box.accumulate(1, 2.0f, h_new, {});
  EXPECT_FLOAT_EQ(box.entry(1).delta_agg[0], 10.0f);
  EXPECT_FLOAT_EQ(box.entry(1).delta_agg[1], -2.0f);
}

TEST(Mailbox, EdgeDeleteOnlyOldRetraction) {
  Mailbox box(2, 16);
  const std::vector<float> h_old = {5.0f, -1.0f};
  box.accumulate(1, 1.0f, {}, h_old);
  EXPECT_FLOAT_EQ(box.entry(1).delta_agg[0], -5.0f);
  EXPECT_FLOAT_EQ(box.entry(1).delta_agg[1], 1.0f);
}

TEST(Mailbox, MessagesCommute) {
  // Accumulation must be order-invariant (permutation invariance, §4.3.1).
  const std::vector<float> a_new = {1.0f, 2.0f};
  const std::vector<float> a_old = {0.5f, 0.5f};
  const std::vector<float> b_new = {-3.0f, 4.0f};
  const std::vector<float> b_old = {1.0f, 0.0f};
  Mailbox ab(2, 1);
  ab.accumulate(0, 1.0f, a_new, a_old);
  ab.accumulate(0, 2.0f, b_new, b_old);
  Mailbox ba(2, 1);
  ba.accumulate(0, 2.0f, b_new, b_old);
  ba.accumulate(0, 1.0f, a_new, a_old);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(ab.entry(0).delta_agg[j], ba.entry(0).delta_agg[j], 1e-6f);
  }
}

TEST(Mailbox, SelfChannelIndependentOfAgg) {
  Mailbox box(2, 16);
  box.mark_self_changed(3);
  const auto& entry = box.entry(3);
  EXPECT_TRUE(entry.self_changed);
  EXPECT_FALSE(entry.touched_agg);
  EXPECT_FLOAT_EQ(entry.delta_agg[0], 0.0f);
}

TEST(Mailbox, ClearEmptiesEntries) {
  Mailbox box(1, 16);
  box.accumulate(0, 1.0f, std::vector<float>{1.0f}, {});
  box.accumulate(9, 1.0f, std::vector<float>{2.0f}, {});
  EXPECT_EQ(box.size(), 2u);
  box.clear();
  EXPECT_TRUE(box.empty());
}

TEST(Mailbox, DimMismatchThrows) {
  Mailbox box(3, 16);
  const std::vector<float> wrong = {1.0f, 2.0f};
  EXPECT_THROW(box.accumulate(0, 1.0f, wrong, {}), check_error);
}

TEST(Mailbox, BytesGrowWithEntries) {
  Mailbox box(8, 16);
  const auto empty_bytes = box.bytes();
  box.entry(1);
  box.entry(2);
  EXPECT_GT(box.bytes(), empty_bytes);
}

TEST(Mailbox, BytesCountDenseIndexAndSlots) {
  // One index entry per row, resident from construction, plus each cell's
  // slot payload (delta floats + vertex id + two flags).
  Mailbox box(16, 1000, 4);
  const std::size_t index_bytes = 1000 * sizeof(std::uint32_t);
  EXPECT_GE(box.bytes(), index_bytes);
  for (VertexId v = 0; v < 64; ++v) box.entry(v);
  const std::size_t dense_payload =
      64 * (16 * sizeof(float) + sizeof(VertexId) + 2);
  EXPECT_GE(box.bytes(), index_bytes + dense_payload);
}

TEST(Mailbox, RowBoundIsChecked) {
  Mailbox box(2, 10, 2);
  const std::vector<float> h = {1.0f, 2.0f};
  box.accumulate(9, 1.0f, h, {});
  EXPECT_THROW(box.accumulate(10, 1.0f, h, {}), check_error);
  EXPECT_THROW(box.mark_self_changed(4000000), check_error);
  EXPECT_TRUE(box.contains(9));
  EXPECT_FALSE(box.contains(10));
  EXPECT_FALSE(box.contains(4000000));
  EXPECT_EQ(box.size(), 1u);
}

TEST(Mailbox, ZeroRowShardedMailboxRejectsEveryRow) {
  // No row has a shard, so the bound is checked before any shard lookup.
  Mailbox box(2, 0, 4);
  const std::vector<float> h = {1.0f, 2.0f};
  EXPECT_THROW(box.accumulate(0, 1.0f, h, {}), check_error);
  EXPECT_THROW(box.mark_self_changed(3), check_error);
  EXPECT_THROW(box.touched_delta(4000000), check_error);
  EXPECT_FALSE(box.contains(0));
  EXPECT_FALSE(box.contains(4000000));
  EXPECT_TRUE(box.empty());
  for (std::size_t s = 0; s < box.num_shards(); ++s) {
    EXPECT_EQ(box.row_range(s).first, box.row_range(s).second);
  }
}

// Every shard's rows are one ascending range, the ranges follow shard
// index order and cover [0, rows) without a gap, each within one row of
// rows / num_shards, and shard_of agrees with row_range for every row.
void expect_contiguous_row_ranges(const Mailbox& box, std::size_t rows,
                                  const std::vector<VertexId>& vertex_of_row) {
  std::size_t next = 0;
  const double width =
      static_cast<double>(rows) / static_cast<double>(box.num_shards());
  for (std::size_t s = 0; s < box.num_shards(); ++s) {
    const auto [first, last] = box.row_range(s);
    EXPECT_EQ(first, next) << "shard " << s;
    ASSERT_LE(first, last) << "shard " << s;
    EXPECT_LE(std::abs(static_cast<double>(last - first) - width), 1.0)
        << "shard " << s;
    for (std::size_t row = first; row < last; ++row) {
      EXPECT_EQ(box.shard_of(vertex_of_row[row]), s) << "row " << row;
    }
    next = last;
  }
  EXPECT_EQ(next, rows);
}

TEST(Mailbox, ShardsAreContiguousRowRanges) {
  std::vector<VertexId> ids(4096);
  std::iota(ids.begin(), ids.end(), 0u);
  for (const std::size_t rows : {1000u, 7u, 1u}) {
    SCOPED_TRACE(rows);
    expect_contiguous_row_ranges(Mailbox(1, rows, 8), rows, ids);
  }

  // Re-spanned by resize_rows.
  Mailbox box(1, 1000, 8);
  box.resize_rows(4096);
  expect_contiguous_row_ranges(box, 4096, ids);
  box.resize_rows(30);
  expect_contiguous_row_ranges(box, 30, ids);

  // With a local-row table the ranges are over local rows, not ids: 600
  // owned ids spread over [0, 6000) in a shuffled order.
  std::vector<VertexId> owned(600);
  for (VertexId i = 0; i < owned.size(); ++i) owned[i] = 10 * i + 3;
  Rng rng(5);
  for (std::size_t i = owned.size(); i > 1; --i) {
    std::swap(owned[i - 1], owned[rng.next_u64() % i]);
  }
  std::vector<std::uint32_t> local_row(6000, 0);
  for (std::uint32_t row = 0; row < owned.size(); ++row) {
    local_row[owned[row]] = row;
  }
  Mailbox remapped(1, owned.size(), 4, local_row.data());
  expect_contiguous_row_ranges(remapped, owned.size(), owned);
  for (const VertexId v : owned) remapped.mark_self_changed(v);
  for (std::size_t s = 0; s < remapped.num_shards(); ++s) {
    const auto [first, last] = remapped.row_range(s);
    EXPECT_EQ(remapped.shard(s).size(), last - first);
    for (const VertexId v : remapped.shard(s).vertices) {
      EXPECT_GE(local_row[v], first);
      EXPECT_LT(local_row[v], last);
    }
  }
}

TEST(Mailbox, ResizeRowsOnlyWhileEmpty) {
  Mailbox box(1, 4);
  box.mark_self_changed(3);
  EXPECT_THROW(box.resize_rows(8), check_error);
  box.clear();
  box.resize_rows(8);
  box.mark_self_changed(7);
  EXPECT_TRUE(box.contains(7));
  box.clear();
  box.resize_rows(2);
  EXPECT_FALSE(box.contains(3));
  EXPECT_THROW(box.mark_self_changed(3), check_error);
}

TEST(Mailbox, RemappedRowsAddressCells) {
  // A partition-local index: global ids 10, 20, 30 own rows 2, 0, 1; row 0
  // is also what a foreign vertex (40) maps to in its own partition.
  std::vector<std::uint32_t> local_row(41, 0);
  local_row[10] = 2;
  local_row[20] = 0;
  local_row[30] = 1;
  Mailbox box(1, 3, 2, local_row.data());
  for (const VertexId v : {30, 10, 20}) box.mark_self_changed(v);
  EXPECT_EQ(box.sorted_vertices(), (std::vector<VertexId>{10, 20, 30}));
  EXPECT_TRUE(box.contains(20));
  EXPECT_FALSE(box.contains(40));  // row 0 holds vertex 20's cell
  box.clear();
  EXPECT_FALSE(box.contains(20));
}

TEST(Mailbox, RandomOpsMatchMapReference) {
  // Seeded differential test against a std::map of cells: ids span three
  // radix digits (> 65535), cells are re-touched after clear(), and both
  // canonical orders must equal std::sort's.
  struct Cell {
    std::vector<float> delta;
    bool touched = false;
    bool self = false;
  };
  constexpr std::size_t kDim = 5;
  constexpr std::size_t kRows = 300000;
  Rng rng(2024);
  std::vector<VertexId> pool;
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t bound = i % 3 == 0 ? 256 : (i % 3 == 1 ? 65536 : kRows);
    pool.push_back(static_cast<VertexId>(rng.next_below(bound)));
  }
  Mailbox box(kDim, kRows, 4);
  std::map<VertexId, Cell> ref;
  std::vector<float> h_new(kDim);
  std::vector<float> h_old(kDim);
  for (int round = 0; round < 30; ++round) {
    const auto ops = rng.next_below(600);
    for (std::uint64_t op = 0; op < ops; ++op) {
      const VertexId v = pool[rng.next_below(pool.size())];
      Cell& cell = ref[v];
      cell.delta.resize(kDim, 0.0f);
      if (rng.next_below(5) == 0) {
        box.mark_self_changed(v);
        cell.self = true;
        continue;
      }
      const float alpha = rng.next_float(-2.0f, 2.0f);
      for (std::size_t j = 0; j < kDim; ++j) {
        h_new[j] = rng.next_float(-1.0f, 1.0f);
        h_old[j] = rng.next_float(-1.0f, 1.0f);
      }
      const auto kind = rng.next_below(3);  // add, delete, or feature delta
      const std::span<const float> x_new =
          kind == 1 ? std::span<const float>{} : std::span<const float>(h_new);
      const std::span<const float> x_old =
          kind == 0 ? std::span<const float>{} : std::span<const float>(h_old);
      box.accumulate(v, alpha, x_new, x_old);
      if (!x_new.empty()) vec_axpy(cell.delta, alpha, x_new);
      if (!x_old.empty()) vec_axpy(cell.delta, -alpha, x_old);
      cell.touched = true;
    }

    ASSERT_EQ(box.size(), ref.size()) << "round " << round;
    std::vector<VertexId> expected;
    for (const auto& [v, cell] : ref) {
      expected.push_back(v);
      ASSERT_TRUE(box.contains(v));
      const auto got = box.entry(v);
      EXPECT_EQ(got.touched_agg, cell.touched) << "v=" << v;
      EXPECT_EQ(got.self_changed, cell.self) << "v=" << v;
      for (std::size_t j = 0; j < kDim; ++j) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got.delta_agg[j]),
                  std::bit_cast<std::uint32_t>(cell.delta[j]))
            << "v=" << v << " j=" << j;
      }
    }
    EXPECT_EQ(box.sorted_vertices(), expected);
    for (std::size_t s = 0; s < box.num_shards(); ++s) {
      const Mailbox::Shard& shard = box.shard(s);
      std::vector<std::uint32_t> slots(shard.size());
      std::iota(slots.begin(), slots.end(), 0u);
      std::sort(slots.begin(), slots.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return shard.vertices[a] < shard.vertices[b];
                });
      EXPECT_EQ(shard.sorted_slots(), slots) << "shard " << s;
    }
    // Most rounds clear, as every hop does; the rest keep accumulating.
    if (rng.next_below(4) != 0) {
      box.clear();
      ref.clear();
      EXPECT_TRUE(box.empty());
    }
  }
}

TEST(Mailbox, ShardOfIsStableAndInRange) {
  Mailbox box(2, 1000, 8);
  EXPECT_EQ(box.num_shards(), 8u);
  for (VertexId v = 0; v < 1000; ++v) {
    const auto s = box.shard_of(v);
    EXPECT_LT(s, 8u);
    EXPECT_EQ(s, box.shard_of(v));  // pure function of (row, rows, shards)
  }
}

TEST(Mailbox, ShardSizesSumToTotal) {
  Mailbox box(2, 100, 4);
  const std::vector<float> h = {1.0f, 2.0f};
  for (VertexId v = 0; v < 100; ++v) box.accumulate(v, 1.0f, h, {});
  std::size_t total = 0;
  for (std::size_t s = 0; s < box.num_shards(); ++s) {
    total += box.shard(s).size();
    for (const VertexId v : box.shard(s).vertices) {
      EXPECT_EQ(box.shard_of(v), s);
    }
  }
  EXPECT_EQ(total, box.size());
  EXPECT_EQ(total, 100u);
}

TEST(Mailbox, ShardedAccumulationMatchesFlat) {
  // The same message sequence must produce bit-identical cells for any
  // shard count (sharding only changes placement, never values).
  Mailbox flat(3, 50, 1);
  Mailbox sharded(3, 50, 8);
  for (int i = 0; i < 200; ++i) {
    const auto v = static_cast<VertexId>((i * 37) % 50);
    const float alpha = 0.5f + 0.01f * static_cast<float>(i % 7);
    const std::vector<float> h_new = {1.1f * i, -0.3f * i, 2.0f};
    const std::vector<float> h_old = {0.2f * i, 0.0f, -1.0f};
    flat.accumulate(v, alpha, h_new, h_old);
    sharded.accumulate(v, alpha, h_new, h_old);
  }
  ASSERT_EQ(flat.size(), sharded.size());
  for (const VertexId v : flat.sorted_vertices()) {
    ASSERT_TRUE(sharded.contains(v));
    const auto a = flat.entry(v);
    const auto b = sharded.entry(v);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(a.delta_agg[j], b.delta_agg[j]) << "v=" << v << " j=" << j;
    }
  }
}

TEST(Mailbox, SortedVerticesAscendingAndComplete) {
  Mailbox box(1, 501, 8);
  const std::vector<VertexId> inserted = {90, 3, 41, 7, 500, 12, 0};
  for (const VertexId v : inserted) {
    box.accumulate(v, 1.0f, std::vector<float>{1.0f}, {});
  }
  const auto order = box.sorted_vertices();
  ASSERT_EQ(order.size(), inserted.size());
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  for (const VertexId v : inserted) {
    EXPECT_TRUE(std::binary_search(order.begin(), order.end(), v));
  }
}

TEST(Mailbox, SortedSlotsOrderShardByVertexId) {
  Mailbox box(1, 101, 2);
  for (const VertexId v : {44, 2, 17, 100, 5}) {
    box.mark_self_changed(v);
  }
  for (std::size_t s = 0; s < box.num_shards(); ++s) {
    const auto& shard = box.shard(s);
    const auto slots = shard.sorted_slots();
    ASSERT_EQ(slots.size(), shard.size());
    for (std::size_t i = 1; i < slots.size(); ++i) {
      EXPECT_LT(shard.vertices[slots[i - 1]], shard.vertices[slots[i]]);
    }
  }
}

TEST(Mailbox, ClearRetainsShardStructure) {
  Mailbox box(2, 16, 4);
  box.accumulate(1, 1.0f, std::vector<float>{1.0f, 2.0f}, {});
  box.clear();
  EXPECT_TRUE(box.empty());
  EXPECT_EQ(box.num_shards(), 4u);
  // Usable again after clear.
  box.accumulate(9, 1.0f, std::vector<float>{3.0f, 4.0f}, {});
  EXPECT_EQ(box.size(), 1u);
  EXPECT_FLOAT_EQ(box.entry(9).delta_agg[1], 4.0f);
}

}  // namespace
}  // namespace ripple
