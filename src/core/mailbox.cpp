#include "core/mailbox.h"

#include <algorithm>
#include <array>
#include <utility>

#include "common/check.h"

namespace ripple {

namespace {

// LSD radix sort of `keys` by their 32-bit field `key >> shift`, 8-bit
// digits. Passes stop at the largest field's top nonzero digit, so ids
// below 65536 take two passes. Stable, though mailbox ids are distinct
// anyway: the result equals std::sort's.
template <typename Key>
void radix_sort(std::vector<Key>& keys, unsigned shift) {
  if (keys.size() < 2) return;
  std::uint32_t top = 0;
  for (const Key key : keys) {
    top = std::max(top, static_cast<std::uint32_t>(key >> shift));
  }
  std::vector<Key> buf(keys.size());
  for (unsigned d = 0; d < 32 && (top >> d) != 0; d += 8) {
    std::array<std::size_t, 256> start{};
    for (const Key key : keys) ++start[(key >> (shift + d)) & 0xFF];
    std::size_t sum = 0;
    for (std::size_t& count : start) sum += std::exchange(count, sum);
    for (const Key key : keys) buf[start[(key >> (shift + d)) & 0xFF]++] = key;
    keys.swap(buf);
  }
}

}  // namespace

Mailbox::Mailbox(std::size_t dim, std::size_t rows, std::size_t num_shards,
                 const std::uint32_t* local_row)
    : dim_(dim), local_row_(local_row), slot_(rows, kAbsent) {
  RIPPLE_CHECK_MSG(num_shards >= 1, "mailbox needs at least one shard");
  shards_.resize(num_shards);
  span_rows();
}

void Mailbox::span_rows() {
  // row · row_scale_ < num_shards · 2^32 for every row below rows, so the
  // product fits 64 bits.
  row_scale_ = slot_.empty()
                   ? 0
                   : (static_cast<std::uint64_t>(shards_.size()) << 32) /
                         slot_.size();
}

std::pair<std::size_t, std::size_t> Mailbox::row_range(std::size_t s) const {
  // shard_of_row(row) >= s  <=>  row · row_scale_ >= s · 2^32.
  const auto first_row = [&](std::size_t shard) -> std::size_t {
    if (row_scale_ == 0) return 0;
    const std::uint64_t row =
        ((static_cast<std::uint64_t>(shard) << 32) + row_scale_ - 1) /
        row_scale_;
    return std::min<std::uint64_t>(row, slot_.size());
  };
  return {first_row(s), first_row(s + 1)};
}

std::vector<std::uint32_t> Mailbox::Shard::sorted_slots() const {
  // (vertex << 32 | slot) keys, sorted on the vertex half.
  std::vector<std::uint64_t> keys(vertices.size());
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    keys[i] = (static_cast<std::uint64_t>(vertices[i]) << 32) | i;
  }
  radix_sort(keys, 32);
  std::vector<std::uint32_t> slots(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    slots[i] = static_cast<std::uint32_t>(keys[i]);
  }
  return slots;
}

void Mailbox::resize_rows(std::size_t rows) {
  RIPPLE_CHECK_MSG(empty(), "mailbox index resized with pending cells");
  slot_.resize(rows, kAbsent);
  span_rows();
}

std::size_t Mailbox::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.size();
  return total;
}

bool Mailbox::empty() const {
  for (const Shard& shard : shards_) {
    if (!shard.vertices.empty()) return false;
  }
  return true;
}

Mailbox::Cell Mailbox::cell_of(VertexId v) {
  const std::size_t row = row_of(v);
  RIPPLE_CHECK_MSG(row < slot_.size(), "mailbox row " << row << " of vertex "
                                           << v << " beyond " << slot_.size());
  Shard& shard = shards_[shard_of_row(row)];
  std::uint32_t& slot = slot_[row];
  if (slot == kAbsent) {
    slot = static_cast<std::uint32_t>(shard.size());
    shard.vertices.push_back(v);
    shard.deltas.resize(shard.deltas.size() + dim_, 0.0f);
    shard.touched.push_back(0);
    shard.self.push_back(0);
  }
  return {shard, slot};
}

std::span<float> Mailbox::touched_delta(VertexId v) {
  const Cell cell = cell_of(v);
  cell.shard.touched[cell.slot] = 1;
  return {cell.shard.deltas.data() + cell.slot * dim_, dim_};
}

void Mailbox::accumulate(VertexId v, float alpha,
                         std::span<const float> h_new,
                         std::span<const float> h_old) {
  const std::span<float> delta = touched_delta(v);
  if (!h_new.empty()) {
    RIPPLE_CHECK(h_new.size() == dim_);
    vec_axpy(delta, alpha, h_new);
  }
  if (!h_old.empty()) {
    RIPPLE_CHECK(h_old.size() == dim_);
    vec_axpy(delta, -alpha, h_old);
  }
}

void Mailbox::mark_self_changed(VertexId v) {
  const Cell cell = cell_of(v);
  cell.shard.self[cell.slot] = 1;
}

bool Mailbox::contains(VertexId v) const {
  const std::size_t row = row_of(v);
  if (row >= slot_.size()) return false;
  // A remapped row can name another vertex's cell; the slot's vertex decides.
  const Shard& shard = shards_[shard_of_row(row)];
  const std::uint32_t slot = slot_[row];
  return slot < shard.size() && shard.vertices[slot] == v;
}

Mailbox::EntryView Mailbox::entry(VertexId v) {
  const Cell cell = cell_of(v);
  return EntryView{
      .delta_agg = std::span<float>(
          cell.shard.deltas.data() + cell.slot * dim_, dim_),
      .touched_agg = cell.shard.touched[cell.slot] != 0,
      .self_changed = cell.shard.self[cell.slot] != 0,
  };
}

std::vector<std::size_t> Mailbox::shard_sizes() const {
  std::vector<std::size_t> sizes(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    sizes[s] = shards_[s].size();
  }
  return sizes;
}

std::vector<VertexId> Mailbox::sorted_vertices() const {
  std::vector<VertexId> order;
  order.reserve(size());
  for (const Shard& shard : shards_) {
    order.insert(order.end(), shard.vertices.begin(), shard.vertices.end());
  }
  radix_sort(order, 0);
  return order;
}

void Mailbox::clear() {
  for (Shard& shard : shards_) {
    for (const VertexId v : shard.vertices) slot_[row_of(v)] = kAbsent;
    shard.vertices.clear();
    shard.deltas.clear();
    shard.touched.clear();
    shard.self.clear();
  }
}

std::size_t Mailbox::bytes() const {
  // Capacity, not size: the memory is resident.
  std::size_t total = slot_.capacity() * sizeof(std::uint32_t) +
                      sizeof(Shard) * shards_.size();
  for (const Shard& shard : shards_) {
    total += shard.vertices.capacity() * sizeof(VertexId);
    total += shard.deltas.capacity() * sizeof(float);
    total += shard.touched.capacity() + shard.self.capacity();
  }
  return total;
}

}  // namespace ripple
