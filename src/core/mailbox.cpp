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

std::uint32_t Mailbox::slot_of(Shard& shard, VertexId v) {
  const std::size_t row = row_of(v);
  RIPPLE_CHECK_MSG(row < slot_.size(), "mailbox row " << row << " of vertex "
                                           << v << " beyond " << slot_.size());
  std::uint32_t& slot = slot_[row];
  if (slot == kAbsent) {
    slot = static_cast<std::uint32_t>(shard.size());
    shard.vertices.push_back(v);
    shard.deltas.resize(shard.deltas.size() + dim_, 0.0f);
    shard.touched.push_back(0);
    shard.self.push_back(0);
  }
  return slot;
}

std::span<float> Mailbox::touched_delta(VertexId v) {
  Shard& shard = mutable_shard(v);
  const std::uint32_t slot = slot_of(shard, v);
  shard.touched[slot] = 1;
  return {shard.deltas.data() + slot * dim_, dim_};
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
  Shard& shard = mutable_shard(v);
  shard.self[slot_of(shard, v)] = 1;
}

bool Mailbox::contains(VertexId v) const {
  const std::size_t row = row_of(v);
  if (row >= slot_.size()) return false;
  // A remapped row can name another vertex's cell; the slot's vertex decides.
  const Shard& shard = shards_[shard_of(v)];
  const std::uint32_t slot = slot_[row];
  return slot < shard.size() && shard.vertices[slot] == v;
}

Mailbox::EntryView Mailbox::entry(VertexId v) {
  Shard& shard = mutable_shard(v);
  const std::uint32_t slot = slot_of(shard, v);
  return EntryView{
      .delta_agg = std::span<float>(shard.deltas.data() + slot * dim_, dim_),
      .touched_agg = shard.touched[slot] != 0,
      .self_changed = shard.self[slot] != 0,
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
