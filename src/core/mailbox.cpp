#include "core/mailbox.h"

#include <algorithm>

#include "common/check.h"

namespace ripple {

Mailbox::Mailbox(std::size_t dim, std::size_t num_shards) : dim_(dim) {
  RIPPLE_CHECK_MSG(num_shards >= 1, "mailbox needs at least one shard");
  shards_.resize(num_shards);
}

std::vector<std::uint32_t> Mailbox::Shard::sorted_slots() const {
  std::vector<std::uint32_t> slots(vertices.size());
  for (std::uint32_t i = 0; i < slots.size(); ++i) slots[i] = i;
  std::sort(slots.begin(), slots.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return vertices[a] < vertices[b];
            });
  return slots;
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
  const auto [it, inserted] =
      shard.index.try_emplace(v, static_cast<std::uint32_t>(shard.size()));
  if (inserted) {
    shard.vertices.push_back(v);
    shard.deltas.resize(shard.deltas.size() + dim_, 0.0f);
    shard.touched.push_back(0);
    shard.self.push_back(0);
  }
  return it->second;
}

void Mailbox::accumulate(VertexId v, float alpha,
                         std::span<const float> h_new,
                         std::span<const float> h_old) {
  Shard& shard = mutable_shard(v);
  const std::uint32_t slot = slot_of(shard, v);
  shard.touched[slot] = 1;
  const std::span<float> delta(shard.deltas.data() + slot * dim_, dim_);
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
  const Shard& shard = shards_[shard_of(v)];
  return shard.index.find(v) != shard.index.end();
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
  std::sort(order.begin(), order.end());
  return order;
}

void Mailbox::clear() {
  for (Shard& shard : shards_) {
    shard.index.clear();
    shard.vertices.clear();
    shard.deltas.clear();
    shard.touched.clear();
    shard.self.clear();
  }
}

std::size_t Mailbox::bytes() const {
  std::size_t total = sizeof(Shard) * shards_.size();
  for (const Shard& shard : shards_) {
    // Dense slot-major buffers (capacity, not size: the memory is resident).
    total += shard.vertices.capacity() * sizeof(VertexId);
    total += shard.deltas.capacity() * sizeof(float);
    total += shard.touched.capacity() + shard.self.capacity();
    // unordered_map overhead: one heap node per element (key/value pair plus
    // the next pointer and cached hash libstdc++ stores per node) and the
    // bucket pointer array.
    constexpr std::size_t kNodeBytes =
        sizeof(std::pair<const VertexId, std::uint32_t>) +
        2 * sizeof(void*);
    total += shard.index.size() * kNodeBytes;
    total += shard.index.bucket_count() * sizeof(void*);
  }
  return total;
}

}  // namespace ripple
