// Deterministic per-rank checkpoint files (docs/fault_tolerance.md).
//
// Every K batches each rank snapshots its OWNED vertex state — the same
// owned-row layout a migration ships (docs/repartition.md): committed
// H^0..H^L rows plus, for the ripple engine, the aggregate-cache rows —
// together with the partition assignment + version and the stream cursor
// (batches applied so far). Because the whole distributed stack is
// bit-deterministic, that is ALL recovery needs: survivors plus a
// replacement rank rebuild the stream-prefix topology, install the
// checkpointed rows, refill halos from the restored owners, and replay the
// stream suffix — landing on embeddings BIT-identical to a run that never
// failed (tests/dist/test_checkpoint.cpp pins this to zero tolerance).
//
// File format (host-endian, like the wire):
//   u64 magic  u32 version  u32 rank  u32 num_parts  u32 row_width
//   u64 stream_cursor  u64 partition_version  u64 num_vertices
//   u32 key_len + engine key bytes ("ripple" | "rc")
//   u64 part_of_len + u32[part_of_len]     full assignment table
//   u64 num_owned + u32[num_owned]         owned vertex ids, ascending
//   num_owned * row_width * f32            state rows, same order
//   u32 crc32 over every preceding byte
//
// Durability: the file is written to "<path>.tmp", fsync'd, and atomically
// renamed into place — a crash mid-write can never leave a torn file under
// the final name, and the CRC rejects torn or bit-rotted content on read
// (TransportError{kCorrupt}). The engine stages each file as a
// CheckpointImage at the batch boundary and commits it on a background task
// (DistEngineBase::write_checkpoint), so a file is durable only after
// flush_checkpoint(), the next write_checkpoint() or the engine's
// destruction. A rank that dies before then leaves at most a ".tmp" for
// that cursor, which no reader counts, so recovery falls back to the
// previous complete cursor.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"

namespace ripple {

inline constexpr std::uint64_t kCheckpointMagic = 0x31544b5043'4c5052ULL;
inline constexpr std::uint32_t kCheckpointFormatVersion = 1;

struct CheckpointMeta {
  std::string engine_key;              // "ripple" | "rc"
  std::uint64_t stream_cursor = 0;     // batches applied at snapshot time
  std::uint32_t rank = 0;
  std::uint32_t num_parts = 0;
  std::uint64_t partition_version = 0;
  std::uint64_t num_vertices = 0;
  std::uint32_t row_width = 0;         // floats per per-vertex state row
  std::vector<std::uint32_t> part_of;  // full assignment table
};

struct CheckpointData {
  CheckpointMeta meta;
  std::vector<VertexId> vertices;  // owned vertices, ascending global id
  std::vector<float> rows;         // vertices.size() * row_width floats
};

// CRC-32 (IEEE 802.3 polynomial, slicing-by-8 tables). `seed` chains calls:
// crc32(b, m, crc32(a, n)) == crc32 of a's n bytes followed by b's m.
std::uint32_t crc32(const void* data, std::size_t len,
                    std::uint32_t seed = 0);

// "<dir>/ckpt_<cursor>_rank<rank>.bin"
std::string checkpoint_path(const std::string& dir, std::uint64_t cursor,
                            std::size_t rank);

// One checkpoint file staged for commit: every byte of its image but the
// CRC trailer, in a buffer reserved for the whole file, and "<path>.tmp"
// already open for writing.
struct CheckpointImage {
  std::string path;                 // the final name
  std::size_t size = 0;             // file bytes, CRC trailer included
  std::vector<std::uint8_t> bytes;  // capacity() >= size
  struct Close {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  std::unique_ptr<std::FILE, Close> tmp;

  // Appends state-row floats after the owned-id table.
  void append(std::span<const float> row) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(row.data());
    bytes.insert(bytes.end(), p, p + row.size_bytes());
  }
};

// Opens "<final>.tmp" (check_error when it cannot) and writes the header,
// the part_of table and the owned ids of `vertices` (ascending) into an
// image reserved for exactly those, vertices.size() * meta.row_width floats
// and the CRC. The caller appends the rows in the same vertex order.
CheckpointImage begin_checkpoint_image(const std::string& dir,
                                       const CheckpointMeta& meta,
                                       std::span<const VertexId> vertices);

// Appends the CRC, writes, fsyncs, closes and renames "<path>.tmp" into
// place. Touches nothing but `image`, so it may run on any thread.
void commit_checkpoint_image(CheckpointImage image);

// begin_checkpoint_image + data.rows + commit_checkpoint_image.
void write_checkpoint_file(const std::string& dir,
                           const CheckpointData& data);

// Parses + validates (magic, format version, CRC, internal sizes); throws
// TransportError{kCorrupt} on any mismatch and check_error if the file
// cannot be opened.
CheckpointData read_checkpoint_file(const std::string& path);

// Highest stream cursor for which EVERY rank 0..num_parts-1 has a
// readable, CRC-valid checkpoint file in `dir`; nullopt when none exists.
// A crash between two ranks' writes leaves the newest cursor incomplete —
// recovery then falls back to the previous complete one.
std::optional<std::uint64_t> latest_checkpoint_cursor(const std::string& dir,
                                                      std::size_t num_parts);

}  // namespace ripple
