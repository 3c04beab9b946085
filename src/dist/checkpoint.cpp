#include "dist/checkpoint.h"

#include <dirent.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "dist/transport_error.h"

namespace ripple {
namespace {

// Slicing-by-8: entry[0] is the classic bytewise table, and entry[k][b] is
// the CRC of byte b followed by k zero bytes, so one step folds 8 bytes.
struct Crc32Tables {
  std::uint32_t entry[8][256];
  Crc32Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      entry[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const std::uint32_t prev = entry[k - 1][i];
        entry[k][i] = entry[0][prev & 0xffu] ^ (prev >> 8);
      }
    }
  }
};

[[noreturn]] void corrupt(const std::string& path, const std::string& what) {
  throw TransportError(TransportErrorKind::kCorrupt,
                       "checkpoint " + path + ": " + what);
}

// Bounded little reader over the in-memory file image. The CRC covers every
// length it reads, but a crafted file can carry a valid CRC, so lengths are
// still bounded against the bytes actually present.
struct Reader {
  const std::string& path;
  const std::vector<std::uint8_t>& buf;
  std::size_t pos = 0;

  void need(std::size_t n, const char* what) {
    if (buf.size() - pos < n) corrupt(path, std::string("truncated ") + what);
  }
  // need() for `count` elements of `size` bytes, bounded by division: a
  // file-supplied count near 2^64 must not wrap count * size past the
  // check. Returns the byte count.
  std::size_t need_array(std::uint64_t count, std::size_t size,
                         const char* what) {
    if (size != 0 && count > (buf.size() - pos) / size) {
      corrupt(path, std::string("truncated ") + what);
    }
    return count * size;
  }
  template <typename T>
  T scalar(const char* what) {
    need(sizeof(T), what);
    T out;
    std::memcpy(&out, buf.data() + pos, sizeof(T));
    pos += sizeof(T);
    return out;
  }
};

template <typename T>
void append(std::vector<std::uint8_t>& out, const T& value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  static const Crc32Tables tables;
  const auto& t = tables.entry;
  std::uint32_t c = seed ^ 0xffffffffu;
  const auto* p = static_cast<const std::uint8_t*>(data);
  // The 8-byte step reads two little-endian words; other hosts take the
  // bytewise loop, which yields the same values.
  if constexpr (std::endian::native == std::endian::little) {
    for (; len >= 8; p += 8, len -= 8) {
      std::uint32_t lo, hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::string checkpoint_path(const std::string& dir, std::uint64_t cursor,
                            std::size_t rank) {
  std::ostringstream os;
  os << dir << "/ckpt_" << cursor << "_rank" << rank << ".bin";
  return os.str();
}

CheckpointImage begin_checkpoint_image(const std::string& dir,
                                       const CheckpointMeta& meta,
                                       std::span<const VertexId> vertices) {
  CheckpointImage image;
  image.path = checkpoint_path(dir, meta.stream_cursor, meta.rank);
  // One term per field, in the order written below.
  image.size = sizeof(kCheckpointMagic) + sizeof(kCheckpointFormatVersion) +
               sizeof(meta.rank) + sizeof(meta.num_parts) +
               sizeof(meta.row_width) + sizeof(meta.stream_cursor) +
               sizeof(meta.partition_version) + sizeof(meta.num_vertices) +
               sizeof(std::uint32_t) + meta.engine_key.size() +
               sizeof(std::uint64_t) +
               meta.part_of.size() * sizeof(std::uint32_t) +
               sizeof(std::uint64_t) + vertices.size() * sizeof(VertexId) +
               vertices.size() * meta.row_width * sizeof(float) +
               sizeof(std::uint32_t);
  image.bytes.reserve(image.size);
  std::vector<std::uint8_t>& out = image.bytes;
  append(out, kCheckpointMagic);
  append(out, kCheckpointFormatVersion);
  append(out, meta.rank);
  append(out, meta.num_parts);
  append(out, meta.row_width);
  append(out, meta.stream_cursor);
  append(out, meta.partition_version);
  append(out, meta.num_vertices);
  append(out, static_cast<std::uint32_t>(meta.engine_key.size()));
  out.insert(out.end(), meta.engine_key.begin(), meta.engine_key.end());
  append(out, static_cast<std::uint64_t>(meta.part_of.size()));
  const auto* part_of =
      reinterpret_cast<const std::uint8_t*>(meta.part_of.data());
  out.insert(out.end(), part_of,
             part_of + meta.part_of.size() * sizeof(std::uint32_t));
  append(out, static_cast<std::uint64_t>(vertices.size()));
  const auto* ids = reinterpret_cast<const std::uint8_t*>(vertices.data());
  out.insert(out.end(), ids, ids + vertices.size_bytes());

  // tmp + fsync + atomic rename: the final name only ever appears with a
  // complete image behind it, so a crash mid-write cannot strand a torn
  // file where latest_checkpoint_cursor() would trust it.
  const std::string tmp = image.path + ".tmp";
  image.tmp.reset(std::fopen(tmp.c_str(), "wb"));
  RIPPLE_CHECK_MSG(image.tmp != nullptr,
                   "cannot open checkpoint tmp file " + tmp);
  return image;
}

void commit_checkpoint_image(CheckpointImage image) {
  std::vector<std::uint8_t>& out = image.bytes;
  RIPPLE_CHECK_MSG(out.size() + sizeof(std::uint32_t) == image.size,
                   "checkpoint image for " + image.path + " holds " +
                       std::to_string(out.size()) + " bytes before its CRC");
  append(out, crc32(out.data(), out.size()));
  const std::string tmp = image.path + ".tmp";
  std::FILE* f = image.tmp.get();
  const std::size_t wrote = std::fwrite(out.data(), 1, out.size(), f);
  const bool flushed = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  const bool closed = std::fclose(image.tmp.release()) == 0;
  RIPPLE_CHECK_MSG(wrote == out.size() && flushed && closed,
                   "short write for checkpoint tmp file " + tmp);
  RIPPLE_CHECK_MSG(std::rename(tmp.c_str(), image.path.c_str()) == 0,
                   "cannot rename checkpoint into place: " + image.path);
}

void write_checkpoint_file(const std::string& dir,
                           const CheckpointData& data) {
  RIPPLE_CHECK_MSG(data.rows.size() ==
                       data.vertices.size() * std::size_t{data.meta.row_width},
                   "checkpoint rows/vertices size mismatch");
  CheckpointImage image = begin_checkpoint_image(dir, data.meta, data.vertices);
  image.append(data.rows);
  commit_checkpoint_image(std::move(image));
}

CheckpointData read_checkpoint_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  RIPPLE_CHECK_MSG(f != nullptr, "cannot open checkpoint file " + path);
  std::vector<std::uint8_t> buf;
  std::uint8_t chunk[1 << 16];
  for (std::size_t n; (n = std::fread(chunk, 1, sizeof(chunk), f)) > 0;) {
    buf.insert(buf.end(), chunk, chunk + n);
  }
  std::fclose(f);

  if (buf.size() < sizeof(std::uint32_t)) corrupt(path, "file too small");
  std::uint32_t stored_crc;
  std::memcpy(&stored_crc, buf.data() + buf.size() - 4, 4);
  if (crc32(buf.data(), buf.size() - 4) != stored_crc) {
    corrupt(path, "CRC mismatch");
  }
  buf.resize(buf.size() - 4);

  Reader r{path, buf};
  if (r.scalar<std::uint64_t>("magic") != kCheckpointMagic) {
    corrupt(path, "bad magic");
  }
  const auto version = r.scalar<std::uint32_t>("format version");
  if (version != kCheckpointFormatVersion) {
    corrupt(path, "unsupported format version " + std::to_string(version));
  }
  CheckpointData data;
  CheckpointMeta& meta = data.meta;
  meta.rank = r.scalar<std::uint32_t>("rank");
  meta.num_parts = r.scalar<std::uint32_t>("num_parts");
  meta.row_width = r.scalar<std::uint32_t>("row_width");
  meta.stream_cursor = r.scalar<std::uint64_t>("stream_cursor");
  meta.partition_version = r.scalar<std::uint64_t>("partition_version");
  meta.num_vertices = r.scalar<std::uint64_t>("num_vertices");
  const auto key_len = r.scalar<std::uint32_t>("engine key length");
  r.need(key_len, "engine key");
  meta.engine_key.assign(reinterpret_cast<const char*>(buf.data() + r.pos),
                         key_len);
  r.pos += key_len;
  const auto part_of_len = r.scalar<std::uint64_t>("part_of length");
  if (part_of_len != meta.num_vertices) {
    corrupt(path, "part_of table length disagrees with num_vertices");
  }
  const std::size_t part_of_bytes =
      r.need_array(part_of_len, sizeof(std::uint32_t), "part_of table");
  meta.part_of.resize(part_of_len);
  std::memcpy(meta.part_of.data(), buf.data() + r.pos, part_of_bytes);
  r.pos += part_of_bytes;
  const auto num_owned = r.scalar<std::uint64_t>("owned vertex count");
  const std::size_t owned_bytes =
      r.need_array(num_owned, sizeof(VertexId), "owned vertex ids");
  data.vertices.resize(num_owned);
  std::memcpy(data.vertices.data(), buf.data() + r.pos, owned_bytes);
  r.pos += owned_bytes;
  const std::size_t row_bytes = r.need_array(
      num_owned, std::size_t{meta.row_width} * sizeof(float), "state rows");
  data.rows.resize(num_owned * std::size_t{meta.row_width});
  std::memcpy(data.rows.data(), buf.data() + r.pos, row_bytes);
  r.pos += row_bytes;
  if (r.pos != buf.size()) corrupt(path, "trailing bytes after state rows");

  for (std::uint32_t p : meta.part_of) {
    if (p >= meta.num_parts) corrupt(path, "part_of entry out of range");
  }
  for (std::size_t i = 0; i < data.vertices.size(); ++i) {
    if (data.vertices[i] >= meta.num_vertices) {
      corrupt(path, "owned vertex id out of range");
    }
    if (i > 0 && data.vertices[i] <= data.vertices[i - 1]) {
      corrupt(path, "owned vertex ids not strictly ascending");
    }
    if (meta.part_of[data.vertices[i]] != meta.rank) {
      corrupt(path, "owned vertex not assigned to this rank");
    }
  }
  return data;
}

std::optional<std::uint64_t> latest_checkpoint_cursor(const std::string& dir,
                                                      std::size_t num_parts) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return std::nullopt;
  // cursor -> set of ranks with a file under the FINAL name (tmp files are
  // by construction incomplete and never counted).
  std::map<std::uint64_t, std::vector<bool>> seen;
  while (dirent* ent = ::readdir(d)) {
    std::uint64_t cursor = 0;
    unsigned long rank = 0;
    int consumed = 0;
    if (std::sscanf(ent->d_name, "ckpt_%llu_rank%lu.bin%n",
                    reinterpret_cast<unsigned long long*>(&cursor), &rank,
                    &consumed) == 2 &&
        consumed == static_cast<int>(std::strlen(ent->d_name)) &&
        rank < num_parts) {
      auto& ranks = seen[cursor];
      ranks.resize(num_parts, false);
      ranks[rank] = true;
    }
  }
  ::closedir(d);
  for (auto it = seen.rbegin(); it != seen.rend(); ++it) {
    bool complete = true;
    for (std::size_t rank = 0; complete && rank < num_parts; ++rank) {
      complete = it->second[rank];
      if (complete) {
        try {
          (void)read_checkpoint_file(
              checkpoint_path(dir, it->first, rank));
        } catch (const std::exception&) {
          complete = false;
        }
      }
    }
    if (complete) return it->first;
  }
  return std::nullopt;
}

}  // namespace ripple
