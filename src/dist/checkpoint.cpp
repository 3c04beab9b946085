#include "dist/checkpoint.h"

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>

#include "common/check.h"
#include "dist/transport_error.h"

namespace ripple {
namespace {

struct Crc32Table {
  std::uint32_t entry[256];
  Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      entry[i] = c;
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
  static const Crc32Table table;
  std::uint32_t c = seed ^ 0xffffffffu;
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    c = table.entry[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::string checkpoint_path(const std::string& dir, std::uint64_t cursor,
                            std::size_t rank) {
  std::ostringstream os;
  os << dir << "/ckpt_" << cursor << "_rank" << rank << ".bin";
  return os.str();
}

void write_checkpoint_file(const std::string& dir,
                           const CheckpointData& data) {
  const CheckpointMeta& meta = data.meta;
  RIPPLE_CHECK_MSG(data.rows.size() ==
                       data.vertices.size() * std::size_t{meta.row_width},
                   "checkpoint rows/vertices size mismatch");

  std::vector<std::uint8_t> image;
  image.reserve(64 + meta.part_of.size() * 4 + data.vertices.size() * 4 +
                data.rows.size() * 4);
  append(image, kCheckpointMagic);
  append(image, kCheckpointFormatVersion);
  append(image, meta.rank);
  append(image, meta.num_parts);
  append(image, meta.row_width);
  append(image, meta.stream_cursor);
  append(image, meta.partition_version);
  append(image, meta.num_vertices);
  append(image, static_cast<std::uint32_t>(meta.engine_key.size()));
  image.insert(image.end(), meta.engine_key.begin(), meta.engine_key.end());
  append(image, static_cast<std::uint64_t>(meta.part_of.size()));
  for (std::uint32_t p : meta.part_of) append(image, p);
  append(image, static_cast<std::uint64_t>(data.vertices.size()));
  for (VertexId v : data.vertices) append(image, v);
  const auto* rows = reinterpret_cast<const std::uint8_t*>(data.rows.data());
  image.insert(image.end(), rows, rows + data.rows.size() * sizeof(float));
  append(image, crc32(image.data(), image.size()));

  // tmp + fsync + atomic rename: the final name only ever appears with a
  // complete image behind it, so a crash mid-write cannot strand a torn
  // file where latest_checkpoint_cursor() would trust it.
  const std::string path =
      checkpoint_path(dir, meta.stream_cursor, meta.rank);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  RIPPLE_CHECK_MSG(f != nullptr, "cannot open checkpoint tmp file " + tmp);
  const std::size_t wrote = std::fwrite(image.data(), 1, image.size(), f);
  const bool flushed = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  RIPPLE_CHECK_MSG(wrote == image.size() && flushed,
                   "short write for checkpoint tmp file " + tmp);
  RIPPLE_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                   "cannot rename checkpoint into place: " + path);
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
