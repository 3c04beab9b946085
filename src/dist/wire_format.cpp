#include "dist/wire_format.h"

#include <cstring>

#include "common/check.h"
#include "dist/transport_error.h"
#include "tensor/precision.h"

namespace ripple::wire {

namespace {

// Decode-side validation failure: typed kCorrupt, never a CHECK abort —
// wire bytes are untrusted input, not a programming invariant.
[[noreturn]] void corrupt(const std::string& what) {
  throw TransportError(TransportErrorKind::kCorrupt, what);
}

template <typename T>
void put(std::vector<std::uint8_t>& out, T value) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

// Reads a T at `at`, advancing it; the caller has already validated that
// the body is long enough.
template <typename T>
T get(const std::uint8_t* data, std::size_t& at) {
  T value;
  std::memcpy(&value, data + at, sizeof(T));
  at += sizeof(T);
  return value;
}

void put_frame_header(std::vector<std::uint8_t>& out, FrameType type,
                      std::size_t body_bytes) {
  put<std::uint32_t>(out,
                     static_cast<std::uint32_t>(body_bytes + 1));  // + type
  put<std::uint8_t>(out, static_cast<std::uint8_t>(type));
}

}  // namespace

void append_payload_frame(std::vector<std::uint8_t>& out, VertexId sender,
                          std::uint32_t src_part, std::span<const float> row) {
  put_frame_header(out, FrameType::payload,
                   3 * sizeof(std::uint32_t) + row.size() * sizeof(float));
  put<std::uint32_t>(out, sender);
  put<std::uint32_t>(out, src_part);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(row.size()));
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(row.data());
  out.insert(out.end(), bytes, bytes + row.size() * sizeof(float));
}

void append_payload_frame_bf16(std::vector<std::uint8_t>& out,
                               VertexId sender, std::uint32_t src_part,
                               std::span<const float> row) {
  put_frame_header(
      out, FrameType::payload_bf16,
      3 * sizeof(std::uint32_t) + row.size() * sizeof(std::uint16_t));
  put<std::uint32_t>(out, sender);
  put<std::uint32_t>(out, src_part);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(row.size()));
  for (const float v : row) put<std::uint16_t>(out, bf16_from_f32(v));
}

void append_opaque_frame(std::vector<std::uint8_t>& out,
                         std::uint32_t src_part, std::uint32_t dst_part,
                         std::uint64_t payload_bytes,
                         std::uint64_t num_messages) {
  put_frame_header(out, FrameType::opaque,
                   2 * sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t));
  put<std::uint32_t>(out, src_part);
  put<std::uint32_t>(out, dst_part);
  put<std::uint64_t>(out, payload_bytes);
  put<std::uint64_t>(out, num_messages);
}

void append_barrier_frame(std::vector<std::uint8_t>& out,
                          std::uint32_t src_part, std::uint64_t superstep) {
  put_frame_header(out, FrameType::barrier,
                   sizeof(std::uint32_t) + sizeof(std::uint64_t));
  put<std::uint32_t>(out, src_part);
  put<std::uint64_t>(out, superstep);
}

void append_heartbeat_frame(std::vector<std::uint8_t>& out,
                            std::uint32_t src_part) {
  put_frame_header(out, FrameType::heartbeat, sizeof(std::uint32_t));
  put<std::uint32_t>(out, src_part);
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  // Compact the consumed prefix before growing, so long streams do not
  // accumulate dead bytes.
  if (cursor_ > 0 && cursor_ == buf_.size()) {
    buf_.clear();
    cursor_ = 0;
  } else if (cursor_ > 4096 && cursor_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(cursor_));
    cursor_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

bool FrameDecoder::next(Frame& out) {
  const std::size_t avail = buf_.size() - cursor_;
  if (avail < sizeof(std::uint32_t)) return false;
  std::size_t at = cursor_;
  const auto frame_len = get<std::uint32_t>(buf_.data(), at);
  if (frame_len < 1) corrupt("wire frame with empty body");
  if (frame_len > kMaxFrameBytes) {
    corrupt("wire frame length " + std::to_string(frame_len) +
            " exceeds kMaxFrameBytes");
  }
  if (avail < sizeof(std::uint32_t) + frame_len) return false;
  const std::size_t frame_end = at + frame_len;
  const auto type = static_cast<FrameType>(get<std::uint8_t>(buf_.data(), at));
  const auto need = [&](std::size_t bytes) {
    if (at + bytes > frame_end) {
      corrupt("wire frame body shorter than its type requires");
    }
  };
  out = Frame{};
  out.type = type;
  switch (type) {
    case FrameType::payload: {
      need(3 * sizeof(std::uint32_t));
      out.sender = get<std::uint32_t>(buf_.data(), at);
      out.src_part = get<std::uint32_t>(buf_.data(), at);
      const auto num_floats = get<std::uint32_t>(buf_.data(), at);
      need(num_floats * sizeof(float));
      out.row.resize(num_floats);
      if (num_floats > 0) {
        std::memcpy(out.row.data(), buf_.data() + at,
                    num_floats * sizeof(float));
      }
      at += num_floats * sizeof(float);
      break;
    }
    case FrameType::payload_bf16: {
      need(3 * sizeof(std::uint32_t));
      out.sender = get<std::uint32_t>(buf_.data(), at);
      out.src_part = get<std::uint32_t>(buf_.data(), at);
      const auto num_values = get<std::uint32_t>(buf_.data(), at);
      need(num_values * sizeof(std::uint16_t));
      out.row.resize(num_values);
      for (std::uint32_t i = 0; i < num_values; ++i) {
        out.row[i] = bf16_to_f32(get<std::uint16_t>(buf_.data(), at));
      }
      break;
    }
    case FrameType::opaque: {
      need(2 * sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t));
      out.src_part = get<std::uint32_t>(buf_.data(), at);
      out.dst_part = get<std::uint32_t>(buf_.data(), at);
      out.payload_bytes = get<std::uint64_t>(buf_.data(), at);
      out.num_messages = get<std::uint64_t>(buf_.data(), at);
      break;
    }
    case FrameType::barrier: {
      need(sizeof(std::uint32_t) + sizeof(std::uint64_t));
      out.src_part = get<std::uint32_t>(buf_.data(), at);
      out.superstep = get<std::uint64_t>(buf_.data(), at);
      break;
    }
    case FrameType::heartbeat: {
      need(sizeof(std::uint32_t));
      out.src_part = get<std::uint32_t>(buf_.data(), at);
      break;
    }
    default:
      corrupt("unknown wire frame type " +
              std::to_string(static_cast<int>(type)));
  }
  if (at != frame_end) corrupt("wire frame body longer than its type");
  cursor_ = frame_end;
  return true;
}

}  // namespace ripple::wire
