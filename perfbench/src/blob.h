// Byte blobs for results that forked round and rank processes report back
// to the benchmark's parent process through a pipe.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "trace.h"

namespace perfbench {

class BlobWriter {
 public:
  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    bytes_.insert(bytes_.end(), p, p + sizeof(T));
  }
  void put(const std::string& s) {
    put<std::uint64_t>(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  void put(const Span& s) {
    put(s.name);
    put(s.track);
    put(s.batch);
    put(s.parent);
    put(s.start_us);
    put(s.end_us);
  }
  template <typename T>
  void put(const std::vector<T>& v) {
    put<std::uint64_t>(v.size());
    for (const T& x : v) put(x);
  }
  template <typename V>
  void put(const std::map<std::string, V>& m) {
    put<std::uint64_t>(m.size());
    for (const auto& [key, value] : m) {
      put(key);
      put(value);
    }
  }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class BlobReader {
 public:
  explicit BlobReader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  template <typename T>
  void get(T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    RIPPLE_CHECK(at_ + sizeof(T) <= bytes_.size());
    std::memcpy(&value, bytes_.data() + at_, sizeof(T));
    at_ += sizeof(T);
  }
  void get(std::string& s) {
    std::uint64_t n = 0;
    get(n);
    RIPPLE_CHECK(n <= bytes_.size() - at_);
    s.assign(bytes_.begin() + at_, bytes_.begin() + at_ + n);
    at_ += n;
  }
  void get(Span& s) {
    get(s.name);
    get(s.track);
    get(s.batch);
    get(s.parent);
    get(s.start_us);
    get(s.end_us);
  }
  template <typename T>
  void get(std::vector<T>& v) {
    std::uint64_t n = 0;
    get(n);
    RIPPLE_CHECK(n <= bytes_.size() - at_);
    v.resize(n);
    for (T& x : v) get(x);
  }
  template <typename V>
  void get(std::map<std::string, V>& m) {
    std::uint64_t n = 0;
    get(n);
    for (; n > 0; --n) {
      std::string key;
      get(key);
      get(m[key]);
    }
  }
  bool done() const { return at_ == bytes_.size(); }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t at_ = 0;
};

}  // namespace perfbench
