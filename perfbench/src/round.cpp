#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>

#include "blob.h"
#include "common/check.h"
#include "perfbench.h"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  RIPPLE_CHECK(::getrusage(RUSAGE_SELF, &usage) == 0);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t hash_bytes(const void* data, std::size_t len, std::uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) h = (h ^ bytes[i]) * 1099511628211ull;
  return h;
}

std::uint64_t hash_store(const ripple::EmbeddingStore& store) {
  std::uint64_t h = hash_bytes(nullptr, 0);
  for (std::size_t l = 0; l <= store.num_layers(); ++l) {
    h = hash_bytes(store.layer(l).data(), store.layer(l).bytes(), h);
  }
  return h;
}

namespace {

bool write_all(int fd, const void* data, std::size_t len) {
  const auto* at = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, at, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    at += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::vector<std::uint8_t> run_forked(
    const std::function<std::vector<std::uint8_t>()>& body) {
  int fds[2];
  RIPPLE_CHECK_MSG(::pipe(fds) == 0, "pipe: " << std::strerror(errno));
  const pid_t pid = ::fork();
  RIPPLE_CHECK_MSG(pid >= 0, "fork: " << std::strerror(errno));
  if (pid == 0) {
    ::close(fds[0]);
    // Reply: one status byte (0 = ok) followed by the blob or the error.
    std::uint8_t status = 0;
    std::vector<std::uint8_t> reply;
    try {
      reply = body();
    } catch (const std::exception& e) {
      status = 1;
      reply.assign(e.what(), e.what() + std::strlen(e.what()));
    } catch (...) {
      status = 1;
    }
    const bool sent = write_all(fds[1], &status, 1) &&
                      write_all(fds[1], reply.data(), reply.size());
    ::close(fds[1]);
    ::_exit(sent ? status : 3);
  }
  ::close(fds[1]);
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fds[0]);
  int wstatus = 0;
  while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  const bool clean = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
  if (!clean || bytes.empty() || bytes[0] != 0) {
    const std::string message =
        bytes.size() > 1 ? std::string(bytes.begin() + 1, bytes.end())
                         : "round process died";
    RIPPLE_CHECK_MSG(false, "round failed: " << message);
  }
  bytes.erase(bytes.begin());
  return bytes;
}

std::vector<RoundResult> run_rounds(
    const Options& options,
    const std::function<RoundResult(std::size_t, bool)>& round) {
  const std::size_t min_rounds = options.trace ? 4 : 3;
  std::vector<RoundResult> rounds;
  const ripple::StopWatch watch;
  for (std::size_t r = 0;
       r < min_rounds || watch.elapsed_sec() < options.seconds; ++r) {
    const bool traced = options.trace && r % 2 == 1;
    rounds.push_back(decode_round(
        run_forked([&] { return encode_round(round(r, traced)); })));
  }
  return rounds;
}

std::vector<std::uint8_t> encode_round(const RoundResult& r) {
  BlobWriter w;
  w.put(static_cast<std::uint8_t>(r.traced));
  w.put(r.setup_sec);
  w.put(r.timed_sec);
  w.put(r.committed);
  w.put(r.attempted);
  w.put(r.failed);
  w.put(r.latency_ms);
  w.put(r.exact);
  w.put(r.layer);
  w.put(r.state_hash);
  w.put(r.spans);
  w.put(r.peak_rss_mb);
  w.put(static_cast<std::uint8_t>(r.check.ok));
  w.put(r.check.detail);
  return w.take();
}

RoundResult decode_round(const std::vector<std::uint8_t>& blob) {
  BlobReader rd(blob);
  RoundResult r;
  std::uint8_t flag = 0;
  rd.get(flag);
  r.traced = flag != 0;
  rd.get(r.setup_sec);
  rd.get(r.timed_sec);
  rd.get(r.committed);
  rd.get(r.attempted);
  rd.get(r.failed);
  rd.get(r.latency_ms);
  rd.get(r.exact);
  rd.get(r.layer);
  rd.get(r.state_hash);
  rd.get(r.spans);
  rd.get(r.peak_rss_mb);
  rd.get(flag);
  r.check.ok = flag != 0;
  rd.get(r.check.detail);
  RIPPLE_CHECK(rd.done());
  return r;
}

}  // namespace perfbench
