#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/check.h"

namespace perfbench {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t Tracer::open(const char* name, std::uint64_t batch,
                          std::int64_t parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.track = track_;
  span.batch = batch;
  span.parent = parent;
  span.start_us = now_us();
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::close(std::int64_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
}

void append_spans(std::vector<Span>& all, std::vector<Span> more) {
  const auto base = static_cast<std::int64_t>(all.size());
  for (Span& span : more) {
    if (span.parent >= 0) span.parent += base;
    all.push_back(std::move(span));
  }
}

SpanTotals span_totals(const std::vector<Span>& spans,
                       const std::string& name) {
  // Child intervals per parent, so each span's covered share is the union
  // of its children's intervals clipped to its own.
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_us, span.end_us);
    }
  }
  SpanTotals totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.name != name) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = span.start_us;  // end of the union so far
    for (const auto& [lo, hi] : kids) {
      const double a = std::max(lo, reach);
      const double b = std::min(hi, span.end_us);
      if (b > a) covered += b - a;
      reach = std::max(reach, std::min(hi, span.end_us));
    }
    ++totals.count;
    totals.total_ms += span.duration_us() / 1e3;
    totals.self_ms += (span.duration_us() - covered) / 1e3;
  }
  return totals;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::vector<std::string>& track_names) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  RIPPLE_CHECK_MSG(f != nullptr, "cannot write trace " << path);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"perfbench\"}}");
  for (std::size_t t = 0; t < track_names.size(); ++t) {
    std::fprintf(f,
                 ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 t, track_names[t].c_str());
  }
  double origin = spans.empty() ? 0.0 : spans.front().start_us;
  for (const Span& s : spans) origin = std::min(origin, s.start_us);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"batch\":%llu,"
                 "\"span\":%zu,\"parent\":%lld}}",
                 s.name.c_str(), s.track, s.start_us - origin, s.duration_us(),
                 static_cast<unsigned long long>(s.batch), i,
                 static_cast<long long>(s.parent));
  }
  std::fprintf(f, "\n]}\n");
  RIPPLE_CHECK_MSG(std::fclose(f) == 0, "cannot finish trace " << path);
}

}  // namespace perfbench
