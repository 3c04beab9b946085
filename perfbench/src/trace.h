// Benchmark-side tracing: spans recorded around calls into each layer's
// public functions, kept in memory and written out when the run ends.
//
// A span has a name, a track (one per rank or thread), the id of the batch
// it belongs to, and the index of the span that caused it. Spans are only
// recorded when the tracer is enabled, so an untraced round pays one branch
// per call site and no clock reads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Microseconds on the monotonic clock. CLOCK_MONOTONIC is system-wide, so
// timestamps taken in forked rank processes line up with the parent's.
double now_us();

struct Span {
  std::string name;
  std::uint32_t track = 0;
  std::uint64_t batch = 0;
  std::int64_t parent = -1;  // index into the same span list; -1 = root
  double start_us = 0;
  double end_us = 0;
  double duration_us() const { return end_us - start_us; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled, std::uint32_t track = 0)
      : enabled_(enabled), track_(track) {}

  bool enabled() const { return enabled_; }

  // Opens a span and returns its index, or -1 when tracing is off.
  std::int64_t open(const char* name, std::uint64_t batch,
                    std::int64_t parent = -1);
  void close(std::int64_t id);

  std::vector<Span> take() { return std::move(spans_); }

 private:
  bool enabled_;
  std::uint32_t track_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t batch,
             std::int64_t parent = -1)
      : tracer_(tracer), id_(tracer.open(name, batch, parent)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

// Appends `more` to `all`, re-basing parent indices.
void append_spans(std::vector<Span>& all, std::vector<Span> more);

// Totals over every span called `name`: how many, their summed duration,
// and their summed self time (duration minus the part of the span's
// interval that its child spans cover).
struct SpanTotals {
  std::size_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
  double mean_ms() const { return count ? total_ms / count : 0.0; }
  double mean_self_ms() const { return count ? self_ms / count : 0.0; }
};
SpanTotals span_totals(const std::vector<Span>& spans, const std::string& name);

// Chrome trace-event JSON (Perfetto opens it): one complete ("X") event
// per span on thread `track` of process `pid`, args carrying the batch id,
// the span's own index and its parent's.
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::vector<std::string>& track_names);

}  // namespace perfbench
