// RAII span tracing.  Wrap a phase in
//
//   BFLY_TRACE_SCOPE("collinear.assign_tracks");
//
// and, when a Registry is installed, a begin/end event pair with wall-clock
// timestamps and the calling thread's id is recorded.  Spans nest (scopes
// close LIFO per thread), so the recorded stream is strictly nested per
// thread — exactly the discipline Chrome's trace-event format requires for
// 'B'/'E' duration events.
//
// chrome_trace_json() exports the whole stream as a trace-event JSON
// document that loads directly in https://ui.perfetto.dev or
// chrome://tracing.
//
// Cost: one global pointer load when the scope opens; when a registry is
// installed, a mutex-guarded vector push per begin/end.  Spans mark *phases*
// (layout stages, legality sweeps, census merges), not per-packet events —
// use counters/histograms (obs/metrics.hpp) for those.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"

namespace bfly::obs {

/// Records a begin event on construction and the matching end on
/// destruction.  `name` must be a string literal (or otherwise outlive the
/// registry).  No-op when no registry is installed at construction time.
class SpanScope {
 public:
  explicit SpanScope(const char* name) : registry_(registry()), name_(name) {
    if (registry_) {
      registry_->record(TraceEvent{name_, 'B', registry_->now_us(), current_thread_id()});
    }
  }
  ~SpanScope() {
    if (registry_) {
      registry_->record(TraceEvent{name_, 'E', registry_->now_us(), current_thread_id()});
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Registry* registry_;
  const char* name_;
};

/// Chrome trace-event JSON (the "JSON Object Format": {"traceEvents": [...]})
/// for everything recorded so far.
std::string chrome_trace_json(const Registry& registry);

/// Writes chrome_trace_json() to a stream (e.g. an .trace.json file).
void write_chrome_trace(std::ostream& os, const Registry& registry);

}  // namespace bfly::obs

#define BFLY_TRACE_CONCAT_IMPL(a, b) a##b
#define BFLY_TRACE_CONCAT(a, b) BFLY_TRACE_CONCAT_IMPL(a, b)
#define BFLY_TRACE_SCOPE(name) \
  const ::bfly::obs::SpanScope BFLY_TRACE_CONCAT(bfly_obs_span_, __LINE__)(name)
