// Recorder - the observability layer's front door.
//
// Bundles a metrics Registry and a TraceBuffer and serializes both as one
// JSON document (schema: docs/metrics.md, `gpuddt-metrics-v1`). Producers
// (the GPU datatype engine, the DEV cache, the PML, the GPU transfer
// plugin) take a nullable Recorder* and record nothing when it is null,
// so unit tests attach private recorders and production paths pay one
// branch when observability is off.
//
// The process-global default_recorder() is what the harness attaches to
// runs that did not bring their own, and what the bench binaries dump
// with --metrics-out=FILE.
//
// Nothing in a Recorder locks: it serves one Runtime at a time, on the
// thread that drives that Runtime (docs/simulator.md, "Threading
// contract"). Runtimes on different threads each bring their own.
#pragma once

#include <string>

#include "obs/flowstats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gpuddt::obs {

class Recorder {
 public:
  Registry& metrics() { return metrics_; }
  const Registry& metrics() const { return metrics_; }
  TraceBuffer& trace() { return trace_; }
  const TraceBuffer& trace() const { return trace_; }
  FlowStats& flowstats() { return flowstats_; }
  const FlowStats& flowstats() const { return flowstats_; }

  void enable_tracing(bool on = true) { trace_.enable(on); }
  bool tracing() const { return trace_.enabled(); }

  /// Serialize counters, histograms and (if any) trace events as one
  /// JSON document.
  std::string to_json() const;

  /// to_json() into `path`; returns false on I/O failure.
  bool write_json(const std::string& path) const;

  /// Serialize the trace buffer as a Chrome Trace Event Format JSON
  /// array (chrome_trace_json, docs/tracing.md). Counters/histograms are
  /// not part of this view - pair with write_json for the quantitative
  /// half.
  std::string to_chrome_json() const {
    return chrome_trace_json(trace_.snapshot(), trace_.dropped());
  }

  /// to_chrome_json() into `path`; returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

  /// Serialize the per-flow latency engine as a canonical
  /// gpuddt-latency-v1 report (obs/flowstats.h, docs/latency.md). Empty
  /// but valid when flowstats was never enabled.
  std::string latency_json() const { return flowstats_.to_json(); }

  /// latency_json() into `path`; returns false on I/O failure.
  bool write_latency_json(const std::string& path) const;

  /// Drop all recorded data (between benchmark repetitions).
  void clear() {
    metrics_.clear();
    trace_.clear();
    flowstats_.clear();
  }

 private:
  Registry metrics_;
  TraceBuffer trace_;
  FlowStats flowstats_{&metrics_};
};

/// Process-wide recorder used whenever a run does not provide its own.
/// Like any Recorder it is unlocked: use it from one thread at a time.
Recorder& default_recorder();

/// Shorthand for guarded recording at instrumentation sites.
inline void count(Recorder* rec, std::string_view name,
                  std::int64_t delta = 1) {
  if (rec != nullptr) rec->metrics().counter(name).add(delta);
}
inline void observe(Recorder* rec, std::string_view name,
                    std::int64_t value) {
  if (rec != nullptr) rec->metrics().histogram(name).record(value);
}
inline void trace(Recorder* rec, TraceEvent ev) {
  if (rec == nullptr) return;
  // The latency engine taps the span stream *before* the bounded trace
  // buffer, so per-flow percentiles stay complete even when tracing is
  // off (record() below no-ops) or the buffer truncates.
  if (rec->flowstats().enabled()) rec->flowstats().on_span(ev);
  rec->trace().record(std::move(ev));
}

}  // namespace gpuddt::obs
