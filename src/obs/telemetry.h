// Telemetry context: one object bundling the metrics registry and the
// trace-event ring, global by default but injectable per run.
//
// Instrumented components resolve their metric handles from the telemetry
// that is *current at their construction time*. The process-wide default
// (`Telemetry::global()`) always exists, so instrumentation never needs a
// null check; a bench or test that wants an isolated view installs its
// own context with `ScopedTelemetry` BEFORE building the components it
// wants to observe:
//
//     obs::Telemetry tel;
//     tel.capture_events(1 << 16);       // bounded event ring
//     obs::ScopedTelemetry scope(tel);   // global() now returns tel
//     ntp::Testbed bed(config);          // components bind to tel
//     ...run...                           // tel.metrics(), tel.events()
//
// Tracing discipline: event *construction* is the expensive part (field
// vectors, strings), so emitters must guard with `tracing()` — with
// capture off (the default), an instrumented hot path pays only its
// counter increments, and the context holds no ring at all.
//
// Thread safety: metric recording is thread-safe (see obs/metrics.h) and
// event emission serializes on an internal mutex, so concurrent writers
// (e.g. tuner-search workers on a core::ThreadPool) never interleave
// within the ring. Cross-thread event ORDER is whatever the mutex hands
// out — deterministic event streams must be emitted from a single thread
// (the parallel searcher scores on workers but emits its per-config
// events afterwards, in enumeration order, from the caller). Switch
// capture on before fanning work out, and read the ring once emission
// has stopped.
//
// Wall-clock caveat: the span profiler (obs/profiler.h) reads the host's
// steady clock. That never feeds back into simulation behaviour — simulated
// experiments stay bit-deterministic; only the telemetry *output* carries
// host-dependent wall durations.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/ring_buffer.h"
#include "core/time.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/query_trace.h"
#include "obs/timeseries.h"
#include "obs/trace_event.h"

namespace mntp::obs {

class Telemetry {
 public:
  Telemetry() = default;
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

  /// Span profiler bound to this context (see obs/profiler.h). Off by
  /// default; enable with profiler().set_enabled(true), read results via
  /// profiler().stats() / export_to_metrics / write_chrome_trace.
  [[nodiscard]] Profiler& profiler() { return profiler_; }
  [[nodiscard]] const Profiler& profiler() const { return profiler_; }

  /// Per-query causal tracer bound to this context (see
  /// obs/query_trace.h). Off by default; enable with
  /// query_tracer().set_enabled(true), export via
  /// query_tracer().to_jsonl / write_jsonl_file.
  [[nodiscard]] QueryTracer& query_tracer() { return query_tracer_; }
  [[nodiscard]] const QueryTracer& query_tracer() const {
    return query_tracer_;
  }

  /// Sim-time series recorder bound to this context (see
  /// obs/timeseries.h). Off by default; enable with
  /// timeseries().set_enabled(true) BEFORE constructing simulations and
  /// instrumented components, export via write_timeline_file.
  [[nodiscard]] TimeSeriesRecorder& timeseries() { return timeseries_; }
  [[nodiscard]] const TimeSeriesRecorder& timeseries() const {
    return timeseries_;
  }

  /// Switch event capture on with a fresh ring of `capacity` events
  /// (oldest evicted when full). Calling it again restarts capture with
  /// an empty ring and zeroed totals. Until the first call the context
  /// holds no ring: events() is empty with capacity 0.
  void capture_events(std::size_t capacity);

  /// True once capture is on — emitters use this to skip event
  /// construction entirely on untraced runs. Lock-free (one relaxed
  /// atomic load), so hot paths on any thread can poll it freely.
  [[nodiscard]] bool tracing() const {
    return capturing_.load(std::memory_order_relaxed);
  }

  /// Push an event into the ring. No-op while capture is off, but
  /// callers should still guard construction with tracing().
  void emit(const TraceEvent& event);

  /// Convenience emitter.
  void event(core::TimePoint t, std::string_view category,
             std::string_view name, std::vector<Field> fields = {});

  /// Master switch: disables metric recording AND event emission. Metric
  /// handles stay valid; every record degrades to one branch. Used to
  /// quantify instrumentation overhead.
  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Retained events, oldest first.
  [[nodiscard]] const core::RingBuffer<TraceEvent>& events() const {
    return events_;
  }
  /// Events ever captured, including evicted ones.
  [[nodiscard]] std::uint64_t events_total() const { return events_total_; }
  [[nodiscard]] std::uint64_t events_evicted() const {
    return events_total_ - events_.size();
  }

  /// The current process-wide context (the installed scoped context, or
  /// the built-in default).
  [[nodiscard]] static Telemetry& global();

 private:
  friend class ScopedTelemetry;
  static Telemetry*& global_slot();

  MetricsRegistry metrics_;
  Profiler profiler_;
  QueryTracer query_tracer_;
  TimeSeriesRecorder timeseries_;
  std::mutex events_mutex_;  // serializes emit and capture_events
  core::RingBuffer<TraceEvent> events_;  // capacity 0 until capture
  std::uint64_t events_total_ = 0;
  std::atomic<bool> capturing_{false};
  std::atomic<bool> enabled_{true};
};

/// Installs `telemetry` as the global context for this scope; restores
/// the previous context on destruction. Nestable.
class ScopedTelemetry {
 public:
  explicit ScopedTelemetry(Telemetry& telemetry)
      : previous_(Telemetry::global_slot()) {
    Telemetry::global_slot() = &telemetry;
  }
  ~ScopedTelemetry() { Telemetry::global_slot() = previous_; }
  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;

 private:
  Telemetry* previous_;
};

}  // namespace mntp::obs
