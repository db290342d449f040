// Shared measurement plumbing for the end-to-end benchmark: wall/CPU
// clocks, peak RSS, order statistics, correctness-check accounting, the
// bench-owned span log of traced runs, and the per-layer metric catalog.
//
// Everything here measures the program from outside: it times calls into
// the public entry points of each layer and never reaches inside src/.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/profiler.h"

namespace e2e {

/// Host steady-clock seconds (arbitrary origin).
[[nodiscard]] double now_s();
/// CPU seconds consumed by the whole process (all threads).
[[nodiscard]] double process_cpu_s();
/// Peak resident set size of the process so far, MB.
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty input.
[[nodiscard]] double quantile(std::vector<double> v, double q);

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span log into ("" = none).
  std::string trace_out;
};

/// Sum of every series named `name` in a registry snapshot; with
/// `label_value`, only series carrying a label with that value.
[[nodiscard]] double metric_sum(
    const std::vector<mntp::obs::MetricSnapshot>& snapshot,
    std::string_view name, std::string_view label_value = {});

/// Aggregate of one profiler span name (zero count when absent).
[[nodiscard]] mntp::obs::Profiler::SpanStats span_stats(
    const mntp::obs::Profiler& profiler, std::string_view name);

/// Named correctness checks; a run is correct when none failed.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] std::size_t attempted() const { return entries_.size(); }
  [[nodiscard]] std::size_t failed() const;
  /// Prints one PASS/FAIL line per distinct check (repeats folded).
  void print() const;

 private:
  struct Entry {
    bool ok;
    std::string what;
  };
  std::vector<Entry> entries_;
};

/// One reported metric: value with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  std::vector<Metric> metrics;
  Checks checks;
};

/// Bench-owned spans of a traced run: name, start, end and parent, all
/// under one run id, kept in memory and written out when the run ends.
/// A disabled log records nothing (untraced runs pay one branch).
class SpanLog {
 public:
  SpanLog(bool enabled, std::string run_id);

  class Scope {
   public:
    Scope(SpanLog* log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t index_ = 0;
  };

  /// Opens a span nested under the innermost open one.
  [[nodiscard]] Scope span(std::string name) {
    return Scope(enabled_ ? this : nullptr, std::move(name));
  }

  /// Writes {"run_id", "spans": [{name, start_ns, end_ns, parent}]} as
  /// JSON (parent = index into spans, -1 for roots). False on I/O error.
  bool write_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    long parent = -1;
  };

  bool enabled_;
  std::string run_id_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Host seconds spent in one layer, for the traced run's attribution.
struct LayerTime {
  std::string layer;
  double self_s = 0.0;
};

/// Appends `layer.<name>.self_s` / `layer.<name>.share` for every layer
/// (share of `total_s`), prints the table and names the largest layer.
void report_layers(const std::string& workload,
                   const std::vector<LayerTime>& layers, double total_s,
                   std::vector<Metric>& out);

/// Per-layer metric catalog, in report order: the names and units every
/// traced run reports (a layer the workload does not run reads 0).
[[nodiscard]] const std::vector<Metric>& per_layer_catalog();
/// End-to-end metric catalog (untraced runs).
[[nodiscard]] const std::vector<Metric>& end_to_end_catalog();

/// Runs `body` until `seconds` of wall time have passed since the call,
/// at least `min_reps` and at most `max_reps` times.
template <class Body>
void repeat_for(double seconds, std::size_t min_reps, std::size_t max_reps,
                Body&& body) {
  const double start = now_s();
  for (std::size_t rep = 0; rep < max_reps; ++rep) {
    if (rep >= min_reps && now_s() - start >= seconds) break;
    body(rep);
  }
}

/// Host-speed reference for the end-to-end times. The shared host's
/// speed drifts by tens of percent over tens of seconds (other tenants),
/// which no amount of repetition inside one run averages out. A fixed
/// bench-owned loop — xorshift draws, a bounded binary heap, table
/// updates, log1p; its work never changes — is timed right before and
/// after each measured rep; the rep's wall times are rescaled by
/// kReferenceNominalS / (mean reference time), so contention that slows
/// both cancels. The raw wall times are printed next to the corrected ones.
class HostReference {
 public:
  /// Nominal time of one reference call, seconds (its median on a
  /// 2.1 GHz Xeon vCPU); the unit the corrected times are expressed in.
  static constexpr double kReferenceNominalS = 2.0e-3;

  HostReference();
  /// Factor turning the wall times of the rep that just ended into
  /// nominal-reference seconds.
  [[nodiscard]] double next_factor();

 private:
  /// One call of the reference loop, wall seconds.
  [[nodiscard]] static double measure();

  double last_s_;
};

/// Wall seconds one call of `f` takes.
template <class F>
double timed(F&& f) {
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

WorkloadResult run_device(const RunOptions& options);
WorkloadResult run_fleet(const RunOptions& options);
WorkloadResult run_tuner(const RunOptions& options);

/// Measured cost of one scheduled-and-dispatched no-op event in the
/// sim kernel, ns — the calibration that splits sim from net in the
/// environment legs.
[[nodiscard]] double sim_kernel_ns_per_event();

/// Median duration the profiler records for an empty span, ns: the part
/// of every recorded span that is the span machinery itself.
[[nodiscard]] double profiler_span_floor_ns();

}  // namespace e2e
