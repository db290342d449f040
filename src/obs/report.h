// Per-run telemetry reports: a machine-readable JSONL dump of the metrics
// snapshot plus the captured trace, written by every bench binary when
// `--telemetry-out <path>` is passed (see bench/common.h).
//
// Schema (version 1; validated by `mntp-inspect validate`, src/obs/
// artifact.cc, and documented in DESIGN.md §Observability). One JSON
// object per line:
//
//   line 1   {"type":"meta","schema_version":1,"run":"<name>",
//             "sim_end_ns":<int>,"metric_count":<int>,"event_count":<int>}
//   metrics  {"type":"metric","kind":"counter","name":"..","labels":{..},
//             "value":<num>}
//            {"type":"metric","kind":"gauge",...,"value":<num>}
//            {"type":"metric","kind":"histogram","name":"..","labels":{..},
//             "count":<int>,"sum":<num>,"min":<num>,"max":<num>,
//             "p50":<num>,"p90":<num>,"p99":<num>,
//             "buckets":[{"le":<num-or-"inf">,"count":<int>},...]}
//   events   {"type":"event","t_ns":<int>,"category":"..","name":"..",
//             "fields":{..}}   (sim-time order, ascending t_ns)
#pragma once

#include <ostream>
#include <string>

#include "core/result.h"
#include "core/time.h"
#include "obs/telemetry.h"

namespace mntp::obs {

struct ReportOptions {
  /// Identifies the producing run in the meta line (e.g. the bench name).
  std::string run_name = "unnamed";
  /// Simulated end-of-run instant, recorded in the meta line.
  core::TimePoint sim_end;
};

/// Serialize one metric snapshot as its JSONL line.
[[nodiscard]] std::string to_jsonl_line(const MetricSnapshot& snapshot);

/// Write the full report: meta line, metric lines (name-sorted), then
/// the event ring's lines (sim-time order) when capture is on.
void write_run_report(std::ostream& out, const Telemetry& telemetry,
                      const ReportOptions& options);

/// File variant; fails on unwritable paths.
core::Status write_run_report_file(const std::string& path,
                                   const Telemetry& telemetry,
                                   const ReportOptions& options);

}  // namespace mntp::obs
