// Artifact formats: the one reader of every file the observability
// stack writes.
//
// Seven kinds, detected from content, never from the file name:
//
//   report       JSONL run report (--telemetry-out, obs/report.h)
//   profile      Chrome trace-event span profile (--profile-out)
//   bench        perf-suite results (BENCH_*.json, kind mntp_perf_suite)
//   query-trace  JSONL causal query trace (--query-trace-out)
//   timeline     JSONL sim-time series (--timeline-out)
//   diff         `mntp-inspect diff --json` record (kind mntp_diff)
//   fleet        fleet report (fleet_qps --fleet-out, mntp_fleet_report)
//
// Detection: a file that parses as one JSON document is a profile when
// it has `traceEvents`, else classified by its `kind` (a query trace or
// timeline holding only its meta line is also one JSON document). Any
// other file is JSONL, classified by the first line's `kind`; a meta
// line with no `kind` is a run report.
//
// load_artifact() parses every line and runs the kind's validation:
// field types, closed vocabularies (reason codes from kAllReasons, the
// fleet's speaker/population/category names from their enums), ordering
// rules and every cross-field ledger the writers guarantee. The three
// consumers — `mntp-inspect` (render), `mntp-inspect validate` and
// `mntp-inspect diff` — read artifacts only through it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/json.h"
#include "core/result.h"

namespace mntp::obs {

enum class ArtifactKind {
  kReport,
  kProfile,
  kBench,
  kQueryTrace,
  kTimeline,
  kDiff,
  kFleet,
};

/// Stable lowercase name ("report", "query-trace", ...), used in the
/// `validate` OK line, diff records and error messages.
[[nodiscard]] const char* artifact_kind_name(ArtifactKind kind);

/// A loaded artifact. Whole-file kinds keep the document in `doc` and
/// leave `body` empty; JSONL kinds keep the meta line in `doc` and every
/// following line, in file order, in `body`.
struct Artifact {
  ArtifactKind kind = ArtifactKind::kReport;
  std::string path;
  core::Json doc;
  std::vector<core::Json> body;
  /// Non-zero when the file declares a schema_version newer than this
  /// build knows: the lines were parsed but not validated. `inspect`
  /// renders such a file best-effort behind a warning; `validate` and
  /// `diff` refuse it.
  std::int64_t newer_schema_version = 0;
};

/// Read, detect, parse and validate `path`. Messages start with the
/// path. Error codes tell the failures apart:
///   kIo              the file cannot be read
///   kUnavailable     the file is empty, or its first or last line is
///                    not JSON (a write cut short)
///   kNotFound        not an artifact kind this build knows
///   kMalformedPacket a schema violation (or a bad line mid-file)
[[nodiscard]] core::Result<Artifact> load_artifact(const std::string& path);

/// One-line description for the `validate` OK line, starting with the
/// kind name: "report: 12 metrics, 40 events, run 'fig6'".
[[nodiscard]] std::string artifact_summary(const Artifact& artifact);

}  // namespace mntp::obs
