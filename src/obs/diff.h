// Cross-run diff & regression-triage engine.
//
// Every artifact the observability stack writes — perf-suite baselines
// (BENCH_*.json), Chrome span profiles (--profile-out), JSONL run
// reports (--telemetry-out), causal query traces (--query-trace-out)
// and sim-time timelines (--timeline-out) — describes ONE run. The
// paper's whole evaluation is comparative, and so is every perf PR:
// the question is never "what did this run do" but "what moved between
// these two runs, and which span / counter / reason / series moved it".
//
// diff_files() loads two artifacts of the same kind through
// load_artifact (obs/artifact.h: kind detected from content, every line
// validated) and computes statistically-aware deltas:
//
//   * bench       — the repo's perf regression gate (CI runs it
//                   against BENCH_baseline.json): per workload,
//                   candidate_median <= baseline_median *
//                   (1+tolerance) + max(abs_floor, 4 * baseline_mad);
//                   missing workloads fail, new ones are noted. Optional
//                   within-candidate budgets (--budget A:B:PCT) add a
//                   "budgets" section evaluated on file B alone.
//   * profile     — spans aggregated by name (count / total_us /
//                   self_us summed over complete events), deltas
//                   attributed per span and ranked by self-time
//                   contribution: |delta_self| / sum |delta_self|.
//                   Only *increases* beyond the allowance gate; a
//                   speedup is significant but not a regression.
//   * report      — scalar metric deltas keyed by name{labels}. The
//                   mntp.* / obs.* accounting counters (integer-valued
//                   by construction) get exact-reconciliation classes:
//                   `exact` when bit-equal, `shifted` otherwise —
//                   these counters are the ledgers the causation
//                   tables reconcile against, so any shift is
//                   significant regardless of magnitude. Other scalars
//                   use the relative-tolerance rule; histograms diff
//                   on count and p50/p90/p99; event counts by
//                   category/name diff like counters.
//   * query-trace — verdict/reason distribution shift: queries
//                   bucketed by kind/reason (the causation table of
//                   `mntp-inspect`), compared as proportions with a
//                   two-proportion z score; |z| > sigma is
//                   significant.
//   * timeline    — per-series divergence: both mean-series resampled
//                   onto a common grid, score = RMS(B - A) normalized
//                   by A's own spread; score > divergence threshold is
//                   significant.
//
// Direction ("regression") is kind-specific: bench/profile regress on
// slowdowns only; report / query-trace / timeline are behavioural
// drift detectors, so every significant divergence counts as a
// regression for the exit-code contract. The CLI maps the result to
// exit 0 (identical within tolerance), 1 (significant regression) and
// 2 (error: unreadable, schema-invalid, or mixed artifact kinds).
// Diff records and fleet reports are refused as unsupported kinds.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/result.h"
#include "obs/artifact.h"

namespace mntp::obs {

/// The closed delta-class vocabulary (see DiffEntry); diff records are
/// validated against kAll.
namespace diff_class {
inline constexpr const char* kEqual = "equal";
inline constexpr const char* kChanged = "changed";
inline constexpr const char* kExact = "exact";
inline constexpr const char* kShifted = "shifted";
inline constexpr const char* kAdded = "added";
inline constexpr const char* kRemoved = "removed";
inline constexpr const char* kAll[] = {kEqual, kChanged, kExact,
                                       kShifted, kAdded, kRemoved};
}  // namespace diff_class

/// The kinds diff_files compares.
inline constexpr ArtifactKind kDiffableKinds[] = {
    ArtifactKind::kBench, ArtifactKind::kProfile, ArtifactKind::kReport,
    ArtifactKind::kQueryTrace, ArtifactKind::kTimeline};

/// `--budget A:B:PCT`: workload A's median may exceed workload B's by at
/// most PCT percent, both read from the candidate, so machine speed
/// cancels out. A missing A or B fails the budget.
struct DiffBudget {
  std::string spec;  // "A:B:PCT" as given; the entry name
  std::string a, b;
  double pct = 0.0;
};

/// Parse "A:B:PCT"; anything else is an invalid_argument error.
[[nodiscard]] core::Result<DiffBudget> parse_budget(const std::string& spec);

struct DiffOptions {
  /// Relative tolerance for bench medians, profile spans, report scalars.
  double tolerance = 0.5;
  /// Absolute allowance floor (us) for bench/profile time deltas.
  double abs_floor_us = 200.0;
  /// Two-proportion z threshold for query-trace distribution shifts.
  double sigma = 4.0;
  /// Normalized-RMS threshold for timeline series divergence.
  double divergence = 0.25;
  /// Rows rendered per section in the human tables (JSON always
  /// carries every entry; exit codes never depend on this cap).
  std::size_t top = 20;
  std::vector<DiffBudget> budgets;  // bench only: one "budgets" row each
};

/// Delta classes. `exact` / `shifted` are the exact-reconciliation
/// classes reserved for integer accounting counters (mntp.*, obs.*);
/// everything else compares within tolerance.
///   equal    — within tolerance (or bit-equal for non-accounting rows)
///   changed  — beyond tolerance
///   exact    — accounting counter, bit-equal
///   shifted  — accounting counter, differs (always significant)
///   added    — present only in B
///   removed  — present only in A
struct DiffEntry {
  std::string name;
  bool has_before = false;
  bool has_after = false;
  double before = 0.0;
  double after = 0.0;
  double delta = 0.0;  // after - before (0 when one side is absent)
  /// Kind-specific significance score: allowance headroom ratio for
  /// bench/profile, contribution share for profile ranking, |z| for
  /// query-trace, normalized RMS for timeline, relative change for
  /// report scalars.
  double score = 0.0;
  bool significant = false;
  bool regression = false;  // counts toward the exit-1 verdict
  std::string cls;          // see class vocabulary above
  std::string note;         // free-form context ("new workload", ...)
};

struct DiffSection {
  std::string title;               // "workloads", "spans", "counters", ...
  std::vector<DiffEntry> entries;  // ranked most significant first
};

struct DiffResult {
  ArtifactKind kind = ArtifactKind::kBench;
  std::string a_path, b_path;
  std::string a_run, b_run;        // run names when the artifact has one
  std::size_t significant = 0;     // entries flagged significant
  std::size_t regressions = 0;     // entries counting toward exit 1
  std::vector<DiffSection> sections;
  std::vector<std::string> warnings;  // bench environment mismatches

  /// The 0/1 half of the exit-code contract (2 is "diff_files returned
  /// an error" and never appears in a DiffResult).
  [[nodiscard]] int exit_code() const { return regressions > 0 ? 1 : 0; }
};

/// Load (obs/artifact.h) and diff two artifact files. Errors (a file
/// load_artifact refuses, a newer schema_version, unsupported or
/// mismatched kinds, budgets on a non-bench pair) come back as
/// core::Result errors; the CLI maps them to exit 2.
[[nodiscard]] core::Result<DiffResult> diff_files(const std::string& a_path,
                                                  const std::string& b_path,
                                                  const DiffOptions& options);

/// Human rendering: one aligned table per section (rows capped at
/// options.top) plus a one-line verdict.
[[nodiscard]] std::string render_diff_text(const DiffResult& result,
                                           const DiffOptions& options);

/// Machine rendering: single JSON document, kind "mntp_diff",
/// schema_version 1, checked by `mntp-inspect validate`. Carries every
/// entry (no top cap) so downstream triage never loses attribution.
[[nodiscard]] std::string render_diff_json(const DiffResult& result,
                                           const DiffOptions& options);

}  // namespace mntp::obs
