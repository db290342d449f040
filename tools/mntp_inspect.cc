// mntp-inspect: terminal summarizer, validator and comparer for the
// observability artifacts the bench harness writes — JSONL run reports
// (--telemetry-out), Chrome span profiles (--profile-out), perf-suite
// results (BENCH_*.json), query traces (--query-trace-out), timelines
// (--timeline-out), diff records (`diff --json`) and fleet reports
// (fleet_qps --fleet-out).
//
//   mntp-inspect run.jsonl profile.json BENCH_results.json
//   mntp-inspect validate [--require-prefixes sim.,net.] run.jsonl
//   mntp-inspect diff BENCH_baseline.json BENCH_results.json
//   mntp-inspect compact full_profile.json compact_profile.json
//
// Every file is read through obs::load_artifact (src/obs/artifact.h),
// which detects the kind from content and validates every line. For run
// reports the tool prints the metric registry as tables,
// per-category/per-name event counts, the span-profile aggregates when
// present, and flags offset anomalies: mntp `round` events whose offset
// falls more than --sigma (default 4) standard deviations from the
// run's least-squares offset trend — the quickest "did the filter see
// something wild" check without replotting the whole series.
//
// Exit code: 0 on success (anomalies are informational), 1 when any
// input cannot be read, is not an artifact or breaks its schema, 2 on
// usage errors and empty or truncated files. `validate` prints
// "OK: <path> — <kind>: ..." per valid file under the same contract.
//
// The `diff` subcommand (src/obs/diff.h) compares two artifacts of the
// same kind and has its own exit contract: 0 identical within
// tolerance, 1 significant regression, 2 error.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/format.h"
#include "core/json.h"
#include "core/json_writer.h"
#include "core/linreg.h"
#include "core/stats.h"
#include "core/table.h"
#include "obs/artifact.h"
#include "obs/diff.h"

using mntp::core::Json;
using mntp::obs::Artifact;
using mntp::obs::ArtifactKind;

namespace {

enum class Mode { kInspect, kExplain, kTimeline, kDiff, kValidate, kCompact };

struct Options {
  Mode mode = Mode::kInspect;
  double sigma = 4.0;        // anomaly threshold, in trend-residual sigmas
  std::size_t max_rows = 20; // cap for anomaly listings
  long long query_id = -1;   // explain a single query (-1: first --limit)
  std::size_t limit = 10;    // timelines shown in explain mode
  std::string series;        // timeline: only series containing this
  std::size_t width = 64;    // timeline: sparkline columns
  bool json = false;         // diff: machine output instead of tables
  mntp::obs::DiffOptions diff_opt;  // tolerance/floor/divergence/top
  std::vector<std::string> require_prefixes;  // validate: report metrics
};

/// Checked numeric flag parsing: the whole argument must be a number
/// (strtod/strtoll consume it completely), otherwise the caller prints
/// usage and exits 2 — `--sigma foo` must be a loud usage error, not a
/// silent 0.
bool parse_double_arg(const char* s, double& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0' || !std::isfinite(v)) {
    return false;
  }
  out = v;
  return true;
}

bool parse_ll_arg(const char* s, long long& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  out = v;
  return true;
}

bool parse_size_arg(const char* s, std::size_t& out) {
  long long v = 0;
  if (!parse_ll_arg(s, v) || v < 0) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

/// printf's %lld wants long long; Json integers are int64_t.
long long as_ll(const Json& v) { return v.as_int(); }

std::string format_labels(const Json& labels) {
  std::string out;
  for (const auto& [key, value] : labels.as_object()) {
    if (!out.empty()) out += ",";
    out += key + "=" + value.as_string();
  }
  return out;
}

/// A file load_artifact refused: the message, then the 1-vs-2 half of
/// the exit contract — empty and truncated files exit 2, every other bad
/// artifact 1.
int refuse(const mntp::core::Error& error, const char* prefix) {
  std::fprintf(stderr, "%s%s%s\n", prefix,
               error.code == mntp::core::Error::Code::kNotFound
                   ? "unrecognized artifact: "
                   : "",
               error.message.c_str());
  return error.code == mntp::core::Error::Code::kUnavailable ? 2 : 1;
}

// ---------------------------------------------------------------- report

struct SpanRow {
  double count = 0, total_us = 0, self_us = 0, p50_us = 0, min_us = 0,
         max_us = 0;
};

int inspect_report(const Artifact& art, const Options& opt) {
  std::vector<Json> metrics;
  std::map<std::string, std::size_t> category_counts;
  std::map<std::string, std::size_t> event_counts;  // "category/name"
  std::map<std::string, SpanRow> spans;             // from profile.span.*
  std::vector<double> round_t_s, round_offset_ms;

  const Json& meta = art.doc;
  std::printf("run report: %s\n  run=%s  sim_end=%.1fs  %lld metrics, "
              "%lld events\n",
              art.path.c_str(), meta["run"].as_string().c_str(),
              static_cast<double>(meta["sim_end_ns"].as_int()) / 1e9,
              as_ll(meta["metric_count"]), as_ll(meta["event_count"]));
  for (const Json& line : art.body) {
    if (line["type"] == "metric") {
      const std::string& name = line["name"].as_string();
      if (name.rfind("profile.span.", 0) == 0) {
        SpanRow& row = spans[line["labels"]["span"].as_string()];
        const double v = line["value"].as_double();
        const std::string field = name.substr(std::strlen("profile.span."));
        if (field == "count") row.count = v;
        else if (field == "total_wall_us") row.total_us = v;
        else if (field == "self_wall_us") row.self_us = v;
        else if (field == "p50_us") row.p50_us = v;
        else if (field == "min_us") row.min_us = v;
        else if (field == "max_us") row.max_us = v;
      } else {
        metrics.push_back(line);
      }
    } else if (line["type"] == "event") {
      const std::string& category = line["category"].as_string();
      const std::string& name = line["name"].as_string();
      ++category_counts[category];
      ++event_counts[category + "/" + name];
      if (category == "mntp" && name == "round") {
        round_t_s.push_back(static_cast<double>(line["t_ns"].as_int()) / 1e9);
        round_offset_ms.push_back(line["fields"]["offset_ms"].as_double());
      }
    }
  }

  // Metric tables: scalar metrics (counters/gauges) then histograms. The
  // obs.* family (telemetry accounting for itself, e.g. the
  // obs.query_trace.* reconciliation counters — see
  // src/obs/metric_names.h) gets its own table so it reads at a glance
  // instead of interleaving with the run's real metrics.
  mntp::core::TextTable scalars({"metric", "labels", "kind", "value"});
  mntp::core::TextTable obs_table({"metric", "kind", "value"});
  mntp::core::TextTable histograms(
      {"histogram", "labels", "count", "p50", "p90", "p99", "max"});
  for (const Json& m : metrics) {
    const std::string& kind = m["kind"].as_string();
    if (kind != "histogram" && m["name"].as_string().rfind("obs.", 0) == 0) {
      obs_table.add_row({m["name"].as_string(), kind,
                         mntp::core::fmt_double(m["value"].as_double())});
      continue;
    }
    if (kind == "histogram") {
      histograms.add_row({m["name"].as_string(), format_labels(m["labels"]),
                          mntp::core::strformat("%lld", as_ll(m["count"])),
                          mntp::core::fmt_double(m["p50"].as_double()),
                          mntp::core::fmt_double(m["p90"].as_double()),
                          mntp::core::fmt_double(m["p99"].as_double()),
                          mntp::core::fmt_double(m["max"].as_double())});
    } else {
      scalars.add_row({m["name"].as_string(), format_labels(m["labels"]), kind,
                       mntp::core::fmt_double(m["value"].as_double())});
    }
  }
  if (scalars.rows() > 0) {
    std::printf("\n%s\n", scalars.render().c_str());
  }
  if (histograms.rows() > 0) {
    std::printf("%s\n", histograms.render().c_str());
  }
  if (obs_table.rows() > 0) {
    std::printf("telemetry self-accounting (obs.* metrics):\n%s\n",
                obs_table.render().c_str());
  }

  if (!spans.empty()) {
    mntp::core::TextTable table({"span", "count", "total_ms", "self_ms",
                                 "p50_us", "max_us"});
    for (const auto& [name, row] : spans) {
      table.add_row({name, mntp::core::strformat("%.0f", row.count),
                     mntp::core::fmt_double(row.total_us / 1e3),
                     mntp::core::fmt_double(row.self_us / 1e3),
                     mntp::core::fmt_double(row.p50_us),
                     mntp::core::fmt_double(row.max_us)});
    }
    std::printf("span profile (from profile.span.* gauges):\n%s\n",
                table.render().c_str());
  }

  if (!event_counts.empty()) {
    mntp::core::TextTable table({"event", "count"});
    for (const auto& [key, n] : event_counts) {
      table.add_row({key, mntp::core::fmt_count(n)});
    }
    std::printf("events by category/name (%zu categories):\n%s\n",
                category_counts.size(), table.render().c_str());
  }

  // Offset anomalies: residuals against the run's offset trend. The
  // trend (not the raw mean) is the right null model because an
  // uncorrected drifting clock makes offsets a line, not a constant.
  if (round_t_s.size() >= 8) {
    const auto fit = mntp::core::least_squares(round_t_s, round_offset_ms);
    if (fit) {
      std::vector<double> residuals(round_t_s.size());
      for (std::size_t i = 0; i < round_t_s.size(); ++i) {
        residuals[i] = fit->residual(round_t_s[i], round_offset_ms[i]);
      }
      const double sd = mntp::core::summarize(residuals).stddev;
      std::size_t flagged = 0, shown = 0;
      for (std::size_t i = 0; i < residuals.size(); ++i) {
        if (sd <= 0.0 || std::fabs(residuals[i]) <= opt.sigma * sd) continue;
        if (flagged == 0) {
          std::printf("offset anomalies (|residual| > %.1f sigma, "
                      "sigma=%.3f ms, trend %.4f ms/s):\n",
                      opt.sigma, sd, fit->slope);
        }
        ++flagged;
        if (shown < opt.max_rows) {
          ++shown;
          std::printf("  t=%9.1fs  offset %+9.2f ms  residual %+9.2f ms "
                      "(%.1f sigma)\n",
                      round_t_s[i], round_offset_ms[i], residuals[i],
                      std::fabs(residuals[i]) / sd);
        }
      }
      if (flagged > shown) {
        std::printf("  ... %zu more\n", flagged - shown);
      }
      if (flagged == 0) {
        std::printf("offset anomalies: none (%zu rounds within %.1f sigma "
                    "of trend)\n",
                    round_t_s.size(), opt.sigma);
      }
    }
  }
  return 0;
}

// ----------------------------------------------------------- query trace

/// One decoded {"type":"query"} line.
struct TraceRow {
  long long id = 0;
  long long parent = 0;
  std::string kind;
  double start_s = 0.0;
  Json stages;  // array
};

std::string format_stage_fields(const Json& fields) {
  std::string out;
  for (const auto& [key, value] : fields.as_object()) {
    if (!out.empty()) out += "  ";
    out += key + "=";
    if (value.is_string()) {
      out += value.as_string();
    } else if (value.is_bool()) {
      out += value.as_bool() ? "true" : "false";
    } else if (value.is_int()) {
      out += mntp::core::strformat("%lld", as_ll(value));
    } else {
      out += mntp::core::strformat("%g", value.as_double());
    }
  }
  return out;
}

/// The terminal ("verdict") stage of a query, or a null Json.
const Json* verdict_stage(const TraceRow& q) {
  const auto& stages = q.stages.as_array();
  for (auto it = stages.rbegin(); it != stages.rend(); ++it) {
    if ((*it)["stage"].as_string() == "verdict") return &*it;
  }
  return nullptr;
}

void print_timeline(const TraceRow& q,
                    const std::vector<const TraceRow*>& children,
                    int indent) {
  const Json* verdict = verdict_stage(q);
  std::printf("%*squery #%lld (%s) start t=%.3fs  verdict=%s\n", indent, "",
              q.id, q.kind.c_str(), q.start_s,
              verdict ? (*verdict)["reason"].as_string().c_str() : "none");
  for (const Json& s : q.stages.as_array()) {
    const double dt =
        static_cast<double>(s["t_ns"].as_int()) / 1e9 - q.start_s;
    const std::string& reason = s["reason"].as_string();
    std::printf("%*s  +%8.3fs  %-16s %-18s %s\n", indent, "", dt,
                s["stage"].as_string().c_str(),
                reason == "none" ? "" : reason.c_str(),
                format_stage_fields(s["fields"]).c_str());
  }
  for (const TraceRow* child : children) {
    print_timeline(*child, {}, indent + 4);
  }
}

int inspect_query_trace(const Artifact& art, const Options& opt) {
  std::vector<TraceRow> queries;
  for (const Json& line : art.body) {
    if (line["type"] != "query") continue;  // best-effort on newer schemas
    TraceRow q;
    q.id = line["id"].as_int();
    q.parent = line["parent"].as_int();
    q.kind = line["kind"].as_string();
    q.start_s = static_cast<double>(line["start_ns"].as_int()) / 1e9;
    q.stages = line["stages"];
    queries.push_back(std::move(q));
  }
  const Json& meta = art.doc;
  std::printf("query trace: %s\n  run=%s  sim_end=%.1fs  %zu queries stored"
              " (%lld dropped)\n",
              art.path.c_str(), meta["run"].as_string().c_str(),
              static_cast<double>(meta["sim_end_ns"].as_int()) / 1e9,
              queries.size(), as_ll(meta["dropped"]));
  if (meta.has("sampling")) {
    const Json& s = meta["sampling"];
    std::printf("  sampling: 1-in-%lld (seed %lld)  minted=%lld kept=%lld "
                "sampled_out=%lld\n",
                as_ll(s["sample_one_in_n"]), as_ll(s["seed"]),
                as_ll(s["minted"]), as_ll(s["kept"]), as_ll(s["sampled_out"]));
  }

  // Aggregate causation: every query's fate, bucketed by kind and
  // verdict reason; for round verdicts also by decision phase, so the
  // table reconciles against the mntp.sample outcome counters.
  std::map<std::string, std::size_t> verdicts;       // "kind/reason"
  std::map<std::string, std::size_t> round_phases;   // "phase/reason"
  std::map<std::string, std::size_t> loss_by_hop;    // hop name
  for (const TraceRow& q : queries) {
    const Json* verdict = verdict_stage(q);
    const std::string reason =
        verdict ? (*verdict)["reason"].as_string() : "unfinished";
    ++verdicts[q.kind + "/" + reason];
    if (q.kind == "round" && verdict && (*verdict)["fields"].has("phase")) {
      ++round_phases[(*verdict)["fields"]["phase"].as_string() + "/" + reason];
    }
    for (const Json& s : q.stages.as_array()) {
      if (s["stage"].as_string() == "loss") {
        // The link walker records the hop index as an integer; channel
        // models may name hops with a string instead.
        const Json& hop = s["fields"]["hop"];
        ++loss_by_hop[hop.is_string() ? hop.as_string()
                                      : std::to_string(as_ll(hop))];
      }
    }
  }
  if (!verdicts.empty()) {
    mntp::core::TextTable table({"kind", "verdict", "count"});
    for (const auto& [key, n] : verdicts) {
      const auto slash = key.find('/');
      table.add_row({key.substr(0, slash), key.substr(slash + 1),
                     mntp::core::fmt_count(n)});
    }
    std::printf("\ncausation (verdicts by kind and reason):\n%s\n",
                table.render().c_str());
  }
  if (!round_phases.empty()) {
    mntp::core::TextTable table({"phase", "verdict", "count"});
    for (const auto& [key, n] : round_phases) {
      const auto slash = key.find('/');
      table.add_row({key.substr(0, slash), key.substr(slash + 1),
                     mntp::core::fmt_count(n)});
    }
    std::printf("round verdicts by decision phase:\n%s\n",
                table.render().c_str());
  }
  if (!loss_by_hop.empty()) {
    mntp::core::TextTable table({"hop", "losses"});
    for (const auto& [hop, n] : loss_by_hop) {
      table.add_row({hop, mntp::core::fmt_count(n)});
    }
    std::printf("packet loss by hop:\n%s\n", table.render().c_str());
  }

  if (opt.mode != Mode::kExplain) return 0;

  // Per-query timelines: roots (rounds and orphan exchanges) with their
  // child exchanges nested underneath.
  std::map<long long, std::vector<const TraceRow*>> children;
  for (const TraceRow& q : queries) {
    if (q.parent != 0) children[q.parent].push_back(&q);
  }
  std::size_t shown = 0;
  bool found = false;
  for (const TraceRow& q : queries) {
    if (opt.query_id >= 0) {
      if (q.id != opt.query_id) continue;
      found = true;
    } else {
      if (q.parent != 0) continue;  // roots only in the default listing
      if (shown >= opt.limit) {
        std::printf("  ... %s\n", "more queries elided (raise --limit or "
                                  "pick one with --query <id>)");
        break;
      }
    }
    std::printf("\n");
    auto it = children.find(q.id);
    print_timeline(q, it == children.end() ? std::vector<const TraceRow*>{}
                                           : it->second,
                   2);
    ++shown;
    if (opt.query_id >= 0) break;
  }
  if (opt.query_id >= 0 && !found) {
    std::fprintf(stderr, "mntp-inspect: query #%lld not in %s\n",
                 opt.query_id, art.path.c_str());
    return 1;
  }
  return 0;
}

// --------------------------------------------------------------- profile

int inspect_profile(const std::string& path, const Json& doc) {
  const Json& events = doc["traceEvents"];
  std::string run_name;
  struct Agg {
    std::size_t count = 0;
    double total_us = 0, self_us = 0, min_us = 0, max_us = 0;
  };
  std::map<std::string, Agg> by_name;
  std::map<std::int64_t, std::size_t> by_tid;
  for (const Json& e : events.as_array()) {
    const std::string& ph = e["ph"].as_string();
    if (ph == "M") {
      if (e["name"].as_string() == "process_name") {
        run_name = e["args"]["name"].as_string();
      }
      continue;
    }
    if (ph != "X") continue;
    const double dur = e["dur"].as_double();
    Agg& agg = by_name[e["name"].as_string()];
    if (agg.count == 0) agg.min_us = agg.max_us = dur;
    agg.min_us = std::min(agg.min_us, dur);
    agg.max_us = std::max(agg.max_us, dur);
    ++agg.count;
    agg.total_us += dur;
    agg.self_us += e["args"]["self_us"].as_double();
    ++by_tid[e["tid"].as_int()];
  }
  std::printf("span profile: %s\n  run=%s  %zu span names, %zu threads\n",
              path.c_str(), run_name.c_str(), by_name.size(), by_tid.size());
  // Hottest first — total wall time is the question a profile answers.
  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(),
                                                by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_us > b.second.total_us;
  });
  mntp::core::TextTable table({"span", "count", "total_ms", "self_ms",
                               "mean_us", "min_us", "max_us"});
  for (const auto& [name, agg] : rows) {
    table.add_row({name, mntp::core::fmt_count(agg.count),
                   mntp::core::fmt_double(agg.total_us / 1e3),
                   mntp::core::fmt_double(agg.self_us / 1e3),
                   mntp::core::fmt_double(agg.total_us /
                                          static_cast<double>(agg.count)),
                   mntp::core::fmt_double(agg.min_us),
                   mntp::core::fmt_double(agg.max_us)});
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}

// ----------------------------------------------------------------- bench

int inspect_bench(const std::string& path, const Json& doc) {
  const Json& env = doc["environment"];
  std::printf("perf-suite results: %s\n  reps=%lld warmup=%lld  compiler=%s "
              "build=%s threads=%lld\n",
              path.c_str(), as_ll(doc["reps"]), as_ll(doc["warmup"]),
              env["compiler"].as_string().c_str(),
              env["build_type"].as_string().c_str(),
              as_ll(env["hardware_threads"]));
  mntp::core::TextTable table(
      {"workload", "median_us", "mad_us", "p95_us", "min_us", "max_us"});
  for (const Json& w : doc["workloads"].as_array()) {
    table.add_row({w["name"].as_string(),
                   mntp::core::fmt_double(w["median_us"].as_double(), 1),
                   mntp::core::fmt_double(w["mad_us"].as_double(), 1),
                   mntp::core::fmt_double(w["p95_us"].as_double(), 1),
                   mntp::core::fmt_double(w["min_us"].as_double(), 1),
                   mntp::core::fmt_double(w["max_us"].as_double(), 1)});
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}

// -------------------------------------------------------------- timeline

/// One decoded {"type":"series"} line of a timeline artifact.
struct SeriesRow {
  std::string name;
  std::string labels;
  std::string probe;
  long long samples = 0;
  long long stride = 1;
  std::vector<double> t_s;     // per point: time of last folded sample
  std::vector<double> mean;
  std::vector<double> min;
  std::vector<double> max;
  double last = 0.0;
};

/// Resample `mean` into `width` buckets and render one sparkline cell per
/// bucket, scaled to the series' own min..max.
std::string sparkline(const SeriesRow& s, std::size_t width) {
  static const char* kLevels[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (s.mean.empty()) return "";
  double lo = s.mean.front(), hi = s.mean.front();
  for (double v : s.mean) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const std::size_t cols = std::min(width, s.mean.size());
  std::string out;
  for (std::size_t c = 0; c < cols; ++c) {
    const std::size_t begin = c * s.mean.size() / cols;
    const std::size_t end =
        std::max(begin + 1, (c + 1) * s.mean.size() / cols);
    double acc = 0.0;
    for (std::size_t i = begin; i < end; ++i) acc += s.mean[i];
    const double v = acc / static_cast<double>(end - begin);
    const double norm = hi > lo ? (v - lo) / (hi - lo) : 0.5;
    const int level =
        std::clamp(static_cast<int>(norm * 8.0), 0, 7);
    out += kLevels[level];
  }
  return out;
}

int inspect_timeline(const Artifact& art, const Options& opt) {
  std::vector<SeriesRow> series;
  for (const Json& line : art.body) {
    if (line["type"] != "series") continue;  // best-effort on newer schemas
    SeriesRow s;
    s.name = line["name"].as_string();
    s.labels = format_labels(line["labels"]);
    s.probe = line["probe"].as_string();
    s.samples = line["samples"].as_int();
    s.stride = line["stride"].as_int();
    for (const Json& p : line["points"].as_array()) {
      s.t_s.push_back(static_cast<double>(p.at(0).as_int()) / 1e9);
      s.min.push_back(p.at(1).as_double());
      s.mean.push_back(p.at(2).as_double());
      s.max.push_back(p.at(3).as_double());
      s.last = p.at(4).as_double();
    }
    series.push_back(std::move(s));
  }
  const Json& meta = art.doc;
  const std::string& path = art.path;
  std::printf("timeline: %s\n  run=%s  sim_end=%.1fs  cadence=%.3fs  "
              "%zu series (%lld declared)\n",
              path.c_str(), meta["run"].as_string().c_str(),
              static_cast<double>(meta["sim_end_ns"].as_int()) / 1e9,
              static_cast<double>(meta["cadence_ns"].as_int()) / 1e9,
              series.size(), as_ll(meta["series_count"]));

  std::size_t shown = 0;
  for (const SeriesRow& s : series) {
    if (!opt.series.empty() &&
        s.name.find(opt.series) == std::string::npos) {
      continue;
    }
    ++shown;
    double lo = s.min.empty() ? 0.0 : s.min.front();
    double hi = s.max.empty() ? 0.0 : s.max.front();
    double acc = 0.0;
    for (std::size_t i = 0; i < s.mean.size(); ++i) {
      lo = std::min(lo, s.min[i]);
      hi = std::max(hi, s.max[i]);
      acc += s.mean[i];
    }
    const double grand_mean =
        s.mean.empty() ? 0.0 : acc / static_cast<double>(s.mean.size());
    std::printf("\n%s%s%s  (%s, %lld samples, stride %lld, %zu points)\n",
                s.name.c_str(), s.labels.empty() ? "" : "  ",
                s.labels.c_str(), s.probe.c_str(), s.samples, s.stride,
                s.t_s.size());
    std::printf("  min %s  mean %s  max %s  last %s\n",
                mntp::core::fmt_double(lo).c_str(),
                mntp::core::fmt_double(grand_mean).c_str(),
                mntp::core::fmt_double(hi).c_str(),
                mntp::core::fmt_double(s.last).c_str());
    if (!s.mean.empty()) {
      std::printf("  %s  [%.0fs .. %.0fs]\n",
                  sparkline(s, opt.width).c_str(), s.t_s.front(),
                  s.t_s.back());
    }
    // Step changes: consecutive-point deltas that stand out against the
    // series' own delta noise (same sigma rule as the offset anomaly
    // check). Constant and smoothly-trending series flag nothing.
    if (s.mean.size() >= 8) {
      std::vector<double> deltas(s.mean.size() - 1);
      for (std::size_t i = 1; i < s.mean.size(); ++i) {
        deltas[i - 1] = s.mean[i] - s.mean[i - 1];
      }
      const double sd = mntp::core::summarize(deltas).stddev;
      std::size_t flagged = 0, listed = 0;
      for (std::size_t i = 0; i < deltas.size(); ++i) {
        if (sd <= 0.0 || std::fabs(deltas[i]) <= opt.sigma * sd) continue;
        if (flagged == 0) std::printf("  step changes (|delta| > %.1f sigma):\n", opt.sigma);
        ++flagged;
        if (listed < opt.max_rows) {
          ++listed;
          std::printf("    t=%9.1fs  %+10.3f -> %+10.3f  (delta %+.3f, "
                      "%.1f sigma)\n",
                      s.t_s[i + 1], s.mean[i], s.mean[i + 1], deltas[i],
                      std::fabs(deltas[i]) / sd);
        }
      }
      if (flagged > listed) std::printf("    ... %zu more\n", flagged - listed);
    }
  }
  if (shown == 0 && !opt.series.empty()) {
    std::fprintf(stderr, "mntp-inspect: no series matching '%s' in %s\n",
                 opt.series.c_str(), path.c_str());
    return 1;
  }
  return 0;
}

// ----------------------------------------------------------------- fleet

std::string pct(long long part, long long whole) {
  return whole > 0 ? mntp::core::strformat("%.1f%%", 100.0 * part / whole)
                   : std::string("-");
}

int inspect_fleet(const Artifact& art) {
  using mntp::core::fmt_count;
  using mntp::core::fmt_double;
  const Json& doc = art.doc;
  const Json& params = doc["params"];
  const Json& tp = doc["throughput"];
  const auto n = [&doc](const char* key) {
    return as_ll(doc["totals"][key]);
  };
  // slice_s is absent from reports written before it was recorded.
  const std::string slice =
      params.has("slice_s")
          ? mntp::core::strformat("  slice=%gs", params["slice_s"].as_double())
          : std::string();
  std::printf("fleet report: %s\n  clients=%lld  duration=%.0fs%s  "
              "shards=%lld  seed=%lld  kod_limit/slice=%lld\n  threads=%lld  "
              "wall=%.3fs  %.0f queries/s/core\n",
              art.path.c_str(), as_ll(params["clients"]),
              params["duration_s"].as_double(), slice.c_str(),
              as_ll(params["shards"]), as_ll(params["seed"]),
              as_ll(params["kod_limit_per_slice"]), as_ll(tp["threads"]),
              tp["wall_s"].as_double(), tp["qps_per_core"].as_double());
  const long long lookups = n("cache_hits") + n("cache_misses");
  std::printf("  queries %s  arrived %s  dropped %s  batches %s\n"
              "  KoD %s (%s of arrived)  cache hit ratio %s  "
              "OWD valid %s / invalid %s\n",
              fmt_count(n("queries")).c_str(), fmt_count(n("arrived")).c_str(),
              fmt_count(n("dropped")).c_str(), fmt_count(n("batches")).c_str(),
              fmt_count(n("kod")).c_str(), pct(n("kod"), n("arrived")).c_str(),
              pct(n("cache_hits"), lookups).c_str(),
              fmt_count(n("owd_valid")).c_str(),
              fmt_count(n("owd_invalid")).c_str());

  mntp::core::TextTable servers({"server", "requests", "share"});
  for (const Json& server : doc["servers"].as_array()) {
    const long long requests = as_ll(server["requests"]);
    servers.add_row({server["id"].as_string(), fmt_count(requests),
                     pct(requests, n("arrived"))});
  }
  std::printf("\nper-server load (share of arrived):\n%s\n",
              servers.render().c_str());

  mntp::core::TextTable owd({"category", "count", "p50_ms", "p90_ms",
                             "p99_ms", "mean_ms", "max_ms"});
  for (const Json& r : doc["category_owd"].as_array()) {
    std::vector<std::string> row{r["category"].as_string(),
                                 fmt_count(r["count"].as_int())};
    for (const char* key :
         {"p50_ms", "p90_ms", "p99_ms", "mean_ms", "max_ms"}) {
      row.push_back(fmt_double(r[key].as_double()));
    }
    owd.add_row(std::move(row));
  }
  std::printf("one-way delay by provider category:\n%s\n",
              owd.render().c_str());
  return 0;
}

// -------------------------------------------------------------- dispatch

int inspect_file(const std::string& path, const Options& opt) {
  auto loaded = mntp::obs::load_artifact(path);
  if (!loaded.ok()) return refuse(loaded.error(), "mntp-inspect: ");
  const Artifact& art = loaded.value();
  // Forward compatibility: a newer producer must not brick an older
  // inspector, so a newer schema renders best-effort behind a warning.
  if (art.newer_schema_version != 0) {
    std::fprintf(stderr,
                 "mntp-inspect: %s: unknown schema_version %lld (this build "
                 "understands 1); rendering best-effort\n",
                 path.c_str(),
                 static_cast<long long>(art.newer_schema_version));
  }
  if (opt.mode == Mode::kTimeline && art.kind != ArtifactKind::kTimeline) {
    std::fprintf(stderr, "mntp-inspect: %s: not a timeline artifact\n",
                 path.c_str());
    return 1;
  }
  switch (art.kind) {
    case ArtifactKind::kReport: return inspect_report(art, opt);
    case ArtifactKind::kProfile: return inspect_profile(path, art.doc);
    case ArtifactKind::kBench: return inspect_bench(path, art.doc);
    case ArtifactKind::kQueryTrace: return inspect_query_trace(art, opt);
    case ArtifactKind::kTimeline: return inspect_timeline(art, opt);
    case ArtifactKind::kDiff:  // `diff` renders these; summarize only
      std::printf("diff record: %s\n  %s\n", path.c_str(),
                  mntp::obs::artifact_summary(art).c_str());
      return 0;
    case ArtifactKind::kFleet: return inspect_fleet(art);
  }
  return 1;
}

/// `validate`: the schema verdict alone, one "OK:" line per valid file.
/// --require-prefixes additionally demands at least one run-report metric
/// per listed name prefix (how CTest asserts every layer reported).
int validate_file(const std::string& path, const Options& opt) {
  auto loaded = mntp::obs::load_artifact(path);
  if (!loaded.ok()) return refuse(loaded.error(), "SCHEMA ERROR: ");
  const Artifact& art = loaded.value();
  if (art.newer_schema_version != 0) {
    std::fprintf(stderr,
                 "SCHEMA ERROR: %s: unsupported schema_version %lld (this "
                 "build understands 1)\n",
                 path.c_str(),
                 static_cast<long long>(art.newer_schema_version));
    return 1;
  }
  if (art.kind == ArtifactKind::kReport) {
    for (const std::string& prefix : opt.require_prefixes) {
      const bool found = std::any_of(
          art.body.begin(), art.body.end(), [&prefix](const Json& line) {
            return line["type"] == "metric" &&
                   line["name"].as_string().rfind(prefix, 0) == 0;
          });
      if (!found) {
        std::fprintf(stderr,
                     "SCHEMA ERROR: %s: no metric with required prefix '%s'\n",
                     path.c_str(), prefix.c_str());
        return 1;
      }
    }
  }
  std::printf("OK: %s — %s\n", path.c_str(),
              mntp::obs::artifact_summary(art).c_str());
  return 0;
}

/// `compact IN OUT`: one ph:"X" event per span name whose dur and
/// args.self_us are the summed wall and self time and args.agg_count the
/// folded event count; metadata events and other top-level keys pass
/// through. The result is commit-sized, and `diff` of two compacted
/// profiles of same-shaped runs attributes exactly like the full traces
/// (it aggregates by name first). Do not diff a compacted profile
/// against a full one: totals agree but per-name counts do not.
int compact_profile(const std::string& in, const std::string& out) {
  auto loaded = mntp::obs::load_artifact(in);
  if (!loaded.ok()) return refuse(loaded.error(), "mntp-inspect: ");
  const Json& doc = loaded.value().doc;
  if (loaded.value().kind != ArtifactKind::kProfile) {
    std::fprintf(stderr, "mntp-inspect: %s: not a span profile\n", in.c_str());
    return 1;
  }
  struct Agg {
    std::int64_t count = 0;
    double total_us = 0.0, self_us = 0.0;
  };
  std::map<std::string, Agg> spans;
  std::size_t events = 0;
  std::string text;
  mntp::core::JsonWriter w(text, 1);
  w.begin_object();
  for (const auto& [key, value] : doc.as_object()) {
    if (key != "traceEvents") w.key(key).value(value);
  }
  w.key("traceEvents").begin_array();
  for (const Json& e : doc["traceEvents"].as_array()) {
    if (e["ph"] == "M") {
      w.value(e);
      continue;
    }
    Agg& agg = spans[e["name"].as_string()];
    ++agg.count;
    agg.total_us += e["dur"].as_double();
    agg.self_us += e["args"]["self_us"].as_double();
    ++events;
  }
  std::int64_t ts = 0;
  for (const auto& [name, agg] : spans) {
    w.begin_object()
        .kv("name", name)
        .kv("cat", "aggregate")
        .kv("ph", "X")
        .kv("pid", 1)
        .kv("tid", 1)
        .kv("ts", ts);
    w.key("dur").value_fixed(agg.total_us, 3);
    w.key("args").begin_object();
    w.key("self_us").value_fixed(std::min(agg.self_us, agg.total_us), 3);
    w.kv("depth", 0).kv("agg_count", agg.count).end_object().end_object();
    // Non-overlapping synthetic timestamps keep trace viewers happy.
    ts += static_cast<std::int64_t>(agg.total_us) + 1;
  }
  w.end_array().end_object();
  text += "\n";
  std::ofstream file(out);
  file << text;
  if (!file.flush()) {
    std::fprintf(stderr, "mntp-inspect: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("compact: %s — %zu span aggregate(s) from %zu events\n",
              out.c_str(), spans.size(), events);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> paths;
  // Every numeric flag goes through checked parsing: a value that is
  // not entirely a number ("foo", "12x", "") is a usage error (exit 2),
  // never a silent zero.
  const auto bad_value = [](const std::string& flag, const char* value) {
    std::fprintf(stderr,
                 "mntp-inspect: %s needs a numeric value, got '%s'\n",
                 flag.c_str(), value == nullptr ? "" : value);
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Split "--flag=value" once so each numeric flag has a single
    // parse-and-validate path for both spellings.
    std::string flag = arg;
    const char* inline_value = nullptr;
    if (arg.rfind("--", 0) == 0) {
      if (const auto eq = arg.find('='); eq != std::string::npos) {
        flag = arg.substr(0, eq);
        inline_value = argv[i] + eq + 1;
      }
    }
    const auto take_value = [&](const char*& out) {
      if (inline_value != nullptr) {
        out = inline_value;
        return true;
      }
      if (i + 1 < argc) {
        out = argv[++i];
        return true;
      }
      return false;
    };
    const char* value = nullptr;
    // Subcommands, valid only first: `explain` adds per-query timelines
    // to query traces; `timeline` renders only timelines (--series,
    // --width); `diff` compares two artifacts of the same kind
    // (src/obs/diff.h) under its own 0/1/2 exit contract; `validate`
    // prints the schema verdict; `compact IN OUT` folds a span profile.
    static const std::pair<const char*, Mode> kSubcommands[] = {
        {"explain", Mode::kExplain},   {"timeline", Mode::kTimeline},
        {"diff", Mode::kDiff},         {"validate", Mode::kValidate},
        {"compact", Mode::kCompact}};
    const auto* sub = std::find_if(
        std::begin(kSubcommands), std::end(kSubcommands),
        [&arg](const auto& entry) { return arg == entry.first; });
    if (sub != std::end(kSubcommands) && paths.empty() &&
        opt.mode == Mode::kInspect) {
      opt.mode = sub->second;
    } else if (flag == "--json") {
      opt.json = true;
    } else if (flag == "--series") {
      if (!take_value(value)) return bad_value(flag, value);
      opt.series = value;
    } else if (flag == "--width") {
      if (!take_value(value) || !parse_size_arg(value, opt.width)) {
        return bad_value(flag, value);
      }
    } else if (flag == "--sigma") {
      if (!take_value(value) || !parse_double_arg(value, opt.sigma)) {
        return bad_value(flag, value);
      }
      opt.diff_opt.sigma = opt.sigma;
    } else if (flag == "--query") {
      if (!take_value(value) || !parse_ll_arg(value, opt.query_id)) {
        return bad_value(flag, value);
      }
    } else if (flag == "--limit") {
      if (!take_value(value) || !parse_size_arg(value, opt.limit)) {
        return bad_value(flag, value);
      }
    } else if (flag == "--tolerance") {
      if (!take_value(value) ||
          !parse_double_arg(value, opt.diff_opt.tolerance)) {
        return bad_value(flag, value);
      }
    } else if (flag == "--abs-floor-us") {
      if (!take_value(value) ||
          !parse_double_arg(value, opt.diff_opt.abs_floor_us)) {
        return bad_value(flag, value);
      }
    } else if (flag == "--divergence") {
      if (!take_value(value) ||
          !parse_double_arg(value, opt.diff_opt.divergence)) {
        return bad_value(flag, value);
      }
    } else if (flag == "--top") {
      if (!take_value(value) || !parse_size_arg(value, opt.diff_opt.top)) {
        return bad_value(flag, value);
      }
    } else if (flag == "--require-prefixes") {
      if (!take_value(value)) {
        std::fprintf(stderr, "mntp-inspect: --require-prefixes needs a "
                             "comma-separated list\n");
        return 2;
      }
      std::istringstream list(value);
      for (std::string prefix; std::getline(list, prefix, ',');) {
        if (!prefix.empty()) opt.require_prefixes.push_back(prefix);
      }
    } else if (flag == "--budget") {
      auto budget = mntp::obs::parse_budget(take_value(value) ? value : "");
      if (!budget.ok()) {
        std::fprintf(stderr, "mntp-inspect: %s\n",
                     budget.error().message.c_str());
        return 2;
      }
      opt.diff_opt.budgets.push_back(budget.value());
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: mntp-inspect [--sigma N] <file>...\n"
          "       mntp-inspect explain [--query ID] [--limit N] <trace>...\n"
          "       mntp-inspect timeline [--series S] [--width N] <timeline>...\n"
          "       mntp-inspect validate [--require-prefixes a.,b.] <file>...\n"
          "       mntp-inspect compact <profile> <out>\n"
          "       mntp-inspect diff [--json] [--tolerance R] [--abs-floor-us N]\n"
          "                         [--sigma N] [--divergence D] [--top N]\n"
          "                         [--budget A:B:PCT]... <A> <B>\n"
          "  summarizes run reports, span profiles, perf-suite results,\n"
          "  query traces, timelines, diff records and fleet reports (kind\n"
          "  detected from content, every line validated). `explain` adds\n"
          "  per-query causal timelines for query traces; `timeline`\n"
          "  renders timelines as per-series sparklines with step-change\n"
          "  flags (--series filters by substring, --width sets columns).\n"
          "  `validate` prints \"OK: <path> — <kind>: ...\" per valid file;\n"
          "  --require-prefixes demands a run-report metric per prefix.\n"
          "  `compact` folds a span profile to one event per span name.\n"
          "  `diff` compares two artifacts of the same kind and attributes\n"
          "  the change: bench medians gate (plus --budget caps within <B>),\n"
          "  profile spans rank by self-time contribution, report counters\n"
          "  get exact-reconciliation classes, query traces compare verdict\n"
          "  shares, timelines score per-series divergence; --json emits the\n"
          "  machine-readable triage record (kind mntp_diff).\n"
          "  artifacts with an unknown schema_version render best-effort\n"
          "  behind a stderr warning (exit stays 0); validate refuses them.\n"
          "  exit codes: 0 ok, 1 unreadable/unrecognized/schema-invalid\n"
          "  artifact, 2 usage or empty/truncated artifact; diff mode: 0\n"
          "  identical within tolerance, 1 significant regression, 2 error\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "mntp-inspect: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (opt.sigma <= 0.0) {
    std::fprintf(stderr, "mntp-inspect: --sigma must be > 0\n");
    return 2;
  }
  if (opt.mode == Mode::kDiff) {
    if (paths.size() != 2) {
      std::fprintf(stderr,
                   "usage: mntp-inspect diff [--json] [--tolerance R] "
                   "[--abs-floor-us N] [--sigma N] [--divergence D] "
                   "[--top N] [--budget A:B:PCT]... <A> <B>\n");
      return 2;
    }
    auto result = mntp::obs::diff_files(paths[0], paths[1], opt.diff_opt);
    if (!result.ok()) {
      std::fprintf(stderr, "mntp-inspect: diff: %s\n",
                   result.error().message.c_str());
      return 2;
    }
    for (const std::string& w : result.value().warnings) {
      std::fprintf(stderr, "mntp-inspect: diff: warning: %s\n", w.c_str());
    }
    const std::string rendered =
        opt.json ? mntp::obs::render_diff_json(result.value(), opt.diff_opt)
                 : mntp::obs::render_diff_text(result.value(), opt.diff_opt);
    std::fputs(rendered.c_str(), stdout);
    return result.value().exit_code();
  }
  if (opt.json) {
    std::fprintf(stderr, "mntp-inspect: --json requires the diff mode\n");
    return 2;
  }
  if (!opt.require_prefixes.empty() && opt.mode != Mode::kValidate) {
    std::fprintf(stderr,
                 "mntp-inspect: --require-prefixes requires the validate "
                 "mode\n");
    return 2;
  }
  if (opt.mode == Mode::kCompact) {
    if (paths.size() != 2) {
      std::fprintf(stderr, "usage: mntp-inspect compact <profile> <out>\n");
      return 2;
    }
    return compact_profile(paths[0], paths[1]);
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: mntp-inspect [explain|timeline|validate] [--sigma N] "
                 "[--query ID] [--limit N] <file>...\n");
    return 2;
  }
  if (opt.query_id >= 0 && opt.mode != Mode::kExplain) {
    std::fprintf(stderr, "mntp-inspect: --query requires the explain mode\n");
    return 2;
  }
  int status = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (opt.mode == Mode::kValidate) {
      status = std::max(status, validate_file(paths[i], opt));
      continue;
    }
    if (i != 0) std::printf("\n");
    status = std::max(status, inspect_file(paths[i], opt));
  }
  return status;
}
