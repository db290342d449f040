#include "obs/artifact.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>
#include <utility>

#include "core/format.h"
#include "fleet/params.h"
#include "logs/spec.h"
#include "obs/diff.h"
#include "obs/reason_codes.h"

namespace mntp::obs {
namespace {

using core::Error;
using core::Json;

// ---------------------------------------------------------------- helpers

/// A schema violation. The validators below throw it and load_artifact
/// turns it into an Error; it never leaves this file.
struct SchemaError {
  std::string message;
};

[[noreturn]] void fail(std::string message) {
  throw SchemaError{std::move(message)};
}

/// A JSON value as it reads in a message.
std::string show(const Json& v) {
  switch (v.type()) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return v.as_bool() ? "true" : "false";
    case Json::Type::kInt: return std::to_string(v.as_int());
    case Json::Type::kDouble: return core::strformat("%g", v.as_double());
    case Json::Type::kString: return "'" + v.as_string() + "'";
    case Json::Type::kArray: return "an array";
    case Json::Type::kObject: return "an object";
  }
  return "?";
}

std::string str(std::size_t n) { return std::to_string(n); }
double num(const Json& v) { return v.as_double(); }

/// What a field must hold. Numbers must be finite: the writers map
/// inf/nan to null, so only a hand-edited file carries one.
enum class Want {
  kAny, kCount, kPositive, kInt, kNumber, kAmount, kName, kString,
  kBool, kObject, kArray, kList, kLabels,
};

bool holds(const Json& v, Want want) {
  switch (want) {
    case Want::kAny: return true;
    case Want::kCount: return v.is_int() && v.as_int() >= 0;
    case Want::kPositive: return v.is_int() && v.as_int() >= 1;
    case Want::kInt: return v.is_int();
    case Want::kNumber: return v.is_number() && std::isfinite(num(v));
    case Want::kAmount: return holds(v, Want::kNumber) && num(v) >= 0.0;
    case Want::kName: return v.is_string() && !v.as_string().empty();
    case Want::kString: return v.is_string();
    case Want::kBool: return v.is_bool();
    case Want::kObject: return v.is_object();
    case Want::kArray: return v.is_array();
    case Want::kList: return v.is_array() && v.size() > 0;
    case Want::kLabels:
      return v.is_object() &&
             std::all_of(v.as_object().begin(), v.as_object().end(),
                         [](const auto& kv) { return kv.second.is_string(); });
  }
  return false;
}

const char* describe(Want want) {
  switch (want) {
    case Want::kAny: return "present";
    case Want::kCount: return "a non-negative integer";
    case Want::kPositive: return "a positive integer";
    case Want::kInt: return "an integer";
    case Want::kNumber: return "a number";
    case Want::kAmount: return "a non-negative number";
    case Want::kName: return "a non-empty string";
    case Want::kString: return "a string";
    case Want::kBool: return "a boolean";
    case Want::kObject: return "an object";
    case Want::kArray: return "an array";
    case Want::kList: return "a non-empty array";
    case Want::kLabels: return "a string-to-string object";
  }
  return "?";
}

/// Each of `keys` must be present in `obj` and hold `want`. Messages
/// read "<where>missing 'key'" and "<where>'key' must be ...".
void expect(const Json& obj, std::initializer_list<const char*> keys,
            Want want, const std::string& where = "") {
  for (const char* key : keys) {
    if (!obj.has(key)) fail(where + "missing '" + key + "'");
    if (!holds(obj[key], want)) {
      fail(where + "'" + key + "' must be " + describe(want));
    }
  }
}

/// Element `i` of `array`, which must be an object.
const Json& object_at(const Json& array, std::size_t i,
                      const std::string& where) {
  if (!array.at(i).is_object()) fail(where + "not an object");
  return array.at(i);
}

bool one_of(const Json& v, std::initializer_list<std::string_view> names) {
  return std::any_of(names.begin(), names.end(),
                     [&v](std::string_view name) { return v == name; });
}

void check_version(const Json& doc) {
  if (doc["schema_version"] != 1) {
    fail("unsupported schema_version " + show(doc["schema_version"]));
  }
}

/// Run `check`; a failure names JSONL line `lineno`.
template <typename Check>
void at_line(std::size_t lineno, Check check) {
  try {
    check();
  } catch (SchemaError& e) {
    e.message = "line " + str(lineno) + ": " + e.message;
    throw;
  }
}

/// Run `check` on every body line (the meta line is line 1).
template <typename Check>
void each_line(const Artifact& art, Check check) {
  for (std::size_t i = 0; i < art.body.size(); ++i) {
    at_line(i + 2, [&] { check(art.body[i]); });
  }
}

/// The JSONL line types a kind allows after its meta line.
void check_line_type(const Json& line,
                     std::initializer_list<std::string_view> types) {
  if (line["type"] == "meta") fail("duplicate meta line");
  if (!one_of(line["type"], types)) {
    fail("unknown line type " + show(line["type"]));
  }
}

// ---------------------------------------------------------------- report

void check_histogram(const Json& m) {
  expect(m, {"sum", "min", "max", "p50", "p90", "p99"}, Want::kAny,
         "histogram ");
  expect(m, {"count"}, Want::kCount, "histogram ");
  expect(m, {"buckets"}, Want::kList, "histogram ");
  const Json& buckets = m["buckets"];
  std::int64_t total = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const Json& b = buckets.at(i);
    const std::string where = "bucket " + str(i) + " ";
    if (b.size() != 2 || !b.has("le") || !b.has("count")) {
      fail(where + "must have exactly 'le' and 'count'");
    }
    expect(b, {"count"}, Want::kCount, where);
    total += b["count"].as_int();
    if (i + 1 == buckets.size()) {
      if (b["le"] != "inf") fail("final bucket 'le' must be \"inf\"");
      continue;
    }
    expect(b, {"le"}, Want::kNumber, where);
    if (i > 0 && num(b["le"]) <= num(buckets.at(i - 1)["le"])) {
      fail("bucket bounds must ascend (" + show(b["le"]) + " after " +
           show(buckets.at(i - 1)["le"]) + ")");
    }
  }
  if (total != m["count"].as_int()) {
    fail("bucket counts sum to " + std::to_string(total) +
         ", histogram count is " + show(m["count"]));
  }
  if (m["count"].as_int() == 0) return;
  expect(m, {"min", "max", "p50", "p90", "p99"}, Want::kNumber, "histogram ");
  if (num(m["min"]) > num(m["max"])) fail("histogram min > max");
  if (!(num(m["p50"]) <= num(m["p90"]) && num(m["p90"]) <= num(m["p99"]))) {
    fail("histogram quantiles must satisfy p50<=p90<=p99");
  }
}

void validate_report(const Artifact& art) {
  const Json& meta = art.doc;
  at_line(1, [&meta] {
    check_version(meta);
    expect(meta, {"run"}, Want::kName, "meta ");
    expect(meta, {"sim_end_ns", "metric_count", "event_count"}, Want::kCount,
           "meta ");
  });
  std::vector<std::string> names;
  std::size_t events = 0;
  std::int64_t last_t = 0;
  each_line(art, [&](const Json& line) {
    check_line_type(line, {"metric", "event"});
    if (line["type"] == "metric") {
      if (events > 0) fail("metric line after the first event line");
      expect(line, {"name"}, Want::kName, "metric ");
      expect(line, {"labels"}, Want::kLabels, "metric ");
      const Json& kind = line["kind"];
      if (!one_of(kind, {"counter", "gauge", "histogram"})) {
        fail("unknown metric kind " + show(kind));
      }
      if (kind == "histogram") {
        check_histogram(line);
      } else {
        expect(line, {"value"}, Want::kNumber, kind.as_string() + " ");
        if (kind == "counter" && num(line["value"]) < 0.0) {
          fail("counter value must be non-negative");
        }
      }
      names.push_back(line["name"].as_string());
      return;
    }
    expect(line, {"t_ns"}, Want::kInt, "event ");
    expect(line, {"category", "name"}, Want::kName, "event ");
    expect(line, {"fields"}, Want::kObject, "event ");
    const std::int64_t t = line["t_ns"].as_int();
    if (events > 0 && t < last_t) {
      fail("event t_ns " + std::to_string(t) + " out of order (previous " +
           std::to_string(last_t) + ")");
    }
    last_t = t;
    ++events;
  });
  if (meta["metric_count"] != static_cast<std::int64_t>(names.size())) {
    fail("meta metric_count " + show(meta["metric_count"]) + " != " +
         str(names.size()) + " metric lines");
  }
  if (meta["event_count"] != static_cast<std::int64_t>(events)) {
    fail("meta event_count " + show(meta["event_count"]) + " != " +
         str(events) + " event lines");
  }
  if (!std::is_sorted(names.begin(), names.end())) {
    fail("metric lines not sorted by name");
  }
}

// --------------------------------------------------------------- profile

void validate_profile(const Artifact& art) {
  expect(art.doc, {"traceEvents"}, Want::kArray);
  const Json& events = art.doc["traceEvents"];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string where = "traceEvents[" + str(i) + "]: ";
    const Json& e = object_at(events, i, where);
    if (e["ph"] == "M") continue;  // metadata: nothing to enforce
    if (e["ph"] != "X") {
      fail(where + "unexpected phase " + show(e["ph"]) +
           " (only M and X are emitted)");
    }
    expect(e, {"cat", "pid", "tid"}, Want::kAny, where);
    expect(e, {"name"}, Want::kName, where);
    expect(e, {"ts", "dur"}, Want::kAmount, where);
    expect(e, {"args"}, Want::kObject, where);
    const Json& args = e["args"];
    expect(args, {"self_us"}, Want::kAmount, where + "args ");
    expect(args, {"depth"}, Want::kCount, where + "args ");
    // Rounded independently to 3 decimals, so allow half-ULP slack.
    if (num(args["self_us"]) > num(e["dur"]) + 0.001) {
      fail(where + "args self_us " + show(args["self_us"]) + " exceeds dur " +
           show(e["dur"]));
    }
  }
}

// ----------------------------------------------------------------- bench

void validate_bench(const Artifact& art) {
  const Json& doc = art.doc;
  check_version(doc);
  expect(doc, {"reps", "warmup"}, Want::kCount);
  if (doc["reps"].as_int() < 1) fail("'reps' must be >= 1");
  expect(doc, {"environment"}, Want::kObject);
  expect(doc["environment"], {"compiler", "build_type", "build_flags"},
         Want::kString, "environment ");
  expect(doc["environment"], {"hardware_threads"}, Want::kInt, "environment ");
  expect(doc, {"workloads"}, Want::kList);
  std::set<std::string> seen;
  for (std::size_t i = 0; i < doc["workloads"].size(); ++i) {
    std::string where = "workloads[" + str(i) + "]";
    const Json& w = object_at(doc["workloads"], i, where + ": ");
    expect(w, {"name"}, Want::kName, where + ": ");
    // The workload name leads every later message.
    where += " " + show(w["name"]) + ": ";
    if (!seen.insert(w["name"].as_string()).second) {
      fail(where + "duplicate workload name");
    }
    if (w["unit"] != "us") {
      fail(where + "'unit' must be 'us', got " + show(w["unit"]));
    }
    expect(w, {"median_us", "mad_us", "p95_us", "min_us", "max_us", "mean_us"},
           Want::kAmount, where);
    const Json& samples = w["samples_us"];
    if (!samples.is_array() ||
        !std::all_of(samples.as_array().begin(), samples.as_array().end(),
                     [](const Json& s) { return holds(s, Want::kNumber); })) {
      fail(where + "'samples_us' must be an array of numbers");
    }
    if (static_cast<std::int64_t>(samples.size()) != doc["reps"].as_int()) {
      fail(where + str(samples.size()) + " samples but reps is " +
           show(doc["reps"]));
    }
    if (!(num(w["min_us"]) <= num(w["median_us"]) &&
          num(w["median_us"]) <= num(w["p95_us"]) &&
          num(w["p95_us"]) <= num(w["max_us"]))) {
      fail(where + "order statistics must satisfy min<=median<=p95<=max");
    }
  }
}

// ----------------------------------------------------------- query trace

void check_query_trace_meta(const Json& meta) {
  check_version(meta);
  expect(meta, {"run"}, Want::kName, "meta ");
  expect(meta, {"sim_end_ns", "query_count", "dropped", "dropped_stages"},
         Want::kCount, "meta ");
  // Deterministic sampling (QueryTracer::Sampling): every minted id ends
  // exactly one way — kept, sampled out, or dropped.
  if (!meta.has("sampling")) return;
  expect(meta, {"sampling"}, Want::kObject, "meta ");
  const Json& s = meta["sampling"];
  expect(s, {"sample_one_in_n", "seed", "minted", "kept", "sampled_out"},
         Want::kCount, "sampling ");
  if (s["sample_one_in_n"].as_int() < 1) {
    fail("sampling 'sample_one_in_n' must be >= 1");
  }
  if (s["minted"].as_int() != s["kept"].as_int() +
                                   s["sampled_out"].as_int() +
                                   meta["dropped"].as_int()) {
    fail("sampling accounting broken: minted " + show(s["minted"]) +
         " != kept " + show(s["kept"]) + " + sampled_out " +
         show(s["sampled_out"]) + " + dropped " + show(meta["dropped"]));
  }
  if (meta["query_count"] != s["kept"].as_int()) {
    fail("query_count " + show(meta["query_count"]) + " != kept " +
         show(s["kept"]));
  }
}

void check_query(const Json& q, std::int64_t& last_id) {
  check_line_type(q, {"query"});
  expect(q, {"id"}, Want::kPositive, "query ");
  expect(q, {"parent", "start_ns"}, Want::kCount, "query ");
  expect(q, {"kind"}, Want::kName, "query ");
  expect(q, {"stages"}, Want::kArray, "query ");
  const std::string id = show(q["id"]);
  if (q["id"].as_int() <= last_id) {
    fail("query ids must be strictly increasing (" + id + " after " +
         std::to_string(last_id) + ")");
  }
  last_id = q["id"].as_int();
  const Json& stages = q["stages"];
  std::int64_t last_t = q["start_ns"].as_int();
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const std::string where = "query " + id + " stages[" + str(s) + "]: ";
    const Json& stage = object_at(stages, s, where);
    expect(stage, {"reason"}, Want::kAny, where);
    expect(stage, {"t_ns"}, Want::kInt, where);
    expect(stage, {"stage"}, Want::kName, where);
    expect(stage, {"fields"}, Want::kObject, where);
    const Json& reason = stage["reason"];
    if (!std::any_of(std::begin(kAllReasons), std::end(kAllReasons),
                     [&reason](Reason r) { return reason == to_string(r); })) {
      fail(where + "unknown reason " + show(reason));
    }
    for (const auto& [key, value] : stage["fields"].as_object()) {
      if (key.empty()) fail(where + "field keys must be non-empty strings");
      if (!value.is_string() && !value.is_bool() &&
          !holds(value, Want::kNumber)) {
        fail(where + "field '" + key + "' must be a string, bool or number");
      }
    }
    if (stage["t_ns"].as_int() < last_t) {
      fail(where + "t_ns " + show(stage["t_ns"]) + " precedes " +
           std::to_string(last_t));
    }
    last_t = stage["t_ns"].as_int();
    if (stage["stage"] == "verdict" && s + 1 != stages.size()) {
      fail("query " + id + ": 'verdict' stage must be last");
    }
  }
}

void validate_query_trace(const Artifact& art) {
  at_line(1, [&art] { check_query_trace_meta(art.doc); });
  std::int64_t last_id = 0;
  each_line(art, [&last_id](const Json& q) { check_query(q, last_id); });
  if (art.doc["query_count"] != static_cast<std::int64_t>(art.body.size())) {
    fail("meta query_count " + show(art.doc["query_count"]) + " != " +
         str(art.body.size()) + " query lines");
  }
}

// ------------------------------------------------------------------ diff

void validate_diff(const Artifact& art) {
  const Json& doc = art.doc;
  check_version(doc);
  if (!std::any_of(std::begin(kDiffableKinds), std::end(kDiffableKinds),
                   [&doc](ArtifactKind kind) {
                     return doc["artifact_kind"] == artifact_kind_name(kind);
                   })) {
    fail("unknown artifact_kind " + show(doc["artifact_kind"]));
  }
  expect(doc, {"a", "b", "options"}, Want::kObject);
  for (const char* side : {"a", "b"}) {
    expect(doc[side], {"path", "run"}, Want::kString, side + std::string(" "));
  }
  expect(doc["options"], {"tolerance", "abs_floor_us", "sigma", "divergence"},
         Want::kNumber, "options ");
  expect(doc, {"significant", "regressions"}, Want::kCount);
  if (doc["exit_hint"] != 0 && doc["exit_hint"] != 1) {
    fail("exit_hint must be 0 or 1, got " + show(doc["exit_hint"]));
  }
  expect(doc, {"sections"}, Want::kArray);
  std::int64_t significant = 0, regressions = 0;
  for (std::size_t si = 0; si < doc["sections"].size(); ++si) {
    const std::string where = "sections[" + str(si) + "]";
    const Json& section = object_at(doc["sections"], si, where + ": ");
    expect(section, {"title"}, Want::kName, where + ": ");
    expect(section, {"entries"}, Want::kArray, where + ": ");
    for (std::size_t ei = 0; ei < section["entries"].size(); ++ei) {
      const std::string at = where + ".entries[" + str(ei) + "]: ";
      const Json& e = object_at(section["entries"], ei, at);
      expect(e, {"name"}, Want::kName, at);
      for (const char* key : {"before", "after"}) {
        if (!e[key].is_null() && !holds(e[key], Want::kNumber)) {
          fail(at + "'" + key + "' must be a number or null");
        }
      }
      expect(e, {"delta", "score"}, Want::kNumber, at);
      expect(e, {"significant", "regression"}, Want::kBool, at);
      if (e["regression"].as_bool() && !e["significant"].as_bool()) {
        fail(at + "regression entries must also be significant");
      }
      if (!std::any_of(std::begin(diff_class::kAll), std::end(diff_class::kAll),
                       [&e](const char* cls) { return e["class"] == cls; })) {
        fail(at + "unknown class " + show(e["class"]));
      }
      expect(e, {"note"}, Want::kString, at);
      significant += e["significant"].as_bool() ? 1 : 0;
      regressions += e["regression"].as_bool() ? 1 : 0;
    }
  }
  if (doc["significant"] != significant) {
    fail("'significant' is " + show(doc["significant"]) +
         " but entries flag " + std::to_string(significant));
  }
  if (doc["regressions"] != regressions) {
    fail("'regressions' is " + show(doc["regressions"]) +
         " but entries flag " + std::to_string(regressions));
  }
  if (doc["exit_hint"] != (regressions > 0 ? 1 : 0)) {
    fail("exit_hint " + show(doc["exit_hint"]) + " inconsistent with " +
         std::to_string(regressions) + " regression(s)");
  }
}

// -------------------------------------------------------------- timeline

void check_series(const Json& s) {
  check_line_type(s, {"series"});
  expect(s, {"name"}, Want::kName, "series ");
  if (!one_of(s["probe"], {"callback", "counter", "gauge"})) {
    fail("unknown probe kind " + show(s["probe"]));
  }
  expect(s, {"labels"}, Want::kLabels, "series ");
  expect(s, {"samples", "stride"}, Want::kPositive, "series ");
  // Empty series are skipped at export.
  expect(s, {"points"}, Want::kList, "series ");
  const Json& points = s["points"];
  std::int64_t total = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Json& p = points.at(i);
    const std::string where =
        "series " + show(s["name"]) + " points[" + str(i) + "]: ";
    if (!p.is_array() || p.size() != 6) {
      fail(where + "must be a [t_ns,min,mean,max,last,count] array");
    }
    if (!p.at(0).is_int()) fail(where + "'t_ns' must be an integer");
    if (i > 0 && p.at(0).as_int() <= points.at(i - 1).at(0).as_int()) {
      fail(where + "t_ns " + show(p.at(0)) + " not after previous " +
           show(points.at(i - 1).at(0)));
    }
    const char* names[] = {"min", "mean", "max", "last"};
    for (std::size_t k = 0; k < 4; ++k) {
      if (!holds(p.at(k + 1), Want::kNumber)) {
        fail(where + "'" + names[k] + "' must be a number");
      }
    }
    if (!holds(p.at(5), Want::kPositive)) {
      fail(where + "'count' must be a positive integer");
    }
    total += p.at(5).as_int();
    const double lo = num(p.at(1)), mean = num(p.at(2)), hi = num(p.at(3)),
                 last = num(p.at(4));
    if (!(lo <= mean && mean <= hi)) {
      fail(where + core::strformat("needs min<=mean<=max, got %g/%g/%g", lo,
                                   mean, hi));
    }
    if (!(lo <= last && last <= hi)) {
      fail(where + core::strformat("needs min<=last<=max, got %g/%g/%g", lo,
                                   last, hi));
    }
  }
  if (total != s["samples"].as_int()) {
    fail("series " + show(s["name"]) + ": point counts sum to " +
         std::to_string(total) + ", 'samples' is " + show(s["samples"]));
  }
}

void validate_timeline(const Artifact& art) {
  const Json& meta = art.doc;
  at_line(1, [&meta] {
    check_version(meta);
    expect(meta, {"run"}, Want::kName, "meta ");
    expect(meta, {"sim_end_ns", "series_count"}, Want::kCount, "meta ");
    expect(meta, {"cadence_ns"}, Want::kPositive, "meta ");
  });
  each_line(art, check_series);
  if (meta["series_count"] != static_cast<std::int64_t>(art.body.size())) {
    fail("meta series_count " + show(meta["series_count"]) + " != " +
         str(art.body.size()) + " series lines");
  }
}

// ----------------------------------------------------------------- fleet

/// One row of the owd / category_owd tables; returns its count.
std::int64_t check_owd_row(const Json& rows, std::size_t i,
                           const std::string& where) {
  const Json& row = object_at(rows, i, where);
  expect(row, {"count"}, Want::kCount, where);
  expect(row, {"p50_ms", "p90_ms", "p99_ms", "mean_ms", "min_ms", "max_ms"},
         Want::kAmount, where);
  if (row["count"].as_int() > 0) {
    if (!(num(row["p50_ms"]) <= num(row["p90_ms"]) &&
          num(row["p90_ms"]) <= num(row["p99_ms"]))) {
      fail(where + "quantiles must satisfy p50<=p90<=p99");
    }
    if (num(row["min_ms"]) > num(row["max_ms"])) {
      fail(where + "min_ms > max_ms");
    }
  }
  return row["count"].as_int();
}

/// Beyond field shapes, the fleet report's conservation ledger: every
/// query is accounted for exactly once at every stage (issued ->
/// arrived/dropped -> per-server -> cache hit/miss and OWD
/// valid/invalid, both net of KoD-limited requests, which receive no
/// time response).
void validate_fleet(const Artifact& art) {
  const Json& doc = art.doc;
  check_version(doc);
  expect(doc, {"params", "population", "totals", "throughput"}, Want::kObject);
  const Json& params = doc["params"];
  const Json& pop = doc["population"];
  const Json& totals = doc["totals"];
  const auto n = [](const Json& v) { return v.as_int(); };
  expect(params, {"clients", "shards", "seed", "kod_limit_per_slice"},
         Want::kCount, "params ");
  const auto positive = [&params](const char* key) {
    if (!holds(params[key], Want::kAmount) || num(params[key]) <= 0.0) {
      fail(std::string("params '") + key + "' must be a positive number");
    }
  };
  for (const char* key : {"duration_s", "cache_bucket_ms", "batch_window_ms"}) {
    positive(key);
  }
  // Reports written before slice_s was recorded stay valid without it.
  if (params.has("slice_s")) positive("slice_s");
  expect(pop, {"clients", "sntp_clients", "ntp_clients", "wireless_clients",
               "wired_clients"},
         Want::kCount, "population ");
  if (n(pop["sntp_clients"]) + n(pop["ntp_clients"]) != n(pop["clients"])) {
    fail("population: sntp_clients + ntp_clients != clients");
  }
  if (n(pop["wireless_clients"]) + n(pop["wired_clients"]) !=
      n(pop["clients"])) {
    fail("population: wireless_clients + wired_clients != clients");
  }
  if (pop["clients"] != n(params["clients"])) {
    fail("population clients != params clients");
  }
  expect(totals, {"queries", "arrived", "dropped", "kod", "batches",
                  "cache_hits", "cache_misses", "owd_valid", "owd_invalid"},
         Want::kCount, "totals ");
  if (n(totals["queries"]) != n(totals["arrived"]) + n(totals["dropped"])) {
    fail("totals: queries != arrived + dropped");
  }
  const std::int64_t served = n(totals["arrived"]) - n(totals["kod"]);
  if (n(totals["cache_hits"]) + n(totals["cache_misses"]) != served) {
    fail("totals: cache_hits + cache_misses != arrived - kod");
  }
  if (n(totals["owd_valid"]) + n(totals["owd_invalid"]) != served) {
    fail("totals: owd_valid + owd_invalid != arrived - kod");
  }
  expect(doc["throughput"], {"threads"}, Want::kPositive, "throughput ");
  expect(doc["throughput"], {"wall_s", "qps", "qps_per_core"}, Want::kAmount,
         "throughput ");

  expect(doc, {"servers"}, Want::kList);
  std::int64_t server_sum = 0;
  std::set<std::string> ids;
  for (std::size_t i = 0; i < doc["servers"].size(); ++i) {
    const std::string where = "servers[" + str(i) + "]: ";
    const Json& s = object_at(doc["servers"], i, where);
    expect(s, {"id"}, Want::kName, where);
    expect(s, {"requests"}, Want::kCount, where);
    if (!ids.insert(s["id"].as_string()).second) {
      fail(where + "duplicate id " + show(s["id"]));
    }
    server_sum += n(s["requests"]);
  }
  if (server_sum != n(totals["arrived"])) {
    fail("per-server requests sum to " + std::to_string(server_sum) +
         ", totals arrived is " + show(totals["arrived"]));
  }

  const auto rows_sum_to_valid = [&](const char* key, std::int64_t sum) {
    if (sum != n(totals["owd_valid"])) {
      fail(std::string(key) + " counts sum to " + std::to_string(sum) +
           ", totals owd_valid is " + show(totals["owd_valid"]));
    }
  };
  const Json& owd = doc["owd"];
  if (!owd.is_array() || owd.size() != 4) {
    fail("'owd' must be an array of the 4 speaker x population rows");
  }
  std::int64_t owd_count = 0;
  std::set<std::pair<std::string, std::string>> classes;
  for (std::size_t i = 0; i < owd.size(); ++i) {
    const std::string where = "owd[" + str(i) + "]: ";
    owd_count += check_owd_row(owd, i, where);
    const Json& row = owd.at(i);
    using fleet::Population, fleet::Speaker;
    if (!one_of(row["speaker"], {fleet::speaker_name(Speaker::kNtp),
                                 fleet::speaker_name(Speaker::kSntp)})) {
      fail(where + "unknown speaker " + show(row["speaker"]));
    }
    if (!one_of(row["population"],
                {fleet::population_name(Population::kWired),
                 fleet::population_name(Population::kWireless)})) {
      fail(where + "unknown population " + show(row["population"]));
    }
    if (!classes.emplace(row["speaker"].as_string(),
                         row["population"].as_string()).second) {
      fail(where + "duplicate class (" + row["speaker"].as_string() + ", " +
           row["population"].as_string() + ")");
    }
  }
  rows_sum_to_valid("owd row", owd_count);

  // Rows follow logs::ProviderCategory order, as the writer emits them.
  const Json& categories = doc["category_owd"];
  if (!categories.is_array() || categories.size() != 4) {
    fail("'category_owd' must be an array of the 4 provider categories");
  }
  std::int64_t category_count = 0;
  for (std::size_t i = 0; i < categories.size(); ++i) {
    const std::string where = "category_owd[" + str(i) + "]: ";
    category_count += check_owd_row(categories, i, where);
    const std::string_view expected =
        logs::category_name(static_cast<logs::ProviderCategory>(i));
    if (categories.at(i)["category"] != expected) {
      fail(where + "expected category '" + std::string(expected) + "', got " +
           show(categories.at(i)["category"]));
    }
  }
  rows_sum_to_valid("category_owd", category_count);
}

// ------------------------------------------------------------- detection

/// The artifact a document's (or a JSONL meta line's) `kind` names.
std::optional<ArtifactKind> kind_named(const Json& kind) {
  if (kind == "mntp_perf_suite") return ArtifactKind::kBench;
  if (kind == "mntp_diff") return ArtifactKind::kDiff;
  if (kind == "mntp_fleet_report") return ArtifactKind::kFleet;
  if (kind == "mntp_query_trace") return ArtifactKind::kQueryTrace;
  if (kind == "mntp_timeline") return ArtifactKind::kTimeline;
  return std::nullopt;
}

bool is_jsonl_kind(ArtifactKind kind) {
  return kind == ArtifactKind::kReport || kind == ArtifactKind::kQueryTrace ||
         kind == ArtifactKind::kTimeline;
}

Error unsupported(const std::string& path, const Json& kind) {
  return Error::not_found(path + ": unsupported artifact kind " + show(kind));
}

bool blank(const std::string& text) {
  return text.find_first_not_of(" \t\r\n") == std::string::npos;
}

/// Fill `art` with the detected kind and the parsed lines, or say why the
/// file is not an artifact.
std::optional<Error> read_artifact(const std::string& content, Artifact& art) {
  const std::string& path = art.path;
  if (auto whole = Json::parse(content); whole.ok()) {
    const Json& doc = whole.value();
    const auto kind = kind_named(doc["kind"]);
    if (doc.has("traceEvents") || (kind && !is_jsonl_kind(*kind))) {
      art.kind = doc.has("traceEvents") ? ArtifactKind::kProfile : *kind;
      art.doc = doc;
      return std::nullopt;
    }
    // A JSONL artifact holding only its meta line is one JSON document
    // too; anything else is not an artifact.
    if (!kind && doc["type"] != "meta") {
      if (doc["kind"].is_string()) return unsupported(path, doc["kind"]);
      return Error::not_found(path + ": unrecognized JSON document");
    }
  }

  std::vector<std::string> lines;
  std::istringstream stream(content);
  for (std::string line; std::getline(stream, line);) lines.push_back(line);
  // Every writer emits the meta line first and whole; a first or last
  // line that does not parse is a write cut short.
  const auto truncated = [&path](std::size_t lineno) {
    return Error::unavailable(path + ": truncated artifact (line " +
                              str(lineno) + " is not valid JSON)");
  };
  auto first = Json::parse(lines.front());
  if (!first.ok()) return truncated(1);
  art.doc = first.value();
  const auto kind = kind_named(art.doc["kind"]);
  if (kind && is_jsonl_kind(*kind)) {
    art.kind = *kind;
  } else if (art.doc["kind"].is_string() && art.doc["type"] == "meta") {
    return unsupported(path, art.doc["kind"]);
  } else {
    // Run reports are the one JSONL kind whose meta carries no `kind`.
    art.kind = ArtifactKind::kReport;
  }
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string at = path + ": line " + str(i + 1) + ": ";
    if (blank(lines[i])) return Error::malformed(at + "blank line");
    auto parsed = Json::parse(lines[i]);
    if (!parsed.ok()) {
      if (i + 1 == lines.size()) return truncated(i + 1);
      return Error::malformed(at + "invalid JSON: " + parsed.error().message);
    }
    art.body.push_back(std::move(parsed.value()));
  }
  return std::nullopt;
}

void validate(const Artifact& art) {
  if (is_jsonl_kind(art.kind) && art.doc["type"] != "meta") {
    fail("line 1: first line must be the meta object");
  }
  switch (art.kind) {
    case ArtifactKind::kReport: return validate_report(art);
    case ArtifactKind::kProfile: return validate_profile(art);
    case ArtifactKind::kBench: return validate_bench(art);
    case ArtifactKind::kQueryTrace: return validate_query_trace(art);
    case ArtifactKind::kTimeline: return validate_timeline(art);
    case ArtifactKind::kDiff: return validate_diff(art);
    case ArtifactKind::kFleet: return validate_fleet(art);
  }
}

std::size_t count_type(const Artifact& art, const char* type) {
  return static_cast<std::size_t>(
      std::count_if(art.body.begin(), art.body.end(),
                    [type](const Json& line) { return line["type"] == type; }));
}

}  // namespace

const char* artifact_kind_name(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kReport: return "report";
    case ArtifactKind::kProfile: return "profile";
    case ArtifactKind::kBench: return "bench";
    case ArtifactKind::kQueryTrace: return "query-trace";
    case ArtifactKind::kTimeline: return "timeline";
    case ArtifactKind::kDiff: return "diff";
    case ArtifactKind::kFleet: return "fleet";
  }
  return "unknown";
}

core::Result<Artifact> load_artifact(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error::io("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  if (blank(content)) {
    // The producing bench crashed before its first write, or the path
    // was pre-created: distinct from an unrecognized file.
    return Error::unavailable(path + ": empty artifact file");
  }
  Artifact art;
  art.path = path;
  if (auto error = read_artifact(content, art)) return *error;
  // A newer producer's file is parsed but not held to this build's rules.
  if (const Json& version = art.doc["schema_version"];
      version.is_int() && version.as_int() > 1) {
    art.newer_schema_version = version.as_int();
    return art;
  }
  try {
    validate(art);
  } catch (const SchemaError& e) {
    return Error::malformed(path + ": " + e.message);
  }
  return art;
}

std::string artifact_summary(const Artifact& art) {
  const Json& doc = art.doc;
  const std::string run = ", run " + show(doc["run"]);
  std::string out = artifact_kind_name(art.kind) + std::string(": ");
  switch (art.kind) {
    case ArtifactKind::kReport:
      return out + str(count_type(art, "metric")) + " metrics, " +
             str(count_type(art, "event")) + " events" + run;
    case ArtifactKind::kProfile: {
      std::size_t spans = 0;
      std::set<std::string> names;
      for (const Json& e : doc["traceEvents"].as_array()) {
        if (e["ph"] != "X") continue;
        ++spans;
        names.insert(e["name"].as_string());
      }
      return out + str(spans) + " spans, " + str(names.size()) +
             " span names";
    }
    case ArtifactKind::kBench:
      return out + str(doc["workloads"].size()) + " workloads, " +
             show(doc["reps"]) + " reps";
    case ArtifactKind::kQueryTrace:
      return out + str(art.body.size()) + " queries" + run;
    case ArtifactKind::kTimeline:
      return out + str(art.body.size()) + " series" + run;
    case ArtifactKind::kDiff: {
      std::size_t entries = 0;
      for (const Json& s : doc["sections"].as_array()) {
        entries += s["entries"].size();
      }
      return out + doc["artifact_kind"].as_string() + ", " + str(entries) +
             " entries, " + show(doc["significant"]) + " significant, " +
             show(doc["regressions"]) + " regression(s)";
    }
    case ArtifactKind::kFleet:
      return out + show(doc["params"]["clients"]) + " clients, " +
             show(doc["totals"]["queries"]) + " queries, " +
             core::strformat("%.0f", num(doc["throughput"]["qps_per_core"])) +
             " q/s/core";
  }
  return out;
}

}  // namespace mntp::obs
