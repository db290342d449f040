// Artifact loader (obs/artifact.h): kind detection, the distinct
// failure classes (unreadable, empty, truncated, unknown kind, schema
// violation), and one table row per rejection site of the schema checks
// in src/obs/artifact.cc. Each row applies a named text mutation to a
// valid fixture (tests/data/) and names the error it must produce; a
// site inside a loop over keys gets one row. Mutated documents are
// written to gtest's temp dir as artifact_<row>.<ext>.
#include "obs/artifact.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "obs/reason_codes.h"

namespace mntp::obs {
namespace {

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(MNTP_TEST_DATA_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << name;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string write_file(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + "artifact_" + name;
  std::ofstream out(path);
  out << content;
  EXPECT_TRUE(out.good()) << path;
  return path;
}

constexpr const char* kReport = "artifact_report.jsonl";
constexpr const char* kProfile = "diff_profile_base.json";
constexpr const char* kBench = "diff_bench_base.json";
constexpr const char* kTrace = "artifact_query_trace.jsonl";
constexpr const char* kDiff = "artifact_diff.json";
constexpr const char* kTimeline = "artifact_timeline.jsonl";
constexpr const char* kFleet = "artifact_fleet.json";

/// Replace the first `from` in `fixture` by `to` (an empty `from`
/// replaces the whole document); loading must fail with `expect` in the
/// message.
struct Row {
  const char* fixture;
  const char* name;
  const char* from;
  const char* to;
  const char* expect;
};

// The `type: meta` line, the `kind` check of each meta and the
// top-level-object checks of whole-file kinds have no row: content
// detection only routes a file to a kind when those already hold.
const Row kRows[] = {
    // ------------------------------------------------------- detection
    {kReport, "empty_file", "", " \n", "empty artifact file"},
    {kReport, "unknown_meta_kind", "",
     "{\"type\":\"meta\",\"kind\":\"mntp_foo\",\"schema_version\":1}\n"
     "{\"type\":\"event\",\"t_ns\":0}\n",
     "unsupported artifact kind 'mntp_foo'"},
    {kReport, "unknown_json_document", "", "{\"foo\": 1}",
     "unrecognized JSON document"},
    // ---------------------------------------------------------- report
    {kReport, "report_meta_missing", "\"run\":\"fixture_report\",", "",
     "meta missing 'run'"},
    {kReport, "report_schema_version", "\"schema_version\":1,\"run\"",
     "\"schema_version\":0,\"run\"", "unsupported schema_version 0"},
    {kReport, "report_run", "\"run\":\"fixture_report\"", "\"run\":\"\"",
     "meta 'run' must be a non-empty string"},
    {kReport, "report_meta_count", "\"sim_end_ns\":3600000000000,",
     "\"sim_end_ns\":-1,", "meta 'sim_end_ns' must be a non-negative integer"},
    {kReport, "histogram_missing", "\"sum\":31.5,", "",
     "histogram missing 'sum'"},
    {kReport, "histogram_count", "\"count\":6,", "\"count\":-6,",
     "histogram 'count' must be a non-negative integer"},
    {kReport, "histogram_buckets",
     "[{\"le\":2.5,\"count\":1},{\"le\":5.0,\"count\":3},"
     "{\"le\":10.0,\"count\":2},{\"le\":\"inf\",\"count\":0}]",
     "[]", "histogram 'buckets' must be a non-empty array"},
    {kReport, "bucket_keys", "{\"le\":2.5,\"count\":1}",
     "{\"le\":2.5,\"count\":1,\"x\":0}",
     "bucket 0 must have exactly 'le' and 'count'"},
    {kReport, "bucket_count", "{\"le\":2.5,\"count\":1}",
     "{\"le\":2.5,\"count\":1.5}",
     "bucket 0 'count' must be a non-negative integer"},
    {kReport, "bucket_inf", "{\"le\":\"inf\",", "{\"le\":20.0,",
     "final bucket 'le' must be \"inf\""},
    {kReport, "bucket_le_number", "{\"le\":2.5,", "{\"le\":\"2.5\",",
     "bucket 0 'le' must be a number"},
    {kReport, "bucket_ascend", "{\"le\":5.0,", "{\"le\":2.5,",
     "bucket bounds must ascend"},
    {kReport, "bucket_sum", "{\"le\":10.0,\"count\":2}",
     "{\"le\":10.0,\"count\":3}",
     "bucket counts sum to 7, histogram count is 6"},
    {kReport, "histogram_min_max", "\"min\":2.25", "\"min\":19.5",
     "histogram min > max"},
    {kReport, "histogram_quantiles", "\"p50\":4.5", "\"p50\":8.75",
     "p50<=p90<=p99"},
    {kReport, "metric_missing", "\"labels\":{},", "",
     "metric missing 'labels'"},
    {kReport, "metric_kind", "\"kind\":\"counter\"", "\"kind\":\"summary\"",
     "unknown metric kind 'summary'"},
    {kReport, "metric_name", "\"name\":\"mntp.rounds\"", "\"name\":\"\"",
     "metric 'name' must be a non-empty string"},
    {kReport, "metric_labels", "\"labels\":{\"node\":\"a\"}",
     "\"labels\":{\"node\":1}",
     "metric 'labels' must be a string-to-string object"},
    {kReport, "metric_value", "\"value\":-3.5", "\"value\":\"x\"",
     "gauge 'value' must be a number"},
    {kReport, "counter_negative", "\"value\":430", "\"value\":-430",
     "counter value must be non-negative"},
    {kReport, "event_missing", ",\"fields\":{}}", "}",
     "event missing 'fields'"},
    {kReport, "event_t_ns", "\"t_ns\":2000000000", "\"t_ns\":2.5",
     "event 't_ns' must be an integer"},
    {kReport, "event_category", "\"category\":\"mntp\",\"name\":\"deferral\"",
     "\"category\":\"\",\"name\":\"deferral\"",
     "event 'category' must be a non-empty string"},
    {kReport, "event_fields", "\"fields\":{}}", "\"fields\":[]}",
     "event 'fields' must be an object"},
    {kReport, "report_blank_line", "\n{\"type\":\"event\",\"t_ns\":2",
     "\n\n{\"type\":\"event\",\"t_ns\":2", "line 6: blank line"},
    {kReport, "report_invalid_json", "{\"type\":\"event\",\"t_ns\":1000000000,",
     "{\"type\":\"event\",\"t_ns\":1000000000,,", "line 5: invalid JSON"},
    {kReport, "report_truncated", "\"fields\":{}}\n", "\"fields\":{",
     "truncated artifact (line 6"},
    {kReport, "report_first_line", "{\"type\":\"meta\",", "{\"type\":\"head\",",
     "first line must be the meta object"},
    {kReport, "metric_after_event",
     "{\"type\":\"event\",\"t_ns\":2000000000,\"category\":\"mntp\","
     "\"name\":\"deferral\",\"fields\":{}}",
     "{\"type\":\"metric\",\"kind\":\"gauge\",\"name\":\"z\",\"labels\":{},"
     "\"value\":1}",
     "metric line after the first event line"},
    {kReport, "event_order", "\"t_ns\":2000000000", "\"t_ns\":500",
     "event t_ns 500 out of order (previous 1000000000)"},
    {kReport, "report_duplicate_meta",
     "{\"type\":\"event\",\"t_ns\":2000000000,\"category\":\"mntp\","
     "\"name\":\"deferral\",\"fields\":{}}",
     "{\"type\":\"meta\",\"schema_version\":1,\"run\":\"x\",\"sim_end_ns\":1,"
     "\"metric_count\":3,\"event_count\":2}",
     "line 6: duplicate meta line"},
    {kReport, "report_line_type", "{\"type\":\"event\",\"t_ns\":2000000000",
     "{\"type\":\"span\",\"t_ns\":2000000000", "unknown line type 'span'"},
    {kReport, "metric_count", "\"metric_count\":3", "\"metric_count\":4",
     "meta metric_count 4 != 3 metric lines"},
    {kReport, "event_count", "\"event_count\":2", "\"event_count\":1",
     "meta event_count 1 != 2 event lines"},
    {kReport, "metric_order", "\"name\":\"mntp.rounds\"",
     "\"name\":\"zzz.rounds\"", "metric lines not sorted by name"},
    // --------------------------------------------------------- profile
    {kProfile, "profile_events_array", "", "{\"traceEvents\": {}}",
     "'traceEvents' must be an array"},
    {kProfile, "profile_event_object",
     "{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", \"args\": "
     "{\"name\": \"diff_fixture\"}}",
     "7", "traceEvents[0]: not an object"},
    {kProfile, "profile_phase", "{\"ph\": \"X\", \"name\": \"sim.run\"",
     "{\"ph\": \"B\", \"name\": \"sim.run\"",
     "traceEvents[1]: unexpected phase 'B'"},
    {kProfile, "profile_missing", "\"cat\": \"profile\", ", "",
     "traceEvents[1]: missing 'cat'"},
    {kProfile, "profile_name", "\"name\": \"sim.run\"", "\"name\": \"\"",
     "'name' must be a non-empty string"},
    {kProfile, "profile_ts", "\"ts\": 0,", "\"ts\": -1,",
     "'ts' must be a non-negative number"},
    {kProfile, "profile_dur", "\"dur\": 500.0", "\"dur\": \"500\"",
     "'dur' must be a non-negative number"},
    {kProfile, "profile_args", "\"args\": {\"self_us\": 100.0, \"depth\": 0}",
     "\"args\": []", "'args' must be an object"},
    {kProfile, "profile_args_missing", ", \"depth\": 0}", "}",
     "args missing 'depth'"},
    {kProfile, "profile_self_us", "\"self_us\": 100.0", "\"self_us\": -1.0",
     "args 'self_us' must be a non-negative number"},
    {kProfile, "profile_self_exceeds", "\"self_us\": 100.0",
     "\"self_us\": 600.0", "args self_us 600 exceeds dur 500"},
    {kProfile, "profile_depth", "\"depth\": 0}", "\"depth\": 0.5}",
     "args 'depth' must be a non-negative integer"},
    {kProfile, "profile_truncated", "  ]\n}", "  ]",
     "truncated artifact (line 1"},
    // ----------------------------------------------------------- bench
    {kBench, "bench_schema_version", "\"schema_version\": 1,",
     "\"schema_version\": 0,", "unsupported schema_version 0"},
    {kBench, "bench_counts", "\"warmup\": 0,", "\"warmup\": -1,",
     "'warmup' must be a non-negative integer"},
    {kBench, "bench_reps", "\"reps\": 3,", "\"reps\": 0,",
     "'reps' must be >= 1"},
    {kBench, "bench_environment", "\"environment\": {",
     "\"environment\": 5, \"x\": {", "'environment' must be an object"},
    {kBench, "bench_env_string", "\"compiler\": \"fixture\"",
     "\"compiler\": 7", "environment 'compiler' must be a string"},
    {kBench, "bench_env_threads", "\"hardware_threads\": 1",
     "\"hardware_threads\": \"1\"",
     "environment 'hardware_threads' must be an integer"},
    {kBench, "bench_workloads", "\"workloads\": [",
     "\"workloads\": [], \"x\": [", "'workloads' must be a non-empty array"},
    {kBench, "bench_workload_object", "\"workloads\": [",
     "\"workloads\": [7, ", "workloads[0]: not an object"},
    {kBench, "bench_name", "\"name\": \"engine_round\"", "\"name\": \"\"",
     "workloads[0]: 'name' must be a non-empty string"},
    {kBench, "bench_duplicate", "\"name\": \"tuner_grid_slice\"",
     "\"name\": \"engine_round\"", "duplicate workload name"},
    {kBench, "bench_unit", "\"unit\": \"us\"", "\"unit\": \"ms\"",
     "'unit' must be 'us', got 'ms'"},
    {kBench, "bench_number", "\"mad_us\": 10.0", "\"mad_us\": -10.0",
     "'engine_round': 'mad_us' must be a non-negative number"},
    {kBench, "bench_samples_numbers", "[990.0, 1000.0, 1020.0]",
     "[990.0, \"1000\", 1020.0]", "'samples_us' must be an array of numbers"},
    {kBench, "bench_samples_reps", "[990.0, 1000.0, 1020.0]",
     "[990.0, 1000.0]", "2 samples but reps is 3"},
    {kBench, "bench_order", "\"p95_us\": 1020.0", "\"p95_us\": 995.0",
     "min<=median<=p95<=max"},
    {kBench, "bench_truncated", "  ]\n}", "  ]", "truncated artifact"},
    // ----------------------------------------------------- query trace
    {kTrace, "trace_meta_missing", "\"dropped_stages\":0,", "",
     "meta missing 'dropped_stages'"},
    {kTrace, "trace_schema_version", "\"schema_version\":1,",
     "\"schema_version\":0,", "unsupported schema_version 0"},
    {kTrace, "trace_run", "\"run\":\"fixture_trace\"", "\"run\":7",
     "meta 'run' must be a non-empty string"},
    {kTrace, "trace_meta_count", "\"query_count\":2", "\"query_count\":-2",
     "meta 'query_count' must be a non-negative integer"},
    {kTrace, "sampling_object",
     "{\"sample_one_in_n\":2,\"seed\":7,\"minted\":5,\"kept\":2,"
     "\"sampled_out\":2}",
     "[]", "meta 'sampling' must be an object"},
    {kTrace, "sampling_missing", ",\"sampled_out\":2}", "}",
     "sampling missing 'sampled_out'"},
    {kTrace, "sampling_count", "\"seed\":7", "\"seed\":-7",
     "sampling 'seed' must be a non-negative integer"},
    {kTrace, "sampling_one_in_n", "\"sample_one_in_n\":2",
     "\"sample_one_in_n\":0", "sampling 'sample_one_in_n' must be >= 1"},
    {kTrace, "sampling_accounting", "\"minted\":5", "\"minted\":6",
     "sampling accounting broken: minted 6 != kept 2 + sampled_out 2 + "
     "dropped 1"},
    {kTrace, "sampling_kept", "\"minted\":5,\"kept\":2,\"sampled_out\":2",
     "\"minted\":5,\"kept\":1,\"sampled_out\":3", "query_count 2 != kept 1"},
    {kTrace, "trace_blank_line", "\n{\"type\":\"query\",\"id\":5",
     "\n\n{\"type\":\"query\",\"id\":5", "line 3: blank line"},
    {kTrace, "trace_invalid_json", "{\"type\":\"query\",\"id\":3,",
     "{\"type\":\"query\",\"id\":3,,", "line 2: invalid JSON"},
    {kTrace, "trace_first_line", "{\"type\":\"meta\",", "{\"type\":\"head\",",
     "first line must be the meta object"},
    {kTrace, "trace_duplicate_meta", "{\"type\":\"query\",\"id\":5",
     "{\"type\":\"meta\",\"id\":5", "line 3: duplicate meta line"},
    {kTrace, "trace_line_type", "{\"type\":\"query\",\"id\":5",
     "{\"type\":\"span\",\"id\":5", "unknown line type 'span'"},
    {kTrace, "query_missing", "\"parent\":3,", "", "query missing 'parent'"},
    {kTrace, "query_id", "\"id\":3,", "\"id\":0,",
     "query 'id' must be a positive integer"},
    {kTrace, "query_id_order", "\"id\":5,", "\"id\":3,",
     "query ids must be strictly increasing (3 after 3)"},
    {kTrace, "query_parent", "\"parent\":3,", "\"parent\":-3,",
     "query 'parent' must be a non-negative integer"},
    {kTrace, "query_kind", "\"kind\":\"exchange\"", "\"kind\":\"\"",
     "query 'kind' must be a non-empty string"},
    {kTrace, "query_start", "\"start_ns\":1200", "\"start_ns\":-1200",
     "query 'start_ns' must be a non-negative integer"},
    {kTrace, "query_stages", "\"stages\":[{\"t_ns\":1300",
     "\"stages\":{},\"x\":[{\"t_ns\":1300", "query 'stages' must be an array"},
    {kTrace, "stage_object", "\"stages\":[{\"t_ns\":1300",
     "\"stages\":[7,{\"t_ns\":1300", "query 5 stages[0]: not an object"},
    {kTrace, "stage_missing", ",\"fields\":{\"hop\":1}", "",
     "query 5 stages[0]: missing 'fields'"},
    {kTrace, "stage_t_ns", "{\"t_ns\":1300,", "{\"t_ns\":\"1300\",",
     "'t_ns' must be an integer"},
    {kTrace, "stage_name", "\"stage\":\"loss\"", "\"stage\":\"\"",
     "'stage' must be a non-empty string"},
    {kTrace, "stage_reason", "\"reason\":\"loss\"", "\"reason\":\"popcorn\"",
     "unknown reason 'popcorn'"},
    {kTrace, "stage_fields", "\"fields\":{\"hop\":1}", "\"fields\":[1]",
     "'fields' must be an object"},
    {kTrace, "stage_field_key", "\"fields\":{\"hop\":1}", "\"fields\":{\"\":1}",
     "field keys must be non-empty strings"},
    {kTrace, "stage_field_value", "\"fields\":{\"hop\":1}",
     "\"fields\":{\"hop\":[1]}", "field 'hop' must be a string, bool or number"},
    {kTrace, "stage_order", "{\"t_ns\":2200,", "{\"t_ns\":1250,",
     "query 5 stages[1]: t_ns 1250 precedes 1300"},
    {kTrace, "verdict_last", "\"stage\":\"channel_gate\"",
     "\"stage\":\"verdict\"", "query 3: 'verdict' stage must be last"},
    {kTrace, "query_count",
     "\"query_count\":2,\"dropped\":1,\"dropped_stages\":0,\"sampling\":"
     "{\"sample_one_in_n\":2,\"seed\":7,\"minted\":5,\"kept\":2,"
     "\"sampled_out\":2}",
     "\"query_count\":3,\"dropped\":1,\"dropped_stages\":0",
     "meta query_count 3 != 2 query lines"},
    // ------------------------------------------------------------ diff
    {kDiff, "diff_schema_version", "\"schema_version\": 1,",
     "\"schema_version\": 0,", "unsupported schema_version 0"},
    {kDiff, "diff_artifact_kind", "\"artifact_kind\": \"bench\"",
     "\"artifact_kind\": \"fleet\"", "unknown artifact_kind 'fleet'"},
    {kDiff, "diff_side", "\"b\": {\"path\": \"cand.json\", \"run\": \"\"}",
     "\"b\": []", "'b' must be an object"},
    {kDiff, "diff_side_field", "\"run\": \"\"}", "\"run\": 1}",
     "a 'run' must be a string"},
    {kDiff, "diff_options",
     "{\"tolerance\": 0.5, \"abs_floor_us\": 200, \"sigma\": 4, "
     "\"divergence\": 0.25}",
     "1", "'options' must be an object"},
    {kDiff, "diff_option_number", "\"sigma\": 4", "\"sigma\": \"4\"",
     "options 'sigma' must be a number"},
    {kDiff, "diff_tally_type", "\"significant\": 1,", "\"significant\": -1,",
     "'significant' must be a non-negative integer"},
    {kDiff, "diff_exit_hint", "\"exit_hint\": 1", "\"exit_hint\": 2",
     "exit_hint must be 0 or 1, got 2"},
    {kDiff, "diff_sections", "\"sections\": [",
     "\"sections\": {}, \"x\": [", "'sections' must be an array"},
    {kDiff, "diff_section_object", "\"sections\": [", "\"sections\": [7, ",
     "sections[0]: not an object"},
    {kDiff, "diff_title", "\"title\": \"workloads\"", "\"title\": \"\"",
     "sections[0]: 'title' must be a non-empty string"},
    {kDiff, "diff_entries", "\"entries\": [", "\"entries\": {}, \"x\": [",
     "sections[0]: 'entries' must be an array"},
    {kDiff, "diff_entry_object", "\"entries\": [", "\"entries\": [7, ",
     "sections[0].entries[0]: not an object"},
    {kDiff, "diff_entry_name", "\"name\": \"engine_round\"", "\"name\": \"\"",
     "'name' must be a non-empty string"},
    {kDiff, "diff_before", "\"before\": 1000", "\"before\": \"1000\"",
     "'before' must be a number or null"},
    {kDiff, "diff_score", "\"score\": 2.857", "\"score\": null",
     "'score' must be a number"},
    {kDiff, "diff_flag", "\"regression\": true", "\"regression\": 1",
     "'regression' must be a boolean"},
    {kDiff, "diff_regression_significant",
     "\"significant\": true, \"regression\": true",
     "\"significant\": false, \"regression\": true",
     "regression entries must also be significant"},
    {kDiff, "diff_class", "\"class\": \"changed\"", "\"class\": \"moved\"",
     "unknown class 'moved'"},
    {kDiff, "diff_note", "\"note\": \"\"", "\"note\": 0",
     "'note' must be a string"},
    {kDiff, "diff_significant_tally", "\"significant\": 1,",
     "\"significant\": 2,", "'significant' is 2 but entries flag 1"},
    {kDiff, "diff_regressions_tally", "\"regressions\": 1,",
     "\"regressions\": 2,", "'regressions' is 2 but entries flag 1"},
    {kDiff, "diff_exit_hint_tally", "\"exit_hint\": 1,", "\"exit_hint\": 0,",
     "exit_hint 0 inconsistent with 1 regression(s)"},
    {kDiff, "diff_truncated", "  ]\n}", "  ]", "truncated artifact"},
    // -------------------------------------------------------- timeline
    {kTimeline, "timeline_meta_missing", "\"cadence_ns\":1000000000,", "",
     "meta missing 'cadence_ns'"},
    {kTimeline, "timeline_schema_version", "\"schema_version\":1,",
     "\"schema_version\":\"1\",", "unsupported schema_version '1'"},
    {kTimeline, "timeline_run", "\"run\":\"fixture_timeline\"", "\"run\":\"\"",
     "meta 'run' must be a non-empty string"},
    {kTimeline, "timeline_meta_count", "\"sim_end_ns\":3600000000000",
     "\"sim_end_ns\":-1", "meta 'sim_end_ns' must be a non-negative integer"},
    {kTimeline, "timeline_cadence", "\"cadence_ns\":1000000000",
     "\"cadence_ns\":0", "meta 'cadence_ns' must be a positive integer"},
    {kTimeline, "timeline_blank_line", "\n{\"type\":\"series\"",
     "\n\n{\"type\":\"series\"", "line 2: blank line"},
    {kTimeline, "timeline_truncated", ",0.5,3]]}", ",0.5,3]",
     "truncated artifact (line 2"},
    {kTimeline, "timeline_first_line", "{\"type\":\"meta\",",
     "{\"type\":\"head\",", "first line must be the meta object"},
    {kTimeline, "timeline_duplicate_meta", "{\"type\":\"series\"",
     "{\"type\":\"meta\"", "line 2: duplicate meta line"},
    {kTimeline, "timeline_line_type", "{\"type\":\"series\"",
     "{\"type\":\"points\"", "unknown line type 'points'"},
    {kTimeline, "series_missing", "\"stride\":1,", "",
     "series missing 'stride'"},
    {kTimeline, "series_name", "\"name\":\"mntp.offset_ms\"", "\"name\":\"\"",
     "series 'name' must be a non-empty string"},
    {kTimeline, "series_probe", "\"probe\":\"gauge\"",
     "\"probe\":\"histogram\"", "unknown probe kind 'histogram'"},
    {kTimeline, "series_labels", "\"labels\":{\"node\":\"a\"}",
     "\"labels\":{\"node\":true}",
     "series 'labels' must be a string-to-string object"},
    {kTimeline, "series_stride", "\"stride\":1", "\"stride\":0",
     "series 'stride' must be a positive integer"},
    {kTimeline, "series_points",
     "[[1000000000,-1.5,0.25,2.0,1.0,2],[2000000000,0.5,0.75,1.25,0.5,3]]",
     "[]", "series 'points' must be a non-empty array"},
    {kTimeline, "point_shape", "[1000000000,-1.5,0.25,2.0,1.0,2]",
     "[1000000000,-1.5,0.25,2.0,1.0]",
     "points[0]: must be a [t_ns,min,mean,max,last,count] array"},
    {kTimeline, "point_t_ns", "[2000000000,", "[2000000000.5,",
     "points[1]: 't_ns' must be an integer"},
    {kTimeline, "point_order", "[2000000000,", "[1000000000,",
     "t_ns 1000000000 not after previous 1000000000"},
    {kTimeline, "point_number", ",0.75,", ",\"0.75\",",
     "'mean' must be a number"},
    {kTimeline, "point_count", "0.5,3]]", "0.5,0]]",
     "'count' must be a positive integer"},
    {kTimeline, "point_mean", "-1.5,0.25,2.0", "-1.5,2.25,2.0",
     "needs min<=mean<=max, got -1.5/2.25/2"},
    {kTimeline, "point_last", "2.0,1.0,2]", "2.0,3.0,2]",
     "needs min<=last<=max, got -1.5/3/2"},
    {kTimeline, "series_samples", "\"samples\":5", "\"samples\":6",
     "point counts sum to 5, 'samples' is 6"},
    {kTimeline, "series_count", "\"series_count\":1", "\"series_count\":2",
     "meta series_count 2 != 1 series lines"},
    // ----------------------------------------------------------- fleet
    {kFleet, "fleet_schema_version", "\"schema_version\": 1,",
     "\"schema_version\": 0,", "unsupported schema_version 0"},
    {kFleet, "fleet_params", "\"params\": {", "\"params\": 1, \"x\": {",
     "'params' must be an object"},
    {kFleet, "fleet_params_int", "\"shards\": 4", "\"shards\": -4",
     "params 'shards' must be a non-negative integer"},
    {kFleet, "fleet_params_positive", "\"cache_bucket_ms\": 250.000",
     "\"cache_bucket_ms\": 0", "params 'cache_bucket_ms' must be a positive"},
    {kFleet, "fleet_slice_positive", "\"slice_s\": 1.000",
     "\"slice_s\": -1", "params 'slice_s' must be a positive"},
    {kFleet, "fleet_population", "\"population\": {",
     "\"population\": [], \"x\": {", "'population' must be an object"},
    {kFleet, "fleet_population_int", "\"ntp_clients\": 300",
     "\"ntp_clients\": 300.5",
     "population 'ntp_clients' must be a non-negative integer"},
    {kFleet, "fleet_speakers_sum", "\"sntp_clients\": 700",
     "\"sntp_clients\": 701", "sntp_clients + ntp_clients != clients"},
    {kFleet, "fleet_populations_sum", "\"wireless_clients\": 400",
     "\"wireless_clients\": 401", "wireless_clients + wired_clients"},
    {kFleet, "fleet_clients", "\"clients\": 1000, \"duration_s\"",
     "\"clients\": 999, \"duration_s\"",
     "population clients != params clients"},
    {kFleet, "fleet_totals", "\"totals\": {", "\"totals\": null, \"x\": {",
     "'totals' must be an object"},
    {kFleet, "fleet_totals_int", "\"batches\": 300", "\"batches\": -300",
     "totals 'batches' must be a non-negative integer"},
    {kFleet, "fleet_queries_ledger", "\"queries\": 500", "\"queries\": 501",
     "totals: queries != arrived + dropped"},
    {kFleet, "fleet_cache_ledger", "\"cache_hits\": 400",
     "\"cache_hits\": 401", "cache_hits + cache_misses != arrived - kod"},
    {kFleet, "fleet_owd_ledger", "\"owd_invalid\": 30", "\"owd_invalid\": 31",
     "owd_valid + owd_invalid != arrived - kod"},
    {kFleet, "fleet_throughput", "\"throughput\": {",
     "\"throughput\": 5, \"x\": {", "'throughput' must be an object"},
    {kFleet, "fleet_threads", "\"threads\": 1", "\"threads\": 0",
     "throughput 'threads' must be a positive integer"},
    {kFleet, "fleet_throughput_number", "\"qps\": 500000.0", "\"qps\": -1",
     "throughput 'qps' must be a non-negative number"},
    {kFleet, "fleet_servers", "\"servers\": [", "\"servers\": [], \"x\": [",
     "'servers' must be a non-empty array"},
    {kFleet, "fleet_server_object", "\"servers\": [", "\"servers\": [7, ",
     "servers[0]: not an object"},
    {kFleet, "fleet_server_id", "{\"id\": \"AG1\"", "{\"id\": \"\"",
     "servers[0]: 'id' must be a non-empty string"},
    {kFleet, "fleet_server_duplicate", "{\"id\": \"MW2\"", "{\"id\": \"AG1\"",
     "servers[1]: duplicate id 'AG1'"},
    {kFleet, "fleet_server_requests", "\"requests\": 290",
     "\"requests\": \"290\"", "'requests' must be a non-negative integer"},
    {kFleet, "fleet_server_sum", "\"requests\": 290", "\"requests\": 291",
     "per-server requests sum to 491, totals arrived is 490"},
    {kFleet, "fleet_owd_rows", "\"owd\": [", "\"owd\": [], \"x\": [",
     "'owd' must be an array of the 4 speaker x population rows"},
    {kFleet, "owd_row_object",
     "{\"speaker\": \"ntp\", \"population\": \"wired\", \"count\": 100, "
     "\"p50_ms\": 41.000, \"p90_ms\": 61.000, \"p99_ms\": 81.000, "
     "\"mean_ms\": 45.000, \"min_ms\": 21.000, \"max_ms\": 91.000}",
     "7", "owd[0]: not an object"},
    {kFleet, "owd_row_count", "\"count\": 100,", "\"count\": -100,",
     "owd[0]: 'count' must be a non-negative integer"},
    {kFleet, "owd_row_number", "\"mean_ms\": 45.000", "\"mean_ms\": -45.0",
     "owd[0]: 'mean_ms' must be a non-negative number"},
    {kFleet, "owd_row_quantiles", "\"p50_ms\": 41.000", "\"p50_ms\": 71.000",
     "owd[0]: quantiles must satisfy p50<=p90<=p99"},
    {kFleet, "owd_row_min_max", "\"min_ms\": 21.000", "\"min_ms\": 95.000",
     "owd[0]: min_ms > max_ms"},
    {kFleet, "owd_speaker", "\"speaker\": \"ntp\", \"population\": \"wired\"",
     "\"speaker\": \"chrony\", \"population\": \"wired\"",
     "owd[0]: unknown speaker 'chrony'"},
    {kFleet, "owd_population", "\"population\": \"wired\", \"count\": 100",
     "\"population\": \"fiber\", \"count\": 100",
     "owd[0]: unknown population 'fiber'"},
    {kFleet, "owd_duplicate_class",
     "\"speaker\": \"ntp\", \"population\": \"wireless\"",
     "\"speaker\": \"ntp\", \"population\": \"wired\"",
     "owd[1]: duplicate class (ntp, wired)"},
    {kFleet, "owd_sum", "\"count\": 100, \"p50_ms\": 41.000",
     "\"count\": 101, \"p50_ms\": 41.000",
     "owd row counts sum to 421, totals owd_valid is 420"},
    {kFleet, "fleet_category_rows", "\"category_owd\": [",
     "\"category_owd\": [], \"x\": [",
     "'category_owd' must be an array of the 4 provider categories"},
    {kFleet, "category_row", "\"count\": 60,", "\"count\": -60,",
     "category_owd[0]: 'count' must be a non-negative integer"},
    {kFleet, "category_name", "\"category\": \"isp\"",
     "\"category\": \"cloud\"",
     "category_owd[1]: expected category 'isp', got 'cloud'"},
    {kFleet, "category_sum", "\"count\": 120,", "\"count\": 121,",
     "category_owd counts sum to 421, totals owd_valid is 420"},
    {kFleet, "fleet_truncated", "  ]\n}", "  ]", "truncated artifact"},
};

std::string mutate(const Row& row) {
  if (*row.from == '\0') return row.to;
  std::string doc = read_fixture(row.fixture);
  const auto at = doc.find(row.from);
  EXPECT_NE(at, std::string::npos) << row.name << ": " << row.from;
  if (at != std::string::npos) doc.replace(at, std::strlen(row.from), row.to);
  return doc;
}

std::string extension(const char* fixture) {
  const std::string name = fixture;
  return name.substr(name.rfind('.'));
}

TEST(ArtifactSchema, FixturesLoadAsTheirKinds) {
  const std::pair<const char*, ArtifactKind> fixtures[] = {
      {kReport, ArtifactKind::kReport},    {kProfile, ArtifactKind::kProfile},
      {kBench, ArtifactKind::kBench},      {kTrace, ArtifactKind::kQueryTrace},
      {kDiff, ArtifactKind::kDiff},        {kTimeline, ArtifactKind::kTimeline},
      {kFleet, ArtifactKind::kFleet}};
  for (const auto& [fixture, kind] : fixtures) {
    auto r = load_artifact(std::string(MNTP_TEST_DATA_DIR) + "/" + fixture);
    ASSERT_TRUE(r.ok()) << fixture << ": " << r.error().message;
    EXPECT_EQ(r.value().kind, kind) << fixture;
    EXPECT_EQ(r.value().newer_schema_version, 0) << fixture;
    EXPECT_EQ(artifact_summary(r.value()).rfind(artifact_kind_name(kind), 0),
              0u)
        << artifact_summary(r.value());
  }
}

TEST(ArtifactSchema, EveryRejectionSiteRejectsItsMutation) {
  std::set<std::string> names;
  for (const Row& row : kRows) {
    SCOPED_TRACE(row.name);
    EXPECT_TRUE(names.insert(row.name).second) << "duplicate row name";
    const std::string path =
        write_file(std::string(row.name) + extension(row.fixture), mutate(row));
    auto r = load_artifact(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().message.rfind(path, 0), 0u) << r.error().message;
    EXPECT_NE(r.error().message.find(row.expect), std::string::npos)
        << r.error().message;
  }
}

TEST(ArtifactSchema, EveryReasonCodeIsAcceptedAndNoOther) {
  const Row row{kTrace, "reason", "\"reason\":\"loss\"", "", ""};
  for (Reason reason : kAllReasons) {
    const std::string to =
        "\"reason\":\"" + std::string(to_string(reason)) + "\"";
    const Row accepted{row.fixture, row.name, row.from, to.c_str(), ""};
    auto r = load_artifact(write_file("reason.jsonl", mutate(accepted)));
    EXPECT_TRUE(r.ok()) << to_string(reason) << ": " << r.error().message;
  }
  for (const char* unknown : {"\"accepted\"", "\"Loss\"", "\"\"", "3"}) {
    const std::string to = std::string("\"reason\":") + unknown;
    const Row rejected{row.fixture, row.name, row.from, to.c_str(), ""};
    auto r = load_artifact(write_file("reason.jsonl", mutate(rejected)));
    ASSERT_FALSE(r.ok()) << unknown;
    EXPECT_NE(r.error().message.find("unknown reason"), std::string::npos);
  }
}

TEST(ArtifactSchema, FleetReportWithoutSliceStaysValid) {
  // Reports written before the params block recorded slice_s.
  const Row older{kFleet, "fleet_no_slice", "\"slice_s\": 1.000, ", "", ""};
  auto r = load_artifact(write_file("fleet_no_slice.json", mutate(older)));
  EXPECT_TRUE(r.ok()) << r.error().message;
}

TEST(ArtifactSchema, NewerSchemaVersionLoadsUnvalidated) {
  // A newer producer's file is parsed but not held to this build's rules
  // (its body here breaks them): inspect renders it, validate and diff
  // refuse it by the newer_schema_version they read.
  std::string doc = read_fixture(kTrace);
  doc.replace(doc.find("\"schema_version\":1"), 18, "\"schema_version\":99");
  doc.replace(doc.find("\"reason\":\"loss\""), 15, "\"reason\":\"new_one\"");
  auto r = load_artifact(write_file("newer.jsonl", doc));
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r.value().kind, ArtifactKind::kQueryTrace);
  EXPECT_EQ(r.value().newer_schema_version, 99);
  EXPECT_EQ(r.value().body.size(), 2u);
}

TEST(ArtifactDetect, FailureClassesAreDistinct) {
  using Code = core::Error::Code;
  EXPECT_EQ(load_artifact("/nonexistent/x.json").error().code, Code::kIo);
  const std::pair<std::string, Code> cases[] = {
      {"", Code::kUnavailable},
      {"{\"type\":\"meta\",\"kind\":\"mntp_timeline\",\"schema_ver",
       Code::kUnavailable},
      {std::string(1 << 12, '['), Code::kUnavailable},
      {"{\"kind\":\"mntp_perf_delta\",\"schema_version\":1}", Code::kNotFound},
      {"[1, 2]", Code::kNotFound},
      {"{\"type\":\"metric\"}\n{\"type\":\"metric\"}\n", Code::kMalformedPacket},
  };
  for (const auto& [content, code] : cases) {
    auto r = load_artifact(write_file("detect.jsonl", content));
    ASSERT_FALSE(r.ok()) << content.substr(0, 40);
    EXPECT_EQ(r.error().code, code) << r.error().message;
  }
}

TEST(ArtifactDetect, MetaOnlyJsonlIsReadAsJsonl) {
  // One meta line is one JSON document too; it still loads as the JSONL
  // kind its meta names (a run report when the meta has no kind).
  for (const auto& [fixture, kind] :
       {std::pair{"meta_only_query_trace.jsonl", ArtifactKind::kQueryTrace},
        std::pair{"meta_only_timeline.jsonl", ArtifactKind::kTimeline}}) {
    auto r = load_artifact(std::string(MNTP_TEST_DATA_DIR) + "/" + fixture);
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_EQ(r.value().kind, kind);
    EXPECT_TRUE(r.value().body.empty());
  }
  auto report = load_artifact(write_file(
      "meta_only_report.jsonl",
      "{\"type\":\"meta\",\"schema_version\":1,\"run\":\"r\",\"sim_end_ns\":0,"
      "\"metric_count\":0,\"event_count\":0}\n"));
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report.value().kind, ArtifactKind::kReport);
}

}  // namespace
}  // namespace mntp::obs
