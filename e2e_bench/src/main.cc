// End-to-end benchmark binary: runs one workload and prints its metrics.
//
//   e2e_bench --workload <e2e_device|e2e_fleet|e2e_tuner> [--seed N]
//             [--seconds S] [--trace 0|1] [--trace-out DIR]
//   e2e_bench --list-metrics
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer catalog and write the bench span log
// into --trace-out. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// An unknown flag, workload or malformed value exits 2 with usage text.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace {

constexpr const char kUsage[] =
    "usage: e2e_bench --workload <e2e_device|e2e_fleet|e2e_tuner>\n"
    "                 [--seed N] [--seconds S] [--trace 0|1] [--trace-out DIR]\n"
    "       e2e_bench --list-metrics\n"
    "       e2e_bench --help\n";

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr, "e2e_bench: %s\n%s", why.c_str(), kUsage);
  std::exit(2);
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  out = v;
  return true;
}

void list_metrics() {
  for (const e2e::Metric& m : e2e::end_to_end_catalog()) {
    std::printf("end_to_end %s %s\n", m.name.c_str(), m.unit.c_str());
  }
  for (const e2e::Metric& m : e2e::per_layer_catalog()) {
    std::printf("per_layer %s %s\n", m.name.c_str(), m.unit.c_str());
  }
}

e2e::RunOptions parse(int argc, char** argv) {
  e2e::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      std::exit(0);
    }
    if (arg == "--list-metrics") {
      list_metrics();
      std::exit(0);
    }
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage_error("missing value for " + arg);
    }
    std::uint64_t n = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, options.seed)) usage_error("bad --seed " + value);
    } else if (arg == "--seconds") {
      if (!parse_u64(value, n) || n == 0 || n > 600) {
        usage_error("bad --seconds " + value + " (1..600)");
      }
      options.seconds = static_cast<double>(n);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage_error("bad --trace " + value);
      options.trace = value == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      usage_error("unknown flag " + arg);
    }
  }
  if (options.workload.empty()) usage_error("--workload is required");
  if (options.workload != "e2e_device" && options.workload != "e2e_fleet" &&
      options.workload != "e2e_tuner") {
    usage_error("unknown workload " + options.workload);
  }
  return options;
}

/// Orders the workload's metrics by `catalog`; a catalog metric the
/// workload does not produce reads 0 (its layer is not on this path).
std::vector<e2e::Metric> complete(const std::vector<e2e::Metric>& produced,
                                  const std::vector<e2e::Metric>& catalog,
                                  e2e::Checks& checks) {
  std::map<std::string, const e2e::Metric*> by_name;
  for (const e2e::Metric& m : produced) by_name[m.name] = &m;
  std::vector<e2e::Metric> out;
  for (const e2e::Metric& c : catalog) {
    const auto it = by_name.find(c.name);
    if (it == by_name.end()) {
      out.push_back(c);
      continue;
    }
    checks.expect(it->second->unit == c.unit,
                  "every metric carries its catalog unit");
    checks.expect(std::isfinite(it->second->value), "every metric is finite");
    out.push_back(*it->second);
    if (!std::isfinite(out.back().value)) out.back().value = 0.0;
    by_name.erase(it);
  }
  for (const auto& [name, m] : by_name) {
    checks.expect(false, "metric " + name + " is in the catalog");
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const e2e::RunOptions options = parse(argc, argv);
  std::printf("== %s seed=%llu seconds=%.0f trace=%d ==\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);

  e2e::WorkloadResult r;
  if (options.workload == "e2e_device") {
    r = e2e::run_device(options);
  } else if (options.workload == "e2e_fleet") {
    r = e2e::run_fleet(options);
  } else {
    r = e2e::run_tuner(options);
  }
  if (!options.trace) r.metrics.push_back({"peak_rss_mb", e2e::peak_rss_mb(), "MB"});
  const std::vector<e2e::Metric> metrics = complete(
      r.metrics,
      options.trace ? e2e::per_layer_catalog() : e2e::end_to_end_catalog(),
      r.checks);

  std::printf("checks:\n");
  r.checks.print();
  const std::size_t attempted = r.checks.attempted();
  const std::size_t failed = r.checks.failed();
  std::printf("metrics:\n");
  for (const e2e::Metric& m : metrics) {
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-30s %16.6g %s (%zu of %zu checks failed)\n", "failed_share",
              static_cast<double>(failed) / static_cast<double>(attempted),
              "ratio", failed, attempted);

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
