#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <queue>
#include <utility>

#include "core/time.h"
#include "obs/metric_names.h"
#include "obs/telemetry.h"
#include "sim/simulation.h"

namespace e2e {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double metric_sum(const std::vector<mntp::obs::MetricSnapshot>& snapshot,
                  std::string_view name, std::string_view label_value) {
  double sum = 0.0;
  for (const mntp::obs::MetricSnapshot& m : snapshot) {
    if (m.name != name) continue;
    const bool labelled =
        label_value.empty() ||
        std::any_of(m.labels.begin(), m.labels.end(),
                    [&](const auto& kv) { return kv.second == label_value; });
    if (labelled) sum += m.value;
  }
  return sum;
}

mntp::obs::Profiler::SpanStats span_stats(const mntp::obs::Profiler& profiler,
                                          std::string_view name) {
  for (mntp::obs::Profiler::SpanStats& s : profiler.stats()) {
    if (s.name == name) return s;
  }
  return {};
}

void Checks::expect(bool ok, const std::string& what) {
  entries_.push_back({ok, what});
}

std::size_t Checks::failed() const {
  return static_cast<std::size_t>(std::count_if(
      entries_.begin(), entries_.end(), [](const Entry& e) { return !e.ok; }));
}

void Checks::print() const {
  // Checks repeated once per rep print once, with their tally.
  std::vector<std::string> order;
  std::map<std::string, std::pair<std::size_t, std::size_t>> tally;
  for (const Entry& e : entries_) {
    auto [it, fresh] = tally.try_emplace(e.what, 0, 0);
    if (fresh) order.push_back(e.what);
    ++it->second.first;
    if (!e.ok) ++it->second.second;
  }
  for (const std::string& what : order) {
    const auto [n, bad] = tally[what];
    std::printf("  [%s] %s (%zu/%zu)\n", bad == 0 ? "PASS" : "FAIL",
                what.c_str(), n - bad, n);
  }
}

HostReference::HostReference() : last_s_(measure()) {}

double HostReference::next_factor() {
  const double next_s = measure();
  const double reference_s = 0.5 * (last_s_ + next_s);
  last_s_ = next_s;
  return kReferenceNominalS / reference_s;
}

double HostReference::measure() {
  static std::vector<std::uint64_t> table(1 << 16);
  std::uint64_t x = 88172645463325252ULL;
  std::priority_queue<std::uint64_t> heap;
  double acc = 0.0;
  const double s = timed([&] {
    for (int i = 0; i < 20'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      heap.push(x);
      if (heap.size() > 4096) heap.pop();
      table[x & 0xffff] += x;
      acc += std::log1p(static_cast<double>(x >> 11) * 0x1p-53);
      if ((table[(x >> 20) & 0xffff] & 1) != 0) acc += 1.0;
    }
  });
  // Keep the loop's result observable so it cannot be optimized away.
  table[0] += static_cast<std::uint64_t>(acc);
  return s;
}

SpanLog::SpanLog(bool enabled, std::string run_id)
    : enabled_(enabled),
      run_id_(std::move(run_id)),
      epoch_(std::chrono::steady_clock::now()) {}

SpanLog::Scope::Scope(SpanLog* log, std::string name) : log_(log) {
  if (log_ == nullptr) return;
  Span s;
  s.name = std::move(name);
  s.parent = log_->open_.empty() ? -1 : static_cast<long>(log_->open_.back());
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - log_->epoch_)
                   .count();
  index_ = log_->spans_.size();
  log_->spans_.push_back(std::move(s));
  log_->open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans_[index_].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - log_->epoch_)
          .count();
  log_->open_.pop_back();
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"run_id\":\"" << run_id_ << "\",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void report_layers(const std::string& workload,
                   const std::vector<LayerTime>& layers, double total_s,
                   std::vector<Metric>& out) {
  std::printf("layer self time, %s (of %.3f s host time):\n",
              workload.c_str(), total_s);
  const LayerTime* top = nullptr;
  for (const LayerTime& l : layers) {
    const double share = total_s > 0.0 ? l.self_s / total_s : 0.0;
    std::printf("  %-6s %9.4f s  %6.1f%%\n", l.layer.c_str(), l.self_s,
                100.0 * share);
    out.push_back({"layer." + l.layer + ".self_s", l.self_s, "s"});
    out.push_back({"layer." + l.layer + ".share", share, "ratio"});
    if (l.layer != "other" && (top == nullptr || l.self_s > top->self_s)) {
      top = &l;
    }
  }
  if (top != nullptr) {
    const double share = total_s > 0.0 ? top->self_s / total_s : 0.0;
    std::printf("largest layer on %s: %s (%.1f%% of host time)\n",
                workload.c_str(), top->layer.c_str(), 100.0 * share);
    out.push_back({"layer.top_share", share, "ratio"});
  }
}

const std::vector<Metric>& end_to_end_catalog() {
  static const std::vector<Metric> catalog = {
      {"setup_s", 0, "s"},
      {"sim_speed", 0, "sim_s/s"},
      {"queries_per_s", 0, "1/s"},
      {"peak_rss_mb", 0, "MB"},
  };
  return catalog;
}

const std::vector<Metric>& per_layer_catalog() {
  static const std::vector<Metric> catalog = [] {
    std::vector<Metric> c = {
        // sim
        {"sim.events", 0, "count"},
        {"sim.ns_per_event", 0, "ns"},
        {"sim.kernel_ns_per_event", 0, "ns"},
        // net
        {"net.env_s", 0, "s"},
        {"net.env_share", 0, "ratio"},
        {"net.wifi.tx", 0, "count"},
        {"net.wifi.drop", 0, "count"},
        {"net.wifi.delivered_ratio", 0, "ratio"},
        {"net.link.calls", 0, "count"},
        {"net.link.s", 0, "s"},
        // ntp
        {"ntp.sntp_client_s", 0, "s"},
        {"ntp.ref_client_s", 0, "s"},
        {"ntp.query.sent", 0, "count"},
        {"ntp.query.timeout", 0, "count"},
        {"ntp.query.ok_ratio", 0, "ratio"},
        // mntp engine
        {"mntp.client_s", 0, "s"},
        {"mntp.engine.rounds", 0, "count"},
        {"mntp.engine.round_s", 0, "s"},
        {"mntp.engine.ns_per_round", 0, "ns"},
        {"mntp.accept_ratio", 0, "ratio"},
        {"mntp.deferrals", 0, "count"},
        // mntp tuner
        {"tuner.trace_records", 0, "count"},
        {"tuner.capture_s", 0, "s"},
        {"tuner.search_s", 0, "s"},
        {"tuner.configs", 0, "count"},
        {"tuner.configs_per_s", 0, "1/s"},
        {"tuner.score_config_us_p50", 0, "us"},
        {"tuner.score_config_us_p99", 0, "us"},
        // fleet
        {"fleet.build_s", 0, "s"},
        {"fleet.run_s", 0, "s"},
        {"fleet.run_s_serial", 0, "s"},
        {"fleet.speedup", 0, "x"},
        {"fleet.queries", 0, "count"},
        {"fleet.arrived", 0, "count"},
        {"fleet.dropped", 0, "count"},
        {"fleet.kod", 0, "count"},
        {"fleet.kod_share", 0, "ratio"},
        {"fleet.batches", 0, "count"},
        {"fleet.cache_hit_ratio", 0, "ratio"},
        {"fleet.hot_server_share", 0, "ratio"},
        {"fleet.server.slice_s", 0, "s"},
        {"fleet.server.hot_slice_ms", 0, "ms"},
        // core thread pool
        {"core.pool.efficiency", 0, "ratio"},
        {"core.pool.cpu_over_wall", 0, "ratio"},
        // obs
        {"obs.metrics_s", 0, "s"},
        {"obs.trace_overhead", 0, "ratio"},
        // model outputs (exact functions of seed and model)
        {"mntp.resid_mean_ms", 0, "ms"},
        {"mntp.max_abs_ms", 0, "ms"},
        {"sntp.max_abs_ms", 0, "ms"},
        {"tuner.best_rmse_ms", 0, "ms"},
        {"fleet.table1_share_err_pp", 0, "pp"},
        {"fleet.owd_p50_ms.cloud", 0, "ms"},
        {"fleet.owd_p50_ms.isp", 0, "ms"},
        {"fleet.owd_p50_ms.broadband", 0, "ms"},
        {"fleet.owd_p50_ms.mobile", 0, "ms"},
    };
    for (const char* layer :
         {"sim", "net", "ntp", "mntp", "tuner", "fleet", "core", "obs",
          "other"}) {
      c.push_back({std::string("layer.") + layer + ".self_s", 0, "s"});
      c.push_back({std::string("layer.") + layer + ".share", 0, "ratio"});
    }
    c.push_back({"layer.top_share", 0, "ratio"});
    return c;
  }();
  return catalog;
}

double sim_kernel_ns_per_event() {
  // A self-rescheduling no-op chain: every dispatch schedules the next
  // event, the same schedule+pop+invoke cycle each simulated event pays.
  constexpr std::uint64_t kEvents = 1'000'000;
  std::vector<double> per_event;
  for (int rep = 0; rep < 3; ++rep) {
    mntp::sim::Simulation sim;
    std::uint64_t fired = 0;
    struct Tick {
      mntp::sim::Simulation* sim;
      std::uint64_t* fired;
      void operator()() const {
        if (++*fired < kEvents) {
          sim->after(mntp::core::Duration::milliseconds(1), Tick{sim, fired});
        }
      }
    };
    sim.after(mntp::core::Duration::milliseconds(1), Tick{&sim, &fired});
    const double s = timed([&] { sim.run(); });
    per_event.push_back(1e9 * s / static_cast<double>(sim.events_executed()));
  }
  return median(per_event);
}

double profiler_span_floor_ns() {
  mntp::obs::Telemetry telemetry;
  telemetry.profiler().set_enabled(true);
  mntp::obs::ScopedTelemetry scope(telemetry);
  for (int i = 0; i < 100'000; ++i) {
    const mntp::obs::ProfileScope span(mntp::obs::spans::kEngineRound);
  }
  std::vector<double> ns;
  for (const auto& r : telemetry.profiler().records()) {
    ns.push_back(static_cast<double>(r.dur_ns));
  }
  return median(std::move(ns));
}

}  // namespace e2e
