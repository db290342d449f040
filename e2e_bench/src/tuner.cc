// e2e_tuner: the §5.3 trace-driven tuner. Set-up captures a 24-hour
// trace with tuner::Logger on the Table 2 testbed (NTP-corrected clock,
// so the reference NtpClient path runs); the measured body is a serial
// tuner::search over a grid far larger than Table 2's 18 configs, which
// replays the MNTP engine in a tight loop with no event kernel.
//
// Untraced: capture several times (set-up), then repeat the search for
// the measuring window. Traced: environment legs without and with the
// reference NTP client, the capture and the search each untraced, with
// the obs registry off, and with the profiler's tuner/engine spans on.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/time.h"
#include "harness.h"
#include "mntp/trace.h"
#include "mntp/tuner.h"
#include "ntp/testbed.h"
#include "obs/metric_names.h"
#include "obs/telemetry.h"

namespace e2e {
namespace {

using namespace mntp;
namespace tuner = protocol::tuner;
namespace names = obs::metric_names;

constexpr core::Duration kCapture = core::Duration::hours(24);

struct CaptureOptions {
  bool logger = true;
  bool ntp_correction = true;
  bool obs_enabled = true;
  bool traced = false;
};

struct Capture {
  double wall_s = 0.0;  ///< construction + the whole simulated capture
  /// wall_s in nominal-reference seconds (when a HostReference is given).
  double corrected_s = 0.0;
  double run_s = 0.0;   ///< run_until alone
  std::uint64_t events = 0;
  protocol::Trace trace;
  std::vector<obs::MetricSnapshot> snapshot;
};

/// With `reference`, the capture advances in one-hour run_until steps
/// (the same events in the same order) with a host-speed sample after
/// each.
Capture capture(std::uint64_t seed, const CaptureOptions& options,
                SpanLog& spans, HostReference* reference = nullptr) {
  obs::Telemetry telemetry;
  telemetry.set_enabled(options.obs_enabled);
  telemetry.profiler().set_enabled(options.traced);
  obs::ScopedTelemetry scope(telemetry);

  ntp::TestbedConfig config;
  config.seed = seed;
  config.wireless = true;
  config.ntp_correction = options.ntp_correction;

  Capture out;
  const auto span = spans.span("tuner.capture");
  std::unique_ptr<ntp::Testbed> bed;
  std::unique_ptr<tuner::Logger> logger;
  const double build_s = timed([&] {
    bed = std::make_unique<ntp::Testbed>(config);
    if (options.logger) {
      logger = std::make_unique<tuner::Logger>(bed->sim(), bed->target_clock(),
                                               bed->pool(), bed->channel(),
                                               tuner::LoggerParams{},
                                               bed->fork_rng());
    }
    bed->start();
    if (logger) logger->start();
  });
  out.wall_s = build_s;
  if (reference != nullptr) out.corrected_s = build_s * reference->next_factor();
  {
    const auto run_span = spans.span("sim.run_until");
    const int steps = reference != nullptr ? 24 : 1;
    for (int step = 1; step <= steps; ++step) {
      const double s = timed([&] {
        bed->sim().run_until(core::TimePoint::epoch() + kCapture * step / steps);
      });
      out.run_s += s;
      if (reference != nullptr) out.corrected_s += s * reference->next_factor();
    }
  }
  const double stop_s = timed([&] {
    if (logger) {
      logger->stop();
      out.trace = logger->trace();
    }
  });
  out.wall_s += out.run_s + stop_s;
  if (reference != nullptr) out.corrected_s += stop_s * reference->next_factor();
  out.events = bed->sim().events_executed();
  if (options.traced) out.snapshot = telemetry.metrics().snapshot();
  return out;
}

/// Grid of 8 x 5 x 10 x 5 = 2000 configurations around Table 2's values.
tuner::SearchSpace search_space() {
  using core::Duration;
  tuner::SearchSpace space;
  for (int m : {30, 40, 50, 60, 70, 90, 120, 240}) {
    space.warmup_periods.push_back(Duration::minutes(m));
  }
  for (int s : {5, 10, 15, 30, 60}) {
    space.warmup_wait_times.push_back(Duration::seconds(s));
  }
  for (int m : {1, 2, 3, 5, 10, 15, 20, 30, 45, 60}) {
    space.regular_wait_times.push_back(Duration::minutes(m));
  }
  for (int h : {1, 2, 4, 8, 24}) space.reset_periods.push_back(Duration::hours(h));
  return space;
}

std::size_t grid_size(const tuner::SearchSpace& s) {
  return s.warmup_periods.size() * s.warmup_wait_times.size() *
         s.regular_wait_times.size() * s.reset_periods.size();
}

struct Search {
  double wall_s = 0.0;
  /// wall_s in nominal-reference seconds (when a HostReference is given).
  double corrected_s = 0.0;
  std::vector<tuner::SearchEntry> entries;
  std::vector<obs::MetricSnapshot> snapshot;
  obs::Profiler::SpanStats round;
  obs::Profiler::SpanStats score;
};

/// The grid, searched serially as one tuner::search call per warm-up
/// period (the outermost grid axis, so the concatenated entries are the
/// whole grid in enumeration order). The split lets `reference` sample
/// host speed every ~1/8 of the grid.
Search run_search(const protocol::Trace& trace, bool obs_enabled, bool traced,
                  SpanLog& spans, HostReference* reference = nullptr) {
  obs::Telemetry telemetry;
  telemetry.set_enabled(obs_enabled);
  telemetry.profiler().set_enabled(traced);
  obs::ScopedTelemetry scope(telemetry);
  const tuner::SearchSpace space = search_space();
  Search out;
  for (const core::Duration wp : space.warmup_periods) {
    tuner::SearchSpace part = space;
    part.warmup_periods = {wp};
    std::vector<tuner::SearchEntry> entries;
    const auto span = spans.span("tuner.search");
    const double s = timed([&] { entries = tuner::search(trace, part); });
    out.wall_s += s;
    if (reference != nullptr) out.corrected_s += s * reference->next_factor();
    out.entries.insert(out.entries.end(), entries.begin(), entries.end());
  }
  if (traced) {
    out.snapshot = telemetry.metrics().snapshot();
    out.round = span_stats(telemetry.profiler(), obs::spans::kEngineRound);
    out.score = span_stats(telemetry.profiler(), obs::spans::kTunerScoreConfig);
  }
  return out;
}

/// Host time of tuner::emulate — the call each tuner.score_config span
/// wraps — for every grid configuration, timed one by one. A traced
/// search records millions of engine-round spans, past the profiler's
/// record cap, so per-config quantiles are taken here.
struct ScoreEach {
  std::vector<double> us;
  std::uint64_t requests = 0;
};

ScoreEach score_each(const protocol::Trace& trace) {
  const tuner::SearchSpace space = search_space();
  ScoreEach out;
  for (const core::Duration wp : space.warmup_periods) {
    for (const core::Duration wwt : space.warmup_wait_times) {
      for (const core::Duration rwt : space.regular_wait_times) {
        for (const core::Duration rp : space.reset_periods) {
          protocol::MntpParams params = space.base;
          params.warmup_period = wp;
          params.warmup_wait_time = wwt;
          params.regular_wait_time = rwt;
          params.reset_period = rp;
          out.us.push_back(1e6 * timed([&] {
            out.requests += tuner::emulate(trace, params).requests;
          }));
        }
      }
    }
  }
  return out;
}

bool same_entries(const Search& a, const Search& b) {
  if (a.entries.size() != b.entries.size()) return false;
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    if (a.entries[i].rmse_ms != b.entries[i].rmse_ms ||
        a.entries[i].requests != b.entries[i].requests) {
      return false;
    }
  }
  return true;
}

double best_rmse_ms(const Search& s) {
  double best = INFINITY;
  for (const auto& e : s.entries) best = std::min(best, e.rmse_ms);
  return best;
}

std::uint64_t total_requests(const Search& s) {
  std::uint64_t n = 0;
  for (const auto& e : s.entries) n += e.requests;
  return n;
}

void check_search(const Search& s, Checks& checks) {
  const double best = best_rmse_ms(s);
  checks.expect(s.entries.size() == grid_size(search_space()),
                "search enumerates the full grid");
  checks.expect(std::isfinite(best) && best > 0.0,
                "search finds a finite best RMSE");
}

WorkloadResult run_untraced(const RunOptions& options) {
  WorkloadResult out;
  SpanLog spans(false, "");
  HostReference reference;
  std::vector<double> setup_s, raw_setup_s;
  protocol::Trace trace;
  for (int rep = 0; rep < 3; ++rep) {
    Capture c = capture(options.seed, {}, spans, &reference);
    setup_s.push_back(c.corrected_s);
    raw_setup_s.push_back(c.wall_s);
    if (rep == 0) {
      out.checks.expect(c.trace.size() > 10'000,
                        "24 h capture records a trace (>10k records)");
      trace = std::move(c.trace);
    } else {
      out.checks.expect(c.trace.to_csv() == trace.to_csv(),
                        "capture reproduces the same trace");
    }
  }

  std::vector<double> sim_speed, qps, raw_speed;
  Search first;
  repeat_for(options.seconds, 3, 10'000, [&](std::size_t rep) {
    Search s = run_search(trace, true, false, spans, &reference);
    const double search_s = s.corrected_s;
    const double configs = static_cast<double>(s.entries.size());
    sim_speed.push_back(configs * trace.span_s() / search_s);
    qps.push_back(static_cast<double>(total_requests(s)) / search_s);
    raw_speed.push_back(configs * trace.span_s() / s.wall_s);
    if (rep == 0) {
      check_search(s, out.checks);
      first = std::move(s);
    } else {
      out.checks.expect(same_entries(s, first),
                        "repeat reproduces the first search");
    }
  });
  std::printf("e2e_tuner: %zu trace records over %.0f h, %zu configs, %zu "
              "reps; best RMSE %.2f ms (paper 8.9)\n",
              trace.size(), trace.span_s() / 3600.0, first.entries.size(),
              sim_speed.size(), best_rmse_ms(first));
  std::printf("  configs_per_s %.1f 1/s (median; = sim_speed / trace span)\n",
              median(sim_speed) / trace.span_s());
  std::printf("  raw wall: capture %.3f s, sim_speed %.4g sim_s/s (medians)\n",
              median(raw_setup_s), median(raw_speed));
  out.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"sim_speed", median(sim_speed), "sim_s/s"},
      {"queries_per_s", median(qps), "1/s"},
  };
  return out;
}

WorkloadResult run_traced(const RunOptions& options) {
  WorkloadResult out;
  SpanLog spans(true, "e2e_tuner-seed" + std::to_string(options.seed));
  const double kernel_ns = sim_kernel_ns_per_event();
  HostReference reference;

  std::vector<double> env_s, env_ntp_s, cap_s, cap_off_s, cap_traced_s;
  std::vector<double> search_s, search_off_s, search_traced_s;
  Capture env, cap_first, cap_traced;
  Search search_first, search_traced;
  ScoreEach score;
  repeat_for(options.seconds, 2, 1000, [&](std::size_t rep) {
    const auto cycle = spans.span("tuner.cycle");
    // Environment legs run with the registry off so obs is attributed
    // once, by the on/off pairs.
    // Every leg advances with host-speed samples (captures in hourly
    // steps, searches one call per warm-up period) and is reported in
    // corrected seconds, so a contention swing between two legs does not
    // land in their difference. Environment legs run with the registry
    // off so obs is attributed once, by the on/off pairs.
    Capture e = capture(options.seed, {false, false, false, false}, spans,
                        &reference);
    Capture en = capture(options.seed, {false, true, false, false}, spans,
                         &reference);
    Capture c = capture(options.seed, {true, true, true, false}, spans,
                        &reference);
    Capture co = capture(options.seed, {true, true, false, false}, spans,
                         &reference);
    Capture ct = capture(options.seed, {true, true, true, true}, spans,
                         &reference);
    Search s = run_search(c.trace, true, false, spans, &reference);
    Search so = run_search(c.trace, false, false, spans, &reference);
    Search st = run_search(c.trace, true, true, spans, &reference);
    ScoreEach each;
    {
      const auto span = spans.span("tuner.emulate_each");
      each = score_each(c.trace);
    }
    out.checks.expect(each.requests == total_requests(s),
                      "per-config emulate agrees with the search's requests");
    env_s.push_back(e.corrected_s);
    env_ntp_s.push_back(en.corrected_s);
    cap_s.push_back(c.corrected_s);
    cap_off_s.push_back(co.corrected_s);
    cap_traced_s.push_back(ct.corrected_s);
    search_s.push_back(s.corrected_s);
    search_off_s.push_back(so.corrected_s);
    search_traced_s.push_back(st.corrected_s);
    const bool same_capture =
        c.events == co.events && c.events == ct.events &&
        c.trace.to_csv() == co.trace.to_csv() &&
        c.trace.to_csv() == ct.trace.to_csv();
    out.checks.expect(same_capture && same_entries(s, so) && same_entries(s, st),
                      "traced, untraced and obs-off runs report identical "
                      "simulated counts");
    if (rep == 0) {
      check_search(s, out.checks);
      const Capture plain = capture(options.seed, {}, spans);
      out.checks.expect(plain.events == c.events &&
                            plain.trace.to_csv() == c.trace.to_csv(),
                        "hourly run_until steps reproduce the one-call capture");
      env = std::move(e);
      cap_first = std::move(c);
      cap_traced = std::move(ct);
      search_first = std::move(s);
      search_traced = std::move(st);
      score = std::move(each);
    }
  });

  const double t_cap = median(cap_s);
  const double t_search = median(search_s);
  const double total = t_cap + t_search;
  const double t_env = median(env_s);
  const double ntp_s = median(env_ntp_s) - t_env;
  // Engine time net of the span machinery each recorded round includes,
  // corrected with its search's host-speed factor.
  const double span_floor_ns = profiler_span_floor_ns();
  const double round_s =
      1e-9 *
      (static_cast<double>(search_traced.round.total_ns) -
       span_floor_ns * static_cast<double>(search_traced.round.count)) *
      (search_traced.corrected_s / search_traced.wall_s);
  const double obs_s =
      (t_cap - median(cap_off_s)) + (t_search - median(search_off_s));
  const double sim_s = kernel_ns * 1e-9 * static_cast<double>(cap_first.events);
  const double net_s = t_env - kernel_ns * 1e-9 * static_cast<double>(env.events);
  const double tuner_s = (median(cap_off_s) - median(env_ntp_s)) +
                         (median(search_off_s) - round_s);
  const double configs = static_cast<double>(search_first.entries.size());
  const auto& cap_snap = cap_traced.snapshot;
  const auto& search_snap = search_traced.snapshot;
  const double wifi_tx = metric_sum(cap_snap, names::kNetWifiTx);
  const double wifi_drop = metric_sum(cap_snap, names::kNetWifiDrop);
  const double sent = metric_sum(cap_snap, names::kNtpQuerySent);
  const double ok = metric_sum(cap_snap, names::kNtpQueryOk);
  const double samples = metric_sum(search_snap, names::kMntpSample);
  const double accepted =
      metric_sum(search_snap, names::kMntpSample, "accepted_warmup") +
      metric_sum(search_snap, names::kMntpSample, "accepted_regular");
  const double traced_total = median(cap_traced_s) + median(search_traced_s);

  auto& m = out.metrics;
  m = {
      {"sim.events", static_cast<double>(cap_first.events), "count"},
      {"sim.ns_per_event",
       1e9 * cap_first.run_s / static_cast<double>(cap_first.events), "ns"},
      {"sim.kernel_ns_per_event", kernel_ns, "ns"},
      {"net.env_s", t_env, "s"},
      {"net.env_share", t_env / total, "ratio"},
      {"net.wifi.tx", wifi_tx, "count"},
      {"net.wifi.drop", wifi_drop, "count"},
      {"net.wifi.delivered_ratio", wifi_tx > 0 ? 1.0 - wifi_drop / wifi_tx : 0.0,
       "ratio"},
      {"ntp.ref_client_s", ntp_s, "s"},
      {"ntp.query.sent", sent, "count"},
      {"ntp.query.timeout", metric_sum(cap_snap, names::kNtpQueryTimeout), "count"},
      {"ntp.query.ok_ratio", sent > 0 ? ok / sent : 0.0, "ratio"},
      {"mntp.engine.rounds", static_cast<double>(search_traced.round.count),
       "count"},
      {"mntp.engine.round_s", round_s, "s"},
      {"mntp.engine.ns_per_round",
       search_traced.round.count > 0
           ? 1e9 * round_s / static_cast<double>(search_traced.round.count)
           : 0.0,
       "ns"},
      {"mntp.accept_ratio", samples > 0 ? accepted / samples : 0.0, "ratio"},
      {"mntp.deferrals", metric_sum(search_snap, names::kMntpDeferrals), "count"},
      {"tuner.trace_records", static_cast<double>(cap_first.trace.size()), "count"},
      {"tuner.capture_s", t_cap, "s"},
      {"tuner.search_s", t_search, "s"},
      {"tuner.configs", configs, "count"},
      {"tuner.configs_per_s", configs / t_search, "1/s"},
      {"tuner.score_config_us_p50", quantile(score.us, 0.5), "us"},
      {"tuner.score_config_us_p99", quantile(score.us, 0.99), "us"},
      {"obs.metrics_s", obs_s, "s"},
      {"obs.trace_overhead", traced_total / total - 1.0, "ratio"},
      {"tuner.best_rmse_ms", best_rmse_ms(search_first), "ms"},
  };
  out.checks.expect(static_cast<std::size_t>(metric_sum(
                        search_snap, names::kTunerConfigsScored)) ==
                        search_first.entries.size(),
                    "registry counts every scored config");
  out.checks.expect(search_traced.score.count == search_first.entries.size(),
                    "profiler opens one tuner.score_config span per config");

  report_layers("e2e_tuner",
                {{"sim", sim_s},
                 {"net", net_s},
                 {"ntp", ntp_s},
                 {"mntp", round_s},
                 {"tuner", tuner_s},
                 {"obs", obs_s},
                 {"other", total - (sim_s + net_s + ntp_s + round_s + tuner_s + obs_s)}},
                total, m);
  std::printf("  capture (set-up) %.3f s, search %.3f s over %.0f configs; "
              "engine rounds net of a %.0f ns span floor\n",
              t_cap, t_search, configs, span_floor_ns);
  std::printf("tracing overhead: %.1f%% (traced %.3f s vs untraced %.3f s)\n",
              100.0 * (traced_total / total - 1.0), traced_total, total);
  if (!options.trace_out.empty()) {
    const std::string path = options.trace_out + "/e2e_tuner-seed" +
                             std::to_string(options.seed) + ".spans.json";
    out.checks.expect(spans.write_json(path), "span log written");
  }
  return out;
}

}  // namespace

WorkloadResult run_tuner(const RunOptions& options) {
  return options.trace ? run_traced(options) : run_untraced(options);
}

}  // namespace e2e
