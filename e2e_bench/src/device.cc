// e2e_device: the Fig 8 / Fig 12 head-to-head scenario over 4 simulated
// hours (Fig 12's horizon; at 24 h the single drift trend of
// head_to_head_params no longer meets the Fig 8 residual bounds). One
// ntp::Testbed with a wireless last hop, the monitor node's closed-loop
// interference and a free-running clock; SNTP and MNTP
// (head_to_head_params) run side by side on it.
//
// Untraced: repeat (construct + run) for the measuring window; report the
// median set-up time, simulated seconds per host second and client
// queries per host second. Traced: legs of the same testbed and seed —
// environment only, +SNTP, +MNTP, both, both with the obs registry off,
// and both with profiler spans and a timing decorator on the SNTP
// client's links — whose differences attribute host time to layers.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "core/stats.h"
#include "core/time.h"
#include "harness.h"
#include "mntp/mntp_client.h"
#include "mntp/params.h"
#include "net/link.h"
#include "ntp/sntp_client.h"
#include "ntp/testbed.h"
#include "obs/metric_names.h"
#include "obs/telemetry.h"

namespace e2e {
namespace {

using namespace mntp;
namespace names = obs::metric_names;

constexpr core::Duration kHorizon = core::Duration::hours(4);

enum class Clients { kNone, kSntp, kMntp, kBoth };

struct LegOptions {
  Clients clients = Clients::kBoth;
  bool obs_enabled = true;
  /// Turn on the program's profiler spans and time the SNTP links.
  bool traced = false;
};

/// Decorator timing every transmit() of the link it wraps.
class TimingLink final : public net::Link {
 public:
  explicit TimingLink(net::Link* inner) : inner_(inner) {}

  net::TransmitResult transmit(core::TimePoint now, std::size_t bytes) override {
    const auto t0 = std::chrono::steady_clock::now();
    const net::TransmitResult r = inner_->transmit(now, bytes);
    ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
               .count();
    ++calls_;
    return r;
  }

  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] double seconds() const { return 1e-9 * static_cast<double>(ns_); }

 private:
  net::Link* inner_;
  std::uint64_t calls_ = 0;
  std::int64_t ns_ = 0;
};

/// Everything one leg measured and produced.
struct Leg {
  double setup_s = 0.0;
  double run_s = 0.0;
  // Simulated counts: identical for the same seed and clients however
  // the run is observed.
  std::uint64_t events = 0;
  std::uint64_t queries = 0;  ///< SNTP polls + MNTP requests
  std::size_t rounds = 0;
  std::size_t accepted = 0;
  std::size_t deferrals = 0;
  // Model outputs.
  double sntp_max_abs_ms = 0.0;
  double resid_max_ms = 0.0;
  double resid_mean_ms = 0.0;
  // Observation (traced legs only).
  std::vector<obs::MetricSnapshot> snapshot;
  obs::Profiler::SpanStats engine_round;
  std::uint64_t link_calls = 0;
  double link_s = 0.0;

  [[nodiscard]] bool same_counts(const Leg& o) const {
    return events == o.events && queries == o.queries && rounds == o.rounds &&
           accepted == o.accepted && deferrals == o.deferrals;
  }
};

ntp::TestbedConfig device_config(std::uint64_t seed) {
  ntp::TestbedConfig config;
  config.seed = seed;
  config.wireless = true;
  config.ntp_correction = false;  // free-running clock (Fig 8 / Fig 12)
  return config;
}

Leg run_leg(std::uint64_t seed, const LegOptions& options, SpanLog& spans) {
  obs::Telemetry telemetry;
  telemetry.set_enabled(options.obs_enabled);
  telemetry.profiler().set_enabled(options.traced);
  obs::ScopedTelemetry scope(telemetry);

  const bool sntp_on =
      options.clients == Clients::kSntp || options.clients == Clients::kBoth;
  const bool mntp_on =
      options.clients == Clients::kMntp || options.clients == Clients::kBoth;

  Leg leg;
  std::unique_ptr<ntp::Testbed> bed;
  std::unique_ptr<TimingLink> up;
  std::unique_ptr<TimingLink> down;
  std::unique_ptr<ntp::SntpClient> sntp;
  std::unique_ptr<protocol::MntpClient> mntp_client;
  {
    const auto span = spans.span("device.setup");
    leg.setup_s = timed([&] {
      bed = std::make_unique<ntp::Testbed>(device_config(seed));
      net::Link* hop_up = bed->last_hop_up();
      net::Link* hop_down = bed->last_hop_down();
      if (options.traced) {
        up = std::make_unique<TimingLink>(hop_up);
        down = std::make_unique<TimingLink>(hop_down);
        hop_up = up.get();
        hop_down = down.get();
      }
      if (sntp_on) {
        sntp = std::make_unique<ntp::SntpClient>(
            bed->sim(), bed->target_clock(), bed->pool(), hop_up, hop_down,
            ntp::SntpClientPolicy{});
      }
      if (mntp_on) {
        mntp_client = std::make_unique<protocol::MntpClient>(
            bed->sim(), bed->target_clock(), bed->pool(), bed->channel(),
            protocol::head_to_head_params(), bed->fork_rng());
      }
      bed->start();
      if (sntp) sntp->start();
      if (mntp_client) mntp_client->start();
    });
  }
  {
    const auto span = spans.span("sim.run_until");
    leg.run_s = timed(
        [&] { bed->sim().run_until(core::TimePoint::epoch() + kHorizon); });
  }

  leg.events = bed->sim().events_executed();
  if (sntp) {
    leg.queries += sntp->polls();
    leg.sntp_max_abs_ms = core::max_abs(sntp->offsets_ms());
  }
  if (mntp_client) {
    const protocol::MntpEngine& engine = mntp_client->engine();
    leg.queries += mntp_client->requests_sent();
    leg.rounds = engine.rounds();
    leg.accepted = engine.accepted_offsets_ms().size();
    leg.deferrals = engine.deferrals();
    const std::vector<double> resid = engine.corrected_offsets_ms();
    leg.resid_max_ms = core::max_abs(resid);
    leg.resid_mean_ms = core::mean_abs(resid);
  }
  if (options.traced) {
    leg.snapshot = telemetry.metrics().snapshot();
    leg.engine_round = span_stats(telemetry.profiler(), obs::spans::kEngineRound);
    leg.link_calls = up->calls() + down->calls();
    leg.link_s = up->seconds() + down->seconds();
  }
  return leg;
}

void check_shape(const Leg& leg, Checks& checks) {
  checks.expect(leg.sntp_max_abs_ms > 250.0,
                "SNTP max |offset| > 250 ms (paper: 392-450)");
  checks.expect(leg.resid_max_ms < 45.0,
                "MNTP max |residual to trend| < 45 ms (paper: 24)");
  checks.expect(leg.resid_mean_ms < 10.0,
                "MNTP mean |residual to trend| < 10 ms (paper: 4.5)");
}

WorkloadResult run_untraced(const RunOptions& options) {
  WorkloadResult out;
  SpanLog spans(false, "");
  HostReference reference;
  std::vector<double> setup_s, sim_speed, qps, raw_speed;
  Leg first;
  repeat_for(options.seconds, 3, 100'000, [&](std::size_t rep) {
    const Leg leg = run_leg(options.seed, {}, spans);
    const double k = reference.next_factor();
    setup_s.push_back(leg.setup_s * k);
    sim_speed.push_back(kHorizon.to_seconds() / (leg.run_s * k));
    qps.push_back(static_cast<double>(leg.queries) / (leg.run_s * k));
    raw_speed.push_back(kHorizon.to_seconds() / leg.run_s);
    if (rep == 0) {
      first = leg;
      check_shape(leg, out.checks);
    } else {
      out.checks.expect(leg.same_counts(first),
                        "repeat reproduces the first run's simulated counts");
    }
  });
  std::printf("e2e_device: %zu reps of %.0f sim-h, %llu events, %llu client "
              "queries per rep\n",
              setup_s.size(), kHorizon.to_seconds() / 3600.0,
              static_cast<unsigned long long>(first.events),
              static_cast<unsigned long long>(first.queries));
  std::printf("  SNTP max |offset| %.1f ms; MNTP |residual to trend| max "
              "%.1f ms, mean %.2f ms\n",
              first.sntp_max_abs_ms, first.resid_max_ms, first.resid_mean_ms);
  std::printf("  raw wall sim_speed over reps: p10 %.0f, p50 %.0f, p90 %.0f "
              "sim_s/s\n",
              quantile(raw_speed, 0.1), quantile(raw_speed, 0.5),
              quantile(raw_speed, 0.9));
  out.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"sim_speed", median(sim_speed), "sim_s/s"},
      {"queries_per_s", median(qps), "1/s"},
  };
  return out;
}

WorkloadResult run_traced(const RunOptions& options) {
  WorkloadResult out;
  SpanLog spans(true, "e2e_device-seed" + std::to_string(options.seed));
  const double kernel_ns = sim_kernel_ns_per_event();

  // Leg times are host-speed corrected like the end-to-end ones, so a
  // contention swing between two legs does not land in their difference.
  HostReference reference;
  const auto run = [&](const char* name, const LegOptions& leg_options) {
    const auto span = spans.span(name);
    Leg leg = run_leg(options.seed, leg_options, spans);
    leg.run_s *= reference.next_factor();
    return leg;
  };
  std::vector<double> env_s, sntp_s, mntp_s, full_s, off_s, traced_s;
  Leg env, full, traced;
  repeat_for(options.seconds, 2, 1000, [&](std::size_t rep) {
    const auto cycle = spans.span("device.cycle");
    // The subtraction legs run with the registry off, so obs is
    // attributed once, by the full on/off pair below.
    const Leg e = run("leg.env", {Clients::kNone, false, false});
    const Leg s = run("leg.sntp", {Clients::kSntp, false, false});
    const Leg m = run("leg.mntp", {Clients::kMntp, false, false});
    const Leg f = run("leg.full", {Clients::kBoth, true, false});
    const Leg o = run("leg.obs_off", {Clients::kBoth, false, false});
    const Leg t = run("leg.traced", {Clients::kBoth, true, true});
    env_s.push_back(e.run_s);
    sntp_s.push_back(s.run_s);
    mntp_s.push_back(m.run_s);
    full_s.push_back(f.run_s);
    off_s.push_back(o.run_s);
    traced_s.push_back(t.run_s);
    if (rep == 0) {
      env = e;
      full = f;
      traced = t;
      check_shape(f, out.checks);
    }
    out.checks.expect(t.same_counts(f) && o.same_counts(f) &&
                          f.same_counts(full),
                      "traced, untraced and obs-off runs report identical "
                      "simulated counts");
  });

  const double t_env = median(env_s);
  const double t_full = median(full_s);
  const double t_off = median(off_s);
  const double ntp_s = median(sntp_s) - t_env;
  const double mntp_client_s = median(mntp_s) - t_env;
  const double sim_s = kernel_ns * 1e-9 * static_cast<double>(full.events);
  const double net_s = t_env - kernel_ns * 1e-9 * static_cast<double>(env.events);
  const double obs_s = t_full - t_off;
  const auto& snap = traced.snapshot;
  const double wifi_tx = metric_sum(snap, names::kNetWifiTx);
  const double wifi_drop = metric_sum(snap, names::kNetWifiDrop);
  const double sent = metric_sum(snap, names::kNtpQuerySent);
  const double ok = metric_sum(snap, names::kNtpQueryOk);
  const double samples = metric_sum(snap, names::kMntpSample);
  const double accepted =
      metric_sum(snap, names::kMntpSample, "accepted_warmup") +
      metric_sum(snap, names::kMntpSample, "accepted_regular");
  const double round_s = 1e-9 * static_cast<double>(traced.engine_round.total_ns);

  auto& m = out.metrics;
  m = {
      {"sim.events", static_cast<double>(full.events), "count"},
      {"sim.ns_per_event", 1e9 * t_full / static_cast<double>(full.events), "ns"},
      {"sim.kernel_ns_per_event", kernel_ns, "ns"},
      {"net.env_s", t_env, "s"},
      {"net.env_share", t_env / t_full, "ratio"},
      {"net.wifi.tx", wifi_tx, "count"},
      {"net.wifi.drop", wifi_drop, "count"},
      {"net.wifi.delivered_ratio", wifi_tx > 0 ? 1.0 - wifi_drop / wifi_tx : 0.0,
       "ratio"},
      {"net.link.calls", static_cast<double>(traced.link_calls), "count"},
      {"net.link.s", traced.link_s, "s"},
      {"ntp.sntp_client_s", ntp_s, "s"},
      {"ntp.query.sent", sent, "count"},
      {"ntp.query.timeout", metric_sum(snap, names::kNtpQueryTimeout), "count"},
      {"ntp.query.ok_ratio", sent > 0 ? ok / sent : 0.0, "ratio"},
      {"mntp.client_s", mntp_client_s, "s"},
      {"mntp.engine.rounds", static_cast<double>(traced.engine_round.count),
       "count"},
      {"mntp.engine.round_s", round_s, "s"},
      {"mntp.engine.ns_per_round",
       traced.engine_round.count > 0
           ? 1e9 * round_s / static_cast<double>(traced.engine_round.count)
           : 0.0,
       "ns"},
      {"mntp.accept_ratio", samples > 0 ? accepted / samples : 0.0, "ratio"},
      {"mntp.deferrals", metric_sum(snap, names::kMntpDeferrals), "count"},
      {"obs.metrics_s", obs_s, "s"},
      {"obs.trace_overhead", median(traced_s) / t_full - 1.0, "ratio"},
      {"mntp.resid_mean_ms", full.resid_mean_ms, "ms"},
      {"mntp.max_abs_ms", full.resid_max_ms, "ms"},
      {"sntp.max_abs_ms", full.sntp_max_abs_ms, "ms"},
  };
  out.checks.expect(static_cast<std::size_t>(accepted) == full.accepted &&
                        traced.engine_round.count == full.rounds,
                    "registry and profiler agree with the engine's own "
                    "round and sample counts");

  const double attributed = sim_s + net_s + ntp_s + mntp_client_s + obs_s;
  report_layers("e2e_device",
                {{"sim", sim_s},
                 {"net", net_s},
                 {"ntp", ntp_s},
                 {"mntp", mntp_client_s},
                 {"obs", obs_s},
                 {"other", t_full - attributed}},
                t_full, m);
  std::printf("  of mntp: engine rounds %.4f s (%llu rounds)\n", round_s,
              static_cast<unsigned long long>(traced.engine_round.count));
  std::printf("tracing overhead: %.1f%% (traced leg %.3f s vs untraced %.3f s)\n",
              100.0 * (median(traced_s) / t_full - 1.0), median(traced_s),
              t_full);
  if (!options.trace_out.empty()) {
    const std::string path = options.trace_out + "/e2e_device-seed" +
                             std::to_string(options.seed) + ".spans.json";
    out.checks.expect(spans.write_json(path), "span log written");
  }
  return out;
}

}  // namespace

WorkloadResult run_device(const RunOptions& options) {
  return options.trace ? run_traced(options) : run_untraced(options);
}

}  // namespace e2e
