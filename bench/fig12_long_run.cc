// Figure 12: the 4-hour long experiment — SNTP vs MNTP on a wireless
// network with a free-running clock, full MNTP (trend line fitted and
// re-estimated; the "clock corrected drift" series is offset minus
// trend).
//
// Paper numbers: SNTP offsets as high as 392 ms; MNTP's corrected drift
// values always below 20 ms; the drift trend line is clearly visible and
// large offsets are rejected by the filter.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common.h"

using namespace mntp;

namespace {

/// One replicate of the 4-hour scenario: shape metrics plus the reported
/// offset distributions (merged exactly across replicates). Replicate 0
/// alone records the sim-time timeline.
sim::ReplicateResult run_replicate(ntp::TestbedConfig config,
                                   std::uint64_t seed,
                                   std::size_t replicate) {
  obs::TimeSeriesRecorder::SuppressScope suppress(replicate != 0);
  config.seed = seed;
  const bench::HeadToHead r = bench::run_head_to_head(
      config, protocol::head_to_head_params(), core::Duration::hours(4));
  sim::ReplicateResult out;
  out.metrics = {
      {"sntp_max_abs_ms", core::max_abs(r.sntp.offsets_ms)},
      {"corrected_max_ms", core::max_abs(r.mntp.corrected_ms)},
      {"rejections", static_cast<double>(r.mntp.rejected_ms.size())},
      {"deferrals", static_cast<double>(r.mntp.deferrals)},
      {"has_drift", r.mntp.has_drift ? 1.0 : 0.0},
      {"drift_ppm", r.mntp.has_drift ? r.mntp.drift_ppm : 0.0},
      {"final_clock_offset_ms", r.mntp.final_clock_offset_ms},
  };
  obs::HdrHistogram sntp_offsets, mntp_resid;
  for (double v : r.sntp.offsets_ms) sntp_offsets.record(v);
  for (double v : r.mntp.corrected_ms) mntp_resid.record(v);
  out.distributions = {
      {"sntp_offset_ms", std::move(sntp_offsets)},
      {"mntp_resid_ms", std::move(mntp_resid)},
  };
  return out;
}

/// Multi-seed mode (`--replicates K --threads N`); the K=1 path below is
/// the untouched single-seed experiment.
int run_replicated(const ntp::TestbedConfig& config,
                   const bench::ReplicateCli& cli,
                   bench::BenchTelemetry& telemetry) {
  sim::ReplicationRunner runner({cli.replicates, cli.threads});
  const sim::ReplicateReport report = runner.run(
      config.seed,
      sim::ReplicationRunner::RichScenario(
          [&](std::uint64_t seed, std::size_t replicate) {
            return run_replicate(config, seed, replicate);
          }));
  bench::print_replicate_report(report);
  bench::print_replicate_distributions(report);

  bench::Checks checks;
  checks.expect(report.median("sntp_max_abs_ms") > 200.0,
                "median SNTP max offset in the hundreds of ms (paper: 392)");
  checks.expect(report.median("corrected_max_ms") < 30.0,
                "median MNTP corrected drift below tens of ms (paper: <20)");
  checks.expect(report.median("rejections") > 0.0,
                "filter rejects large offsets over the long run (median)");
  int failures = checks.finish("Figure 12 (replicated)");
  if (!telemetry.finalize(core::TimePoint::epoch() + core::Duration::hours(4)))
    ++failures;
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv,
                     {{"--replicates", "K"}, {"--threads", "N"}});
  bench::BenchTelemetry telemetry("fig12_long_run", argc, argv);
  std::printf("== Figure 12: 4-hour run, free-running clock ==\n");
  ntp::TestbedConfig config;
  config.seed = 12;
  config.wireless = true;
  config.ntp_correction = false;

  const bench::ReplicateCli cli = bench::parse_replicate_cli(argc, argv);
  if (cli.replicates > 1) return run_replicated(config, cli, telemetry);

  const bench::HeadToHead r = bench::run_head_to_head(
      config, protocol::head_to_head_params(), core::Duration::hours(4));

  bench::print_offset_summary("SNTP reported offsets", r.sntp.offsets_ms);
  bench::print_offset_summary("MNTP reported offsets", r.mntp.accepted_ms);
  bench::print_offset_summary("MNTP corrected drift", r.mntp.corrected_ms);
  std::printf("  MNTP rejections: %zu, deferrals: %zu\n",
              r.mntp.rejected_ms.size(), r.mntp.deferrals);
  if (r.mntp.has_drift) {
    std::printf("  drift estimate %+.2f ppm (true constant skew %.2f ppm)\n",
                r.mntp.drift_ppm, config.client_clock.constant_skew_ppm);
  }
  std::printf("  true clock offset after 4 h: %+.2f ms\n",
              r.mntp.final_clock_offset_ms);

  bench::plot_offsets(
      "4-hour run (x: minutes, y: ms)",
      {{.label = "SNTP", .points = r.sntp.series, .marker = 's'},
       {.label = "MNTP accepted (trend)", .points = r.mntp.accepted, .marker = 'M'},
       {.label = "MNTP corrected drift", .points = r.mntp.corrected, .marker = 'c'}});

  bench::Checks checks;
  checks.expect(core::max_abs(r.sntp.offsets_ms) > 200.0,
                "SNTP offsets reach hundreds of ms over 4 h (paper: 392)");
  checks.expect(core::max_abs(r.mntp.corrected_ms) < 30.0,
                "MNTP corrected drift always below tens of ms (paper: <20)");
  checks.expect(!r.mntp.rejected_ms.empty(),
                "filter rejects large offsets over the long run");
  // The trend tracks the actual free-run drift: the accepted offsets at
  // the end of the run sit near the true accumulated clock error
  // (measured offset ~ -clock offset).
  if (!r.mntp.accepted.empty()) {
    const double last_measured = r.mntp.accepted.back().second;
    checks.expect_near(last_measured, -r.mntp.final_clock_offset_ms, 25.0,
                       "accepted offsets track the true drift trend");
  }
  if (r.mntp.has_drift) {
    // Measured offset = (server - client): a clock losing time (negative
    // skew) produces a *rising* measured-offset trend, hence the sign flip.
    checks.expect_near(r.mntp.drift_ppm, -config.client_clock.constant_skew_ppm,
                       3.0, "drift estimate matches the oscillator skew");
  }
  int failures = checks.finish("Figure 12");
  if (!telemetry.finalize(core::TimePoint::epoch() + core::Duration::hours(4))) ++failures;
  return failures;
}
