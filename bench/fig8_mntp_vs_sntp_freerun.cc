// Figure 8: reported SNTP vs MNTP offsets on a wireless network WITHOUT
// NTP clock correction — the client's clock free-runs and drifts, so
// accepted offsets ride the skew trend line.
//
// Paper numbers: SNTP offsets as high as 450 ms; MNTP maximum 24 ms from
// the trend, on average within 4.5 ms of the reference — 17x better.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common.h"

using namespace mntp;

namespace {

/// One replicate of the Figure 8 scenario: shape metrics plus the full
/// reported-offset distributions (merged exactly across replicates).
/// Replicate 0 runs the base seed — the single-seed experiment bit for
/// bit — so it alone records the sim-time timeline; other replicates
/// suppress theirs.
sim::ReplicateResult run_replicate(ntp::TestbedConfig config,
                                   std::uint64_t seed,
                                   std::size_t replicate) {
  obs::TimeSeriesRecorder::SuppressScope suppress(replicate != 0);
  config.seed = seed;
  const bench::HeadToHead r = bench::run_head_to_head(
      config, protocol::head_to_head_params(), core::Duration::hours(1));
  sim::ReplicateResult out;
  out.metrics = {
      {"sntp_max_abs_ms", core::max_abs(r.sntp.offsets_ms)},
      {"mntp_max_abs_ms", core::max_abs(r.mntp.accepted_ms)},
      {"resid_max_ms", core::max_abs(r.mntp.corrected_ms)},
      {"resid_mean_ms", core::mean_abs(r.mntp.corrected_ms)},
      {"has_drift", r.mntp.has_drift ? 1.0 : 0.0},
      {"drift_ppm", r.mntp.has_drift ? r.mntp.drift_ppm : 0.0},
  };
  obs::HdrHistogram sntp_offsets, mntp_accepted, mntp_resid;
  for (double v : r.sntp.offsets_ms) sntp_offsets.record(v);
  for (double v : r.mntp.accepted_ms) mntp_accepted.record(v);
  for (double v : r.mntp.corrected_ms) mntp_resid.record(v);
  out.distributions = {
      {"sntp_offset_ms", std::move(sntp_offsets)},
      {"mntp_accepted_ms", std::move(mntp_accepted)},
      {"mntp_resid_ms", std::move(mntp_resid)},
  };
  return out;
}

/// Multi-seed mode (`--replicates K --threads N`): aggregate the shape
/// metrics over K independent channel/clock realizations and apply the
/// paper's qualitative checks to the medians. The K=1 path below is the
/// untouched single-seed experiment.
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
  checks.expect(report.median("sntp_max_abs_ms") > 250.0,
                "median SNTP max offset reaches hundreds of ms (paper: 450)");
  checks.expect(report.median("mntp_max_abs_ms") < 45.0,
                "median MNTP max offset within tens of ms (paper max: 24)");
  checks.expect(report.median("resid_max_ms") < 40.0,
                "median MNTP max deviation from trend within tens of ms");
  checks.expect(report.median("resid_mean_ms") < 10.0,
                "median MNTP mean deviation small (paper: 4.5 ms)");
  checks.expect(report.median("sntp_max_abs_ms") /
                        std::max(report.median("mntp_max_abs_ms"), 1e-9) >
                    6.0,
                "improvement factor approaching the paper's 17x");
  int failures = checks.finish("Figure 8 (replicated)");
  if (!telemetry.finalize(core::TimePoint::epoch() + core::Duration::hours(1)))
    ++failures;
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv,
                     {{"--replicates", "K"}, {"--threads", "N"}});
  bench::BenchTelemetry telemetry("fig8_mntp_vs_sntp_freerun", argc, argv);
  std::printf("== Figure 8: SNTP vs MNTP on wireless, free-running clock ==\n");
  ntp::TestbedConfig config;
  config.seed = 8;
  config.wireless = true;
  config.ntp_correction = false;
  // The clock is synchronized just before the run (as in the paper: NTP
  // corrects it, then is switched off), so offsets start near zero and
  // ride the skew trend over the hour.

  const bench::ReplicateCli cli = bench::parse_replicate_cli(argc, argv);
  if (cli.replicates > 1) return run_replicated(config, cli, telemetry);

  const bench::HeadToHead r = bench::run_head_to_head(
      config, protocol::head_to_head_params(), core::Duration::hours(1));

  bench::print_offset_summary("SNTP reported offsets", r.sntp.offsets_ms);
  bench::print_offset_summary("MNTP reported offsets", r.mntp.accepted_ms);
  bench::print_offset_summary("MNTP offsets minus trend", r.mntp.corrected_ms);
  if (r.mntp.has_drift) {
    std::printf("  MNTP drift estimate: %+.2f ppm (true oscillator skew %.2f ppm)\n",
                r.mntp.drift_ppm, config.client_clock.constant_skew_ppm);
  }

  bench::plot_offsets(
      "SNTP vs MNTP offsets, free-running clock (x: minutes, y: ms)",
      {{.label = "SNTP", .points = r.sntp.series, .marker = 's'},
       {.label = "MNTP accepted", .points = r.mntp.accepted, .marker = 'M'},
       {.label = "MNTP rejected", .points = r.mntp.rejected, .marker = 'x'}});

  // "Within x ms of the reference": MNTP's accepted offsets vs the true
  // clock offset they estimate. The trend-corrected residuals measure the
  // deviation from the skew line (paper: max 24 ms, mean 4.5 ms).
  const double resid_max = core::max_abs(r.mntp.corrected_ms);
  const double resid_mean = core::mean_abs(r.mntp.corrected_ms);
  const double sntp_max = core::max_abs(r.sntp.offsets_ms);

  bench::Checks checks;
  checks.expect(sntp_max > 250.0,
                "SNTP offsets reach hundreds of ms (paper: 450)");
  checks.expect(core::max_abs(r.mntp.accepted_ms) < 45.0,
                "MNTP reported offsets stay within tens of ms (paper max: 24)");
  checks.expect(resid_max < 40.0,
                "MNTP stays within tens of ms of the trend");
  checks.expect(resid_mean < 10.0,
                "MNTP mean deviation small (paper: 4.5 ms)");
  checks.expect(sntp_max / std::max(core::max_abs(r.mntp.accepted_ms), 1e-9) >
                    6.0,
                "improvement factor approaching the paper's 17x");
  if (r.mntp.has_drift) {
    // Measured offset = (server - client): a clock losing time (negative
    // skew) produces a *rising* measured-offset trend, hence the sign flip.
    checks.expect_near(r.mntp.drift_ppm, -config.client_clock.constant_skew_ppm,
                       3.0, "drift estimate recovers the oscillator skew");
  }
  int failures = checks.finish("Figure 8");
  if (!telemetry.finalize(core::TimePoint::epoch() + core::Duration::hours(1))) ++failures;
  return failures;
}
