// Figure 5: SNTP clock offsets reported by a mobile host on a 4G network
// (§3.3): Galaxy S4, 3-hour run, GPS-corrected system clock, SNTP polls
// against a pool server.
//
// Paper numbers: mean offset 192 ms, sd 55 ms, maximum ~840 ms.
#include <cstdio>

#include "common.h"
#include "net/cellular.h"

using namespace mntp;

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {});
  bench::BenchTelemetry telemetry("fig5_cellular", argc, argv);
  std::printf("== Figure 5: SNTP offsets on a 4G network (3 h) ==\n");
  core::Rng rng(5);
  sim::Simulation sim;
  // GPS-corrected baseline: the device clock is held at true time (the
  // SmartTimeSync app role), so measured offsets isolate the network.
  sim::DisciplinedClock clock(
      sim::OscillatorParams{.constant_skew_ppm = 0.0, .read_noise_s = 30e-6},
      rng.fork());
  net::CellularNetwork cellular(net::CellularParams{}, rng.fork());
  ntp::ServerPool pool(ntp::PoolParams{}, rng.fork());

  ntp::SntpClientPolicy policy;
  policy.poll_interval = core::Duration::seconds(5);
  ntp::SntpClient client(sim, clock, pool, &cellular.uplink(),
                         &cellular.downlink(), policy);
  bench::Series series;
  client.set_on_sample([&](const ntp::SntpSample& s) {
    series.emplace_back(s.completed_at.to_seconds() / 60.0,
                        s.offset.to_millis());
  });
  client.start();
  sim.run_until(core::TimePoint::epoch() + core::Duration::hours(3));

  const auto offsets = client.offsets_ms();
  bench::print_offset_summary("SNTP on 4G (GPS-corrected clock)", offsets);
  std::printf("  polls %zu, failures %zu\n", client.polls(), client.failures());
  bench::plot_offsets("4G SNTP offsets (x: minutes, y: ms)",
                      {{.label = "SNTP offset", .points = series, .marker = '*'}});

  const auto s = core::summarize(offsets);
  bench::Checks checks;
  checks.expect_near(s.mean, 192.0, 50.0, "mean offset ~192 ms");
  checks.expect_near(s.stddev, 55.0, 40.0, "offset sd ~55 ms");
  checks.expect(s.max > 500.0 && s.max < 1500.0,
                "maximum offset in the high hundreds of ms (paper: ~840)");
  checks.expect(s.min > 0.0,
                "4G offsets systematically positive (uplink-dominated asymmetry)");
  int failures = checks.finish("Figure 5");
  if (!telemetry.finalize(sim.now())) ++failures;
  return failures;
}
