// Figure 4: SNTP clock offsets, wired vs wireless, with (left) and
// without (right) NTP clock correction. 1-hour runs, 5 s polls, the same
// interference apparatus as §3.2.
//
// Paper numbers: wireless+correction mean 31 ms / sd 47 ms with spikes to
// ~600 ms; wireless free-run mean 118 / sd 133 with spikes to ~1.58 s;
// wired+correction mean ~4 / sd ~7 (offsets near 0); wired free-run shows
// a steady temperature-dependent drift.
#include <cstdio>

#include "common.h"

using namespace mntp;

namespace {

ntp::TestbedConfig scenario(bool wireless, bool corrected, std::uint64_t seed) {
  ntp::TestbedConfig config;
  config.seed = seed;
  config.wireless = wireless;
  config.ntp_correction = corrected;
  if (!corrected) {
    // A free-running mobile clock has been drifting since boot; the paper's
    // uncorrected runs start from a standing error (their offsets sit
    // around ~100 ms and grow).
    config.client_clock.initial_offset_s = -0.1;
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {});
  bench::BenchTelemetry telemetry("fig4_wired_vs_wireless", argc, argv);
  std::printf("== Figure 4: SNTP offsets, wired vs wireless, +/- NTP correction ==\n");
  const core::Duration span = core::Duration::hours(1);
  bench::Checks checks;

  const bench::SntpRun wired_corr = bench::run_sntp_experiment(scenario(false, true, 41), span);
  const bench::SntpRun wired_free = bench::run_sntp_experiment(scenario(false, false, 42), span);
  const bench::SntpRun wless_corr = bench::run_sntp_experiment(scenario(true, true, 43), span);
  const bench::SntpRun wless_free = bench::run_sntp_experiment(scenario(true, false, 44), span);

  std::printf("\n-- with NTP clock correction (left panel) --\n");
  bench::print_offset_summary("wired + NTP correction", wired_corr.offsets_ms);
  bench::print_offset_summary("wireless + NTP correction", wless_corr.offsets_ms);
  std::printf("\n-- without NTP clock correction (right panel) --\n");
  bench::print_offset_summary("wired free-run", wired_free.offsets_ms);
  bench::print_offset_summary("wireless free-run", wless_free.offsets_ms);

  bench::plot_offsets(
      "SNTP offsets with correction (x: minutes, y: ms)",
      {{.label = "wired", .points = wired_corr.series, .marker = 'w'},
       {.label = "wireless", .points = wless_corr.series, .marker = 'X'}});
  bench::plot_offsets(
      "SNTP offsets without correction (x: minutes, y: ms)",
      {{.label = "wired", .points = wired_free.series, .marker = 'w'},
       {.label = "wireless", .points = wless_free.series, .marker = 'X'}});

  // Shape checks against the published moments.
  const auto s_wc = core::summarize(wired_corr.offsets_ms);
  const auto s_xc = core::summarize(wless_corr.offsets_ms);
  const auto s_wf = core::summarize(wired_free.offsets_ms);
  const auto s_xf = core::summarize(wless_free.offsets_ms);

  checks.expect(std::abs(s_wc.mean) < 10.0 && s_wc.stddev < 15.0,
                "wired+correction offsets near 0 (paper: mean 4, sd 7)");
  checks.expect(s_xc.stddev > 3.0 * s_wc.stddev,
                "wireless offsets far more variable than wired (corrected)");
  checks.expect_near(s_xc.mean, 31.0, 30.0,
                     "wireless+correction mean in the paper's band");
  checks.expect(core::max_abs(wless_corr.offsets_ms) > 250.0,
                "wireless+correction shows multi-hundred-ms spikes (paper: ~600)");
  checks.expect_near(s_xf.mean, 118.0, 60.0,
                     "wireless free-run mean in the paper's band");
  checks.expect(core::max_abs(wless_free.offsets_ms) >
                    core::max_abs(wired_free.offsets_ms) * 3.0,
                "free-run wireless spikes dwarf wired");
  // Wired free-run drift is steady: mean offset reflects the standing
  // error + drift, with modest sd.
  checks.expect(s_wf.stddev < 20.0,
                "wired free-run is a steady drift, not spiky");
  checks.expect(wless_corr.failures > wired_corr.failures,
                "wireless hop loses requests; wired barely does");
  int failures = checks.finish("Figure 4");
  if (!telemetry.finalize(core::TimePoint::epoch() + span)) ++failures;
  return failures;
}
