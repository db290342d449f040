// Extension (paper §7 future work): "build a reference NTP implementation
// and perform an exhaustive benchmarking of MNTP against SNTP and NTP in
// terms of metrics like processor and battery performance".
//
// Four correction strategies run the same drifting phone-grade clock over
// the same wireless conditions for six hours, each on its own identically
// seeded testbed:
//   * SNTP  — steps the clock with every reported offset (no filtering);
//   * NTP   — the reference client (filter/select/cluster/combine + PLL);
//   * MNTP  — full algorithm, corrections applied to the clock;
//   * GPS   — periodic fixes, urban availability.
// Metrics: true clock error (oracle), request volume, radio/GPS energy
// via the RRC-tail model, and radio-on time. Also §3.4's discussion,
// quantified: GPS is accurate but energy-hungry and availability-bound;
// NTP is tight but chatty; MNTP approaches NTP accuracy at a fraction of
// the traffic.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common.h"
#include "device/energy.h"
#include "device/gps.h"
#include "mntp/mntp_client.h"
#include "ntp/sntp_client.h"

using namespace mntp;

namespace {

constexpr std::uint64_t kSeed = 777;
const core::Duration kSpan = core::Duration::hours(6);
const core::Duration kSampleEvery = core::Duration::seconds(30);

ntp::TestbedConfig base_config(bool ntp_correction,
                               std::uint64_t seed = kSeed) {
  ntp::TestbedConfig config;
  config.seed = seed;
  config.wireless = true;
  config.ntp_correction = ntp_correction;
  // Phone-grade oscillator (worse than the laptop default).
  config.client_clock.constant_skew_ppm = 12.0;
  config.client_clock.wander_ppm_per_sqrt_s = 0.05;
  config.client_clock.temp_amplitude_ppm = 2.0;
  return config;
}

struct Outcome {
  std::string name;
  core::Summary abs_error_ms;
  double worst_ms = 0.0;
  std::size_t requests = 0;
  double energy_j = 0.0;
  double radio_on_min = 0.0;
};

Outcome sample_clock_error(const std::string& name,
                           std::vector<double>* errors) {
  Outcome o;
  o.name = name;
  for (double& e : *errors) e = std::abs(e);
  o.abs_error_ms = core::summarize(*errors);
  o.worst_ms = o.abs_error_ms.max;
  return o;
}

template <typename StepFn>
std::vector<double> drive(ntp::Testbed& bed, StepFn&& per_step) {
  std::vector<double> errors;
  core::TimePoint t = core::TimePoint::epoch();
  while (t < core::TimePoint::epoch() + kSpan) {
    t += kSampleEvery;
    bed.sim().run_until(t);
    errors.push_back(bed.true_clock_offset_ms());
    per_step();
  }
  return errors;
}

Outcome run_sntp(std::uint64_t seed = kSeed) {
  ntp::Testbed bed(base_config(false, seed));
  ntp::SntpClientPolicy policy;
  policy.poll_interval = core::Duration::seconds(64);
  policy.update_clock = true;  // raw SNTP semantics: trust every sample
  ntp::SntpClient client(bed.sim(), bed.target_clock(), bed.pool(),
                         bed.last_hop_up(), bed.last_hop_down(), policy);
  device::EnergyAccountant energy;
  client.set_on_sample([&](const ntp::SntpSample& s) {
    energy.on_exchange(s.completed_at, 152);
  });
  bed.start();
  client.start();
  auto errors = drive(bed, [] {});
  Outcome o = sample_clock_error("SNTP (64 s, step every sample)", &errors);
  o.requests = client.polls();
  o.energy_j = energy.total_mj(bed.sim().now()) / 1e3;
  o.radio_on_min = energy.radio_on_time(bed.sim().now()).to_seconds() / 60.0;
  return o;
}

Outcome run_ntp(std::uint64_t seed = kSeed) {
  ntp::Testbed bed(base_config(true, seed));  // testbed runs the reference client
  device::EnergyAccountant energy;
  bed.start();
  std::size_t rounds = 0;
  auto errors = drive(bed, [&] {});
  // 4 peers polled every 16 s: reconstruct the exchange schedule for the
  // energy model (all four land in one radio window per round).
  core::TimePoint t = core::TimePoint::epoch();
  while (t < core::TimePoint::epoch() + kSpan) {
    for (int peer = 0; peer < 4; ++peer) energy.on_exchange(t, 152);
    ++rounds;
    t += core::Duration::seconds(16);
  }
  Outcome o = sample_clock_error("NTP (reference, 4 peers @16 s)", &errors);
  o.requests = rounds * 4;
  o.energy_j = energy.total_mj(bed.sim().now()) / 1e3;
  o.radio_on_min = energy.radio_on_time(bed.sim().now()).to_seconds() / 60.0;
  return o;
}

Outcome run_mntp(std::uint64_t seed = kSeed) {
  ntp::Testbed bed(base_config(false, seed));
  protocol::MntpParams params;
  params.warmup_period = core::Duration::minutes(15);
  params.warmup_wait_time = core::Duration::seconds(15);
  params.regular_wait_time = core::Duration::minutes(2);
  params.reset_period = core::Duration::hours(12);
  params.apply_corrections_to_clock = true;
  protocol::MntpClient client(bed.sim(), bed.target_clock(), bed.pool(),
                              bed.channel(), params, bed.fork_rng());
  bed.start();
  client.start();
  auto errors = drive(bed, [] {});
  Outcome o = sample_clock_error("MNTP (full, corrections applied)", &errors);
  o.requests = client.requests_sent();
  device::EnergyAccountant energy;
  for (const auto& h : client.hint_log()) {
    if (h.emitted) energy.on_exchange(h.hints.when, 152);
  }
  o.energy_j = energy.total_mj(bed.sim().now()) / 1e3;
  o.radio_on_min = energy.radio_on_time(bed.sim().now()).to_seconds() / 60.0;
  return o;
}

Outcome run_gps(std::uint64_t seed = kSeed) {
  ntp::Testbed bed(base_config(false, seed));
  device::GpsParams gps_params;  // urban availability defaults
  device::GpsTimeSource gps(bed.sim(), bed.target_clock(), gps_params,
                            bed.fork_rng());
  bed.start();
  gps.start();
  auto errors = drive(bed, [] {});
  Outcome o = sample_clock_error("GPS (10 min fixes, urban sky)", &errors);
  o.requests = gps.attempts();
  o.energy_j = gps.energy_mj() / 1e3;
  o.radio_on_min = 0.0;  // GPS receiver, not the cellular radio
  return o;
}

/// One replicate for the multi-seed mode: all four strategies on the
/// same derived seed, flattened to strategy-prefixed metrics.
std::vector<mntp::sim::MetricValue> run_replicate(std::uint64_t seed) {
  const Outcome outcomes[] = {run_sntp(seed), run_ntp(seed), run_mntp(seed),
                              run_gps(seed)};
  const char* prefixes[] = {"sntp", "ntp", "mntp", "gps"};
  std::vector<mntp::sim::MetricValue> metrics;
  for (std::size_t i = 0; i < 4; ++i) {
    const Outcome& o = outcomes[i];
    const std::string p = prefixes[i];
    metrics.push_back({p + ".mean_err_ms", o.abs_error_ms.mean});
    metrics.push_back({p + ".p90_err_ms", o.abs_error_ms.p90});
    metrics.push_back({p + ".worst_ms", o.worst_ms});
    metrics.push_back({p + ".requests", static_cast<double>(o.requests)});
    metrics.push_back({p + ".energy_j", o.energy_j});
  }
  return metrics;
}

/// Multi-seed mode (`--replicates K --threads N`): the single-run shape
/// checks, applied to medians across K independent realizations.
int run_replicated(const mntp::bench::ReplicateCli& cli) {
  using mntp::sim::ReplicateReport;
  mntp::sim::ReplicationRunner runner({cli.replicates, cli.threads});
  const ReplicateReport report =
      runner.run(kSeed, [](std::uint64_t seed, std::size_t) {
        return run_replicate(seed);
      });
  mntp::bench::print_replicate_report(report);

  mntp::bench::Checks checks;
  checks.expect(report.median("ntp.mean_err_ms") <
                    report.median("sntp.mean_err_ms"),
                "reference NTP beats raw SNTP on accuracy (medians)");
  checks.expect(report.median("mntp.mean_err_ms") <
                    report.median("sntp.mean_err_ms") / 2.0,
                "MNTP far more accurate than raw SNTP (medians)");
  checks.expect(report.median("mntp.requests") <
                    report.median("ntp.requests") / 2.0,
                "MNTP needs a fraction of NTP's traffic (medians)");
  checks.expect(report.median("mntp.energy_j") <
                    report.median("ntp.energy_j") / 2.0,
                "MNTP burns a fraction of NTP's radio energy (medians)");
  checks.expect(report.median("mntp.p90_err_ms") <
                    report.median("ntp.p90_err_ms") * 4.0,
                "MNTP accuracy in NTP's neighbourhood (medians)");
  checks.expect(report.median("gps.worst_ms") > report.median("mntp.worst_ms"),
                "duty-cycled GPS pays in worst-case error (medians)");
  return checks.finish("Three-way comparison (+GPS, replicated)");
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {{"--replicates", "K"}, {"--threads", "N"}},
                     false);
  std::printf("== Extension: SNTP vs NTP vs MNTP vs GPS (6 h, same channel) ==\n");
  const mntp::bench::ReplicateCli cli =
      mntp::bench::parse_replicate_cli(argc, argv);
  if (cli.replicates > 1) return run_replicated(cli);
  const Outcome outcomes[] = {run_sntp(), run_ntp(), run_mntp(), run_gps()};

  core::TextTable table({"Strategy", "mean|err|(ms)", "p90|err|(ms)",
                         "worst|err|(ms)", "Requests", "Energy(J)",
                         "RadioOn(min)"});
  for (const Outcome& o : outcomes) {
    table.add_row({o.name, core::fmt_double(o.abs_error_ms.mean, 2),
                   core::fmt_double(o.abs_error_ms.p90, 2),
                   core::fmt_double(o.worst_ms, 2),
                   core::fmt_int(static_cast<long long>(o.requests)),
                   core::fmt_double(o.energy_j, 1),
                   core::fmt_double(o.radio_on_min, 1)});
  }
  std::printf("%s", table.render().c_str());

  const Outcome& sntp = outcomes[0];
  const Outcome& ntp_o = outcomes[1];
  const Outcome& mntp_o = outcomes[2];
  const Outcome& gps = outcomes[3];

  bench::Checks checks;
  checks.expect(ntp_o.abs_error_ms.mean < sntp.abs_error_ms.mean,
                "reference NTP beats raw SNTP on accuracy");
  checks.expect(mntp_o.abs_error_ms.mean < sntp.abs_error_ms.mean / 2.0,
                "MNTP far more accurate than raw SNTP");
  checks.expect(mntp_o.requests < ntp_o.requests / 2,
                "MNTP needs a fraction of NTP's traffic");
  checks.expect(mntp_o.energy_j < ntp_o.energy_j / 2,
                "MNTP burns a fraction of NTP's radio energy (the §3.4 concern)");
  checks.expect(mntp_o.abs_error_ms.p90 < ntp_o.abs_error_ms.p90 * 4.0,
                "MNTP accuracy in NTP's neighbourhood despite the budget gap");
  checks.expect(gps.abs_error_ms.mean < sntp.abs_error_ms.mean,
                "GPS fixes beat raw SNTP when available");
  // The paper's energy objection targets continuous GPS (~400 mW); a
  // 10-minute duty cycle is cheap but pays for it in availability-bound
  // tail accuracy. Quantify both sides.
  const double continuous_gps_j = 0.4 * kSpan.to_seconds();
  std::printf("  (continuous GPS at 400 mW over this run would cost %.0f J)\n",
              continuous_gps_j);
  checks.expect(continuous_gps_j > mntp_o.energy_j,
                "continuous GPS dwarfs MNTP's energy (the paper's objection)");
  checks.expect(gps.worst_ms > mntp_o.worst_ms,
                "duty-cycled GPS pays in worst-case error (availability gaps)");
  return checks.finish("Three-way comparison (+GPS)");
}
