// Extension: the full protocol family of the paper's §2 background —
// PTP (LAN, hardware and software timestamping), full NTP (WAN), and
// SNTP (WAN) — disciplining identical oscillators, compared on
// steady-state clock error.
//
// Expected hierarchy (and the reason each exists): PTP with hardware
// timestamps reaches the microsecond class on a LAN; software
// timestamping costs an order of magnitude; NTP holds low milliseconds
// across a jittery WAN; raw SNTP is at the mercy of every delay sample.
#include <cstdio>

#include "common.h"
#include "net/wired_link.h"
#include "ptp/ptp_nodes.h"

using namespace mntp;

namespace {

sim::OscillatorParams test_oscillator() {
  sim::OscillatorParams p;
  p.initial_offset_s = 0.03;
  p.constant_skew_ppm = 18.0;
  p.wander_ppm_per_sqrt_s = 0.01;
  return p;
}

/// Steady-state |clock error| stats over the second hour of a run.
struct Steady {
  core::Summary abs_error_ms;
};

Steady run_ptp(double timestamp_noise_s) {
  core::Rng rng(61);
  sim::Simulation sim;
  sim::DisciplinedClock clock(test_oscillator(), rng.fork());
  net::WiredLink m2s(net::WiredLinkParams::lan(), rng.fork());
  net::WiredLink s2m(net::WiredLinkParams::lan(), rng.fork());
  ptp::PtpMaster master(sim,
                        ptp::PtpMasterParams{.timestamp_noise_s = timestamp_noise_s},
                        rng.fork());
  ptp::PtpSlave slave(sim, clock,
                      ptp::PtpSlaveParams{.timestamp_noise_s = timestamp_noise_s, .servo = {}},
                      rng.fork());
  master.attach(slave, net::LinkPath({&m2s}), net::LinkPath({&s2m}));
  master.start();

  sim.run_until(core::TimePoint::epoch() + core::Duration::hours(1));
  std::vector<double> errors;
  for (int i = 0; i < 3600; i += 10) {
    sim.run_until(core::TimePoint::epoch() + core::Duration::hours(1) +
                  core::Duration::seconds(i));
    errors.push_back(std::abs(clock.offset_at(sim.now())) * 1e3);
  }
  return Steady{core::summarize(errors)};
}

Steady run_wan(bool full_ntp) {
  ntp::TestbedConfig config;
  config.seed = 62;
  config.wireless = false;
  config.monitor_active = false;
  config.ntp_correction = full_ntp;
  config.client_clock = test_oscillator();
  ntp::Testbed bed(config);

  ntp::SntpClientPolicy policy;
  policy.poll_interval = core::Duration::seconds(16);
  policy.update_clock = !full_ntp;  // raw SNTP steps every sample
  ntp::SntpClient sntp(bed.sim(), bed.target_clock(), bed.pool(),
                       bed.last_hop_up(), bed.last_hop_down(), policy);
  bed.start();
  if (!full_ntp) sntp.start();

  bed.sim().run_until(core::TimePoint::epoch() + core::Duration::hours(1));
  std::vector<double> errors;
  for (int i = 0; i < 3600; i += 10) {
    bed.sim().run_until(core::TimePoint::epoch() + core::Duration::hours(1) +
                        core::Duration::seconds(i));
    errors.push_back(std::abs(bed.true_clock_offset_ms()));
  }
  return Steady{core::summarize(errors)};
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {}, false);
  std::printf("== Extension: protocol family — PTP vs NTP vs SNTP ==\n");
  const Steady ptp_hw = run_ptp(100e-9);
  const Steady ptp_sw = run_ptp(50e-6);
  const Steady ntp_wan = run_wan(/*full_ntp=*/true);
  const Steady sntp_wan = run_wan(/*full_ntp=*/false);

  core::TextTable table(
      {"Protocol / setting", "mean|err|", "p90|err|", "max|err|"});
  auto add = [&](const char* name, const Steady& s) {
    auto fmt = [](double ms) {
      return ms < 0.1 ? core::fmt_double(ms * 1e3, 1) + " us"
                      : core::fmt_double(ms, 3) + " ms";
    };
    table.add_row({name, fmt(s.abs_error_ms.mean), fmt(s.abs_error_ms.p90),
                   fmt(s.abs_error_ms.max)});
  };
  add("PTP, LAN, hardware timestamps (1 Hz)", ptp_hw);
  add("PTP, LAN, software timestamps (1 Hz)", ptp_sw);
  add("NTP, WAN pool (16 s, 4 peers)", ntp_wan);
  add("SNTP, WAN pool (16 s, step each sample)", sntp_wan);
  std::printf("%s", table.render().c_str());

  bench::Checks checks;
  checks.expect(ptp_hw.abs_error_ms.mean < 0.1,
                "hardware-timestamped PTP reaches the sub-100us class");
  checks.expect(ptp_hw.abs_error_ms.mean < ptp_sw.abs_error_ms.mean,
                "hardware timestamping beats software timestamping");
  checks.expect(ptp_sw.abs_error_ms.mean < ntp_wan.abs_error_ms.mean,
                "LAN PTP (even software) beats WAN NTP");
  checks.expect(ntp_wan.abs_error_ms.mean < sntp_wan.abs_error_ms.mean,
                "full NTP beats raw SNTP on the same WAN");
  return checks.finish("Protocol family");
}
