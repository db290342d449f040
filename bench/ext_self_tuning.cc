// Extension (paper §7 future work): self-tuning of MNTP parameters and
// the trade-off between performance and tuning, plus the perpetually
// unstable channel case deferred in §4.2.
//
//   A. Self-tuning: MNTP with the adaptation loop vs fixed cadences on
//      the accuracy/request frontier over 8 hours.
//   B. Unstable channel: paper-default MNTP starves when hints never
//      pass the thresholds; the max_deferral fallback keeps coarse time
//      flowing at a quantified accuracy cost.
//   C. Offline tuning baseline: capture a trace and grid-search it with
//      the tuner (parallelized via --threads N) — the offline frontier
//      the online self-tuner is trying to approach without a trace.
#include <algorithm>
#include <cstdio>

#include "common.h"
#include "mntp/mntp_client.h"
#include "mntp/self_tuning.h"
#include "mntp/tuner.h"

using namespace mntp;

namespace {

int self_tuning_tradeoff() {
  std::printf("== Extension A: self-tuning vs fixed cadences (8 h) ==\n");
  struct Row {
    std::string name;
    double rmse_ms;
    std::size_t requests;
    std::size_t adaptations;
  };
  std::vector<Row> rows;

  auto run = [&](const std::string& name, core::Duration regular_wait,
                 bool adapt) {
    ntp::TestbedConfig config;
    config.seed = 850;
    config.wireless = true;
    config.ntp_correction = true;
    ntp::Testbed bed(config);
    protocol::MntpParams params = protocol::head_to_head_params();
    params.regular_wait_time = regular_wait;
    protocol::MntpClient client(bed.sim(), bed.target_clock(), bed.pool(),
                                bed.channel(), params, bed.fork_rng());
    bed.start();
    client.start();
    protocol::SelfTuner tuner(bed.sim(), client, {});
    if (adapt) tuner.start();
    bed.sim().run_until(core::TimePoint::epoch() + core::Duration::hours(8));
    rows.push_back(Row{name, core::rmse(client.engine().accepted_offsets_ms()),
                       client.requests_sent(),
                       tuner.speedups() + tuner.backoffs()});
  };

  run("fixed 5 s", core::Duration::seconds(5), false);
  run("fixed 60 s", core::Duration::seconds(60), false);
  run("fixed 10 min", core::Duration::minutes(10), false);
  run("self-tuning (from 5 s)", core::Duration::seconds(5), true);

  core::TextTable table({"Cadence", "RMSE(ms)", "Requests", "Adaptations"});
  for (const Row& r : rows) {
    table.add_row({r.name, core::fmt_double(r.rmse_ms, 2),
                   core::fmt_int(static_cast<long long>(r.requests)),
                   core::fmt_int(static_cast<long long>(r.adaptations))});
  }
  std::printf("%s", table.render().c_str());

  bench::Checks checks;
  const Row& fast = rows[0];
  const Row& slow = rows[2];
  const Row& adaptive = rows[3];
  checks.expect(adaptive.requests < fast.requests / 2,
                "self-tuning sheds most of the fixed-fast request volume");
  checks.expect(adaptive.rmse_ms < slow.rmse_ms * 2.0 + 5.0,
                "self-tuning keeps accuracy near the frontier");
  checks.expect(adaptive.adaptations > 0, "the loop actually adapted");
  return checks.finish("Extension A (self-tuning)");
}

int unstable_channel() {
  std::printf("\n== Extension B: perpetually unstable channel ==\n");
  auto run = [&](core::Duration max_deferral) {
    ntp::TestbedConfig config;
    config.seed = 851;
    config.wireless = true;
    config.ntp_correction = true;
    // Noise floor pinned above the -70 dBm threshold: the gate never
    // opens on merit.
    config.channel.base_noise = core::Dbm{-67.0};
    ntp::Testbed bed(config);
    protocol::MntpParams params = protocol::head_to_head_params();
    params.max_deferral = max_deferral;
    protocol::MntpClient client(bed.sim(), bed.target_clock(), bed.pool(),
                                bed.channel(), params, bed.fork_rng());
    bed.start();
    client.start();
    bed.sim().run_until(core::TimePoint::epoch() + core::Duration::hours(2));
    return std::make_tuple(client.engine().accepted_offsets_ms(),
                           client.forced_emissions(), client.requests_sent());
  };

  const auto [paper_offsets, paper_forced, paper_requests] =
      run(core::Duration::zero());
  const auto [fb_offsets, fb_forced, fb_requests] =
      run(core::Duration::minutes(2));

  std::printf("  paper behaviour:   %zu requests, %zu accepted offsets\n",
              paper_requests, paper_offsets.size());
  std::printf("  with 2 min fallback: %zu requests (%zu forced), %zu accepted, "
              "RMSE %.2f ms\n",
              fb_requests, fb_forced, fb_offsets.size(),
              core::rmse(fb_offsets));

  bench::Checks checks;
  checks.expect(paper_offsets.size() < 5,
                "paper-default MNTP starves on a hint-hostile channel");
  checks.expect(fb_offsets.size() > 30,
                "the fallback keeps time samples flowing");
  checks.expect(fb_forced > 30, "emissions were indeed forced by the bound");
  checks.expect(core::rmse(fb_offsets) < 100.0,
                "degraded-channel samples still usable after filtering");
  return checks.finish("Extension B (unstable channel)");
}

int offline_grid_baseline(std::size_t threads) {
  std::printf("\n== Extension C: offline grid search baseline (%zu threads) ==\n",
              threads);

  // Capture a 2-hour trace on the same testbed family as Extension A.
  ntp::TestbedConfig config;
  config.seed = 852;
  config.wireless = true;
  config.ntp_correction = true;
  ntp::Testbed bed(config);
  protocol::tuner::Logger logger(bed.sim(), bed.target_clock(), bed.pool(),
                                 bed.channel(), {}, bed.fork_rng());
  bed.start();
  logger.start();
  bed.sim().run_until(core::TimePoint::epoch() + core::Duration::hours(2));
  logger.stop();
  const protocol::Trace& trace = logger.trace();
  std::printf("  captured %zu records over %.0f min\n", trace.size(),
              trace.span_s() / 60.0);

  // A modest grid around the head-to-head defaults: what should the
  // regular cadence have been, given the warm-up budget?
  protocol::tuner::SearchSpace space;
  space.base = protocol::head_to_head_params();
  space.warmup_periods = {core::Duration::minutes(30),
                          core::Duration::minutes(60)};
  space.warmup_wait_times = {core::Duration::seconds(15),
                             core::Duration::seconds(60)};
  space.regular_wait_times = {core::Duration::seconds(5),
                              core::Duration::seconds(60),
                              core::Duration::minutes(10)};
  space.reset_periods = {core::Duration::hours(4)};
  const auto entries =
      protocol::tuner::search(trace, space, {.threads = threads});
  const auto serial = protocol::tuner::search(trace, space);

  const auto best = std::min_element(
      entries.begin(), entries.end(),
      [](const auto& a, const auto& b) { return a.rmse_ms < b.rmse_ms; });
  std::printf("  offline-best config: %s\n", best->to_string().c_str());

  bench::Checks checks;
  checks.expect(entries.size() == 12, "grid fully enumerated");
  bool identical = serial.size() == entries.size();
  for (std::size_t i = 0; identical && i < serial.size(); ++i) {
    identical = serial[i].rmse_ms == entries[i].rmse_ms &&
                serial[i].requests == entries[i].requests;
  }
  checks.expect(identical, "parallel search matches serial bit-for-bit");
  checks.expect(best->rmse_ms < 50.0,
                "offline-tuned configuration reaches usable accuracy");
  return checks.finish("Extension C (offline grid baseline)");
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {{"--threads", "N"}}, false);
  const std::size_t threads = bench::parse_threads(argc, argv);
  int failures = 0;
  failures += self_tuning_tradeoff();
  failures += unstable_channel();
  failures += offline_grid_baseline(threads);
  return failures;
}
