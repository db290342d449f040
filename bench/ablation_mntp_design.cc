// Ablation studies of MNTP's design choices (DESIGN.md §4):
//
//   A. Gate vs filter — run MNTP with the channel gate disabled (accept
//      all channel states), with the trend filter disabled (accept all
//      offsets), and with both; compare against the full protocol. Shows
//      the two mechanisms are complementary, as §5.1 argues.
//   B. Drift re-estimation (§5.3 refinement) — without per-sample
//      re-estimation the filter underestimates drift and starves the
//      regular phase.
//   C. Multi-source warm-up — 1 vs 3 warm-up sources against a pool with
//      a false ticker: the mean+sd vote needs the fan-out.
#include <cstdio>
#include <utility>

#include "common.h"
#include "mntp/false_ticker.h"
#include "ntp/selection.h"

using namespace mntp;

namespace {

int ablation_gate_vs_filter() {
  std::printf("\n== Ablation A: channel gate vs trend filter ==\n");
  const core::Duration span = core::Duration::hours(1);

  auto run_with = [&](bool gate, bool filter) {
    ntp::TestbedConfig config;
    config.seed = 70;
    config.wireless = true;
    config.ntp_correction = true;
    protocol::MntpParams params = protocol::head_to_head_params();
    if (!gate) {
      // Thresholds no real channel can fail.
      params.thresholds.min_rssi = core::Dbm{-200.0};
      params.thresholds.max_noise = core::Dbm{100.0};
      params.thresholds.min_snr_margin = core::Decibels{-100.0};
    }
    bench::MntpRun r = bench::run_mntp_experiment(config, params, span);
    if (!filter) {
      // "Filter off" variant: count every offset (accepted + rejected) as
      // reported, as plain gating-only MNTP would.
      r.accepted_ms.insert(r.accepted_ms.end(), r.rejected_ms.begin(),
                           r.rejected_ms.end());
    }
    return r;
  };

  const auto full = run_with(true, true);
  const auto no_gate = run_with(false, true);
  const auto no_filter = run_with(true, false);
  const auto neither = run_with(false, false);

  core::TextTable table({"Variant", "Samples", "RMSE(ms)", "max|off|(ms)",
                         "Deferrals", "Rejections"});
  auto add = [&](const char* name, const bench::MntpRun& r) {
    table.add_row({name, core::fmt_int(static_cast<long long>(r.accepted_ms.size())),
                   core::fmt_double(core::rmse(r.accepted_ms), 2),
                   core::fmt_double(core::max_abs(r.accepted_ms), 1),
                   core::fmt_int(static_cast<long long>(r.deferrals)),
                   core::fmt_int(static_cast<long long>(r.rejected_ms.size()))});
  };
  add("full MNTP (gate + filter)", full);
  add("filter only (gate off)", no_gate);
  add("gate only (filter off)", no_filter);
  add("neither (SNTP-equivalent)", neither);
  std::printf("%s", table.render().c_str());

  bench::Checks checks;
  checks.expect(core::rmse(full.accepted_ms) <= core::rmse(neither.accepted_ms),
                "full MNTP no worse than the unprotected baseline");
  checks.expect(core::max_abs(full.accepted_ms) <
                    core::max_abs(neither.accepted_ms),
                "both mechanisms together tame the max offset");
  checks.expect(core::max_abs(no_gate.accepted_ms) <
                    core::max_abs(neither.accepted_ms),
                "the filter alone already rejects spikes");
  checks.expect(core::max_abs(no_filter.accepted_ms) <
                    core::max_abs(neither.accepted_ms),
                "the gate alone already avoids bad-channel samples");
  return checks.finish("Ablation A (gate vs filter)");
}

int ablation_drift_reestimation() {
  std::printf("\n== Ablation B: drift re-estimation each sample (the §5.3 fix) ==\n");
  ntp::TestbedConfig config;
  config.seed = 71;
  config.wireless = true;
  config.ntp_correction = false;
  // A wandering oscillator makes the early drift estimate go stale.
  config.client_clock.wander_ppm_per_sqrt_s = 0.12;

  protocol::MntpParams with_fix = protocol::head_to_head_params();
  with_fix.reestimate_drift_each_sample = true;
  protocol::MntpParams without_fix = with_fix;
  without_fix.reestimate_drift_each_sample = false;

  const auto span = core::Duration::hours(3);
  const auto fixed = bench::run_mntp_experiment(config, with_fix, span);
  const auto frozen = bench::run_mntp_experiment(config, without_fix, span);

  std::printf("  with re-estimation:    %zu accepted, %zu rejected\n",
              fixed.accepted_ms.size(), fixed.rejected_ms.size());
  std::printf("  without re-estimation: %zu accepted, %zu rejected\n",
              frozen.accepted_ms.size(), frozen.rejected_ms.size());

  bench::Checks checks;
  checks.expect(fixed.accepted_ms.size() > frozen.accepted_ms.size(),
                "re-estimation keeps accepting as the skew wanders");
  checks.expect(frozen.rejected_ms.size() > fixed.rejected_ms.size(),
                "a frozen trend rejects progressively more samples "
                "(the failure the tuner uncovered)");
  return checks.finish("Ablation B (drift re-estimation)");
}

int ablation_multisource() {
  std::printf("\n== Ablation C: warm-up fan-out vs a false ticker ==\n");
  auto run_with_sources = [](std::size_t sources) {
    ntp::TestbedConfig config;
    config.seed = 72;
    config.wireless = false;  // isolate the voting logic
    config.ntp_correction = false;
    config.pool.false_ticker_count = 2;
    config.pool.false_ticker_offset_s = 0.4;
    protocol::MntpParams params;
    params.warmup_period = core::Duration::minutes(20);
    params.warmup_wait_time = core::Duration::seconds(10);
    params.regular_wait_time = core::Duration::seconds(30);
    params.reset_period = core::Duration::hours(12);
    params.warmup_sources = sources;
    params.min_warmup_samples = 10;
    return bench::run_mntp_experiment(config, params,
                                      core::Duration::minutes(40));
  };
  const auto one = run_with_sources(1);
  const auto three = run_with_sources(3);

  bench::print_offset_summary("warm-up with 1 source", one.accepted_ms);
  bench::print_offset_summary("warm-up with 3 sources", three.accepted_ms);

  bench::Checks checks;
  // With one source there is no vote: 400 ms ticker offsets pollute the
  // accepted set (the bootstrap accepts unconditionally). With three, the
  // mean+sd vote strips them.
  checks.expect(core::max_abs(three.accepted_ms) < 150.0,
                "3-source warm-up keeps ticker offsets out");
  checks.expect(core::max_abs(one.accepted_ms) >
                    core::max_abs(three.accepted_ms),
                "1-source warm-up is measurably worse against false tickers");
  return checks.finish("Ablation C (multi-source warm-up)");
}

int ablation_vote_vs_marzullo() {
  // The paper's warm-up vote is the lightweight cousin of NTP's
  // intersection algorithm; quantify what the simplification costs.
  // Feed both the same synthetic multi-source rounds — k honest offsets
  // near a small true value plus f false tickers at +-350 ms — and
  // measure the combined-offset error each mitigation produces.
  std::printf("\n== Ablation D: mean+sd vote vs Marzullo intersection ==\n");
  core::Rng rng(73);
  core::TextTable table({"Sources", "Tickers", "vote err(ms)",
                         "marzullo err(ms)", "vote failures",
                         "marzullo failures"});
  bench::Checks checks;
  for (const auto& [k, f] : {std::pair{3, 1}, std::pair{5, 1}, std::pair{5, 2},
                             std::pair{7, 3}}) {
    core::RunningStats vote_err, marzullo_err;
    std::size_t vote_bad = 0, marzullo_bad = 0;
    const int rounds = 2000;
    for (int round = 0; round < rounds; ++round) {
      const double truth = rng.normal(0.0, 0.002);
      std::vector<double> offsets;
      std::vector<ntp::PeerEstimate> peers;
      for (int i = 0; i < k; ++i) {
        const bool ticker = i >= k - f;
        const double off =
            ticker ? (rng.bernoulli(0.5) ? 0.35 : -0.35) + rng.normal(0, 0.003)
                   : truth + rng.normal(0.0, 0.003);
        offsets.push_back(off);
        ntp::PeerEstimate e;
        e.offset = core::Duration::from_seconds(off);
        e.delay = core::Duration::from_millis(rng.uniform(20, 60));
        e.dispersion = core::Duration::from_millis(2);
        e.jitter_s = 3e-3;
        peers.push_back(e);
      }
      // Paper's vote.
      const auto survivors = protocol::reject_false_tickers(offsets);
      const double vote =
          protocol::combine_surviving_offsets(offsets, survivors);
      vote_err.add(std::abs(vote - truth) * 1e3);
      if (std::abs(vote - truth) > 0.1) ++vote_bad;
      // Full mitigation.
      auto chimers = ntp::select_truechimers(peers);
      if (chimers.empty()) {
        ++marzullo_bad;
      } else {
        chimers = ntp::cluster_survivors(peers, std::move(chimers), {});
        const double combined =
            ntp::combine_offsets(peers, chimers).to_seconds();
        marzullo_err.add(std::abs(combined - truth) * 1e3);
        if (std::abs(combined - truth) > 0.1) ++marzullo_bad;
      }
    }
    table.add_row({core::fmt_int(k), core::fmt_int(f),
                   core::fmt_double(vote_err.mean(), 3),
                   core::fmt_double(marzullo_err.mean(), 3),
                   core::fmt_int(static_cast<long long>(vote_bad)),
                   core::fmt_int(static_cast<long long>(marzullo_bad))});
    if (f * 2 < k) {
      checks.expect(marzullo_err.mean() < 5.0,
                    "Marzullo near-exact with a ticker minority");
    }
    if (k == 3 && f == 1) {
      // The headline case (the paper queries 3 sources): the lightweight
      // vote must also strip the ticker almost always.
      checks.expect(static_cast<double>(vote_bad) / rounds < 0.02,
                    "mean+sd vote strips 1-of-3 tickers in >98% of rounds");
    }
  }
  std::printf("%s", table.render().c_str());
  checks.expect(true, "see table: the vote trades worst-case robustness "
                      "(ticker majorities) for 274-lines-of-python simplicity");
  return checks.finish("Ablation D (vote vs Marzullo)");
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {});
  bench::BenchTelemetry telemetry("ablation_mntp_design", argc, argv);
  int failures = 0;
  failures += ablation_gate_vs_filter();
  failures += ablation_drift_reestimation();
  failures += ablation_multisource();
  failures += ablation_vote_vs_marzullo();
  if (!telemetry.finalize(core::TimePoint::epoch())) ++failures;
  return failures;
}
