// Table 2 + Figure 11: the MNTP tuner — trace-driven parameter search.
//
// Reproduction: capture a 4-hour trace with the tuner's logger (SNTP
// offsets from 3 reference clocks every 5 s plus wireless hints, on the
// standard interference testbed with an NTP-corrected clock), replay the
// paper's six sample configurations through the emulator, print the
// Table 2 rows (RMSE of reported offsets vs a perfect clock, request
// count), then run a broader grid search with the searcher.
//
// Paper shape: RMSE falls from 13.08 ms (config 1, 239 requests) to
// 8.9 ms (config 6, 2913 requests) — more tuning requests buy accuracy,
// but MNTP "performs well with only modest tuning".
#include <algorithm>
#include <cstdio>

#include "common.h"
#include "mntp/tuner.h"

using namespace mntp;

namespace {

protocol::MntpParams paper_config(double warmup_min, double wwait_min,
                                  double rwait_min, double reset_min) {
  protocol::MntpParams p;
  p.warmup_period = core::Duration::from_seconds(warmup_min * 60);
  p.warmup_wait_time = core::Duration::from_seconds(wwait_min * 60);
  p.regular_wait_time = core::Duration::from_seconds(rwait_min * 60);
  p.reset_period = core::Duration::from_seconds(reset_min * 60);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {{"--threads", "N"}});
  bench::BenchTelemetry telemetry("table2_fig11_tuner", argc, argv);
  const std::size_t threads = bench::parse_threads(argc, argv);
  std::printf("== Table 2 / Figure 11: MNTP tuner ==\n");
  std::printf("searcher threads: %zu\n", threads);

  // 1. Capture the trace (logger component).
  ntp::TestbedConfig config;
  config.seed = 11;
  config.wireless = true;
  config.ntp_correction = true;
  ntp::Testbed bed(config);
  protocol::tuner::Logger logger(bed.sim(), bed.target_clock(), bed.pool(),
                                 bed.channel(), {}, bed.fork_rng());
  bed.start();
  logger.start();
  bed.sim().run_until(core::TimePoint::epoch() + core::Duration::hours(4));
  logger.stop();
  const protocol::Trace& trace = logger.trace();
  std::printf("captured trace: %zu records over %.0f min\n", trace.size(),
              trace.span_s() / 60.0);

  // 2. The paper's six sample configurations (Table 2).
  struct PaperRow {
    double warmup, wwait, rwait, reset, rmse;
    std::size_t requests;
  };
  const PaperRow paper_rows[] = {
      {30, 0.25, 15, 240, 13.08, 239},  {40, 0.25, 15, 240, 11.66, 316},
      {50, 0.25, 15, 240, 11.09, 387},  {70, 0.25, 30, 240, 10.86, 534},
      {90, 0.084, 15, 240, 9.27, 1210}, {240, 0.084, 15, 240, 8.90, 2913},
  };

  core::TextTable table({"Cfg", "warmup(min)", "wwait(min)", "rwait(min)",
                         "reset(min)", "RMSE(ms)", "RMSE(paper)", "Requests",
                         "Req(paper)"});
  std::vector<double> rmse_measured;
  std::vector<std::size_t> requests_measured;
  std::vector<core::Series> fig11;
  int cfg_no = 1;
  for (const PaperRow& row : paper_rows) {
    const auto params = paper_config(row.warmup, row.wwait, row.rwait, row.reset);
    const auto result = protocol::tuner::emulate(trace, params);
    rmse_measured.push_back(result.rmse_ms);
    requests_measured.push_back(result.requests);
    table.add_row({core::fmt_int(cfg_no), core::fmt_double(row.warmup, 1),
                   core::fmt_double(row.wwait, 3), core::fmt_double(row.rwait, 1),
                   core::fmt_double(row.reset, 0),
                   core::fmt_double(result.rmse_ms, 2),
                   core::fmt_double(row.rmse, 2),
                   core::fmt_int(static_cast<long long>(result.requests)),
                   core::fmt_int(static_cast<long long>(row.requests))});
    // Figure 11: achievable offset values per configuration.
    if (cfg_no == 1 || cfg_no == 6) {
      core::Series s;
      s.label = "config " + std::to_string(cfg_no) + " reported offsets (ms)";
      s.marker = cfg_no == 1 ? '1' : '6';
      double i = 0;
      for (double off : result.reported_offsets_ms) {
        s.points.emplace_back(i++, off);
      }
      fig11.push_back(std::move(s));
    }
    ++cfg_no;
  }
  std::printf("%s", table.render().c_str());
  bench::plot_offsets(
      "Figure 11: reported offsets per configuration (x: sample #, y: ms)",
      fig11);

  // 3. Broader sweep with the searcher.
  protocol::tuner::SearchSpace space;
  space.warmup_periods = {core::Duration::minutes(30), core::Duration::minutes(60),
                          core::Duration::minutes(120)};
  space.warmup_wait_times = {core::Duration::seconds(15),
                             core::Duration::seconds(60)};
  space.regular_wait_times = {core::Duration::minutes(5),
                              core::Duration::minutes(15),
                              core::Duration::minutes(30)};
  space.reset_periods = {core::Duration::hours(4)};
  auto entries =
      protocol::tuner::search(trace, space, {.threads = threads});
  // The parallel searcher guarantees bit-identical output to the serial
  // path; cross-check it on the real grid whenever threads were asked for.
  bool parallel_matches_serial = true;
  if (threads > 1) {
    const auto serial = protocol::tuner::search(trace, space);
    parallel_matches_serial = serial.size() == entries.size();
    for (std::size_t i = 0; parallel_matches_serial && i < serial.size(); ++i) {
      parallel_matches_serial = serial[i].rmse_ms == entries[i].rmse_ms &&
                                serial[i].requests == entries[i].requests &&
                                serial[i].to_string() == entries[i].to_string();
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.rmse_ms < b.rmse_ms; });
  std::printf("\n-- searcher sweep (%zu configurations, best first) --\n",
              entries.size());
  for (const auto& e : entries) {
    std::printf("  %s\n", e.to_string().c_str());
  }

  // Shape checks.
  bench::Checks checks;
  checks.expect(requests_measured.back() > requests_measured.front() * 4,
                "config 6 issues far more requests than config 1");
  bool requests_monotone = true;
  for (std::size_t i = 1; i < requests_measured.size(); ++i) {
    requests_monotone &= requests_measured[i] > requests_measured[i - 1];
  }
  checks.expect(requests_monotone,
                "request count grows across the six configs (paper: 239 -> 2913)");
  const double worst_rmse =
      *std::max_element(rmse_measured.begin(), rmse_measured.end());
  const double best_rmse =
      *std::min_element(rmse_measured.begin(), rmse_measured.end());
  // Our simulated trace is cleaner than the authors' live capture, so the
  // RMSE-vs-requests slope is flatter; the claims that survive are that
  // every config lands in a tight, modest band ("MNTP performs well with
  // only modest tuning") and the spread between configs stays small
  // (paper: 8.9 vs 13.08 ms, a 1.5x spread).
  checks.expect(worst_rmse < 40.0,
                "worst-config RMSE still modest (paper: 13 ms)");
  checks.expect(worst_rmse / std::max(best_rmse, 1e-9) < 3.0,
                "config spread small (paper: 1.5x between best and worst)");
  checks.expect(entries.size() == 18, "searcher enumerated the full grid");
  checks.expect(parallel_matches_serial,
                "parallel search output identical to serial enumeration");
  int failures = checks.finish("Table 2 / Figure 11");
  if (!telemetry.finalize(core::TimePoint::epoch() + core::Duration::hours(4))) ++failures;
  return failures;
}
