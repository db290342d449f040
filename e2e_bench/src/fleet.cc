// e2e_fleet: 10^6 paper-calibrated clients through ClientFleet::build and
// Simulator::run — the §3.1 server's-eye path (Phase A client sampling,
// gather+sort, the Phase B server pipeline). No sim, net or mntp code
// runs here.
//
// Untraced: build the fleet several times (set-up), then repeat the
// 1-thread run for the measuring window. The threaded run is not timed
// here: on a shared 4-vCPU host its wall time for identical work swings
// 0.6-2.0 s with contention that no reference loop tracks, while the
// 1-thread run corrects to a few percent. Traced: per cycle, a build, the
// run at min(4, nproc) threads untraced and traced, the 1-thread leg, a
// threaded leg with the obs registry off, and an isolation leg that feeds
// ServerFleet::process_slice per-server batches sized from the run's
// measured per-server arrivals; the thread-pool layer is measured there.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "fleet/client_fleet.h"
#include "fleet/owd_collector.h"
#include "fleet/params.h"
#include "fleet/server_fleet.h"
#include "fleet/simulator.h"
#include "harness.h"
#include "logs/spec.h"
#include "obs/telemetry.h"

namespace e2e {
namespace {

using namespace mntp;

constexpr std::uint64_t kClients = 1'000'000;
constexpr double kDurationS = 300.0;

fleet::FleetParams fleet_params(std::uint64_t seed) {
  fleet::FleetParams p;
  p.clients = kClients;
  p.duration_s = kDurationS;
  p.seed = seed;
  return p;
}

std::size_t fleet_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

using FleetPtr = std::shared_ptr<const fleet::ClientFleet>;

FleetPtr build_fleet(std::uint64_t seed) {
  return std::make_shared<const fleet::ClientFleet>(
      fleet::ClientFleet::build(fleet_params(seed)));
}

bool same_fleet(const fleet::ClientFleet& a, const fleet::ClientFleet& b) {
  return a.size() == b.size() && a.traits() == b.traits() &&
         a.server() == b.server() && a.base_owd_ms() == b.base_owd_ms() &&
         a.init_next_poll_ns() == b.init_next_poll_ns();
}

struct Run {
  fleet::FleetResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// One Simulator::run under its own telemetry context.
Run run_fleet_once(const FleetPtr& fleet, std::uint64_t seed,
                   std::size_t threads, bool obs_enabled,
                   bool profiled = false) {
  obs::Telemetry telemetry;
  telemetry.set_enabled(obs_enabled);
  telemetry.profiler().set_enabled(profiled);
  obs::ScopedTelemetry scope(telemetry);
  fleet::Simulator sim(fleet, fleet_params(seed));
  Run run;
  const double cpu0 = process_cpu_s();
  run.wall_s = timed([&] { run.result = sim.run(threads); });
  run.cpu_s = process_cpu_s() - cpu0;
  return run;
}

void check_ledger(const fleet::FleetResult& r, Checks& checks) {
  std::uint64_t server_sum = 0;
  for (const std::uint64_t n : r.server_requests) server_sum += n;
  checks.expect(r.queries == r.arrived + r.dropped,
                "ledger: queries == arrived + dropped");
  checks.expect(server_sum == r.arrived,
                "ledger: sum(server requests) == arrived");
  checks.expect(r.cache_hits + r.cache_misses == r.arrived - r.kod,
                "ledger: cache hits + misses == arrived - kod");
  checks.expect(r.owd.valid + r.owd.invalid == r.arrived - r.kod,
                "ledger: owd valid + invalid == arrived - kod");
  std::array<double, 4> p50{};
  for (std::size_t c = 0; c < 4; ++c) p50[c] = r.owd.by_category[c].quantile(0.5);
  checks.expect(p50[0] < p50[1] && p50[1] < p50[2] && p50[2] < p50[3],
                "OWD medians: cloud < isp < broadband < mobile (Fig 1)");
}

/// Largest |client share - Table 1 unique-client share| over the servers,
/// percentage points.
double table1_share_err_pp(const fleet::ClientFleet& fleet) {
  std::array<double, logs::kPaperServers.size()> clients{};
  for (const std::uint16_t s : fleet.server()) clients[s] += 1.0;
  double paper_total = 0.0;
  for (const auto& spec : logs::kPaperServers) paper_total += spec.unique_clients;
  double worst = 0.0;
  for (std::size_t s = 0; s < clients.size(); ++s) {
    const double sim = clients[s] / static_cast<double>(fleet.size());
    const double paper = logs::kPaperServers[s].unique_clients / paper_total;
    worst = std::max(worst, 100.0 * std::fabs(sim - paper));
  }
  return worst;
}

/// Isolation leg: the Phase B server pipeline alone. Each slice feeds
/// every server a batch sized from the run's measured arrivals for that
/// server (uniform arrival times, clients drawn from its home set),
/// sorted into canonical order, through ServerFleet::process_slice.
struct ServerIsolation {
  double process_s = 0.0;      ///< all servers, all slices
  double hot_process_s = 0.0;  ///< the busiest server, all slices
  double sort_s = 0.0;
  std::uint64_t slices = 0;
};

ServerIsolation isolate_servers(const fleet::ClientFleet& fleet,
                                const fleet::FleetResult& run,
                                std::uint64_t seed) {
  const fleet::FleetParams params = fleet_params(seed);
  const std::size_t servers = logs::kPaperServers.size();
  std::vector<std::vector<std::uint32_t>> homed(servers);
  for (std::uint64_t i = 0; i < fleet.size(); ++i) {
    homed[fleet.server()[i]].push_back(static_cast<std::uint32_t>(i));
  }
  const auto hot = static_cast<std::size_t>(
      std::max_element(run.server_requests.begin(), run.server_requests.end()) -
      run.server_requests.begin());

  ServerIsolation out;
  out.slices = static_cast<std::uint64_t>(std::ceil(kDurationS / params.slice_s));
  obs::Telemetry telemetry;
  obs::ScopedTelemetry scope(telemetry);
  fleet::ServerFleet pipeline(params, servers);
  fleet::OwdCollector owd(servers, params.owd_valid_min_ms,
                          params.owd_valid_max_ms);
  std::vector<std::uint64_t> interval(fleet.init_interval_ns());
  core::SmallRng rng(core::derive_stream_seed(seed, 0xe2e));
  const auto slice_ns = static_cast<std::uint64_t>(params.slice_s * 1e9);
  std::vector<fleet::ArrivalRecord> batch;
  for (std::uint64_t slice = 0; slice < out.slices; ++slice) {
    for (std::size_t s = 0; s < servers; ++s) {
      const std::uint64_t n =
          (run.server_requests[s] + out.slices / 2) / out.slices;
      if (n == 0 || homed[s].empty()) continue;
      batch.clear();
      for (std::uint64_t k = 0; k < n; ++k) {
        const std::uint32_t id = homed[s][static_cast<std::size_t>(
            rng.canonical() * static_cast<double>(homed[s].size()))];
        batch.push_back({
            .arrive_ns = slice * slice_ns +
                         static_cast<std::uint64_t>(rng.canonical() *
                                                    static_cast<double>(slice_ns)),
            .client = id,
            .partial_ms = static_cast<double>(fleet.base_owd_ms()[id]),
        });
      }
      out.sort_s += timed([&] {
        std::sort(batch.begin(), batch.end(),
                  [](const fleet::ArrivalRecord& a, const fleet::ArrivalRecord& b) {
                    return a.arrive_ns != b.arrive_ns ? a.arrive_ns < b.arrive_ns
                                                      : a.client < b.client;
                  });
      });
      const double t = timed([&] {
        pipeline.process_slice(s, batch, fleet, interval, owd);
      });
      out.process_s += t;
      if (s == hot) out.hot_process_s += t;
    }
  }
  return out;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

WorkloadResult run_untraced(const RunOptions& options) {
  WorkloadResult out;
  const std::size_t threads = 1;
  HostReference reference;
  std::vector<double> setup_s, raw_setup_s;
  FleetPtr fleet;
  for (int rep = 0; rep < 3; ++rep) {
    FleetPtr built;
    const double wall = timed([&] { built = build_fleet(options.seed); });
    setup_s.push_back(wall * reference.next_factor());
    raw_setup_s.push_back(wall);
    if (fleet) {
      out.checks.expect(same_fleet(*fleet, *built),
                        "ClientFleet::build reproduces the same population");
    }
    fleet = std::move(built);
  }

  std::vector<double> sim_speed, qps, raw_speed;
  fleet::FleetResult first;
  repeat_for(options.seconds, 3, 10'000, [&](std::size_t rep) {
    const Run run = run_fleet_once(fleet, options.seed, threads, true);
    const double run_s = run.wall_s * reference.next_factor();
    sim_speed.push_back(kDurationS / run_s);
    qps.push_back(static_cast<double>(run.result.queries) / run_s);
    raw_speed.push_back(kDurationS / run.wall_s);
    if (rep == 0) {
      first = run.result;
      check_ledger(first, out.checks);
    } else {
      out.checks.expect(run.result.deterministic_equal(first),
                        "repeat reproduces the first run bit for bit");
    }
  });
  std::printf("e2e_fleet: %llu clients, %.0f sim-s, %zu thread(s), %zu reps; "
              "%llu queries, %.1f%% KoD of arrivals\n",
              static_cast<unsigned long long>(kClients), kDurationS, threads,
              sim_speed.size(), static_cast<unsigned long long>(first.queries),
              100.0 * ratio(first.kod, first.arrived));
  std::printf("  raw wall: build %.3f s, sim_speed %.1f sim_s/s (medians)\n",
              median(raw_setup_s), median(raw_speed));
  out.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"sim_speed", median(sim_speed), "sim_s/s"},
      {"queries_per_s", median(qps), "1/s"},
  };
  return out;
}

WorkloadResult run_traced(const RunOptions& options) {
  WorkloadResult out;
  const std::size_t threads = fleet_threads();
  SpanLog spans(true, "e2e_fleet-seed" + std::to_string(options.seed));

  std::vector<double> build_s, run_s, traced_s, serial_s, off_s, cpu_ratio;
  std::vector<double> slice_s, hot_slice_ms, sort_s;
  fleet::FleetResult result;
  FleetPtr fleet;
  repeat_for(options.seconds, 2, 1000, [&](std::size_t rep) {
    const auto cycle = spans.span("fleet.cycle");
    FleetPtr built;
    {
      const auto span = spans.span("fleet.build");
      build_s.push_back(timed([&] { built = build_fleet(options.seed); }));
    }
    Run untraced, traced, serial, off;
    {
      const auto span = spans.span("fleet.run");
      untraced = run_fleet_once(built, options.seed, threads, true);
    }
    {
      // The fleet path has no profiler spans of its own; this leg runs
      // with the profiler on and every bench span open around it.
      const auto span = spans.span("fleet.run.traced");
      traced = run_fleet_once(built, options.seed, threads, true, true);
    }
    {
      const auto span = spans.span("fleet.run.serial");
      serial = run_fleet_once(built, options.seed, 1, true);
    }
    {
      const auto span = spans.span("fleet.run.obs_off");
      off = run_fleet_once(built, options.seed, threads, false);
    }
    ServerIsolation iso;
    {
      const auto span = spans.span("fleet.server.isolation");
      iso = isolate_servers(*built, untraced.result, options.seed);
    }
    run_s.push_back(untraced.wall_s);
    traced_s.push_back(traced.wall_s);
    serial_s.push_back(serial.wall_s);
    off_s.push_back(off.wall_s);
    cpu_ratio.push_back(untraced.cpu_s / untraced.wall_s);
    slice_s.push_back(iso.process_s / static_cast<double>(iso.slices));
    hot_slice_ms.push_back(1e3 * iso.hot_process_s / static_cast<double>(iso.slices));
    sort_s.push_back(iso.sort_s);

    if (rep == 0) {
      result = untraced.result;
      fleet = built;
      check_ledger(result, out.checks);
    }
    out.checks.expect(serial.result.deterministic_equal(untraced.result),
                      "1-thread leg deterministic_equal to the threaded run");
    out.checks.expect(traced.result.deterministic_equal(untraced.result) &&
                          off.result.deterministic_equal(untraced.result) &&
                          untraced.result.deterministic_equal(result),
                      "traced, untraced and obs-off runs report identical "
                      "simulated counts");
  });

  const double t_build = median(build_s);
  const double t_run = median(run_s);
  const double t_serial = median(serial_s);
  const double speedup = t_serial / t_run;
  const double obs_s = t_run - median(off_s);
  const double slices = std::ceil(kDurationS / fleet_params(options.seed).slice_s);
  const double server_s = median(slice_s) * slices;
  const auto hot = std::max_element(result.server_requests.begin(),
                                    result.server_requests.end());
  const auto T = static_cast<double>(threads);

  auto& m = out.metrics;
  m = {
      {"fleet.build_s", t_build, "s"},
      {"fleet.run_s", t_run, "s"},
      {"fleet.run_s_serial", t_serial, "s"},
      {"fleet.speedup", speedup, "x"},
      {"fleet.queries", static_cast<double>(result.queries), "count"},
      {"fleet.arrived", static_cast<double>(result.arrived), "count"},
      {"fleet.dropped", static_cast<double>(result.dropped), "count"},
      {"fleet.kod", static_cast<double>(result.kod), "count"},
      {"fleet.kod_share", ratio(result.kod, result.arrived), "ratio"},
      {"fleet.batches", static_cast<double>(result.batches), "count"},
      {"fleet.cache_hit_ratio",
       ratio(result.cache_hits, result.cache_hits + result.cache_misses), "ratio"},
      {"fleet.hot_server_share", ratio(*hot, result.arrived), "ratio"},
      {"fleet.server.slice_s", median(slice_s), "s"},
      {"fleet.server.hot_slice_ms", median(hot_slice_ms), "ms"},
      {"core.pool.efficiency", speedup / T, "ratio"},
      {"core.pool.cpu_over_wall", median(cpu_ratio), "ratio"},
      {"obs.metrics_s", obs_s, "s"},
      {"obs.trace_overhead", median(traced_s) / t_run - 1.0, "ratio"},
      {"fleet.table1_share_err_pp", table1_share_err_pp(*fleet), "pp"},
  };
  static constexpr const char* kCategory[] = {"cloud", "isp", "broadband",
                                              "mobile"};
  for (std::size_t c = 0; c < 4; ++c) {
    m.push_back({std::string("fleet.owd_p50_ms.") + kCategory[c],
                 result.owd.by_category[c].quantile(0.5), "ms"});
  }

  // Partition of the threaded path's wall time (build + run): fleet owns
  // the build and the ideal T-way share of the 1-thread run, core owns
  // what the threaded run loses to that ideal (barriers, imbalance, the
  // hot server), obs owns the registry's on/off difference.
  report_layers("e2e_fleet",
                {{"fleet", t_build + t_serial / T - obs_s},
                 {"core", t_run - t_serial / T},
                 {"obs", obs_s}},
                t_build + t_run, m);
  std::printf("  of fleet: server pipeline (isolated Phase B) %.3f s serial, "
              "hot server %.3f s, canonical sort %.3f s\n",
              server_s, median(hot_slice_ms) * slices * 1e-3, median(sort_s));
  std::printf("tracing overhead: %.1f%% (traced %.3f s vs untraced %.3f s)\n",
              100.0 * (median(traced_s) / t_run - 1.0), median(traced_s), t_run);
  if (!options.trace_out.empty()) {
    const std::string path = options.trace_out + "/e2e_fleet-seed" +
                             std::to_string(options.seed) + ".spans.json";
    out.checks.expect(spans.write_json(path), "span log written");
  }
  return out;
}

}  // namespace

WorkloadResult run_fleet(const RunOptions& options) {
  return options.trace ? run_traced(options) : run_untraced(options);
}

}  // namespace e2e
