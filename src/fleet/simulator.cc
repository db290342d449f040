#include "fleet/simulator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "logs/population.h"
#include "net/mac.h"
#include "obs/metric_names.h"
#include "obs/telemetry.h"

namespace mntp::fleet {

namespace {

constexpr std::uint64_t kClientStream = 0;  // see client_fleet.cc seed map
constexpr double kNsPerSec = 1e9;
constexpr double kNsPerMs = 1e6;

/// Phase A look-ahead: while processing due client k of a wheel slot,
/// prefetch the columns of client k + kClientLookahead. A due client
/// reads up to eleven columns at a random id (~68 MB at 10^6 clients),
/// so without look-ahead the loop waits on one cache miss after
/// another; this keeps that many clients' misses in flight. Picked by
/// sweeping {4, 8, 16, 32, 64} on the 1-thread e2e_fleet run (10^6
/// clients, 4-vCPU Xeon VM, interleaved runs): 8 was fastest, 4 within
/// noise of it, and 16-64 5-15% slower as prefetched lines start to be
/// evicted before use.
constexpr std::size_t kClientLookahead = 8;

}  // namespace

bool FleetResult::deterministic_equal(const FleetResult& other) const {
  return clients == other.clients && sntp_clients == other.sntp_clients &&
         ntp_clients == other.ntp_clients &&
         wireless_clients == other.wireless_clients &&
         wired_clients == other.wired_clients && queries == other.queries &&
         arrived == other.arrived && dropped == other.dropped &&
         kod == other.kod && batches == other.batches &&
         cache_hits == other.cache_hits &&
         cache_misses == other.cache_misses &&
         server_requests == other.server_requests && owd == other.owd;
}

Simulator::Simulator(std::shared_ptr<const ClientFleet> fleet,
                     FleetParams params)
    : fleet_(std::move(fleet)), params_(params) {
  if (!fleet_) throw std::invalid_argument("Simulator: null fleet");
  if (params_.shards == 0) {
    throw std::invalid_argument("Simulator: shards must be > 0");
  }
  const double min_poll_s = std::min(
      logs::kSntpPollMinS, std::ldexp(1.0, logs::kNtpPollMinLog2));
  if (params_.slice_s <= 0.0 || params_.slice_s >= min_poll_s) {
    // The at-most-one-query-per-client-per-slice invariant (and with it
    // the collision-free calendar wheel) needs slice < min poll.
    throw std::invalid_argument(
        "Simulator: slice_s must be in (0, min poll interval)");
  }
  obs::MetricsRegistry& m = obs::Telemetry::global().metrics();
  queries_counter_ = m.counter(obs::metric_names::kFleetClientQueries);
  dropped_counter_ = m.counter(obs::metric_names::kFleetClientDropped);
}

FleetResult Simulator::run(std::size_t threads) {
  const auto wall_start = std::chrono::steady_clock::now();
  const ClientFleet& fleet = *fleet_;
  const std::size_t n = static_cast<std::size_t>(fleet.size());
  const auto slice_ns =
      static_cast<std::uint64_t>(params_.slice_s * kNsPerSec);
  const auto duration_ns =
      static_cast<std::uint64_t>(params_.duration_s * kNsPerSec);
  const std::uint64_t n_slices = (duration_ns + slice_ns - 1) / slice_ns;
  const std::size_t shards = std::min(params_.shards, n);
  const std::size_t per_shard = (n + shards - 1) / shards;
  const std::size_t servers = logs::kPaperServers.size();

  // Wheel horizon: one slot per slice of the maximum possible poll
  // interval (the KoD backoff cap) plus slack, so slot index (poll /
  // slice) mod H is collision-free — every id drained at slice t polls
  // exactly in slice t.
  const std::uint64_t wheel_h =
      static_cast<std::uint64_t>(kKodBackoffCapS / params_.slice_s) +
      2;

  // Per-run mutable client state, copied so runs are independent.
  std::vector<std::uint64_t> next_poll(fleet.init_next_poll_ns());
  std::vector<std::uint64_t> interval(fleet.init_interval_ns());
  std::vector<double> shadow_db(n, 0.0);
  std::vector<std::uint64_t> last_adv_ns(n, 0);

  // Calendar wheels and arrival buffers, per shard.
  std::vector<std::vector<std::vector<std::uint32_t>>> wheel(shards);
  std::vector<std::vector<std::uint32_t>> drain_scratch(shards);
  std::vector<std::vector<std::vector<ArrivalRecord>>> arrivals(shards);
  for (std::size_t sh = 0; sh < shards; ++sh) {
    wheel[sh].resize(wheel_h);
    arrivals[sh].resize(servers);
    const std::size_t lo = sh * per_shard;
    const std::size_t hi = std::min(lo + per_shard, n);
    for (std::size_t i = lo; i < hi; ++i) {
      if (next_poll[i] < duration_ns) {
        wheel[sh][(next_poll[i] / slice_ns) % wheel_h].push_back(
            static_cast<std::uint32_t>(i));
      }
    }
  }

  // Per-shard tallies (disjoint writes; summed serially after the loop).
  std::vector<std::uint64_t> shard_queries(shards, 0);
  std::vector<std::uint64_t> shard_dropped(shards, 0);

  OwdCollector owd(servers, FleetParams::owd_valid_min_ms,
                   FleetParams::owd_valid_max_ms);
  ServerFleet server_fleet(params_, servers);
  std::vector<std::vector<ArrivalRecord>> gather(servers);

  const std::uint64_t client_root =
      core::derive_stream_seed(params_.seed, kClientStream);
  // The immutable fleet columns as raw pointers: the loop's push_backs
  // store pointers, so through the accessors the compiler would reload
  // every column's data pointer on each use (~7% of the 1-thread run).
  const std::uint8_t* col_traits = fleet.traits().data();
  const std::uint8_t* col_provider = fleet.provider().data();
  const std::uint16_t* col_server = fleet.server().data();
  const float* col_base_owd_ms = fleet.base_owd_ms().data();
  const float* col_clock_err_ms = fleet.clock_err_ms().data();
  const float* col_skew_ppm = fleet.skew_ppm().data();
  const float* col_snr_mean_db = fleet.snr_mean_db().data();

  core::ThreadPool pool(threads <= 1 ? 0 : threads);

  for (std::uint64_t slice = 0; slice < n_slices; ++slice) {
    const std::uint64_t slot_index = slice % wheel_h;
    // Phase A: clients. Each shard owns its wheel, its arrival buffers
    // and its slice tallies; the only shared reads are the immutable
    // fleet columns.
    pool.parallel_for(0, shards, [&](std::size_t sh) {
      std::vector<std::uint32_t>& scratch = drain_scratch[sh];
      scratch.swap(wheel[sh][slot_index]);
      std::uint64_t q_count = 0;
      std::uint64_t d_count = 0;
      const std::size_t due = scratch.size();
      for (std::size_t k = 0; k < due; ++k) {
        if (k + kClientLookahead < due) {
          const std::uint32_t ahead = scratch[k + kClientLookahead];
          __builtin_prefetch(&next_poll[ahead], 1);
          __builtin_prefetch(&interval[ahead]);
          __builtin_prefetch(&shadow_db[ahead], 1);
          __builtin_prefetch(&last_adv_ns[ahead], 1);
          __builtin_prefetch(&col_traits[ahead]);
          __builtin_prefetch(&col_snr_mean_db[ahead]);
          __builtin_prefetch(&col_provider[ahead]);
          __builtin_prefetch(&col_base_owd_ms[ahead]);
          __builtin_prefetch(&col_clock_err_ms[ahead]);
          __builtin_prefetch(&col_skew_ppm[ahead]);
          __builtin_prefetch(&col_server[ahead]);
        }
        const std::uint32_t id = scratch[k];
        const std::uint64_t poll_ns = next_poll[id];
        core::SmallRng q(core::derive_stream_seed(
            core::derive_stream_seed(client_root, id), poll_ns));
        ++q_count;

        const std::uint8_t traits = col_traits[id];
        const bool wireless = (traits & ClientTraits::kWireless) != 0;
        bool delivered;
        double backoff_ms = 0.0;
        if (wireless) {
          // Shadowing across the client's idle gap (one exact OU
          // transition), then the MAC kernel WirelessChannel shares.
          const double gap_s =
              static_cast<double>(poll_ns - last_adv_ns[id]) / kNsPerSec;
          const double sh_db = net::ou_exact_step(
              shadow_db[id], gap_s, net::kShadowingTauS,
              net::kShadowingSigmaDb, q.normal(0.0, 1.0));
          shadow_db[id] = sh_db;
          last_adv_ns[id] = poll_ns;

          const double p_fail = net::snr_failure_probability(
              col_snr_mean_db[id] + sh_db, net::kSnr50Db, net::kSnrSlopeDb);
          const net::MacOutcome mac = net::mac_attempts(
              q, p_fail, net::kMaxRetries, net::kRetryBackoffMs);
          delivered = mac.delivered;
          backoff_ms = mac.backoff;
        } else {
          delivered = !q.bernoulli(kWiredLoss);
        }

        if (delivered) {
          const bool mobile = fleet.category(id) ==
                              logs::ProviderCategory::kMobile;
          const double owd_ms = logs::inflate_owd_ms(
              q, static_cast<double>(col_base_owd_ms[id]), mobile,
              backoff_ms);
          const double poll_s = static_cast<double>(poll_ns) / kNsPerSec;
          const double client_err_ms =
              static_cast<double>(col_clock_err_ms[id]) +
              static_cast<double>(col_skew_ppm[id]) * poll_s * 1e-3;
          arrivals[sh][col_server[id]].push_back(ArrivalRecord{
              .arrive_ns =
                  poll_ns + static_cast<std::uint64_t>(owd_ms * kNsPerMs),
              .client = id,
              .partial_ms = owd_ms - client_err_ms,
          });
        } else {
          ++d_count;
        }

        const std::uint64_t np = poll_ns + interval[id];
        next_poll[id] = np;
        if (np < duration_ns) {
          wheel[sh][(np / slice_ns) % wheel_h].push_back(id);
        }
      }
      scratch.clear();
      shard_queries[sh] += q_count;
      shard_dropped[sh] += d_count;
      queries_counter_->inc(q_count);
      dropped_counter_->inc(d_count);
    });

    // Phase B: servers. Gather each server's arrivals from every shard
    // and run the batching / cache / KoD pipeline, which ranks them by
    // the canonical (arrival, client) rule itself, so gather order —
    // and with it the shard count — cannot reach the results. KoD
    // interval writes are disjoint by home server.
    pool.parallel_for(0, servers, [&](std::size_t s) {
      std::vector<ArrivalRecord>& batch = gather[s];
      batch.clear();
      for (std::size_t sh = 0; sh < shards; ++sh) {
        batch.insert(batch.end(), arrivals[sh][s].begin(),
                     arrivals[sh][s].end());
        arrivals[sh][s].clear();
      }
      server_fleet.process_slice(s, batch, fleet, interval, owd);
    });
  }

  FleetResult result;
  result.clients = fleet.size();
  result.sntp_clients = fleet.sntp_clients();
  result.ntp_clients = fleet.ntp_clients();
  result.wireless_clients = fleet.wireless_clients();
  result.wired_clients = fleet.wired_clients();
  for (std::size_t sh = 0; sh < shards; ++sh) {
    result.queries += shard_queries[sh];
    result.dropped += shard_dropped[sh];
  }
  result.server_requests.resize(servers);
  for (std::size_t s = 0; s < servers; ++s) {
    const ServerTotals& t = server_fleet.totals(s);
    result.server_requests[s] = t.requests;
    result.arrived += t.requests;
    result.kod += t.kod;
    result.batches += t.batches;
    result.cache_hits += t.cache_hits;
    result.cache_misses += t.cache_misses;
  }
  result.owd = owd.merged();
  owd.publish(result.owd);

  result.threads = threads == 0 ? 1 : threads;
  const auto wall_end = std::chrono::steady_clock::now();
  result.wall_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  if (result.wall_s > 0.0) {
    result.qps = static_cast<double>(result.queries) / result.wall_s;
    result.qps_per_core = result.qps / static_cast<double>(result.threads);
  }
  return result;
}

}  // namespace mntp::fleet
