// Server-side request pipeline: batching, response caching, KoD.
//
// Phase B of the fleet simulator (see simulator.h) hands each server the
// slice's arrivals in whatever order the shards gathered them. The
// pipeline's results are defined by a canonical order — by (arrival
// time, client id), which is invariant under shard partitioning and
// thread count — but applied as a ranking rule, never by sorting: each
// total below is a function of ranks and window counts only. The three
// server-side mechanisms it models:
//
//   * request batching: arrivals within one batch window are one
//     processing batch (fleet.server.batches counts windows);
//   * response caching: the server's transmit-timestamp error is
//     computed once per cache bucket and served from cache within it.
//     The cached value is a pure function of (server seed, bucket
//     index) — NOT of which request missed first — so cache behaviour
//     can never leak scheduling into results;
//   * kiss-of-death rate limiting: requests beyond the per-slice limit,
//     in canonical rank, get a KoD instead of time, and the offending
//     client's poll interval backs off multiplicatively (capped). A
//     client has exactly one home server, so the interval write is
//     disjoint across the concurrently-processed servers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fleet/client_fleet.h"
#include "fleet/owd_collector.h"
#include "fleet/params.h"
#include "obs/metrics.h"

namespace mntp::fleet {

/// One delivered query as Phase A emits it. `partial_ms` is the
/// client-side half of the measured OWD (true delay minus client clock
/// error); Phase B adds the server's cached clock error.
struct ArrivalRecord {
  std::uint64_t arrive_ns;
  std::uint32_t client;
  double partial_ms;
};

struct ServerTotals {
  std::uint64_t requests = 0;
  std::uint64_t kod = 0;
  std::uint64_t batches = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

class ServerFleet {
 public:
  /// `servers` = number of server slots (indices into logs::kPaperServers
  /// when the fleet uses the paper population). Binds registry handles
  /// from the current global obs context: per-server
  /// fleet.server.requests{server=...} plus fleet-wide kod / batches /
  /// cache counters.
  ServerFleet(const FleetParams& params, std::size_t servers);

  /// Process one server's slice arrivals, given in any order: the
  /// totals, interval writes and OWD records equal a sequential pass
  /// over the canonically sorted slice. Reorders `arrivals` (a
  /// selection moves the served ones to the front). Safe to call
  /// concurrently for DISTINCT servers: per-server state is indexed,
  /// client interval writes are disjoint by home server, and the
  /// collector slot is the server index.
  void process_slice(std::size_t server, std::span<ArrivalRecord> arrivals,
                     const ClientFleet& fleet,
                     std::span<std::uint64_t> interval_ns,
                     OwdCollector& owd);

  [[nodiscard]] const ServerTotals& totals(std::size_t server) const {
    return state_[server].totals;
  }
  [[nodiscard]] std::size_t servers() const { return state_.size(); }

  /// Clear all per-run state (cache, batch cursor, totals).
  void reset();

 private:
  static constexpr std::uint64_t kNoBucket = ~0ULL;
  /// process_slice prefetches the client columns of the arrival this
  /// many positions ahead: for a served arrival its traits + provider
  /// (OWD record), for a KoD its interval. Arrivals reach a server from
  /// random clients, so each one's client columns are a cache miss.
  /// On the e2e_fleet isolation leg (4-vCPU Xeon VM) distances 4-32
  /// all cut the per-slice pipeline time from ~0.5 ms to ~0.3 ms,
  /// within noise of each other; 16 is the middle of that plateau.
  static constexpr std::size_t kServerLookahead = 16;

  struct State {
    /// The last cache bucket served and the last batch window seen, in
    /// canonical order; they carry a bucket or window across slices.
    std::uint64_t cached_bucket = kNoBucket;
    std::uint64_t prev_batch = kNoBucket;
    ServerTotals totals;
    /// process_slice scratch: one bit per batch window, then one per
    /// cache bucket, that the slice spans (~8 words at default params).
    std::vector<std::uint64_t> window_bits;
  };

  std::uint64_t seed_root_;  // server stream root of the fleet seed
  std::uint64_t kod_limit_;
  std::uint64_t cache_bucket_ns_;
  std::uint64_t batch_window_ns_;
  std::vector<State> state_;
  std::vector<obs::Counter*> requests_counter_;  // per server
  obs::Counter* kod_counter_;
  obs::Counter* batches_counter_;
  obs::Counter* cache_hit_counter_;
  obs::Counter* cache_miss_counter_;
};

}  // namespace mntp::fleet
