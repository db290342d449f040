// Fleet-scale client-population simulation: parameters and vocabulary.
//
// The per-client simulators (ntp::SntpClient, protocol::MntpEngine on a
// sim::EventQueue) answer "what does one client experience"; the paper's
// §3.1 measurement study asks the transposed question — "what does a
// *server* see from millions of clients". Replaying one event per query
// through the event kernel would spend the whole budget on queue churn.
// The fleet layer instead keeps the population in struct-of-arrays form
// (src/fleet/client_fleet.h) and advances it in time-sliced batches per
// shard (src/fleet/simulator.h), so the inner loop is a tight pass over
// contiguous arrays with no allocation and no priority queue.
//
// Determinism contract (the same one sim::ReplicationRunner and the
// sharded obs metrics obey): every random decision is a pure function of
// seeds, never of shard partitioning or thread scheduling. Client i's
// per-query stream is core::SmallRng(derive_stream_seed(client_seed,
// next_poll_ns)) — poll times strictly increase, so each query owns a
// unique stream — and server-side randomness is a pure function of
// (server seed, time bucket). Results are bit-identical for any
// --threads AND any shard count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "logs/population.h"

namespace mntp::fleet {

/// Protocol the client speaks (the paper's SNTP-vs-full-NTP split of
/// Figure 2: mobile providers are ≥95% SNTP).
enum class Speaker : std::uint8_t { kNtp = 0, kSntp = 1 };

/// Last-hop population tag: wired (fixed-line) or wireless (802.11 /
/// cellular last hop with MAC retries and heavy-tailed stalls).
enum class Population : std::uint8_t { kWired = 0, kWireless = 1 };

[[nodiscard]] constexpr std::string_view speaker_name(Speaker s) {
  return s == Speaker::kNtp ? "ntp" : "sntp";
}
[[nodiscard]] constexpr std::string_view population_name(Population p) {
  return p == Population::kWired ? "wired" : "wireless";
}

/// The fleet's settable configuration. The population it simulates is
/// the §3.1 kernel's (logs/population.h) and the last hop the MAC
/// kernel's (net/mac.h); the server-side constants are below.
struct FleetParams {
  // --- Population ------------------------------------------------------
  std::uint64_t clients = 100'000;
  std::uint64_t seed = 1;

  // --- Time slicing ----------------------------------------------------
  double duration_s = 60.0;
  /// Batch granularity. Must stay below the minimum poll interval so a
  /// client fires at most once per slice (asserted at run()).
  double slice_s = 1.0;
  std::size_t shards = 64;

  // --- Server side -----------------------------------------------------
  /// Kiss-of-death rate limit: per server, requests beyond this count in
  /// one slice get a KoD instead of time; the client backs its poll
  /// interval off by kKodBackoffFactor, capped at kKodBackoffCapS.
  std::uint64_t kod_limit_per_slice = 1'500;
  /// Response cache: a server computes its transmit-timestamp error once
  /// per time bucket and serves every request in the bucket from cache.
  double cache_bucket_ms = 250.0;
  /// Request batching: arrivals within one window are processed as one
  /// batch (fleet.server.batches counts windows, not requests).
  double batch_window_ms = 10.0;

  // --- Measured-OWD validity window (§3.1 filter) ----------------------
  /// Measured OWDs outside [min, max] are the unsynchronized clients'
  /// and count as invalid; the upper edge is the OWD cap.
  static constexpr double owd_valid_min_ms = 0.0;
  static constexpr double owd_valid_max_ms = logs::kOwdCapMs;
};

// --- Fixed model constants -----------------------------------------------
/// A KoD multiplies the client's poll interval by this factor, up to the
/// cap (RFC 5905 backoff; the cap also sizes the calendar wheel).
inline constexpr double kKodBackoffFactor = 4.0;
inline constexpr double kKodBackoffCapS = 2'048.0;
/// Server clock error stddev (the per-bucket cached value), ms.
inline constexpr double kServerErrSigmaMs = 2.0;
/// Fixed-line last hop: plain Bernoulli loss, no retry delay.
inline constexpr double kWiredLoss = 0.002;
/// Wireless clients' mean SNR margin and its per-client spread (dB);
/// per-query SNR adds the OU shadowing state.
inline constexpr double kSnrMeanDb = 12.0;
inline constexpr double kSnrSigmaDb = 3.0;

}  // namespace mntp::fleet
