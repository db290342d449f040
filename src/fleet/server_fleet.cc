#include "fleet/server_fleet.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <string>

#include "core/rng.h"
#include "ntp/server.h"
#include "obs/metric_names.h"
#include "obs/telemetry.h"

namespace mntp::fleet {

namespace {
constexpr std::uint64_t kServerStream = 1;  // see client_fleet.cc seed map
constexpr double kNsPerMs = 1e6;
constexpr auto kKodCapNs = static_cast<std::uint64_t>(kKodBackoffCapS * 1e9);

/// The canonical rank rule: arrival time, then client id.
bool canonical_less(const ArrivalRecord& a, const ArrivalRecord& b) {
  return a.arrive_ns != b.arrive_ns ? a.arrive_ns < b.arrive_ns
                                    : a.client < b.client;
}

void set_bit(std::span<std::uint64_t> bits, std::uint64_t i) {
  bits[static_cast<std::size_t>(i / 64)] |= 1ULL << (i % 64);
}

/// Number of set bits, and the lowest and highest set index.
struct BitRange {
  std::uint64_t count = 0;
  std::uint64_t first = 0;
  std::uint64_t last = 0;
};

BitRange bit_range(std::span<const std::uint64_t> bits) {
  BitRange r;
  for (std::size_t w = 0; w < bits.size(); ++w) {
    if (bits[w] == 0) continue;
    if (r.count == 0) r.first = w * 64 + std::countr_zero(bits[w]);
    r.last = w * 64 + 63 - std::countl_zero(bits[w]);
    r.count += std::popcount(bits[w]);
  }
  return r;
}

struct CachedError {
  std::uint64_t bucket = ~0ULL;
  double err_ms = 0.0;
};
}  // namespace

ServerFleet::ServerFleet(const FleetParams& params, std::size_t servers)
    : seed_root_(core::derive_stream_seed(params.seed, kServerStream)),
      kod_limit_(params.kod_limit_per_slice),
      cache_bucket_ns_(
          static_cast<std::uint64_t>(params.cache_bucket_ms * kNsPerMs)),
      batch_window_ns_(
          static_cast<std::uint64_t>(params.batch_window_ms * kNsPerMs)),
      state_(servers) {
  obs::MetricsRegistry& m = obs::Telemetry::global().metrics();
  requests_counter_.reserve(servers);
  for (std::size_t s = 0; s < servers; ++s) {
    const std::string_view id = s < logs::kPaperServers.size()
                                    ? logs::kPaperServers[s].id
                                    : std::string_view("?");
    requests_counter_.push_back(
        m.counter(obs::metric_names::kFleetServerRequests,
                  obs::Labels{{"server", std::string(id)}}));
  }
  kod_counter_ = m.counter(obs::metric_names::kFleetServerKod);
  batches_counter_ = m.counter(obs::metric_names::kFleetServerBatches);
  cache_hit_counter_ = m.counter(obs::metric_names::kFleetServerCacheHits);
  cache_miss_counter_ = m.counter(obs::metric_names::kFleetServerCacheMisses);
}

void ServerFleet::process_slice(std::size_t server,
                                std::span<ArrivalRecord> arrivals,
                                const ClientFleet& fleet,
                                std::span<std::uint64_t> interval_ns,
                                OwdCollector& owd) {
  const std::size_t n = arrivals.size();
  if (n == 0) return;
  State& st = state_[server];
  const std::uint64_t server_seed =
      core::derive_stream_seed(seed_root_, server);
  const std::uint8_t* traits = fleet.traits().data();
  const std::uint8_t* provider = fleet.provider().data();

  // KoD rate limit: the kod_limit_ canonically first arrivals are
  // served, the rest get a KoD. Selection, not a sort: only membership
  // of the served set matters below.
  const std::size_t served =
      static_cast<std::size_t>(std::min<std::uint64_t>(n, kod_limit_));
  if (served > 0 && served < n) {
    std::nth_element(arrivals.begin(), arrivals.begin() + served,
                     arrivals.end(), canonical_less);
  }

  // One bit per batch window and per cache bucket the slice spans,
  // offset from the earliest arrival's.
  std::uint64_t first_ns = arrivals[0].arrive_ns;
  std::uint64_t last_ns = first_ns;
  for (const ArrivalRecord& a : arrivals) {
    first_ns = std::min(first_ns, a.arrive_ns);
    last_ns = std::max(last_ns, a.arrive_ns);
  }
  const std::uint64_t batch_lo = first_ns / batch_window_ns_;
  const std::uint64_t batch_hi = last_ns / batch_window_ns_;
  const std::uint64_t bucket_lo = first_ns / cache_bucket_ns_;
  const std::size_t batch_words =
      static_cast<std::size_t>((batch_hi - batch_lo) / 64 + 1);
  const std::size_t bucket_words = static_cast<std::size_t>(
      (last_ns / cache_bucket_ns_ - bucket_lo) / 64 + 1);
  st.window_bits.assign(batch_words + bucket_words, 0);
  const std::span<std::uint64_t> batch_bits(st.window_bits.data(),
                                            batch_words);
  const std::span<std::uint64_t> bucket_bits(
      st.window_bits.data() + batch_words, bucket_words);

  // Served arrivals: response cache + OWD record. The server's clock
  // error is a pure function of (server seed, cache bucket), memoized
  // per bucket offset: at default params a slice spans at most 17
  // buckets, so each is drawn once.
  std::array<CachedError, 64> memo;
  for (std::size_t k = 0; k < served; ++k) {
    if (k + kServerLookahead < served) {
      const std::uint32_t ahead = arrivals[k + kServerLookahead].client;
      __builtin_prefetch(&traits[ahead]);
      __builtin_prefetch(&provider[ahead]);
    }
    const ArrivalRecord& a = arrivals[k];
    set_bit(batch_bits, a.arrive_ns / batch_window_ns_ - batch_lo);
    const std::uint64_t bucket = a.arrive_ns / cache_bucket_ns_;
    set_bit(bucket_bits, bucket - bucket_lo);
    CachedError& c = memo[(bucket - bucket_lo) % memo.size()];
    if (c.bucket != bucket) {
      core::SmallRng rng(core::derive_stream_seed(server_seed, bucket));
      c = {bucket, rng.normal(0.0, kServerErrSigmaMs)};
    }
    owd.record(server, fleet.speaker(a.client), fleet.population(a.client),
               fleet.category(a.client), a.partial_ms + c.err_ms);
  }
  // Over-limit arrivals: no time response; the client backs off its
  // poll interval (capped).
  for (std::size_t k = served; k < n; ++k) {
    if (k + kServerLookahead < n) {
      __builtin_prefetch(&interval_ns[arrivals[k + kServerLookahead].client],
                         1);
    }
    const ArrivalRecord& a = arrivals[k];
    set_bit(batch_bits, a.arrive_ns / batch_window_ns_ - batch_lo);
    interval_ns[a.client] = ntp::kod_backoff_interval_ns(
        interval_ns[a.client], kKodBackoffFactor, kKodCapNs);
  }

  // In canonical order, windows (and the served arrivals' buckets) never
  // decrease, so each distinct one opens a batch (is a cache miss) —
  // except the first when it continues the previous slice's last. The
  // cursors persist across slices, so a window or bucket straddling a
  // slice boundary counts once.
  ServerTotals slice;
  slice.requests = n;
  slice.kod = n - served;
  slice.batches =
      bit_range(batch_bits).count - (batch_lo == st.prev_batch ? 1 : 0);
  st.prev_batch = batch_hi;
  if (served > 0) {
    const BitRange buckets = bit_range(bucket_bits);
    slice.cache_misses =
        buckets.count - (bucket_lo + buckets.first == st.cached_bucket ? 1 : 0);
    slice.cache_hits = served - slice.cache_misses;
    st.cached_bucket = bucket_lo + buckets.last;
  }
  st.totals.requests += slice.requests;
  st.totals.kod += slice.kod;
  st.totals.batches += slice.batches;
  st.totals.cache_hits += slice.cache_hits;
  st.totals.cache_misses += slice.cache_misses;
  requests_counter_[server]->inc(slice.requests);
  kod_counter_->inc(slice.kod);
  batches_counter_->inc(slice.batches);
  cache_hit_counter_->inc(slice.cache_hits);
  cache_miss_counter_->inc(slice.cache_misses);
}

void ServerFleet::reset() {
  for (State& st : state_) st = State{};
}

}  // namespace mntp::fleet
