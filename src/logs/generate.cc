#include "logs/generate.h"

#include <algorithm>
#include <cmath>

#include "core/ntp_timestamp.h"
#include "logs/population.h"
#include "obs/metric_names.h"
#include "obs/profiler.h"

namespace mntp::logs {

LogGenerator::LogGenerator(GeneratorParams params, core::Rng rng)
    : params_(params), rng_(std::move(rng)) {}

ClientRecord LogGenerator::make_client(const ServerSpec& server,
                                       std::uint64_t id,
                                       double requests_per_client) {
  ClientRecord c;
  c.client_id = id;
  c.provider_index = pick_provider(rng_, server);
  const ProviderSpec& provider = kPaperProviders[c.provider_index];
  c.hostname = "host" + std::to_string(id) + "." +
               std::string(provider.keyword) + ".example.org";

  // Protocol: a client is SNTP with the kernel's probability. The
  // *packet* carries the classification: SNTP requests zero everything
  // but the first octet + transmit time; NTP requests populate poll,
  // precision and origin.
  const bool sntp = rng_.bernoulli(sntp_probability(server, provider));
  const auto xmt = core::NtpTimestamp::from_parts(
      static_cast<std::uint32_t>(core::kSimEpochNtpSeconds +
                                 rng_.uniform_int(0, 86'400)),
      static_cast<std::uint32_t>(rng_.next_u64()));
  ntp::NtpPacket req =
      sntp ? ntp::NtpPacket::make_sntp_request(xmt)
           : ntp::NtpPacket::make_ntp_request(
                 xmt,
                 static_cast<std::int8_t>(
                     rng_.uniform_int(kNtpPollMinLog2, kNtpPollMaxLog2)),
                 core::NtpTimestamp::from_parts(1, 1));
  req.serialize(c.request_wire);

  // Request volume: heavy-tailed around the server's requests/client
  // ratio (a few chatty ntpd instances dominate measurement counts).
  const double lam = std::max(1.0, requests_per_client);
  c.request_count = static_cast<std::uint32_t>(
      std::max(1.0, rng_.lognormal(std::log(lam) - 0.5, 1.0)));

  // Per-client minimum OWD (Fig 1), from the provider's distribution.
  const double base_ms = base_owd_ms(rng_, provider);

  const bool mobile = provider.category == ProviderCategory::kMobile;
  const std::size_t samples = std::min<std::size_t>(
      kMaxOwdSamples, std::max<std::uint32_t>(1, c.request_count));
  c.owd_samples_ms.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    if (rng_.bernoulli(kUnsynchronizedFraction)) {
      // Unsynchronized probe: OWD meaningless; mark invalid.
      c.owd_samples_ms.push_back(-1.0F);
      continue;
    }
    c.owd_samples_ms.push_back(
        static_cast<float>(inflate_owd_ms(rng_, base_ms, mobile, 0.0)));
  }
  return c;
}

ServerLog LogGenerator::generate(std::size_t server_index) {
  obs::ProfileScope profile(obs::spans::kLogsGenerate);
  const ServerSpec& spec = kPaperServers.at(server_index);
  ServerLog log{.spec = spec, .clients = {}};
  const auto n_clients = static_cast<std::size_t>(std::max(
      1.0, std::round(static_cast<double>(spec.unique_clients) * params_.scale)));
  const double requests_per_client =
      static_cast<double>(spec.total_measurements) /
      static_cast<double>(spec.unique_clients);
  log.clients.reserve(n_clients);
  for (std::size_t i = 0; i < n_clients; ++i) {
    log.clients.push_back(make_client(
        spec, (static_cast<std::uint64_t>(server_index) << 32) | i,
        requests_per_client));
  }
  return log;
}

std::vector<ServerLog> LogGenerator::generate_all() {
  std::vector<ServerLog> out;
  out.reserve(kPaperServers.size());
  for (std::size_t i = 0; i < kPaperServers.size(); ++i) {
    out.push_back(generate(i));
  }
  return out;
}

}  // namespace mntp::logs
