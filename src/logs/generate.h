// Synthetic NTP server log generation.
//
// Substitution for the paper's private tcpdump traces: per-server client
// populations are generated against the Table 1 counts (downscaled by a
// configurable factor so a bench finishes in seconds), with provider
// membership, hostname, a representative request packet (as a real
// 48-byte wire capture), per-request OWD samples, and a synchronized/
// unsynchronized flag per request — everything the §3.1 analysis
// pipeline consumes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.h"
#include "logs/spec.h"
#include "ntp/packet.h"

namespace mntp::logs {

/// One client observed at one server over the capture day.
struct ClientRecord {
  std::uint64_t client_id = 0;
  std::string hostname;
  std::size_t provider_index = 0;  // into kPaperProviders
  /// Representative request packet as captured on the wire.
  std::array<std::uint8_t, ntp::NtpPacket::kWireSize> request_wire{};
  /// Total requests this client issued over the day.
  std::uint32_t request_count = 0;
  /// Per-request OWD samples (ms), capped at a sampling bound; the
  /// analyzer extracts the minimum. Invalid (unsynchronized) probes are
  /// recorded as negative placeholders and must be filtered out.
  std::vector<float> owd_samples_ms;
};

struct ServerLog {
  ServerSpec spec;
  std::vector<ClientRecord> clients;

  [[nodiscard]] std::uint64_t total_requests() const {
    std::uint64_t n = 0;
    for (const ClientRecord& c : clients) n += c.request_count;
    return n;
  }
};

struct GeneratorParams {
  /// Client-count downscale: generated clients = Table-1 clients * scale
  /// (at least 1 per server).
  double scale = 1.0 / 2000.0;
};

/// Draws each client from the §3.1 population kernel (logs/population.h)
/// in one fixed order: provider, speaker, transmit time, request volume,
/// base OWD, then per sampled request its synchronized flag and OWD.
class LogGenerator {
 public:
  /// Cap on stored OWD samples per client (requests beyond the cap are
  /// counted but not sampled).
  static constexpr std::size_t kMaxOwdSamples = 24;

  LogGenerator(GeneratorParams params, core::Rng rng);

  /// Generate the log of one paper server (index into kPaperServers).
  [[nodiscard]] ServerLog generate(std::size_t server_index);

  /// Generate all 19 servers.
  [[nodiscard]] std::vector<ServerLog> generate_all();

 private:
  [[nodiscard]] ClientRecord make_client(const ServerSpec& server,
                                         std::uint64_t id,
                                         double requests_per_client);

  GeneratorParams params_;
  core::Rng rng_;
};

}  // namespace mntp::logs
