// MNTP tuner (§5.3): logger, emulator, searcher.
//
// "At the core of the MNTP tuner tool is the ability to perform
// trace-driven analysis on the recorded clock offset values":
//   * the Logger runs on the target node, emits SNTP requests to
//     multiple reference clocks every five seconds, and records the
//     responses and the wireless hints as a Trace;
//   * the Emulator replays Algorithm 1 (the same MntpEngine the live
//     client uses) over a Trace under a given parameter setting;
//   * the Searcher enumerates the cartesian product of candidate
//     parameter values, invokes the Emulator on each combination, and
//     scores it by the RMSE of the reported offsets against a perfectly
//     synchronized clock (offset 0), together with the number of
//     requests the configuration generates — reproducing Table 2 and
//     Figure 11.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/time.h"
#include "mntp/engine.h"
#include "mntp/trace.h"
#include "net/wireless_channel.h"
#include "ntp/pool.h"
#include "ntp/transport.h"
#include "sim/clock_model.h"
#include "sim/simulation.h"

namespace mntp::protocol::tuner {

struct LoggerParams {
  core::Duration interval = core::Duration::seconds(5);
  std::size_t sources = 3;
  ntp::QueryOptions query_options{};
};

/// Records a Trace from a live (simulated) testbed. Start it, run the
/// simulation for the capture span, then take the trace.
///
/// Failed rounds stay in the trace: a record whose queries all timed out
/// has an empty `offsets_s` but keeps its wireless hints — the emulator
/// replays it as a round the client would have attempted (requests are
/// billed, no offset lands), which is exactly what the live client
/// experiences on a lossy channel.
class Logger {
 public:
  Logger(sim::Simulation& sim, sim::DisciplinedClock& clock,
         ntp::ServerPool& pool, net::WirelessChannel& channel,
         LoggerParams params, core::Rng rng);

  /// Cancels the capture like stop(): queries still in flight fire into
  /// the simulation but no longer touch this object.
  ~Logger();
  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  void start();

  /// Stop capturing. The periodic process is cancelled AND any query
  /// still in flight is disarmed — its completion callback becomes a
  /// no-op instead of mutating a stopped (or destroyed) logger. A
  /// stopped logger can be start()ed again; records from rounds that
  /// were in flight across the stop are dropped, not resurrected.
  void stop();

  [[nodiscard]] bool started() const { return started_; }

  /// The captured trace so far (records land when their round completes).
  [[nodiscard]] const Trace& trace() const { return trace_; }

 private:
  void capture_once();

  sim::Simulation& sim_;
  ntp::ServerPool& pool_;
  net::WirelessChannel& channel_;
  LoggerParams params_;
  core::Rng rng_;
  ntp::QueryEngine engine_;
  sim::PeriodicProcess process_;
  Trace trace_;
  core::TimePoint start_;
  bool started_ = false;
  /// Shared liveness flag captured by in-flight query callbacks; flipped
  /// false on stop()/destruction so late completions cannot re-enter.
  std::shared_ptr<bool> alive_;
};

/// Result of replaying Algorithm 1 over a trace.
struct EmulationResult {
  /// Offsets MNTP reported (accepted), milliseconds.
  std::vector<double> reported_offsets_ms;
  /// RMSE of the reported offsets against a perfect clock (0 ms).
  double rmse_ms = 0.0;
  /// Requests the configuration emitted (each queried source counts,
  /// matching the paper's "Number of request" column).
  std::size_t requests = 0;
  std::size_t deferrals = 0;
  std::size_t rejections = 0;
  std::size_t resets = 0;
};

/// Replay Algorithm 1 over `trace` under `params`. Pure function of its
/// inputs — no network, no randomness.
[[nodiscard]] EmulationResult emulate(const Trace& trace, const MntpParams& params);

/// One searcher configuration and its score (a Table 2 row).
struct SearchEntry {
  MntpParams params;
  double rmse_ms = 0.0;
  std::size_t requests = 0;

  [[nodiscard]] std::string to_string() const;
};

struct SearchSpace {
  std::vector<core::Duration> warmup_periods;
  std::vector<core::Duration> warmup_wait_times;
  std::vector<core::Duration> regular_wait_times;
  std::vector<core::Duration> reset_periods;
  /// Everything not swept is copied from this base configuration.
  MntpParams base;
};

struct SearchOptions {
  /// Worker threads scoring configurations. <= 1 scores serially on the
  /// calling thread (no pool is created); N > 1 fans the grid out over a
  /// core::ThreadPool, unless the telemetry is tracing events or queries,
  /// which scores serially too. Output is bit-identical either way.
  std::size_t threads = 1;
};

/// Enumerate the cartesian product and score each combination. Entries
/// come back in enumeration order (warmup_period outermost, reset_period
/// innermost — the order of the SearchSpace fields); callers sort as
/// needed.
///
/// Determinism guarantee: emulate() is a pure function of (trace,
/// params), each worker writes only its own entry's slot, and per-config
/// trace events are emitted after scoring completes, in enumeration
/// order, from the calling thread — so the returned entries are
/// bit-identical for any `threads` value. The replays' own mntp events
/// and query-tracer rounds would land in scheduler order on workers, so
/// a search with event tracing or the query tracer on scores on the
/// calling thread: every traced artifact is the serial one byte for
/// byte, and metric totals stay exact either way.
[[nodiscard]] std::vector<SearchEntry> search(const Trace& trace,
                                              const SearchSpace& space,
                                              const SearchOptions& options);

/// Serial convenience overload (SearchOptions defaults).
[[nodiscard]] std::vector<SearchEntry> search(const Trace& trace,
                                              const SearchSpace& space);

}  // namespace mntp::protocol::tuner
