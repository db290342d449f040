// Structured trace events.
//
// A trace event is a simulation-time-stamped record — (t, category, name,
// key/value fields) — the qualitative complement of the metrics registry:
// metrics answer "how many / how long", events answer "what happened at
// t=...". Categories group related emitters ("sim", "net", "ntp",
// "mntp", "tuner"); names identify the event within the category
// ("round", "deferral", "timeout").
//
// Events are captured by the Telemetry context's bounded event ring
// (obs/telemetry.h); the run report (obs/report.h) writes the retained
// events.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/time.h"

namespace mntp::obs {

/// Field values keep JSON's scalar types; int64 covers counts and ns.
using FieldValue = std::variant<std::int64_t, double, std::string, bool>;

struct Field {
  std::string key;
  FieldValue value;
};

struct TraceEvent {
  core::TimePoint t;  ///< simulation time of the occurrence
  std::string category;
  std::string name;
  std::vector<Field> fields;
};

/// JSON string escaping for the exporters (quotes, backslashes, control
/// characters; non-ASCII passes through as UTF-8).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Render one event as a single-line JSON object:
/// {"type":"event","t_ns":...,"category":"..","name":"..","fields":{..}}
[[nodiscard]] std::string to_jsonl_line(const TraceEvent& e);

}  // namespace mntp::obs
