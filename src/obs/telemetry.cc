#include "obs/telemetry.h"

namespace mntp::obs {

void Telemetry::capture_events(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(events_mutex_);
  events_ = core::RingBuffer<TraceEvent>(capacity);
  events_total_ = 0;
  capturing_.store(true, std::memory_order_relaxed);
}

void Telemetry::emit(const TraceEvent& event) {
  if (!enabled() || !tracing()) return;
  std::lock_guard<std::mutex> lock(events_mutex_);
  events_.push(event);
  ++events_total_;
}

void Telemetry::event(core::TimePoint t, std::string_view category,
                      std::string_view name, std::vector<Field> fields) {
  if (!enabled() || !tracing()) return;
  emit(TraceEvent{.t = t,
                  .category = std::string(category),
                  .name = std::string(name),
                  .fields = std::move(fields)});
}

void Telemetry::set_enabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
  metrics_.set_enabled(enabled);
}

Telemetry*& Telemetry::global_slot() {
  static Telemetry default_instance;
  static Telemetry* current = &default_instance;
  return current;
}

Telemetry& Telemetry::global() { return *global_slot(); }

}  // namespace mntp::obs
