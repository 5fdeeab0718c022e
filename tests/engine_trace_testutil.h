// Trace helpers for migration-engine tests: record the engine's events and read back the
// `b` payload of one event type (attempt number, fault kind, re-route count, ...).

#pragma once

#include <cstdint>
#include <vector>

#include "src/trace/tracer.h"

namespace chronotier {

// Records only the kMigration category, with telemetry and provenance off.
inline TraceConfig MigrationTraceConfig() {
  TraceConfig config;
  config.enabled = true;
  config.categories = TraceCategoryBit(TraceCategory::kMigration);
  config.provenance_sample_period = 0;
  config.telemetry_period = 0;
  return config;
}

// The `b` payloads of every retained `type` event, in emission order.
inline std::vector<uint64_t> TracePayloadsB(const Tracer& tracer, TraceEventType type) {
  std::vector<uint64_t> payloads;
  tracer.ForEachEvent([&](const TraceEvent& event) {
    if (event.type == type) payloads.push_back(event.b);
  });
  return payloads;
}

}  // namespace chronotier
