// Ring-buffer tracer: the core of the observability subsystem.
//
// Design constraints (DESIGN.md §6):
//  - Zero cost when off: the Machine holds a null Tracer pointer when tracing is
//    disabled; every instrumentation site is a single branch on that pointer.
//  - Strictly observational: Emit only appends to tracer-owned storage and reads
//    machine state through the telemetry snapshot callback. It never schedules events,
//    draws from simulation RNG streams, or mutates simulation state, so enabling
//    tracing cannot change any simulated outcome (enforced by tests/trace_test.cc).
//  - Bounded memory: the ring overwrites its oldest record when full and counts every
//    overwrite, surfaced as `trace_events_dropped` in Metrics/ExperimentResult so a
//    truncated trace is detectable rather than silent.

#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/mem/tier.h"
#include "src/trace/telemetry.h"
#include "src/trace/trace_event.h"

namespace chronotier {

struct TraceConfig {
  bool enabled = false;
  // Bitmask of TraceCategory; only events in enabled categories are recorded.
  uint32_t categories = kTraceAllCategories;
  // Ring capacity in events (40 B each). When full, the oldest event is overwritten and
  // the drop counter increments.
  uint64_t ring_capacity = 1ull << 18;

  // Per-page provenance: pages whose (pid, vpn) hash lands in a 1-in-N bucket keep a
  // bounded last-K history of their page-scoped events. 0 disables; 1 samples all pages
  // (at most 4,096 of them: kProvenanceMaxPages, tracer.cc).
  uint64_t provenance_sample_period = 64;
  uint32_t provenance_depth = 16;

  // Time-series sampler period; 0 disables sampling.
  SimDuration telemetry_period = 100 * kMillisecond;

  // Export destinations, written by Experiment::Run after the run completes. Empty
  // disables the corresponding export.
  std::string export_path;       // Chrome-trace-event JSON (ui.perfetto.dev).
  std::string timeseries_path;   // Telemetry CSV (or JSON when the path ends in .json).
  std::string provenance_path;   // Human-readable provenance dump.
};

// Bounded event history for one sampled page.
struct PageProvenance {
  int32_t pid = kTraceNoPid;
  uint64_t vpn = kTraceNoVpn;
  uint64_t total_events = 0;  // Including those rotated out of the bounded history.
  std::vector<TraceEvent> recent;  // Ring of at most provenance_depth events.
  uint32_t next = 0;               // Write cursor once `recent` is full.

  // Invokes fn(event) oldest-to-newest over the retained history.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (recent.size() < total_events) {
      for (size_t i = 0; i < recent.size(); ++i) {
        fn(recent[(next + i) % recent.size()]);
      }
    } else {
      for (const TraceEvent& event : recent) fn(event);
    }
  }
};

class Tracer {
 public:
  explicit Tracer(const TraceConfig& config);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  const TraceConfig& config() const { return config_; }

  bool wants(TraceCategory category) const {
    return (config_.categories & TraceCategoryBit(category)) != 0;
  }

  // Records one event (if its category is enabled). `from`/`to` are NUMA nodes where
  // meaningful; `a`/`b` are type-specific payloads and `c` the endpoint-congestion
  // queueing delay in ns (see trace_event.h; stored saturating into 32 bits).
  void Emit(TraceCategory category, TraceEventType type, SimTime ts, int32_t pid,
            uint64_t vpn, NodeId from = kInvalidNode, NodeId to = kInvalidNode,
            uint64_t a = 0, uint64_t b = 0, uint64_t c = 0);

  // Registers a display name for a simulated process (exporter track labels).
  void SetProcessName(int32_t pid, std::string name);
  const std::map<int32_t, std::string>& process_names() const { return process_names_; }

  // Ring accounting. recorded = total accepted events; overwritten = events evicted by
  // wraparound; size = events currently retained (= min(recorded, capacity)).
  uint64_t recorded() const { return recorded_; }
  uint64_t overwritten() const { return overwritten_; }
  uint64_t size() const { return ring_.size(); }

  // Iterates retained events oldest-to-newest.
  template <typename Fn>
  void ForEachEvent(Fn&& fn) const {
    if (overwritten_ == 0) {
      for (const TraceEvent& event : ring_) fn(event);
      return;
    }
    for (size_t i = 0; i < ring_.size(); ++i) {
      fn(ring_[(head_ + i) % ring_.size()]);
    }
  }

  // Provenance access. Lookup returns null for unsampled pages.
  const PageProvenance* ProvenanceFor(int32_t pid, uint64_t vpn) const;
  size_t provenance_page_count() const { return provenance_.size(); }
  // Writes a deterministic, human-readable dump of every sampled page's history.
  void WriteProvenance(std::ostream& out) const;
  bool WriteProvenanceFile(const std::string& path) const;

  TelemetrySampler& telemetry() { return telemetry_; }
  const TelemetrySampler& telemetry() const { return telemetry_; }

  // Gives the telemetry sampler a chance to fire; called from Emit and from existing
  // periodic machine work (never from a dedicated queue event — see telemetry.h).
  void Poll(SimTime now) { telemetry_.MaybeSample(now); }

 private:
  // Fixed provenance hash: keyed off (pid, vpn) only, so whether a page is sampled never
  // depends on run order, and no simulation RNG stream is consumed.
  bool SampledForProvenance(int32_t pid, uint64_t vpn) const;
  void RecordProvenance(const TraceEvent& event);

  const TraceConfig config_;
  std::vector<TraceEvent> ring_;
  size_t head_ = 0;  // Oldest retained event once the ring has wrapped.
  uint64_t recorded_ = 0;
  uint64_t overwritten_ = 0;

  // Keyed by (pid << 48) ^ vpn; std::map keeps dumps deterministically ordered.
  std::map<uint64_t, PageProvenance> provenance_;
  std::map<int32_t, std::string> process_names_;
  TelemetrySampler telemetry_;
};

// Null-safe emission helper for instrumentation sites.
inline void EmitTrace(Tracer* tracer, TraceCategory category, TraceEventType type,
                      SimTime ts, int32_t pid, uint64_t vpn, NodeId from = kInvalidNode,
                      NodeId to = kInvalidNode, uint64_t a = 0, uint64_t b = 0,
                      uint64_t c = 0) {
  if (tracer != nullptr) tracer->Emit(category, type, ts, pid, vpn, from, to, a, b, c);
}

}  // namespace chronotier
