#include "src/trace/exporter.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <utility>
#include <vector>

#include "src/common/json.h"

namespace chronotier {

namespace {

// Synthetic trace "processes" (Perfetto groups tracks by pid).
constexpr int kWorkloadsPid = 1;
constexpr int kEnginePid = 2;
constexpr int kDaemonsPid = 3;
constexpr int kTelemetryPid = 4;
constexpr int kTenantsPid = 5;  // One track per tenant (QoS verdict stream).

// Engine-track tids: 0 is the transaction lifecycle track, channels start at 16. The
// stride bounds the decodable node count (hi < stride); 16 covers every topology the
// benches sweep (<= 9 nodes) with room to spare.
constexpr int kChannelTidBase = 16;
constexpr int kChannelTidStride = 16;

// Daemon-track tids.
constexpr int kReclaimTid = 0;
constexpr int kScannerTid = 1;
constexpr int kPolicyTid = 2;
constexpr int kTuningTid = 3;
constexpr int kInjectorTid = 4;

struct Track {
  int pid = 0;
  int tid = 0;
  bool operator<(const Track& other) const {
    return pid != other.pid ? pid < other.pid : tid < other.tid;
  }
};

Track TrackFor(const TraceEvent& event) {
  switch (event.type) {
    case TraceEventType::kAccess:
    case TraceEventType::kDemandFault:
    case TraceEventType::kHintFault:
    case TraceEventType::kAllocRefused:
    case TraceEventType::kHugeSplit:
      return {kWorkloadsPid, event.pid >= 0 ? event.pid : 0};
    case TraceEventType::kMigrationCopy: {
      const int lo = std::max(0, static_cast<int>(std::min(event.from, event.to)));
      const int hi = std::max(0, static_cast<int>(std::max(event.from, event.to)));
      return {kEnginePid, kChannelTidBase + lo * kChannelTidStride + hi};
    }
    case TraceEventType::kMigrationSubmit:
    case TraceEventType::kMigrationRefused:
    case TraceEventType::kMigrationDirtyAbort:
    case TraceEventType::kMigrationCopyFault:
    case TraceEventType::kMigrationCommit:
    case TraceEventType::kMigrationAbort:
    case TraceEventType::kMigrationPark:
    case TraceEventType::kMigrationReroute:
      return {kEnginePid, 0};
    case TraceEventType::kTenantQosVerdict:
      // a carries the tenant id, so Perfetto renders one verdict track per tenant.
      return {kTenantsPid, static_cast<int>(event.a)};
    case TraceEventType::kReclaimWake:
    case TraceEventType::kReclaimDone:
      return {kDaemonsPid, kReclaimTid};
    case TraceEventType::kScanPoison:
    case TraceEventType::kScanLap:
      return {kDaemonsPid, kScannerTid};
    case TraceEventType::kPolicyPromote:
    case TraceEventType::kPolicyDemote:
    case TraceEventType::kPolicyEnqueue:
      return {kDaemonsPid, kPolicyTid};
    case TraceEventType::kTuningUpdate:
      return {kDaemonsPid, kTuningTid};
    case TraceEventType::kFaultStall:
    case TraceEventType::kFaultPressureBegin:
    case TraceEventType::kFaultPressureEnd:
    case TraceEventType::kFaultAllocBegin:
    case TraceEventType::kFaultAllocEnd:
    case TraceEventType::kFaultLinkDown:
    case TraceEventType::kFaultLinkDegraded:
    case TraceEventType::kFaultLinkRestored:
    case TraceEventType::kFaultEndpointFailing:
    case TraceEventType::kFaultEndpointOffline:
    case TraceEventType::kFaultEndpointRecovered:
    case TraceEventType::kFaultEvacuationStalled:
      return {kDaemonsPid, kInjectorTid};
  }
  return {kDaemonsPid, kInjectorTid};
}

std::string ThreadName(const Tracer& tracer, const Track& track) {
  if (track.pid == kWorkloadsPid) {
    const auto it = tracer.process_names().find(track.tid);
    if (it != tracer.process_names().end()) {
      return it->second + " (pid " + std::to_string(track.tid) + ")";
    }
    return "pid " + std::to_string(track.tid);
  }
  if (track.pid == kTenantsPid) {
    return "tenant " + std::to_string(track.tid);
  }
  if (track.pid == kEnginePid) {
    if (track.tid == 0) return "transactions";
    const int channel = track.tid - kChannelTidBase;
    return "copy node" + std::to_string(channel / kChannelTidStride) + "<->node" +
           std::to_string(channel % kChannelTidStride);
  }
  switch (track.tid) {
    case kReclaimTid: return "reclaim";
    case kScannerTid: return "scanner";
    case kPolicyTid: return "policy";
    case kTuningTid: return "tuning";
    case kInjectorTid: return "fault injector";
  }
  return "tid " + std::to_string(track.tid);
}

// Chrome trace timestamps are microseconds; keep sub-us precision as a fraction.
double ToTraceUs(SimTime ts) { return static_cast<double>(ts) / 1000.0; }

void WriteMetadata(JsonWriter& json, const char* name, int pid, int tid,
                   const std::string& value) {
  json.BeginObject();
  json.Field("name", name);
  json.Field("ph", "M");
  json.Field("pid", pid);
  if (tid >= 0) json.Field("tid", tid);
  json.Key("args");
  json.BeginObject();
  json.Field("name", value);
  json.EndObject();
  json.EndObject();
}

void WriteEvent(JsonWriter& json, const Track& track, const TraceEvent& event) {
  json.BeginObject();
  json.Field("name", TraceEventTypeName(event.type));
  json.Field("cat", TraceCategoryName(static_cast<TraceCategory>(1u << event.category)));
  if (event.type == TraceEventType::kMigrationCopy) {
    // Copy passes are the one event with a natural duration: b carries the booked copy
    // time, so each channel track shows back-to-back slices when saturated.
    json.Field("ph", "X");
    json.Field("ts", ToTraceUs(event.ts));
    json.Field("dur", static_cast<double>(event.b) / 1000.0);
  } else {
    json.Field("ph", "i");
    json.Field("ts", ToTraceUs(event.ts));
    json.Field("s", "t");
  }
  json.Field("pid", track.pid);
  json.Field("tid", track.tid);
  json.Key("args");
  json.BeginObject();
  if (event.pid >= 0) json.Field("proc", event.pid);
  if (event.vpn != kTraceNoVpn) json.Field("vpn", event.vpn);
  if (event.from != kInvalidNode) json.Field("from", static_cast<int>(event.from));
  if (event.to != kInvalidNode) json.Field("to", static_cast<int>(event.to));
  json.Field("a", event.a);
  json.Field("b", event.b);
  // Congestion queueing delay: omitted when zero so congestion-free traces are unchanged.
  if (event.c != 0) json.Field("c", event.c);
  json.EndObject();
  json.EndObject();
}

void WriteCounters(JsonWriter& json, const TelemetrySampler& telemetry) {
  for (const TelemetrySample& sample : telemetry.samples()) {
    const double ts = ToTraceUs(sample.ts);
    for (size_t tier = 0; tier < sample.tiers.size(); ++tier) {
      const TelemetrySample::Tier& t = sample.tiers[tier];
      json.BeginObject();
      json.Field("name", "tier" + std::to_string(tier) + " pages");
      json.Field("ph", "C");
      json.Field("ts", ts);
      json.Field("pid", kTelemetryPid);
      json.Key("args");
      json.BeginObject();
      json.Field("free", t.free);
      json.Field("allocated", t.allocated);
      json.Field("quarantined", t.quarantined);
      json.Field("stolen", t.stolen);
      json.EndObject();
      json.EndObject();
    }
    json.BeginObject();
    json.Field("name", "engine backlog");
    json.Field("ph", "C");
    json.Field("ts", ts);
    json.Field("pid", kTelemetryPid);
    json.Key("args");
    json.BeginObject();
    json.Field("sync", sample.backlog_sync);
    json.Field("async", sample.backlog_async);
    json.Field("reclaim", sample.backlog_reclaim);
    json.Field("inflight", sample.inflight_transactions);
    json.EndObject();
    json.EndObject();
    json.BeginObject();
    json.Field("name", "fmar");
    json.Field("ph", "C");
    json.Field("ts", ts);
    json.Field("pid", kTelemetryPid);
    json.Key("args");
    json.BeginObject();
    json.Field("fmar", sample.fmar);
    json.EndObject();
    json.EndObject();
  }
}

}  // namespace

void WriteChromeTrace(const Tracer& tracer, std::ostream& out) {
  // Bucket retained events by track. Per-process simulated clocks run ahead of the
  // queue clock inside a quantum, so the global ring order is not per-track time order;
  // a stable per-track sort restores monotone timestamps (asserted by tests).
  std::map<Track, std::vector<TraceEvent>> tracks;
  tracer.ForEachEvent(
      [&tracks](const TraceEvent& event) { tracks[TrackFor(event)].push_back(event); });
  for (auto& [track, events] : tracks) {
    (void)track;
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent& x, const TraceEvent& y) { return x.ts < y.ts; });
  }

  JsonWriter json(out);
  json.BeginObject();
  json.Key("traceEvents");
  json.BeginArray();

  WriteMetadata(json, "process_name", kWorkloadsPid, -1, "workloads");
  WriteMetadata(json, "process_name", kEnginePid, -1, "migration engine");
  WriteMetadata(json, "process_name", kDaemonsPid, -1, "daemons");
  WriteMetadata(json, "process_name", kTelemetryPid, -1, "telemetry");
  // Tenant tracks exist only when the trace holds QoS verdicts, so the "tenants" process
  // is named only then.
  for (const auto& [track, events] : tracks) {
    (void)events;
    if (track.pid == kTenantsPid) {
      WriteMetadata(json, "process_name", kTenantsPid, -1, "tenants");
      break;
    }
  }
  for (const auto& [track, events] : tracks) {
    (void)events;
    WriteMetadata(json, "thread_name", track.pid, track.tid, ThreadName(tracer, track));
  }

  for (const auto& [track, events] : tracks) {
    for (const TraceEvent& event : events) WriteEvent(json, track, event);
  }
  WriteCounters(json, tracer.telemetry());

  json.EndArray();
  json.Field("displayTimeUnit", "ms");
  json.Key("metadata");
  json.BeginObject();
  json.Field("recorded_events", tracer.recorded());
  json.Field("dropped_events", tracer.overwritten());
  json.Field("categories", FormatTraceCategoryMask(tracer.config().categories));
  json.EndObject();
  json.EndObject();
  out << '\n';
}

bool WriteChromeTraceFile(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  WriteChromeTrace(tracer, out);
  return static_cast<bool>(out);
}

}  // namespace chronotier
