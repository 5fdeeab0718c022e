#include "src/trace/tracer.h"

#include <fstream>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace chronotier {

namespace {

// Pages that keep a provenance history; pages sampled past this many are not tracked.
constexpr uint64_t kProvenanceMaxPages = 4096;

uint64_t ProvenanceKey(int32_t pid, uint64_t vpn) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(pid)) << 48) ^ vpn;
}

}  // namespace

Tracer::Tracer(const TraceConfig& config)
    : config_(config), telemetry_(config.telemetry_period) {
  CHECK_GT(config_.ring_capacity, 0u) << "trace ring capacity must be positive";
  // Reserve up front: ring writes must never reallocate mid-run.
  ring_.reserve(config_.ring_capacity);
}

void Tracer::Emit(TraceCategory category, TraceEventType type, SimTime ts, int32_t pid,
                  uint64_t vpn, NodeId from, NodeId to, uint64_t a, uint64_t b,
                  uint64_t c) {
  telemetry_.MaybeSample(ts);
  if (!wants(category)) return;

  TraceEvent event;
  event.ts = ts;
  event.vpn = vpn;
  event.a = a;
  event.b = b;
  // >4s of queueing on one access would mean the model is broken; saturate, don't wrap.
  event.c = c > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(c);
  event.pid = pid;
  event.type = type;
  event.category = TraceCategoryIndex(category);
  event.from = static_cast<int16_t>(from);
  event.to = static_cast<int16_t>(to);

  if (ring_.size() < config_.ring_capacity) {
    ring_.push_back(event);
  } else {
    ring_[head_] = event;
    head_ = (head_ + 1) % ring_.size();
    ++overwritten_;
  }
  ++recorded_;

  if (vpn != kTraceNoVpn) RecordProvenance(event);
}

void Tracer::SetProcessName(int32_t pid, std::string name) {
  process_names_[pid] = std::move(name);
}

bool Tracer::SampledForProvenance(int32_t pid, uint64_t vpn) const {
  if (config_.provenance_sample_period == 0) return false;
  // SplitMix64 of the (pid, vpn) key: run-order independent, no simulation RNG consumed.
  return SplitMix64(ProvenanceKey(pid, vpn)) % config_.provenance_sample_period == 0;
}

void Tracer::RecordProvenance(const TraceEvent& event) {
  if (!SampledForProvenance(event.pid, event.vpn)) return;
  const uint64_t key = ProvenanceKey(event.pid, event.vpn);
  auto it = provenance_.find(key);
  if (it == provenance_.end()) {
    if (provenance_.size() >= kProvenanceMaxPages) return;
    it = provenance_.emplace(key, PageProvenance{}).first;
    it->second.pid = event.pid;
    it->second.vpn = event.vpn;
    it->second.recent.reserve(config_.provenance_depth);
  }
  PageProvenance& page = it->second;
  ++page.total_events;
  if (page.recent.size() < config_.provenance_depth) {
    page.recent.push_back(event);
  } else {
    page.recent[page.next] = event;
    page.next = (page.next + 1) % static_cast<uint32_t>(page.recent.size());
  }
}

const PageProvenance* Tracer::ProvenanceFor(int32_t pid, uint64_t vpn) const {
  const auto it = provenance_.find(ProvenanceKey(pid, vpn));
  return it == provenance_.end() ? nullptr : &it->second;
}

void Tracer::WriteProvenance(std::ostream& out) const {
  out << "# page provenance: " << provenance_.size() << " sampled pages (1-in-"
      << config_.provenance_sample_period << " sampling, last " << config_.provenance_depth
      << " events each)\n";
  for (const auto& [key, page] : provenance_) {
    (void)key;
    out << "page pid=" << page.pid << " vpn=0x" << std::hex << page.vpn << std::dec
        << " events=" << page.total_events;
    if (page.total_events > page.recent.size()) {
      out << " (showing last " << page.recent.size() << ")";
    }
    out << '\n';
    page.ForEach([&out](const TraceEvent& event) {
      out << "  " << ToMilliseconds(event.ts) << "ms " << TraceEventTypeName(event.type);
      if (event.from != kInvalidNode || event.to != kInvalidNode) {
        out << " node " << event.from << "->" << event.to;
      }
      out << " a=" << event.a << " b=" << event.b << '\n';
    });
  }
}

bool Tracer::WriteProvenanceFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  WriteProvenance(out);
  return static_cast<bool>(out);
}

}  // namespace chronotier
