#include "src/trace/telemetry.h"

#include <fstream>

#include "src/common/json.h"

namespace chronotier {

namespace {

// Keeps a runaway configuration (tiny period, long run) from exhausting memory; at the
// default 100 ms period this is ~29 simulated hours of samples.
constexpr size_t kMaxSamples = 1u << 20;

}  // namespace

void TelemetrySampler::ForceSample(SimTime now) {
  if (!snapshot_) return;
  if (!samples_.empty() && samples_.back().ts >= now) return;
  TakeSample(now);
}

void TelemetrySampler::TakeSample(SimTime now) {
  if (samples_.size() >= kMaxSamples) return;
  TelemetrySample sample;
  sample.ts = now;
  snapshot_(now, &sample);
  samples_.push_back(std::move(sample));
  next_ = now + period_;
}

void TelemetrySampler::WriteCsv(std::ostream& out) const {
  const size_t tiers = samples_.empty() ? 0 : samples_.front().tiers.size();
  out << "ts_ms";
  for (size_t t = 0; t < tiers; ++t) {
    out << ",tier" << t << "_free,tier" << t << "_allocated,tier" << t << "_quarantined,tier"
        << t << "_stolen,tier" << t << "_wm_min,tier" << t << "_wm_low,tier" << t
        << "_wm_high,tier" << t << "_wm_pro,tier" << t << "_lru_active,tier" << t
        << "_lru_inactive,tier" << t << "_inflight_reserved,tier" << t
        << "_link_backlog_ns,tier" << t << "_congestion_queued_ns,tier" << t
        << "_congested_accesses,tier" << t << "_migration_link_bytes";
  }
  out << ",inflight_transactions,backlog_sync,backlog_async,backlog_reclaim,accesses,fmar,"
         "tlb_hit_rate";
  // Tenant columns follow the samples' rows; every sample carries the same tenant count.
  const size_t tenants = samples_.empty() ? 0 : samples_.front().tenants.size();
  for (size_t t = 0; t < tenants; ++t) {
    out << ",tenant" << t << "_resident_fast,tenant" << t << "_resident_total,tenant" << t
        << "_accesses,tenant" << t << "_qos_checks,tenant" << t << "_qos_refusals,tenant"
        << t << "_borrows,tenant" << t << "_p50_latency_ns,tenant" << t
        << "_p99_latency_ns";
  }
  out << '\n';
  for (const TelemetrySample& s : samples_) {
    out << ToMilliseconds(s.ts);
    for (size_t t = 0; t < tiers; ++t) {
      const TelemetrySample::Tier& tier = s.tiers[t];
      out << ',' << tier.free << ',' << tier.allocated << ',' << tier.quarantined << ','
          << tier.stolen << ',' << tier.wm_min << ',' << tier.wm_low << ',' << tier.wm_high
          << ',' << tier.wm_pro << ',' << tier.lru_active << ',' << tier.lru_inactive << ','
          << tier.inflight_reserved << ',' << tier.link_backlog_ns << ','
          << tier.congestion_queued_ns << ',' << tier.congested_accesses << ','
          << tier.migration_link_bytes;
    }
    out << ',' << s.inflight_transactions << ',' << s.backlog_sync << ',' << s.backlog_async
        << ',' << s.backlog_reclaim << ',' << s.accesses << ',' << s.fmar << ','
        << s.tlb_hit_rate;
    for (size_t t = 0; t < tenants; ++t) {
      const TelemetrySample::Tenant& tenant = s.tenants[t];
      out << ',' << tenant.resident_fast << ',' << tenant.resident_total << ','
          << tenant.accesses << ',' << tenant.qos_checks << ',' << tenant.qos_refusals
          << ',' << tenant.borrows << ',' << tenant.p50_latency_ns << ','
          << tenant.p99_latency_ns;
    }
    out << '\n';
  }
}

void TelemetrySampler::WriteJson(std::ostream& out) const {
  JsonWriter json(out);
  json.set_pretty(true);
  json.BeginArray();
  for (const TelemetrySample& s : samples_) {
    json.BeginObject();
    json.Field("ts_ns", static_cast<int64_t>(s.ts));
    json.Key("tiers");
    json.BeginArray();
    for (const TelemetrySample::Tier& tier : s.tiers) {
      json.BeginObject();
      json.Field("free", tier.free);
      json.Field("allocated", tier.allocated);
      json.Field("quarantined", tier.quarantined);
      json.Field("stolen", tier.stolen);
      json.Field("wm_min", tier.wm_min);
      json.Field("wm_low", tier.wm_low);
      json.Field("wm_high", tier.wm_high);
      json.Field("wm_pro", tier.wm_pro);
      json.Field("lru_active", tier.lru_active);
      json.Field("lru_inactive", tier.lru_inactive);
      json.Field("inflight_reserved", tier.inflight_reserved);
      json.Field("link_backlog_ns", tier.link_backlog_ns);
      json.Field("congestion_queued_ns", tier.congestion_queued_ns);
      json.Field("congested_accesses", tier.congested_accesses);
      json.Field("migration_link_bytes", tier.migration_link_bytes);
      json.EndObject();
    }
    json.EndArray();
    json.Field("inflight_transactions", s.inflight_transactions);
    json.Field("backlog_sync", s.backlog_sync);
    json.Field("backlog_async", s.backlog_async);
    json.Field("backlog_reclaim", s.backlog_reclaim);
    json.Field("accesses", s.accesses);
    json.Field("fmar", s.fmar);
    json.Field("tlb_hit_rate", s.tlb_hit_rate);
    json.Key("tenants");
    json.BeginArray();
    for (const TelemetrySample::Tenant& tenant : s.tenants) {
      json.BeginObject();
      json.Field("resident_fast", tenant.resident_fast);
      json.Field("resident_total", tenant.resident_total);
      json.Field("accesses", tenant.accesses);
      json.Field("qos_checks", tenant.qos_checks);
      json.Field("qos_refusals", tenant.qos_refusals);
      json.Field("borrows", tenant.borrows);
      json.Field("p50_latency_ns", tenant.p50_latency_ns);
      json.Field("p99_latency_ns", tenant.p99_latency_ns);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  out << '\n';
}

bool TelemetrySampler::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    WriteJson(out);
  } else {
    WriteCsv(out);
  }
  return static_cast<bool>(out);
}

}  // namespace chronotier
