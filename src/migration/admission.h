// Admission control in front of the migration engine (TierBPF-style): a submission is
// refused *before* it can reserve frames or book channel time when (a) the channel backlog
// exceeds what its class tolerates, (b) its source already has too many pages in flight, or
// (c) the owner tenant's admission QoS program refuses it. Replaces the old ad-hoc
// `migration_backlog_limit` / `sync_migration_slack` scalars with per-class limits plus
// per-source throttling; the QoS hook (when installed) runs last so tenant programs only
// see submissions the global limits would admit.

#pragma once

#include <cstdint>

#include "src/common/check.h"
#include "src/migration/migration_types.h"

namespace chronotier {

class AdmissionController {
 public:
  explicit AdmissionController(const MigrationEngineConfig* config) : config_(config) {}

  // Backlog a request of `klass` from `source` tolerates before refusal. Evacuation
  // drains (finite, emergency) tolerate more than the class baseline so they make
  // progress through a fabric that steady-state policy traffic keeps pinned at exactly
  // the class limits.
  SimDuration BacklogLimit(MigrationClass klass, MigrationSource source) const {
    SimDuration limit = 0;
    switch (klass) {
      case MigrationClass::kSync:
        limit = config_->sync_slack;
        break;
      case MigrationClass::kAsync:
        limit = config_->async_backlog_limit;
        break;
      case MigrationClass::kReclaim:
        limit = config_->reclaim_backlog_limit;
        break;
    }
    if (source == MigrationSource::kEvacuation && config_->evac_backlog_limit > limit) {
      limit = config_->evac_backlog_limit;
    }
    return limit;
  }

  // Verdict for a request seeing `backlog` on its channel. Does not book anything. The
  // engine may call this twice for one submission (initial check + post-reclaim recheck),
  // so the QoS hook's QosCheck must not mutate admission state.
  MigrationRefusal Check(MigrationClass klass, MigrationSource source, SimDuration backlog,
                         uint64_t pages, int32_t owner = kQosNoOwner,
                         NodeId from = kInvalidNode, NodeId to = kInvalidNode,
                         SimTime now = 0) const {
    if (backlog > BacklogLimit(klass, source)) {
      return MigrationRefusal::kBacklog;
    }
    const uint64_t inflight = inflight_pages_[static_cast<size_t>(source)];
    if (inflight > 0 && inflight + pages > config_->source_inflight_page_limit) {
      return MigrationRefusal::kSourceThrottled;
    }
    if (qos_ != nullptr) {
      return qos_->QosCheck(owner, source, from, to, pages, now);
    }
    return MigrationRefusal::kNone;
  }

  void OnAdmit(MigrationSource source, uint64_t pages, int32_t owner = kQosNoOwner,
               NodeId to = kInvalidNode, SimTime now = 0) {
    inflight_pages_[static_cast<size_t>(source)] += pages;
    if (qos_ != nullptr) {
      qos_->QosAdmit(owner, source, to, pages, now);
    }
  }
  void OnRetire(MigrationSource source, uint64_t pages) {
    uint64_t& inflight = inflight_pages_[static_cast<size_t>(source)];
    CHECK(inflight >= pages) << "admission retire underflow: source="
                             << static_cast<int>(source) << " inflight=" << inflight
                             << " retiring=" << pages;
    inflight -= pages;
  }

  // Per-tenant admission QoS (implemented by the tenant registry). Null = no tenant QoS;
  // non-null hooks are consulted by Check and charged by OnAdmit.
  void set_qos_hook(AdmissionQosHook* hook) { qos_ = hook; }

 private:
  const MigrationEngineConfig* config_;
  AdmissionQosHook* qos_ = nullptr;
  uint64_t inflight_pages_[kNumMigrationSources] = {};
};

}  // namespace chronotier
