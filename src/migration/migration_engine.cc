#include "src/migration/migration_engine.h"

#include <algorithm>

#include "src/common/check.h"

namespace chronotier {

MigrationEngine::MigrationEngine(MigrationEngineConfig config, MigrationEnv* env,
                                 MigrationStats* stats)
    : config_(config), env_(env), stats_(stats), admission_(&config_) {
  CHECK(env_ != nullptr && stats_ != nullptr);
  num_nodes_ = env_->memory().num_nodes();
  inflight_pages_by_node_.assign(static_cast<size_t>(num_nodes_), 0);
  // One channel per topology edge {lo, hi}, lo < hi: both copy directions over a link
  // contend for the same device bandwidth. The two-tier star "(1,2)" has the single
  // channel (0,1); deeper trees have one channel per tree link, and copies between
  // non-adjacent nodes are routed over multiple channels (BookCopy).
  const Topology& topo = env_->memory().topology();
  edge_channel_.assign(static_cast<size_t>(num_nodes_) * static_cast<size_t>(num_nodes_), -1);
  for (const auto& [lo, hi] : topo.edges()) {
    const int index = static_cast<int>(channels_.size());
    channels_.emplace_back(lo, hi);
    edge_channel_[static_cast<size_t>(lo) * static_cast<size_t>(num_nodes_) +
                  static_cast<size_t>(hi)] = index;
    edge_channel_[static_cast<size_t>(hi) * static_cast<size_t>(num_nodes_) +
                  static_cast<size_t>(lo)] = index;
  }
}

size_t MigrationEngine::ChannelIndex(NodeId from, NodeId to) const {
  const int index = edge_channel_[static_cast<size_t>(from) * static_cast<size_t>(num_nodes_) +
                                  static_cast<size_t>(to)];
  CHECK(index >= 0) << "no copy channel between node " << from << " and node " << to
                    << " (not adjacent in this topology)";
  return static_cast<size_t>(index);
}

const CopyChannel& MigrationEngine::channel(NodeId from, NodeId to) const {
  return channels_[ChannelIndex(from, to)];
}

CopyChannel& MigrationEngine::channel_mutable(NodeId from, NodeId to) {
  return channels_[ChannelIndex(from, to)];
}

uint64_t MigrationEngine::inflight_reserved_pages_on(NodeId node) const {
  return inflight_pages_by_node_[static_cast<size_t>(node)];
}

SimDuration MigrationEngine::RouteBacklog(NodeId from, NodeId to, SimTime now) const {
  const TieredMemory& memory = env_->memory();
  const Topology& topo = memory.topology();
  if (memory.health().links_down() == 0 && topo.EdgeIndex(from, to) >= 0) {
    // Directly connected (always true on two-tier machines): the single channel's backlog.
    return channel(from, to).Backlog(now);
  }
  const std::vector<NodeId> route = HealthyRoute(from, to);
  SimDuration worst = 0;
  for (size_t i = 0; i + 1 < route.size(); ++i) {
    worst = std::max(worst, channel(route[i], route[i + 1]).Backlog(now));
  }
  return worst;
}

std::vector<NodeId> MigrationEngine::HealthyRoute(NodeId from, NodeId to) const {
  const TieredMemory& memory = env_->memory();
  std::vector<NodeId> route = memory.topology().Route(from, to);
  // links_down() first: a fault-free fabric never walks the link states.
  if (memory.health().links_down() > 0 &&
      !memory.topology().PathIsUp(route, memory.health().links())) {
    route.clear();
  }
  return route;
}

void MigrationEngine::OnLinkDown(NodeId lo, NodeId hi, SimTime now) {
  (void)now;
  // Slot-order walk (deterministic, and the flag set is commutative anyway). The
  // copy-done event of each flagged pass performs the actual abort/re-route.
  inflight_.ForEach([&](uint64_t /*key*/, Transaction& txn) {
    for (size_t i = 0; i + 1 < txn.route.size(); ++i) {
      const NodeId a = txn.route[i];
      const NodeId b = txn.route[i + 1];
      if ((a == lo && b == hi) || (a == hi && b == lo)) {
        txn.leg_failed = true;
        break;
      }
    }
  });
}

MigrationTicket MigrationEngine::Submit(Vma& vma, PageInfo& unit, NodeId target,
                                        MigrationClass klass, MigrationSource source,
                                        SimTime now) {
  if (now == kNeverTime) {
    now = env_->queue().now();
  }
  MigrationTicket ticket;
  const auto refuse = [&](MigrationRefusal reason) {
    ticket.refusal = reason;
    ++stats_->refused[static_cast<size_t>(reason)];
    EmitTrace(tracer_, TraceCategory::kMigration, TraceEventType::kMigrationRefused, now,
              unit.owner, unit.vpn, unit.node, target, static_cast<uint64_t>(reason),
              static_cast<uint64_t>(klass));
    return ticket;
  };

  if (!unit.present() || unit.node == target || target < 0 || target >= num_nodes_) {
    return refuse(MigrationRefusal::kInvalid);
  }
  if (unit.Has(kPageMigrating)) {
    return refuse(MigrationRefusal::kAlreadyInFlight);
  }

  const NodeId from = unit.node;
  const uint64_t pages = vma.UnitPages(unit.vpn);
  const bool is_promotion = target == kFastNode;

  // Fabric fault domains: no new work may target a failing/offline endpoint, and a pair
  // partitioned by down links refuses before any channel or frame state is touched. The
  // any_fault() gate is O(1)-false on healthy fabrics, so fault-free runs take the exact
  // pre-fabric path.
  const TopologyHealth& health = env_->memory().health();
  if (health.any_fault()) {
    if (!health.endpoint_available(target)) {
      return refuse(MigrationRefusal::kEndpointFailing);
    }
    if (health.links_down() > 0 && HealthyRoute(from, target).size() < 2) {
      return refuse(MigrationRefusal::kNoRoute);
    }
  }

  // Degraded target tier: promotions pause (graceful degradation under injected faults or
  // capacity pressure) while demotions keep draining the tier.
  if (is_promotion && env_->memory().node(target).degraded()) {
    return refuse(MigrationRefusal::kTierDegraded);
  }

  // Admission: route backlog (worst traversed link) against the class limit, then
  // per-source throttling, then the owner tenant's QoS program (when a hook is installed).
  // All are checked before any frame or channel state is touched.
  const SimDuration backlog = RouteBacklog(from, target, now);
  const MigrationRefusal verdict =
      admission_.Check(klass, source, backlog, pages, unit.owner, from, target, now);
  if (verdict != MigrationRefusal::kNone) {
    return refuse(verdict);
  }

  // Per-endpoint admission: async work already holding too many reserved frames on the
  // target node refuses new transactions (never binds at the default limit).
  if (klass == MigrationClass::kAsync &&
      inflight_pages_by_node_[static_cast<size_t>(target)] + pages >
          config_.endpoint_inflight_page_limit) {
    return refuse(MigrationRefusal::kEndpointSaturated);
  }

  // Reserve target frames for the whole transaction (non-exclusive copy: source stays
  // resident until commit). Promotion pressure wakes direct reclaim once, mirroring the
  // kernel's allocate-for-migration slow path.
  TieredMemory& memory = env_->memory();
  if (!memory.node(target).TryAllocate(pages, /*allow_below_min=*/!is_promotion)) {
    if (!is_promotion) {
      return refuse(MigrationRefusal::kNoCapacity);
    }
    env_->ReclaimForPromotion(pages);
    if (!memory.node(target).TryAllocate(pages)) {
      return refuse(MigrationRefusal::kNoCapacity);
    }
    // Direct reclaim books demotions on this same channel, so the backlog this request
    // faces may have grown past its class limit. Re-check before copying; on refusal the
    // reserved frames go back (the demotions stay — reclaim progress is never undone).
    const SimDuration backlog_after = RouteBacklog(from, target, now);
    const MigrationRefusal recheck =
        admission_.Check(klass, source, backlog_after, pages, unit.owner, from, target, now);
    if (recheck != MigrationRefusal::kNone) {
      memory.FreePages(target, pages);
      return refuse(recheck);
    }
  }

  Transaction txn;
  txn.id = next_txn_id_++;
  txn.vma = &vma;
  txn.unit = &unit;
  txn.from = from;
  txn.to = target;
  txn.pages = pages;
  txn.klass = klass;
  txn.source = source;

  unit.Set(kPageMigrating);
  env_->OnUnitMigrationStateChanged(vma, unit);
  admission_.OnAdmit(source, pages, unit.owner, target, now);
  ++stats_->submitted[static_cast<size_t>(klass)];
  ticket.admitted = true;
  ticket.txn_id = txn.id;
  EmitTrace(tracer_, TraceCategory::kMigration, TraceEventType::kMigrationSubmit, now,
            unit.owner, unit.vpn, from, target, txn.id, pages);

  if (klass == MigrationClass::kAsync) {
    ticket.outcome = MigrationOutcome::kPending;
    const uint64_t slab_key = inflight_.Insert(txn);
    Transaction& stored = *inflight_.Find(slab_key);
    stored.slab_key = slab_key;
    inflight_reserved_pages_ += pages;
    inflight_pages_by_node_[static_cast<size_t>(target)] += pages;
    // A surviving route exists (checked above) and link state cannot change inside Submit.
    CHECK(ScheduleAsyncPass(stored, now, now)) << "async booking failed post-admission";
    return ticket;
  }

  // Sync and reclaim classes execute the whole transaction inline: the submitter's context
  // (faulting thread or kswapd) drives the copy, so there is no window for a concurrent
  // store to invalidate it and the commit happens at copy completion. Injected copy faults
  // retry inline (back-to-back passes — the submitter is stalled anyway) and park after
  // the attempt budget, leaving the unit mapped at its source.
  CopyChannel::Booking booking;
  // Inline transactions run to completion with no intervening events, so the surviving
  // route found by the admission pre-check above cannot disappear mid-loop.
  CHECK(BookCopy(txn, now, now, &booking)) << "inline booking failed post-admission";
  PassVerdict pass;
  while ((pass = ResolvePass(txn, booking.finish)) == PassVerdict::kRetry) {
    CHECK(BookCopy(txn, booking.finish, booking.finish, &booking))
        << "inline re-booking failed post-admission";
  }
  ticket.outcome = Finish(txn, pass, booking.finish);
  if (klass == MigrationClass::kSync) {
    // The faulting access stalls for queueing + every copy pass; remap overhead is charged
    // only when the transaction actually committed.
    ticket.sync_latency = (booking.finish - now) +
                          (ticket.outcome == MigrationOutcome::kCommitted
                               ? TieredMemory::kMigrationSoftwareOverhead
                               : 0);
  }
  return ticket;
}

bool MigrationEngine::BookCopy(Transaction& txn, SimTime now, SimTime earliest,
                               CopyChannel::Booking* out) {
  const uint64_t bytes = txn.pages * kBasePageSize;
  TieredMemory& memory = env_->memory();

  // Route first: a pass whose path crosses a down link must fail with no side effects (no
  // attempt counted, no bytes charged) so the caller can park cleanly.
  std::vector<NodeId> route = HealthyRoute(txn.from, txn.to);
  if (route.size() < 2) {
    return false;
  }

  // A re-route re-books a pass a link-down invalidated: it spends the re-route budget
  // (ResolvePass), not a copy attempt.
  if (txn.leg_failed) {
    txn.leg_failed = false;
  } else {
    ++txn.attempt;
  }
  txn.write_gen_at_copy = txn.unit->write_gen;
  ++stats_->copy_attempts;
  stats_->copied_bytes += bytes;

  // One leg per traversed link, charging copy CPU per leg. `copy_cpu` accumulates the
  // uncontended copy time; the kernel charge divides out the bandwidth scale because the
  // scaled copy_time models channel queueing on a miniature machine, not extra cycles.
  SimDuration copy_cpu = 0;
  CopyChannel::Booking booking;
  const auto book_leg = [&](NodeId leg_from, NodeId leg_to, SimTime leg_earliest) {
    const MigrationCost cost = memory.CostOfMigration(leg_from, leg_to, bytes);
    const CopyChannel::Booking leg =
        channel_mutable(leg_from, leg_to).Book(now, leg_earliest, cost.copy_time);
    copy_cpu += cost.copy_time;
    // Timestamped at the booked start so the exporter can render the pass as a duration
    // slice on the channel's track; `b` carries the booked duration in ns, `c` the
    // queueing delay the leg waited for the link.
    EmitTrace(tracer_, TraceCategory::kMigration, TraceEventType::kMigrationCopy, leg.start,
              txn.unit->owner, txn.unit->vpn, leg_from, leg_to, txn.id,
              static_cast<uint64_t>(leg.finish - leg.start),
              static_cast<uint64_t>(leg.start - std::max(now, leg_earliest)));
    // Booked duration, not the uncontended copy time: an injected bandwidth collapse makes
    // the channel busy for longer than the bytes alone would.
    stats_->channel_busy += leg.finish - leg.start;
    // The copied bytes flow through both endpoints' links (per-endpoint congestion).
    memory.NoteMigrationTraffic(leg_from, leg.start, bytes);
    memory.NoteMigrationTraffic(leg_to, leg.start, bytes);
    return leg;
  };

  if (route.size() == 2) {
    // Directly connected: a single leg, the historical behaviour.
    booking = book_leg(route[0], route[1], earliest);
  } else {
    // Routed copy: store-and-forward over the tree path, booking bandwidth on every
    // traversed link. Leg k+1 starts no earlier than leg k finishes.
    ++stats_->multi_hop_copies;
    SimTime leg_earliest = earliest;
    for (size_t i = 0; i + 1 < route.size(); ++i) {
      const CopyChannel::Booking leg = book_leg(route[i], route[i + 1], leg_earliest);
      if (i == 0) {
        booking.start = leg.start;
      }
      booking.finish = leg.finish;
      leg_earliest = leg.finish;
      ++stats_->multi_hop_legs;
    }
  }
  txn.route = std::move(route);
  env_->ChargeMigrationKernelTime(static_cast<SimDuration>(
      static_cast<double>(copy_cpu) / std::max(memory.bandwidth_scale(), 1.0)));
  *out = booking;
  return true;
}

bool MigrationEngine::ScheduleAsyncPass(Transaction& txn, SimTime now, SimTime earliest) {
  CopyChannel::Booking booking;
  if (!BookCopy(txn, now, earliest, &booking)) {
    return false;
  }
  const uint64_t key = txn.slab_key;
  // The dirty-check window is the *copy* window [start, finish], not [submit, finish]: a
  // queued copy has not read any bytes yet, so stores that land while it waits for the
  // channel cannot stale it. Re-snapshot the store generation when the copy starts.
  env_->queue().ScheduleAt(booking.start, [this, key](SimTime /*when*/) {
    if (Transaction* live = inflight_.Find(key)) {
      live->write_gen_at_copy = live->unit->write_gen;
    }
  });
  env_->queue().ScheduleAt(booking.finish,
                           [this, key](SimTime when) { OnCopyDone(key, when); });
  return true;
}

void MigrationEngine::OnCopyDone(uint64_t key, SimTime now) {
  Transaction* live = inflight_.Find(key);
  if (live == nullptr) {
    return;
  }
  PassVerdict pass = ResolvePass(*live, now);
  if (pass == PassVerdict::kRetry) {
    // Exponential backoff: after counted attempt k the next pass starts no earlier than
    // now + kRetryBackoff * 2^(k-1).
    if (ScheduleAsyncPass(*live, now, now + (kRetryBackoff << (live->attempt - 1)))) {
      return;
    }
    ++stats_->reroute_parks;  // Down links partitioned the pair since the last pass.
    pass = PassVerdict::kPark;
  }
  Finish(*live, pass, now);
}

MigrationEngine::PassVerdict MigrationEngine::ResolvePass(Transaction& txn, SimTime now) {
  CHECK(txn.unit->present() && txn.unit->node == txn.from)
      << SimError("in-flight migration source vanished", now)
             .Add("vpn", txn.unit->vpn)
             .Add("owner", txn.unit->owner)
             .Add("node", txn.unit->node)
             .Add("from", txn.from)
             .Add("to", txn.to)
             .Format();

  // Fabric link failure beats everything else: a pass that crossed a link that went down
  // mid-flight never delivered its bytes, so neither the fault oracle nor the dirty check
  // applies. The retry re-books the same tree path: BookCopy clears the flag once the link
  // is back up, and fails (the pass parks) while it is still down. Only async passes can
  // be flagged: OnLinkDown walks inflight_.
  if (txn.leg_failed) {
    if (txn.reroute_attempts < config_.max_reroute_attempts) {
      EmitTrace(tracer_, TraceCategory::kMigration, TraceEventType::kMigrationReroute, now,
                txn.unit->owner, txn.unit->vpn, txn.from, txn.to, txn.id,
                static_cast<uint64_t>(txn.reroute_attempts + 1));
      ++txn.reroute_attempts;
      ++stats_->reroutes;
      return PassVerdict::kRetry;
    }
    ++stats_->reroute_parks;
    return PassVerdict::kPark;
  }

  // Injected copy faults are checked next: a pass that failed in hardware never produced
  // a consistent target copy, so its dirty state is irrelevant.
  const CopyFault fault =
      fault_oracle_ == nullptr
          ? CopyFault::kNone
          : fault_oracle_->OnCopyPassDone(txn.from, txn.to, txn.pages, txn.attempt, now);
  if (fault != CopyFault::kNone) {
    const bool persistent = fault == CopyFault::kPersistent;
    ++(persistent ? stats_->injected_persistent_faults : stats_->injected_transient_faults);
    EmitTrace(tracer_, TraceCategory::kMigration, TraceEventType::kMigrationCopyFault, now,
              txn.unit->owner, txn.unit->vpn, txn.from, txn.to, txn.id,
              /*b=transient 1, persistent 2*/ persistent ? 2 : 1);
    if (persistent) {
      return PassVerdict::kQuarantine;
    }
    return txn.attempt >= kMaxCopyAttempts ? PassVerdict::kPark : PassVerdict::kRetry;
  }

  // A store landed during the copy: the target copy is stale. Inline passes are always
  // clean here — no event runs between their booking and this check.
  if (txn.unit->write_gen != txn.write_gen_at_copy) {
    ++stats_->dirty_aborted_copies;
    EmitTrace(tracer_, TraceCategory::kMigration, TraceEventType::kMigrationDirtyAbort, now,
              txn.unit->owner, txn.unit->vpn, txn.from, txn.to, txn.id,
              static_cast<uint64_t>(txn.attempt));
    return txn.attempt >= kMaxCopyAttempts ? PassVerdict::kAbort
                                                    : PassVerdict::kRetry;
  }
  return PassVerdict::kCommit;
}

MigrationOutcome MigrationEngine::Finish(Transaction& txn, PassVerdict verdict, SimTime now) {
  CHECK(verdict != PassVerdict::kRetry) << "a retried pass is not a terminal step";
  TieredMemory& memory = env_->memory();
  const size_t klass = static_cast<size_t>(txn.klass);
  MigrationOutcome outcome = MigrationOutcome::kParked;
  TraceEventType event = TraceEventType::kMigrationPark;
  uint64_t payload = static_cast<uint64_t>(txn.attempt);
  if (verdict == PassVerdict::kCommit) {
    memory.FreePages(txn.from, txn.pages);
    env_->ApplyMigration(*txn.vma, *txn.unit, txn.from, txn.to);
    // Unmap, TLB shootdown, remap, LRU bookkeeping — charged at commit only; aborted copies
    // waste bandwidth but never a shootdown.
    env_->ChargeMigrationKernelTime(TieredMemory::kMigrationSoftwareOverhead);
    ++stats_->committed[klass];
    stats_->committed_pages += txn.pages;
    const int bucket = std::min(txn.attempt, kMigrationRetryBuckets - 1);
    ++stats_->retry_histogram[static_cast<size_t>(bucket)];
    stats_->MixIntoCommitHash(static_cast<uint64_t>(txn.unit->owner));
    stats_->MixIntoCommitHash(txn.unit->vpn);
    stats_->MixIntoCommitHash(static_cast<uint64_t>(txn.to));
    stats_->MixIntoCommitHash(static_cast<uint64_t>(now));
    outcome = MigrationOutcome::kCommitted;
    event = TraceEventType::kMigrationCommit;
    payload = txn.pages;
  } else {
    // The unit never left its source. After a persistent copy fault the reserved target
    // frames are suspect and must not be handed back out.
    if (verdict == PassVerdict::kQuarantine) {
      memory.node(txn.to).QuarantineAllocated(txn.pages);
      stats_->quarantined_pages += txn.pages;
    } else {
      memory.FreePages(txn.to, txn.pages);
    }
    if (verdict == PassVerdict::kAbort) {
      outcome = MigrationOutcome::kAborted;
      event = TraceEventType::kMigrationAbort;
      ++stats_->aborted[klass];
    } else {
      ++stats_->parked[klass];
    }
  }
  EmitTrace(tracer_, TraceCategory::kMigration, event, now, txn.unit->owner, txn.unit->vpn,
            txn.from, txn.to, txn.id, payload);

  txn.unit->ClearFlag(kPageMigrating);
  admission_.OnRetire(txn.source, txn.pages);
  if (txn.slab_key != 0) {
    inflight_reserved_pages_ -= txn.pages;
    inflight_pages_by_node_[static_cast<size_t>(txn.to)] -= txn.pages;
    inflight_.Erase(txn.slab_key);  // Destroys txn.
  }
  return outcome;
}

}  // namespace chronotier
