#include "src/workloads/tenant_kv.h"

#include <cmath>

#include "src/common/check.h"

namespace chronotier {

void TenantKvStream::Init(Process& process, Rng& /*rng*/) {
  CHECK(config_.virtual_tenants > 0 && config_.items_per_tenant > 0)
      << "tenant_kv needs at least one tenant and one item";
  ValueBurst::CheckFits("tenant_kv", config_.value_bytes);
  const uint64_t directory_bytes = config_.virtual_tenants * kDirentBytes;
  const uint64_t heap_bytes = total_items() * config_.value_bytes;

  directory_base_ = process.aspace().MapRegion(directory_bytes, process.default_page_kind());
  heap_base_ = process.aspace().MapRegion(heap_bytes, process.default_page_kind());

  tenant_zipf_ = std::make_unique<ZipfSampler>(config_.virtual_tenants, config_.tenant_zipf_s);
  key_zipf_ = std::make_unique<ZipfSampler>(config_.items_per_tenant, config_.key_zipf_s);
}

uint64_t TenantKvStream::DirentAddr(uint64_t tenant) const {
  return directory_base_ + tenant * kDirentBytes;
}

uint64_t TenantKvStream::ItemAddr(uint64_t tenant, uint64_t item) const {
  return heap_base_ + (tenant * config_.items_per_tenant + item) * config_.value_bytes;
}

uint64_t TenantKvStream::TenantForRank(uint64_t rank, uint64_t epoch) const {
  return (rank + epoch * config_.churn_stride) % config_.virtual_tenants;
}

void TenantKvStream::EmitOp(uint64_t tenant, uint64_t item, bool is_set,
                            SimDuration arrival_gap) {
  // Directory probe (always a read; the open-loop arrival gap is charged here so the
  // operation's service time never feeds back into its issue rate).
  burst_.Emit(MemOp{DirentAddr(tenant), false, arrival_gap}, ItemAddr(tenant, item),
              config_.value_bytes, is_set, 0);
}

bool TenantKvStream::Next(Rng& rng, MemOp* op) {
  if (burst_.Pop(op)) {
    return true;
  }
  if (init_cursor_ < total_items()) {
    // Sequential initialization: SET every item of every tenant once, in order, with no
    // arrival pacing (the load phase runs flat out after the optional start stagger).
    const SimDuration gap = init_cursor_ == 0 ? config_.start_delay : 0;
    const uint64_t tenant = init_cursor_ / config_.items_per_tenant;
    const uint64_t item = init_cursor_ % config_.items_per_tenant;
    ++init_cursor_;
    EmitOp(tenant, item, /*is_set=*/true, gap);
    return burst_.Pop(op);
  }
  if (config_.op_limit != 0 && ops_issued_ >= config_.op_limit) {
    return false;
  }
  const uint64_t epoch =
      config_.churn_period_ops == 0 ? 0 : ops_issued_ / config_.churn_period_ops;
  ++ops_issued_;

  const uint64_t rank = tenant_zipf_->Sample(rng);  // 0 = currently hottest rank.
  const uint64_t tenant = TenantForRank(rank, epoch);
  // Per-tenant keyspace skew: every tenant is Zipfian over its own items, but the hot
  // keys sit at a tenant-specific scrambled offset so hot pages don't align across
  // tenants.
  const uint64_t key_rank = key_zipf_->Sample(rng);
  const uint64_t item = (key_rank + SplitMix64(tenant)) % config_.items_per_tenant;

  SimDuration arrival_gap = config_.mean_interarrival;
  if (config_.poisson_arrivals && config_.mean_interarrival > 0) {
    arrival_gap = static_cast<SimDuration>(
        std::llround(rng.NextExponential(static_cast<double>(config_.mean_interarrival))));
  }
  EmitOp(tenant, item, rng.NextBool(config_.set_fraction), arrival_gap);
  return burst_.Pop(op);
}

}  // namespace chronotier
