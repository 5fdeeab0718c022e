// Isolation tests for the AdmissionController: per-class backlog limits, the evacuation
// backlog override, per-source in-flight throttling, retire-underflow hardening, and the
// per-tenant QoS hook (consult order, argument forwarding, verdict propagation, admit
// charging).

#include <gtest/gtest.h>

#include <vector>

#include "src/migration/admission.h"

namespace chronotier {
namespace {

// Records every consult/charge and returns a scripted verdict.
class RecordingQosHook : public AdmissionQosHook {
 public:
  struct Consult {
    int32_t owner;
    MigrationSource source;
    NodeId from;
    NodeId to;
    uint64_t pages;
    SimTime now;
  };
  struct Charge {
    int32_t owner;
    MigrationSource source;
    NodeId to;
    uint64_t pages;
    SimTime now;
  };

  MigrationRefusal QosCheck(int32_t owner, MigrationSource source, NodeId from, NodeId to,
                            uint64_t pages, SimTime now) override {
    consults.push_back({owner, source, from, to, pages, now});
    return verdict;
  }
  void QosAdmit(int32_t owner, MigrationSource source, NodeId to, uint64_t pages,
                SimTime now) override {
    charges.push_back({owner, source, to, pages, now});
  }

  MigrationRefusal verdict = MigrationRefusal::kNone;
  std::vector<Consult> consults;
  std::vector<Charge> charges;
};

class AdmissionTest : public ::testing::Test {
 protected:
  MigrationEngineConfig config_;
  AdmissionController controller_{&config_};
};

TEST_F(AdmissionTest, PerClassBacklogLimits) {
  // Each class refuses exactly past its own limit, not some shared scalar.
  const auto check = [&](MigrationClass klass, SimDuration backlog) {
    return controller_.Check(klass, MigrationSource::kPolicyDaemon, backlog, 1);
  };
  EXPECT_EQ(check(MigrationClass::kSync, config_.sync_slack), MigrationRefusal::kNone);
  EXPECT_EQ(check(MigrationClass::kSync, config_.sync_slack + 1),
            MigrationRefusal::kBacklog);
  EXPECT_EQ(check(MigrationClass::kAsync, config_.async_backlog_limit),
            MigrationRefusal::kNone);
  EXPECT_EQ(check(MigrationClass::kAsync, config_.async_backlog_limit + 1),
            MigrationRefusal::kBacklog);
  EXPECT_EQ(check(MigrationClass::kReclaim, config_.reclaim_backlog_limit),
            MigrationRefusal::kNone);
  EXPECT_EQ(check(MigrationClass::kReclaim, config_.reclaim_backlog_limit + 1),
            MigrationRefusal::kBacklog);
}

TEST_F(AdmissionTest, EvacuationBacklogOverride) {
  // A backlog that refuses daemon traffic still admits an evacuation drain, up to the
  // deeper evacuation limit.
  const SimDuration deep = config_.async_backlog_limit + 1;
  ASSERT_LE(deep, config_.evac_backlog_limit);
  EXPECT_EQ(controller_.Check(MigrationClass::kAsync, MigrationSource::kPolicyDaemon, deep, 1),
            MigrationRefusal::kBacklog);
  EXPECT_EQ(controller_.Check(MigrationClass::kAsync, MigrationSource::kEvacuation, deep, 1),
            MigrationRefusal::kNone);
  EXPECT_EQ(controller_.Check(MigrationClass::kAsync, MigrationSource::kEvacuation,
                              config_.evac_backlog_limit + 1, 1),
            MigrationRefusal::kBacklog);
}

TEST_F(AdmissionTest, PerSourceInflightThrottle) {
  config_.source_inflight_page_limit = 8;
  // First submission is never throttled (inflight == 0), even when oversized.
  EXPECT_EQ(controller_.Check(MigrationClass::kAsync, MigrationSource::kPolicyDaemon, 0, 16),
            MigrationRefusal::kNone);
  controller_.OnAdmit(MigrationSource::kPolicyDaemon, 6);
  EXPECT_EQ(controller_.Check(MigrationClass::kAsync, MigrationSource::kPolicyDaemon, 0, 2),
            MigrationRefusal::kNone);
  EXPECT_EQ(controller_.Check(MigrationClass::kAsync, MigrationSource::kPolicyDaemon, 0, 3),
            MigrationRefusal::kSourceThrottled);
  // Sources are independent ledgers: reclaim is unaffected by the daemon's backlog.
  EXPECT_EQ(controller_.Check(MigrationClass::kReclaim, MigrationSource::kReclaimDaemon, 0, 3),
            MigrationRefusal::kNone);
  // Retiring frees the budget again, down to none in flight: an oversized submission
  // passes once more.
  controller_.OnRetire(MigrationSource::kPolicyDaemon, 6);
  EXPECT_EQ(controller_.Check(MigrationClass::kAsync, MigrationSource::kPolicyDaemon, 0, 3),
            MigrationRefusal::kNone);
  EXPECT_EQ(controller_.Check(MigrationClass::kAsync, MigrationSource::kPolicyDaemon, 0, 16),
            MigrationRefusal::kNone);
}

TEST_F(AdmissionTest, RetireUnderflowIsFatal) {
  controller_.OnAdmit(MigrationSource::kPolicyDaemon, 2);
  EXPECT_DEATH({ controller_.OnRetire(MigrationSource::kPolicyDaemon, 3); },
               "admission retire underflow");
}

TEST_F(AdmissionTest, QosHookRunsLastAndPropagates) {
  RecordingQosHook hook;
  controller_.set_qos_hook(&hook);
  config_.source_inflight_page_limit = 8;

  // Global refusals short-circuit: the hook never sees a submission the backlog or
  // source throttle already refused.
  EXPECT_EQ(controller_.Check(MigrationClass::kAsync, MigrationSource::kPolicyDaemon,
                              config_.async_backlog_limit + 1, 1, /*owner=*/7),
            MigrationRefusal::kBacklog);
  controller_.OnAdmit(MigrationSource::kPolicyDaemon, 8, /*owner=*/7, /*to=*/0, 50);
  EXPECT_EQ(controller_.Check(MigrationClass::kAsync, MigrationSource::kPolicyDaemon, 0, 8,
                              /*owner=*/7),
            MigrationRefusal::kSourceThrottled);
  ASSERT_EQ(hook.consults.size(), 0u);
  ASSERT_EQ(hook.charges.size(), 1u);  // OnAdmit always charges the hook.
  EXPECT_EQ(hook.charges[0].owner, 7);
  EXPECT_EQ(hook.charges[0].source, MigrationSource::kPolicyDaemon);
  EXPECT_EQ(hook.charges[0].pages, 8u);
  EXPECT_EQ(hook.charges[0].now, 50);
  controller_.OnRetire(MigrationSource::kPolicyDaemon, 8);

  // A submission that clears the global limits reaches the hook with its full context,
  // and the hook's verdict is the controller's verdict.
  EXPECT_EQ(controller_.Check(MigrationClass::kSync, MigrationSource::kFaultPath, 0, 4,
                              /*owner=*/3, /*from=*/1, /*to=*/0, /*now=*/99),
            MigrationRefusal::kNone);
  ASSERT_EQ(hook.consults.size(), 1u);
  EXPECT_EQ(hook.consults[0].owner, 3);
  EXPECT_EQ(hook.consults[0].source, MigrationSource::kFaultPath);
  EXPECT_EQ(hook.consults[0].from, 1);
  EXPECT_EQ(hook.consults[0].to, 0);
  EXPECT_EQ(hook.consults[0].pages, 4u);
  EXPECT_EQ(hook.consults[0].now, 99);

  hook.verdict = MigrationRefusal::kTenantQos;
  EXPECT_EQ(controller_.Check(MigrationClass::kSync, MigrationSource::kFaultPath, 0, 4,
                              /*owner=*/3, /*from=*/1, /*to=*/0, /*now=*/100),
            MigrationRefusal::kTenantQos);

  // Uninstalling restores the pre-tenant path.
  controller_.set_qos_hook(nullptr);
  EXPECT_EQ(controller_.Check(MigrationClass::kSync, MigrationSource::kFaultPath, 0, 4,
                              /*owner=*/3, /*from=*/1, /*to=*/0, /*now=*/101),
            MigrationRefusal::kNone);
  EXPECT_EQ(hook.consults.size(), 2u);
}

}  // namespace
}  // namespace chronotier
