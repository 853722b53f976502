// The exact fingerprint text of every system in the tree.
//
// A fingerprint is more than a debugging aid: its bytes are hashed into the
// explorer's visited-state cache key, the key's halves are written into
// `bss-checkpoint v1` artifacts as coverage partials, and the commutation
// cross-check compares fingerprints as strings.  A change to any separator
// or field order silently invalidates every saved checkpoint, so these
// strings are pinned byte for byte: each run is fixed (round robin, plus
// crash/restart plans), and each expected string is what the stream-based
// writers produced before the fingerprint helpers (explore/fingerprint.h)
// replaced them.
#include <gtest/gtest.h>

#include <string>

#include "core/mutant_elections.h"
#include "core/recoverable_election.h"
#include "explore/election_systems.h"
#include "explore/skewed_system.h"
#include "explore/snapshot_system.h"
#include "runtime/fault_plan.h"
#include "runtime/scheduler.h"
#include "runtime/sim_env.h"
#include "service/lease_config.h"
#include "service/lease_ledger.h"
#include "service/lease_system.h"

namespace bss::explore {
namespace {

/// The fingerprint of `system`'s final state after one round-robin run
/// under `faults`.
std::string final_fingerprint(const ExplorableSystem& system,
                              const sim::FaultPlan& faults = {}) {
  const auto instance = system.make();
  sim::SimEnv env;
  instance->populate(env);
  sim::RoundRobinScheduler scheduler;
  (void)env.run(scheduler, faults);
  return instance->fingerprint(env);
}

/// The lease config the seeded lease mutants are refuted under: one
/// renewal, two acquisition attempts, so a run holds several reigns.
service::LeaseConfig lease_config() {
  service::LeaseConfig config;
  config.n = 2;
  config.renewals = 1;
  config.acquire_attempts = 2;
  config.sc_retries = 1;
  return config;
}

TEST(Fingerprint, TextIsUnchanged) {
  EXPECT_EQ(final_fingerprint(OneShotSystem(4, 3)),
            "cas=1;cas_transitions=1;weak=0;claim=[-1,1000,1001,1002,];"
            "elected=[1000,1000,1000,];");
  EXPECT_EQ(final_fingerprint(
                OneShotSystem(4, 3, core::OneShotMutant::kNone, true),
                sim::FaultPlan().restart_before_op(1, 1).crash_before_op(2, 1)),
            "cas=1;cas_transitions=1;weak=0;claim=[-1,1000,1001,1002,];"
            "elected=[1000,1000,-1,];");
  EXPECT_EQ(final_fingerprint(LlScSystem(3, 2)),
            "llsc=2;confirm=[1,2,];announce=[1000,1001,];"
            "elected=[1000,1000,];");
  EXPECT_EQ(final_fingerprint(FvtSystem(3, 2)),
            "cas=2;cas_transitions=2;confirm=[1,2,];announce=[1000,1001,];"
            "leaders=[1000,1000,];");
  EXPECT_EQ(final_fingerprint(FvtSystem(3, 2),
                              sim::FaultPlan().crash_before_op(1, 2)),
            "cas=2;cas_transitions=2;confirm=[1,2,];announce=[1000,1001,];"
            "leaders=[1000,?,];");
  EXPECT_EQ(final_fingerprint(
                RecoverableFvtSystem(3, 2, core::RestartBehavior::kRecover),
                sim::FaultPlan().restart_before_op(0, 2)),
            "cas=1;cas_transitions=2;confirm=[2,1,];announce=[1000,1001,];"
            "leaders=[1001,1001,];");
  EXPECT_EQ(final_fingerprint(
                AuditMutantSystem(core::AuditMutant::kHiddenScratch, 2)),
            "hidden=0;scratch=2;served=0;cell=0;peeked=-1;seen=[0,0,];");
  EXPECT_EQ(final_fingerprint(
                AuditMutantSystem(core::AuditMutant::kUnsyncedPeek, 2)),
            "hidden=0;scratch=0;served=0;cell=0;peeked=0;seen=[0,0,];");
  EXPECT_EQ(final_fingerprint(
                AuditMutantSystem(core::AuditMutant::kStealthCounter, 2)),
            "hidden=0;scratch=0;served=2;cell=0;peeked=-1;seen=[1,2,];");
  EXPECT_EQ(final_fingerprint(SnapshotScanSystem(2, 1)), "cells=[1,1,];ops=4;");
  EXPECT_EQ(final_fingerprint(SkewedWriterSystem(2, 2, 1)), "skew=2;");
  EXPECT_EQ(final_fingerprint(service::LeaseServiceSystem(lease_config())),
            "holder=0;expiry=[13,0,];clock=13;"
            "reigns=[0:0:0:13:5:13:retired,];acquired=1;takeovers=0;"
            "renewals=1;renew_failures=0;retries=1;step_downs=1;"
            "expirations=0;give_ups=1;actions=1;");
  // p0 restarts while it holds the lease: its first reign stays open and
  // its second incarnation takes over once the lease has expired.
  EXPECT_EQ(final_fingerprint(service::LeaseServiceSystem(lease_config()),
                              sim::FaultPlan().restart_before_op(0, 10)),
            "holder=0;expiry=[27,0,];clock=27;"
            "reigns=[0:0:0:8:5:-1:retired,0:1:14:27:19:27:retired,];"
            "acquired=2;takeovers=1;renewals=1;renew_failures=0;retries=2;"
            "step_downs=1;expirations=0;give_ups=1;actions=2;");
}

// The ledger's text on its own: reigns recorded out of (start, pid,
// incarnation) order, an open reign (end -1), every step-down reason and
// every counter nonzero.
TEST(Fingerprint, LedgerTextIsUnchanged) {
  using service::StepDownReason;
  service::LeaseLedger ledger;
  ledger.acquired(1, 0, 20, 28, true);
  ledger.led(1, 22);
  ledger.renewed(1, 33);
  ledger.renew_failed(1);
  ledger.stepped_down(1, 30, StepDownReason::kRenewFailed);
  ledger.acquired(0, 0, 0, 8, false);
  ledger.retried(0);
  ledger.stepped_down(0, 9, StepDownReason::kExpired);
  ledger.acquired(2, 0, 10, 18, false);
  ledger.stepped_down(2, 12, StepDownReason::kDeposed);
  ledger.acquired(0, 1, 31, 39, true);
  ledger.stepped_down(0, 35, StepDownReason::kRetired);
  ledger.gave_up(2, 36);
  ledger.acquired(2, 1, 40, 48, false);  // left open: its holder crashed
  std::string text;
  ledger.fingerprint(text);
  EXPECT_EQ(text,
            "reigns=[0:0:0:8:0:9:expired,2:0:10:18:10:12:deposed,"
            "1:0:20:33:22:30:renew-failed,0:1:31:39:31:35:retired,"
            "2:1:40:48:40:-1:retired,];acquired=5;takeovers=2;renewals=1;"
            "renew_failures=1;retries=1;step_downs=4;expirations=1;"
            "give_ups=1;actions=1;");
}

}  // namespace
}  // namespace bss::explore
