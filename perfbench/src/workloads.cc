#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/mutant_elections.h"
#include "core/recoverable_election.h"
#include "explore/election_systems.h"
#include "service/lease_config.h"
#include "service/lease_system.h"

namespace perfbench {

namespace {

using bss::core::OneShotMutant;
using bss::explore::ExploreOptions;
using bss::service::LeaseConfig;
using bss::service::LeaseMutant;
using bss::service::LeaseServiceSystem;

template <class System, class... Args>
Case make_case(std::string label, ExploreOptions options, Expected expected,
               bool refutation, Args&&... args) {
  Case c;
  c.label = std::move(label);
  c.system = std::make_unique<System>(std::forward<Args>(args)...);
  c.options = std::move(options);
  c.expected = expected;
  c.refutation = refutation;
  return c;
}

/// bench_explore's `--campaign mutant`: every schedule of the split-cas
/// one-shot mutant, no POR, every violation collected, nothing minimized.
Workload mutant_sweep(bool smoke) {
  ExploreOptions options;
  options.jobs = 1;
  options.use_por = false;
  options.stop_at_first_violation = false;
  options.max_violations = std::size_t{1} << 20;
  options.minimize = false;
  Workload w{"mutant-sweep", {}};
  if (smoke) {
    w.cases.push_back(make_case<bss::explore::OneShotSystem>(
        "one-shot split-cas k=4 n=2", options, {62, 470, 36, true}, false, 4, 2,
        OneShotMutant::kSplitCas));
  } else {
    w.cases.push_back(make_case<bss::explore::OneShotSystem>(
        "one-shot split-cas k=4 n=3", options, {18'240, 206'160, 15'660, true},
        false, 4, 3, OneShotMutant::kSplitCas));
  }
  return w;
}

/// The lease service certified exhaustively under one fault (crash,
/// restart or spurious SC failure), POR on, timer firings as decisions,
/// in parallel with a checkpoint at the default cadence.
Workload lease_certify(bool smoke, const std::string& scratch_dir) {
  LeaseConfig config;
  config.n = 2;
  config.renewals = 0;
  config.acquire_attempts = 1;
  config.sc_retries = 0;
  ExploreOptions options;
  options.fault_bound = smoke ? 0 : 1;
  options.explore_sc_failures = true;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  options.jobs = static_cast<int>(std::min(4u, cores));
  options.checkpoint_path = scratch_dir + "/lease-certify.ckpt";
  Workload w{"lease-certify", {}};
  w.cases.push_back(make_case<LeaseServiceSystem>(
      smoke ? "lease n=2 fault budget 0" : "lease n=2 fault budget 1", options,
      smoke ? Expected{144, 3'816, 0, true} : Expected{19'188, 681'870, 0, true},
      false, config));
  return w;
}

/// Six seeded mutants, each refuted at its first violation under iterative
/// preemption bounding with the visited-state cache on; every
/// counterexample is minimized and replayed.
Workload refute(bool smoke) {
  ExploreOptions base;
  base.jobs = 1;
  base.iterative = true;
  base.preemption_bound = 4;
  base.fingerprint_prune = true;
  base.stop_at_first_violation = true;
  base.minimize = true;

  ExploreOptions restarts_only = base;
  restarts_only.fault_bound = 1;
  restarts_only.explore_crashes = false;

  ExploreOptions lease_faults = base;
  lease_faults.fault_bound = 1;

  ExploreOptions sc_only = base;
  sc_only.fault_bound = 1;
  sc_only.explore_crashes = false;
  sc_only.explore_restarts = false;
  sc_only.explore_sc_failures = true;

  LeaseConfig lease;  // one renewal cycle, two acquisition attempts
  lease.n = 2;
  lease.renewals = 1;
  lease.acquire_attempts = 2;
  lease.sc_retries = 1;
  LeaseConfig lease_no_retry = lease;
  lease_no_retry.sc_retries = 0;

  const int n = smoke ? 2 : 3;
  Workload w{"refute", {}};
  w.cases.push_back(make_case<bss::explore::OneShotSystem>(
      "one-shot claim-after-cas k=4 n=" + std::to_string(n), base,
      smoke ? Expected{3, 26, 1, false} : Expected{7, 121, 1, false}, true, 4,
      n, OneShotMutant::kClaimAfterCas));
  w.cases.push_back(make_case<bss::explore::OneShotSystem>(
      "one-shot split-cas k=4 n=" + std::to_string(n), base,
      smoke ? Expected{2, 29, 1, false} : Expected{2, 83, 1, false}, true, 4, n,
      OneShotMutant::kSplitCas));
  w.cases.push_back(make_case<bss::explore::LlScSystem>(
      "llsc sc-blind k=3 n=2", base, {7, 233, 1, false}, true, 3, 2, true));
  w.cases.back().walkable = false;  // corrupts memory on some later schedules
  w.cases.push_back(make_case<bss::explore::RecoverableFvtSystem>(
      "recoverable fresh-claim k=3 n=2", restarts_only,
      {199, 11'115, 1, false}, true, 3, 2,
      bss::core::RestartBehavior::kFreshClaim));
  if (!smoke) {
    w.cases.push_back(make_case<LeaseServiceSystem>(
        "lease renew-after-expiry", lease_faults, {12, 380, 1, false}, true,
        lease, LeaseMutant::kRenewAfterExpiry));
    w.cases.push_back(make_case<LeaseServiceSystem>(
        "lease no-step-down", sc_only, {6'429, 317'054, 1, false}, true,
        lease_no_retry, LeaseMutant::kNoStepDownOnRenewFailure));
  }
  return w;
}

void fnv1a(std::uint64_t& hash, const std::string& text) {
  for (const char ch : text) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 1099511628211ULL;
  }
}

}  // namespace

Workload make_workload(const std::string& name, bool smoke,
                       const std::string& scratch_dir) {
  if (name == "mutant-sweep") return mutant_sweep(smoke);
  if (name == "lease-certify") return lease_certify(smoke, scratch_dir);
  if (name == "refute") return refute(smoke);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Verdict run_case(const Case& c, const bss::explore::ExplorableSystem& system,
                 SpanLog* spans, bss::obs::ObsSink* telemetry) {
  Verdict verdict;
  verdict.label = c.label;
  // A refutation shrinks through the public minimize_counterexample call,
  // exactly as explore() does internally when options.minimize is set, so
  // the shrink can be timed from outside.
  ExploreOptions options = c.options;
  if (c.refutation) options.minimize = false;
  options.telemetry = telemetry;
  {
    ScopedSpan span(spans, SpanName::kExplore);
    verdict.result = bss::explore::explore(system, options);
  }
  if (!c.refutation) return verdict;
  for (bss::explore::Counterexample& cex : verdict.result.violations) {
    if (c.options.minimize) {
      ScopedSpan span(spans, SpanName::kMinimize);
      cex = bss::explore::minimize_counterexample(system, std::move(cex),
                                                  c.options,
                                                  &verdict.result.stats);
    }
    ScopedSpan span(spans, SpanName::kReplay);
    const bss::explore::ReplayOutcome replay =
        bss::explore::replay_counterexample(system, cex, c.options);
    verdict.replay_divergences += replay.divergences;
    verdict.replays_violate &=
        replay.violated && replay.violation == cex.violation;
  }
  return verdict;
}

void gate(const Case& c, bool perturb, Verdict& verdict) {
  const bss::explore::ExploreResult& r = verdict.result;
  const Expected& e = c.expected;
  const std::uint64_t expected_schedules = e.schedules + (perturb ? 1 : 0);
  const auto mismatch = [&verdict](const char* what, std::uint64_t want,
                                   std::uint64_t got) {
    if (want == got) return;
    char line[160];
    std::snprintf(line, sizeof line, "%s: expected %llu, got %llu", what,
                  static_cast<unsigned long long>(want),
                  static_cast<unsigned long long>(got));
    verdict.mismatches.emplace_back(line);
  };
  mismatch("schedules", expected_schedules, r.stats.schedules);
  mismatch("transitions", e.transitions, r.stats.transitions);
  mismatch("violations", e.violations, r.violations.size());
  mismatch("exhausted", e.exhausted ? 1 : 0, r.exhausted ? 1 : 0);
  mismatch("replay divergences", 0, verdict.replay_divergences);
  if (!verdict.replays_violate) {
    verdict.mismatches.emplace_back("a counterexample did not reproduce");
  }
}

std::string digest(const std::vector<Verdict>& verdicts) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const Verdict& verdict : verdicts) {
    fnv1a(hash, verdict.result.summary());
    for (const auto& cex : verdict.result.violations) {
      fnv1a(hash, cex.to_artifact());
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

}  // namespace perfbench
