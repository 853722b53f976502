// bench_service — cost curves of the lease-based election service
// (DESIGN.md §10).
//
// Two experiments:
//
//  1. Model-checking throughput over the service: exhaustive sweeps of the
//     two-process lease protocol (fault-free and under a one-fault budget
//     with crashes, restarts, and spurious SC failures all enabled) plus a
//     preemption-bounded three-process sweep.  The schedule space here is
//     steps x timers x faults — every timer firing is an explorer decision —
//     so these rows track how expensive virtual time makes the service's
//     safety certificate.
//
//  2. Thread-backend storm throughput: full lease sessions per second on
//     real std::threads under seeded crash-restart storms, with the merged
//     service counters (acquisitions, takeovers, renewals, step-downs)
//     reported as `service.*` stats in the runreport.
//
// `--campaign exhaustive` replaces the tables with the long n=3 certificate:
// the full one-fault-budget exhaustive sweep (46.3 M schedules, about 610 s
// at --jobs 4 on a 4-vCPU VM), wired to --checkpoint/--resume so CI can
// SIGKILL and resume it.  Exits 0 iff the
// sweep was exhaustive and violation-free.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_flags.h"
#include "bench_report.h"
#include "explore/explore.h"
#include "service/lease_config.h"
#include "service/lease_system.h"
#include "service/thread_platform.h"

namespace {

using bss::explore::ExplorableSystem;
using bss::explore::ExploreOptions;
using bss::explore::ExploreResult;
using bss::service::LeaseConfig;
using bss::service::LeaseMutant;
using bss::service::LeaseServiceSystem;

/// The two-process config whose fault-budget sweep is exhaustively checkable
/// in seconds: one acquisition attempt, no renewals.
LeaseConfig small_config(int n) {
  LeaseConfig config;
  config.n = n;
  config.renewals = 0;
  config.acquire_attempts = 1;
  config.sc_retries = 0;
  return config;
}

/// The richer config the mutants are refuted under: one renewal cycle, two
/// acquisition attempts (so losers back off and retry through the timers).
LeaseConfig med_config() {
  LeaseConfig config;
  config.n = 2;
  config.renewals = 1;
  config.acquire_attempts = 2;
  config.sc_retries = 1;
  return config;
}

struct SweepRow {
  std::string label;
  ExploreResult result;
  double seconds = 0;
};

SweepRow timed_explore(std::string label, const ExplorableSystem& system,
                       const ExploreOptions& options) {
  SweepRow row;
  row.label = std::move(label);
  const auto start = std::chrono::steady_clock::now();
  row.result = bss::explore::explore(system, options);
  row.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return row;
}

struct StormRow {
  std::string label;
  int runs = 0;
  int restarts = 0;
  int spurious = 0;
  bss::service::LeaseStats stats;
  double seconds = 0;
};

StormRow timed_storm(std::string label, const LeaseConfig& config,
                     int max_crashes, int runs) {
  StormRow row;
  row.label = std::move(label);
  row.runs = runs;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < runs; ++i) {
    const auto report = bss::service::run_thread_lease_storm(
        config, static_cast<std::uint64_t>(i), max_crashes);
    if (report.violation.has_value()) {
      std::fprintf(stderr, "FATAL: storm seed %d violated safety: %s\n", i,
                   report.violation->c_str());
      std::exit(1);
    }
    row.restarts += report.restarts;
    row.spurious += report.spurious_delivered;
    row.stats.merge_from(report.stats);
  }
  row.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return row;
}

void print_tables(const std::vector<SweepRow>& sweeps,
                  const std::vector<StormRow>& storms) {
  std::printf("%-38s %9s %8s %6s %5s %s\n", "service sweep", "schedules",
              "sched/s", "timers", "viol", "coverage");
  for (const auto& row : sweeps) {
    const auto& stats = row.result.stats;
    const double rate =
        row.seconds > 0 ? static_cast<double>(stats.schedules) / row.seconds
                        : 0;
    std::printf("%-38s %9llu %8.0f %6llu %5zu %s\n", row.label.c_str(),
                static_cast<unsigned long long>(stats.schedules), rate,
                static_cast<unsigned long long>(stats.timer_grants),
                row.result.violations.size(),
                row.result.exhausted ? "exhaustive" : "bounded");
  }
  if (storms.empty()) return;
  std::printf("\n%-38s %5s %7s %8s %8s %7s %9s %7s\n", "thread storm", "runs",
              "runs/s", "acquired", "renewals", "retries", "step-downs",
              "crashes");
  for (const auto& row : storms) {
    const double rate =
        row.seconds > 0 ? static_cast<double>(row.runs) / row.seconds : 0;
    std::printf("%-38s %5d %7.0f %8llu %8llu %7llu %9llu %7d\n",
                row.label.c_str(), row.runs, rate,
                static_cast<unsigned long long>(row.stats.leases_acquired),
                static_cast<unsigned long long>(row.stats.renewals),
                static_cast<unsigned long long>(row.stats.retries),
                static_cast<unsigned long long>(row.stats.step_downs),
                row.restarts);
  }
}

void print_json(const std::vector<SweepRow>& sweeps,
                const std::vector<StormRow>& storms) {
  std::printf("[\n");
  bool first = true;
  for (const auto& row : sweeps) {
    const auto& stats = row.result.stats;
    const double rate =
        row.seconds > 0 ? static_cast<double>(stats.schedules) / row.seconds
                        : 0;
    std::printf(
        "%s  {\"kind\": \"sweep\", \"label\": \"%s\", \"schedules\": %llu, "
        "\"schedules_per_sec\": %.0f, \"timer_grants\": %llu, "
        "\"violations\": %zu, \"exhausted\": %s}",
        first ? "" : ",\n", row.label.c_str(),
        static_cast<unsigned long long>(stats.schedules), rate,
        static_cast<unsigned long long>(stats.timer_grants),
        row.result.violations.size(),
        row.result.exhausted ? "true" : "false");
    first = false;
  }
  for (const auto& row : storms) {
    const double rate =
        row.seconds > 0 ? static_cast<double>(row.runs) / row.seconds : 0;
    std::printf(
        "%s  {\"kind\": \"storm\", \"label\": \"%s\", \"runs\": %d, "
        "\"runs_per_sec\": %.0f, \"leases_acquired\": %llu, "
        "\"renewals\": %llu, \"step_downs\": %llu, \"restarts\": %d, "
        "\"spurious_sc\": %d}",
        first ? "" : ",\n", row.label.c_str(), row.runs, rate,
        static_cast<unsigned long long>(row.stats.leases_acquired),
        static_cast<unsigned long long>(row.stats.renewals),
        static_cast<unsigned long long>(row.stats.step_downs), row.restarts,
        row.spurious);
    first = false;
  }
  std::printf("\n]\n");
}

/// Records a storm's merged LeaseStats as the closed `service.*` stat family
/// (tools/report_check validates the names and the load-bearing trio).
void report_service_stats(bss::bench::BenchReport& report,
                          const bss::service::LeaseStats& stats) {
  report.builder().stat("service.leases_acquired", stats.leases_acquired);
  report.builder().stat("service.takeovers", stats.takeovers);
  report.builder().stat("service.renewals", stats.renewals);
  report.builder().stat("service.renew_failures", stats.renew_failures);
  report.builder().stat("service.retries", stats.retries);
  report.builder().stat("service.step_downs", stats.step_downs);
  report.builder().stat("service.expirations", stats.expirations);
  report.builder().stat("service.give_ups", stats.give_ups);
  report.builder().stat("service.actions", stats.actions);
}

// ------------------------------------------------------------- campaigns

/// The valid --campaign names; parse_flags enumerates these on a typo.
const std::vector<std::string> kCampaigns = {"exhaustive"};

/// `--campaign exhaustive`: the n=3 safety certificate — every schedule of
/// three service processes under a one-fault budget (crashes, restarts, and
/// spurious SC failures all explorable) with timer firings as decisions.
int run_campaign(const bss::bench::BenchFlags& flags) {
  bss::bench::BenchReport report(flags, "bench_service");
  ExploreOptions options;
  options.jobs = flags.jobs;
  options.fault_bound = 1;
  options.explore_sc_failures = true;
  // The default max_schedules valve would truncate this campaign-scale
  // space (millions of schedules; the valve counts claimed schedules,
  // speculative parallel work included) — a campaign must run to
  // exhaustion, so leave only a far-off runaway backstop and rely on
  // --checkpoint/--resume for slicing.
  options.max_schedules = 100'000'000;
  options.checkpoint_path = flags.checkpoint;
  if (flags.checkpoint_every > 0) {
    options.checkpoint_every = flags.checkpoint_every;
  }
  options.resume_path = flags.resume;
  options.status_path = flags.status;
  options.status_every_ms = flags.status_every;

  LeaseServiceSystem system(small_config(3));
  const SweepRow row = timed_explore("campaign:exhaustive[n=3,fb=1]", system,
                                     options);

  report.builder().set_system(system.name());
  report.builder().environment("campaign",
                               bss::obs::json::Value(flags.campaign));
  report.builder().environment("resumed",
                               bss::obs::json::Value(!flags.resume.empty()));
  bss::obs::json::Object object;
  object.emplace("workload", bss::obs::json::Value(row.label));
  object.emplace("jobs", bss::obs::json::Value(flags.jobs));
  object.emplace("schedules",
                 bss::obs::json::Value(row.result.stats.schedules));
  object.emplace("violations",
                 bss::obs::json::Value(
                     static_cast<std::uint64_t>(row.result.violations.size())));
  object.emplace("exhausted", bss::obs::json::Value(row.result.exhausted));
  object.emplace("checkpoints_written",
                 bss::obs::json::Value(row.result.checkpoints_written));
  object.emplace("seconds", bss::obs::json::Value(row.seconds));
  report.row(std::move(object));

  if (flags.json) {
    print_json({row}, {});
  } else {
    print_tables({row}, {});
    std::printf("  checkpoints written: %llu%s\n",
                static_cast<unsigned long long>(
                    row.result.checkpoints_written),
                flags.resume.empty() ? "" : " (resumed)");
  }
  report.finalize();
  return row.result.exhausted && row.result.violations.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bss::bench::BenchFlags flags = bss::bench::parse_flags(
      argc, argv, /*accepts_jobs=*/true, /*accepts_json=*/true,
      /*accepts_checkpoint=*/true, kCampaigns);
  if (!flags.campaign.empty()) return run_campaign(flags);

  bss::bench::BenchReport report(flags, "bench_service");
  std::vector<SweepRow> sweeps;
  {
    LeaseServiceSystem system(small_config(2));
    ExploreOptions fault_free;
    fault_free.jobs = flags.jobs;
    sweeps.push_back(timed_explore("lease[n=2] fb=0", system, fault_free));
    ExploreOptions budget;
    budget.jobs = flags.jobs;
    budget.fault_bound = 1;
    budget.explore_sc_failures = true;
    sweeps.push_back(timed_explore("lease[n=2] fb=1 c+r+s", system, budget));
  }
  {
    LeaseServiceSystem system(small_config(3));
    ExploreOptions bounded;
    bounded.jobs = flags.jobs;
    bounded.fault_bound = 1;
    bounded.explore_sc_failures = true;
    bounded.preemption_bound = 2;
    sweeps.push_back(
        timed_explore("lease[n=3] fb=1 c+r+s pb=2", system, bounded));
  }
  {
    // Refutation cost: how long until the explorer convicts each mutant.
    ExploreOptions refute;
    refute.jobs = flags.jobs;
    refute.fault_bound = 1;
    LeaseServiceSystem m1(med_config(), LeaseMutant::kRenewAfterExpiry);
    sweeps.push_back(timed_explore("mutant:renew-after-expiry", m1, refute));
    LeaseConfig m2cfg = med_config();
    m2cfg.sc_retries = 0;
    ExploreOptions sc_only = refute;
    sc_only.explore_crashes = false;
    sc_only.explore_restarts = false;
    sc_only.explore_sc_failures = true;
    LeaseServiceSystem m2(m2cfg, LeaseMutant::kNoStepDownOnRenewFailure);
    sweeps.push_back(timed_explore("mutant:no-step-down", m2, sc_only));
  }

  std::vector<StormRow> storms;
  {
    LeaseConfig storm_config = med_config();
    storm_config.n = 4;
    storm_config.acquire_attempts = 3;
    storms.push_back(
        timed_storm("lease[n=4] fault-free", storm_config, 0, 100));
    storms.push_back(
        timed_storm("lease[n=4] crash-storm", storm_config, 2, 100));
  }

  bss::service::LeaseStats merged;
  for (const auto& row : storms) merged.merge_from(row.stats);
  report_service_stats(report, merged);
  for (const auto& row : sweeps) {
    bss::obs::json::Object object;
    object.emplace("kind", bss::obs::json::Value(std::string("sweep")));
    object.emplace("label", bss::obs::json::Value(row.label));
    object.emplace("schedules",
                   bss::obs::json::Value(row.result.stats.schedules));
    object.emplace("timer_grants",
                   bss::obs::json::Value(row.result.stats.timer_grants));
    object.emplace("violations",
                   bss::obs::json::Value(static_cast<std::uint64_t>(
                       row.result.violations.size())));
    object.emplace("exhausted", bss::obs::json::Value(row.result.exhausted));
    object.emplace("seconds", bss::obs::json::Value(row.seconds));
    report.row(std::move(object));
  }
  for (const auto& row : storms) {
    bss::obs::json::Object object;
    object.emplace("kind", bss::obs::json::Value(std::string("storm")));
    object.emplace("label", bss::obs::json::Value(row.label));
    object.emplace("runs", bss::obs::json::Value(row.runs));
    object.emplace("restarts", bss::obs::json::Value(row.restarts));
    object.emplace("spurious_sc", bss::obs::json::Value(row.spurious));
    object.emplace("leases_acquired",
                   bss::obs::json::Value(row.stats.leases_acquired));
    object.emplace("step_downs",
                   bss::obs::json::Value(row.stats.step_downs));
    object.emplace("seconds", bss::obs::json::Value(row.seconds));
    report.row(std::move(object));
  }

  if (flags.json) {
    print_json(sweeps, storms);
  } else {
    print_tables(sweeps, storms);
  }
  report.finalize();
  return 0;
}
