// bench_faults — cost curves of the crash-recovery fault machinery
// (DESIGN.md §4c).
//
// Two experiments:
//
//  1. Fault-space exploration throughput: the single-fault and double-fault
//     DFS sweeps over the restartable one-shot election and the recoverable
//     FirstValueTree election, reporting schedules/sec, faults injected,
//     distinct fault points covered, and whether the sweep was exhaustive.
//     The shape to see: fault budget b multiplies the space roughly by the
//     number of fault points per schedule, while POR keeps the per-schedule
//     cost flat.
//
//  2. Randomized crash-restart storm throughput: full recoverable sim
//     elections per second under FaultPlan::random — the price of restarts
//     (re-executed prefixes) relative to the fault-free baseline.
//
// `--json` prints the same rows as a JSON array instead of the tables;
// `--jobs N` runs the fault sweeps on N explorer workers (identical
// results, sweep rates scale with cores).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_flags.h"
#include "bench_report.h"
#include "core/recoverable_election.h"
#include "explore/election_systems.h"
#include "explore/explore.h"
#include "runtime/fault_plan.h"
#include "runtime/scheduler.h"
#include "util/rng.h"

namespace {

using bss::explore::ExplorableSystem;
using bss::explore::ExploreOptions;
using bss::explore::ExploreResult;

struct ExploreRow {
  std::string label;
  ExploreResult result;
  double seconds = 0;
};

ExploreRow timed_explore(std::string label, const ExplorableSystem& system,
                         const ExploreOptions& options) {
  ExploreRow row;
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
  int restarted_runs = 0;
  double seconds = 0;
};

StormRow timed_storm(std::string label, int k, int n, double crash_p,
                     double restart_p, int runs) {
  StormRow row;
  row.label = std::move(label);
  row.runs = runs;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < runs; ++i) {
    bss::Rng rng(static_cast<std::uint64_t>(i));
    const auto plan = bss::sim::FaultPlan::random(n, crash_p, restart_p, 0.0,
                                                  30, rng);
    bss::sim::RandomScheduler scheduler(static_cast<std::uint64_t>(i) * 31);
    const auto report =
        bss::core::run_recoverable_sim_election(k, n, scheduler, plan);
    if (report.election.run.restarted_count() > 0) ++row.restarted_runs;
  }
  row.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return row;
}

void print_tables(const std::vector<ExploreRow>& sweeps,
                  const std::vector<StormRow>& storms) {
  std::printf("%-34s %9s %8s %8s %7s %10s %s\n", "fault sweep", "schedules",
              "sched/s", "faults", "points", "flt-prune", "coverage");
  for (const auto& row : sweeps) {
    const auto& stats = row.result.stats;
    const double rate =
        row.seconds > 0 ? static_cast<double>(stats.schedules) / row.seconds
                        : 0;
    std::printf("%-34s %9llu %8.0f %8llu %7llu %10llu %s\n",
                row.label.c_str(),
                static_cast<unsigned long long>(stats.schedules), rate,
                static_cast<unsigned long long>(stats.faults_injected),
                static_cast<unsigned long long>(stats.fault_points),
                static_cast<unsigned long long>(stats.fault_prunes),
                row.result.exhausted ? "exhaustive" : "bounded");
  }
  std::printf("\n%-34s %6s %10s %10s\n", "restart storm", "runs", "restarted",
              "runs/s");
  for (const auto& row : storms) {
    const double rate =
        row.seconds > 0 ? static_cast<double>(row.runs) / row.seconds : 0;
    std::printf("%-34s %6d %10d %10.0f\n", row.label.c_str(), row.runs,
                row.restarted_runs, rate);
  }
}

void print_json(const std::vector<ExploreRow>& sweeps,
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
        "\"schedules_per_sec\": %.0f, \"faults_injected\": %llu, "
        "\"fault_points\": %llu, \"fault_prunes\": %llu, \"exhausted\": %s}",
        first ? "" : ",\n", row.label.c_str(),
        static_cast<unsigned long long>(stats.schedules), rate,
        static_cast<unsigned long long>(stats.faults_injected),
        static_cast<unsigned long long>(stats.fault_points),
        static_cast<unsigned long long>(stats.fault_prunes),
        row.result.exhausted ? "true" : "false");
    first = false;
  }
  for (const auto& row : storms) {
    const double rate =
        row.seconds > 0 ? static_cast<double>(row.runs) / row.seconds : 0;
    std::printf(
        "%s  {\"kind\": \"storm\", \"label\": \"%s\", \"runs\": %d, "
        "\"restarted_runs\": %d, \"runs_per_sec\": %.0f}",
        first ? "" : ",\n", row.label.c_str(), row.runs, row.restarted_runs,
        rate);
    first = false;
  }
  std::printf("\n]\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bss::bench::BenchFlags flags =
      bss::bench::parse_flags(argc, argv, /*accepts_jobs=*/true);
  const bool json = flags.json;

  bss::bench::BenchReport report(flags, "bench_faults");
  std::vector<ExploreRow> sweeps;
  {
    bss::explore::OneShotSystem system(4, 2, bss::core::OneShotMutant::kNone,
                                       /*restartable=*/true);
    for (int fb = 0; fb <= 2; ++fb) {
      ExploreOptions options;
      options.fault_bound = fb;
      options.iterative = true;
      options.jobs = flags.jobs;
      sweeps.push_back(timed_explore(
          "one_shot[n=2,restartable] fb=" + std::to_string(fb), system,
          options));
    }
  }
  {
    bss::explore::RecoverableFvtSystem system(3, 2);
    ExploreOptions crash_only;
    crash_only.fault_bound = 1;
    crash_only.iterative = true;
    crash_only.explore_restarts = false;
    crash_only.jobs = flags.jobs;
    sweeps.push_back(
        timed_explore("rfvt[k=3,n=2] crashes fb=1", system, crash_only));
    ExploreOptions restarts;
    restarts.fault_bound = 1;
    restarts.iterative = true;
    restarts.explore_crashes = false;
    restarts.preemption_bound = 1;
    restarts.jobs = flags.jobs;
    sweeps.push_back(
        timed_explore("rfvt[k=3,n=2] restarts fb=1 b=1", system, restarts));
  }

  std::vector<StormRow> storms;
  storms.push_back(timed_storm("rfvt[k=4,n=6] fault-free", 4, 6, 0.0, 0.0,
                               200));
  storms.push_back(timed_storm("rfvt[k=4,n=6] crash+restart", 4, 6, 0.2, 0.5,
                               200));

  for (const auto& row : sweeps) {
    bss::obs::json::Object object;
    object.emplace("kind", bss::obs::json::Value(std::string("sweep")));
    object.emplace("label", bss::obs::json::Value(row.label));
    object.emplace("schedules",
                   bss::obs::json::Value(row.result.stats.schedules));
    object.emplace("faults_injected",
                   bss::obs::json::Value(row.result.stats.faults_injected));
    object.emplace("fault_points",
                   bss::obs::json::Value(row.result.stats.fault_points));
    object.emplace("exhausted", bss::obs::json::Value(row.result.exhausted));
    object.emplace("seconds", bss::obs::json::Value(row.seconds));
    report.row(std::move(object));
  }
  for (const auto& row : storms) {
    bss::obs::json::Object object;
    object.emplace("kind", bss::obs::json::Value(std::string("storm")));
    object.emplace("label", bss::obs::json::Value(row.label));
    object.emplace("runs", bss::obs::json::Value(row.runs));
    object.emplace("restarted_runs",
                   bss::obs::json::Value(row.restarted_runs));
    object.emplace("seconds", bss::obs::json::Value(row.seconds));
    report.row(std::move(object));
  }

  if (json) {
    print_json(sweeps, storms);
  } else {
    print_tables(sweeps, storms);
  }
  report.finalize();
  return 0;
}
