// bench_audit — overhead table for the access-ledger soundness auditor
// (DESIGN.md "Soundness auditing").
//
// For each system we explore the schedule space three times — audit off,
// audit on with the default commutation sample (1/16 schedules), and audit
// on cross-checking every schedule — and report wall-clock, schedules/sec,
// the relative overhead against the unaudited run, and the audit counters
// (windows, accesses, swap replays).  The explorer's own output must be
// identical across the three runs (the audit layer is passive); the bench
// asserts that on the spot, so a determinism regression fails here before
// it confuses the EXPERIMENTS.md table.
//
// `--json` prints the same rows as a JSON array.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_flags.h"
#include "bench_report.h"
#include "explore/election_systems.h"
#include "explore/explore.h"

namespace {

using bss::explore::ExplorableSystem;
using bss::explore::ExploreOptions;
using bss::explore::ExploreResult;

struct Row {
  std::string system;
  std::string mode;  ///< "off", "on/16", "on/1"
  ExploreResult result;
  double seconds = 0;
  double overhead = 0;  ///< seconds relative to the audit-off run
};

Row timed_explore(std::string system_label, std::string mode,
                  const ExplorableSystem& system,
                  const ExploreOptions& options) {
  Row row;
  row.system = std::move(system_label);
  row.mode = std::move(mode);
  const auto start = std::chrono::steady_clock::now();
  row.result = bss::explore::explore(system, options);
  row.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return row;
}

double rate_of(const Row& row) {
  return row.seconds > 0
             ? static_cast<double>(row.result.stats.schedules) / row.seconds
             : 0;
}

std::vector<Row> bench_system(const std::string& label,
                              const ExplorableSystem& system,
                              ExploreOptions options) {
  std::vector<Row> rows;
  options.audit = false;
  rows.push_back(timed_explore(label, "off", system, options));
  options.audit = true;
  options.audit_commute_sample = 16;
  rows.push_back(timed_explore(label, "on/16", system, options));
  options.audit_commute_sample = 1;
  rows.push_back(timed_explore(label, "on/1", system, options));
  const Row& base = rows[0];
  for (Row& row : rows) {
    row.overhead = base.seconds > 0 ? row.seconds / base.seconds : 1.0;
    // The audit layer must be passive: identical explorer output in every
    // mode.  A mismatch here is a determinism regression, not noise.
    if (row.result.stats.summary() != base.result.stats.summary() ||
        row.result.violations.size() != base.result.violations.size()) {
      std::fprintf(stderr,
                   "FATAL: audit mode changed explorer results on %s (%s)\n",
                   label.c_str(), row.mode.c_str());
      std::exit(1);
    }
  }
  return rows;
}

void print_table(const std::vector<Row>& rows) {
  std::printf("%-18s %-6s %9s %10s %9s %9s %9s %8s %9s\n", "system", "audit",
              "schedules", "sched/s", "windows", "accesses", "swaps",
              "seconds", "overhead");
  for (const Row& row : rows) {
    const auto& stats = row.result.stats;
    const auto& audit = row.result.audit;
    std::printf("%-18s %-6s %9llu %10.0f %9llu %9llu %9llu %8.3f %8.2fx\n",
                row.system.c_str(), row.mode.c_str(),
                static_cast<unsigned long long>(stats.schedules), rate_of(row),
                static_cast<unsigned long long>(audit.windows),
                static_cast<unsigned long long>(audit.accesses),
                static_cast<unsigned long long>(audit.swaps_replayed),
                row.seconds, row.overhead);
  }
}

void print_json(const std::vector<Row>& rows) {
  std::printf("[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& stats = rows[i].result.stats;
    const auto& audit = rows[i].result.audit;
    std::printf(
        "  {\"system\": \"%s\", \"audit\": \"%s\", \"schedules\": %llu, "
        "\"schedules_per_sec\": %.0f, \"windows\": %llu, \"accesses\": %llu, "
        "\"swaps_replayed\": %llu, \"commute_mismatches\": %llu, "
        "\"seconds\": %.6f, \"overhead\": %.4f}%s\n",
        rows[i].system.c_str(), rows[i].mode.c_str(),
        static_cast<unsigned long long>(stats.schedules), rate_of(rows[i]),
        static_cast<unsigned long long>(audit.windows),
        static_cast<unsigned long long>(audit.accesses),
        static_cast<unsigned long long>(audit.swaps_replayed),
        static_cast<unsigned long long>(audit.commute_mismatches),
        rows[i].seconds, rows[i].overhead,
        i + 1 < rows.size() ? "," : "");
  }
  std::printf("]\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bss::bench::BenchFlags flags =
      bss::bench::parse_flags(argc, argv, /*accepts_jobs=*/false);

  bss::bench::BenchReport report(flags, "bench_audit");
  std::vector<Row> rows;
  const auto add = [&](const std::string& label,
                       const ExplorableSystem& system,
                       const ExploreOptions& options) {
    for (Row& row : bench_system(label, system, options)) {
      rows.push_back(std::move(row));
    }
  };

  add("one-shot[4,2]", bss::explore::OneShotSystem(4, 2), {});
  add("one-shot[4,3]", bss::explore::OneShotSystem(4, 3), {});
  {
    ExploreOptions options;
    options.preemption_bound = 2;
    add("llsc[3,2]", bss::explore::LlScSystem(3, 2), options);
    add("fvt[3,2]", bss::explore::FvtSystem(3, 2), options);
  }

  for (const Row& row : rows) {
    bss::obs::json::Object object;
    object.emplace("system", bss::obs::json::Value(row.system));
    object.emplace("audit", bss::obs::json::Value(row.mode));
    object.emplace("schedules",
                   bss::obs::json::Value(row.result.stats.schedules));
    object.emplace("windows", bss::obs::json::Value(row.result.audit.windows));
    object.emplace("accesses",
                   bss::obs::json::Value(row.result.audit.accesses));
    object.emplace("swaps_replayed",
                   bss::obs::json::Value(row.result.audit.swaps_replayed));
    object.emplace("seconds", bss::obs::json::Value(row.seconds));
    object.emplace("overhead", bss::obs::json::Value(row.overhead));
    report.row(std::move(object));
  }

  if (flags.json) {
    print_json(rows);
  } else {
    print_table(rows);
  }
  report.finalize();
  return 0;
}
