// Allocation gate for the explorer's step loop.  Each worker keeps one
// SimEnv, RunReport, frame arena and tape buffer and reuses them for every
// schedule, so a warm schedule allocates little beyond what the system's
// make() and check() allocate.  The gate counts calls to the global
// operator new, replaced below, during an explore() call made after a
// short one has warmed the caches that outlive a call.  A count is
// deterministic where a time is not, so the gate cannot flake on a loaded
// machine.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/mutant_elections.h"
#include "explore/election_systems.h"
#include "explore/explore.h"
#include "service/lease_config.h"
#include "service/lease_system.h"
#include "util/env_registry.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_new(std::size_t size) {
  void* block = counted_malloc(size);
  if (block == nullptr) throw std::bad_alloc();
  return block;
}

}  // namespace

// Every replaceable non-aligned form, so that no allocation escapes the
// count and every block is freed by the function that matches the one that
// allocated it (sanitizers check the pairing).
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }
void operator delete(void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}
void operator delete[](void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}

namespace bss::explore {
namespace {

/// True iff `name` is set to anything but "" or "0": how BSS_AUDIT and
/// BSS_EXPLORE_FP force the audit layer or the visited-state cache on in
/// every explore() call.  Both allocate per schedule by design.
bool forced_on(const char* name) {
  return env::forces_on(std::getenv(name));
}

/// The mutant-sweep options (bench_explore --campaign mutant) on `jobs`
/// workers: POR off, every violation collected, none minimized.
ExploreOptions sweep_options(int jobs) {
  ExploreOptions options;
  options.use_por = false;
  options.stop_at_first_violation = false;
  options.max_violations = std::size_t{1} << 20;
  options.minimize = false;
  options.jobs = jobs;
  return options;
}

struct Measured {
  ExploreResult result;
  double per_schedule = 0;
};

/// Counts the allocations of one explore() call per completed schedule,
/// after a short call has warmed what outlives a call: the thread's fiber
/// stack pool and the function-local statics.
Measured measure(const ExplorableSystem& system, const ExploreOptions& options) {
  ExploreOptions warm = options;
  warm.max_schedules = 64;
  (void)explore(system, warm);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  Measured measured{explore(system, options)};
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  measured.per_schedule = static_cast<double>(after - before) /
                          static_cast<double>(measured.result.stats.schedules);
  std::printf("  %s jobs=%d: %.2f allocations per schedule over %llu\n",
              system.name().c_str(), options.jobs, measured.per_schedule,
              static_cast<unsigned long long>(measured.result.stats.schedules));
  return measured;
}

class AllocGate : public ::testing::Test {
 protected:
  void SetUp() override {
    if (forced_on("BSS_AUDIT") || forced_on("BSS_EXPLORE_FP")) {
      GTEST_SKIP() << "BSS_AUDIT/BSS_EXPLORE_FP add per-schedule work";
    }
  }
};

TEST_F(AllocGate, CorrectElectionSweepAllocatesUnderEightPerSchedule) {
  const OneShotSystem system(4, 3);
  const Measured measured = measure(system, sweep_options(1));
  ASSERT_TRUE(measured.result.ok());
  ASSERT_TRUE(measured.result.exhausted);
  // What a warm schedule allocates is make()'s instance and its registers.
  EXPECT_LE(measured.per_schedule, 8.0);
}

TEST_F(AllocGate, MutantSweepAllocatesUnderTwelvePerSchedule) {
  const OneShotSystem system(4, 3, core::OneShotMutant::kSplitCas);
  const Measured measured = measure(system, sweep_options(1));
  ASSERT_EQ(measured.result.stats.schedules, 18'240u);
  ASSERT_EQ(measured.result.violations.size(), 15'660u);
  // Each violation adds its message, a tape copy and a counterexample
  // record on top of the clean schedule's cost.
  EXPECT_LE(measured.per_schedule, 12.0);
}

// Workers each own their Scratch (SimEnv included), so the pool shares no
// env between threads; run under TSan this is the race check of that
// claim, on the smaller correct-election sweep so that it stays quick
// there.  The count is looser than the serial gates': steals copy frame
// stacks, and how many happen depends on timing.
TEST_F(AllocGate, ParallelWorkersReuseTheirOwnEnv) {
  const OneShotSystem system(4, 3);
  const Measured measured = measure(system, sweep_options(4));
  ASSERT_TRUE(measured.result.ok());
  ASSERT_TRUE(measured.result.exhausted);
  EXPECT_EQ(measured.result.stats.schedules, 1'680u);
  EXPECT_LE(measured.per_schedule, 16.0);
}

// The visited-state cache fingerprints every new DFS frame, so with it on
// the system's fingerprint() runs several times per schedule.  This is the
// largest case of `perfbench --workload refute` (the no-step-down lease
// mutant under one spurious SC fault, iterative preemption bounding up to
// 4, stopped at the first violation), minus minimization, which is not a
// schedule.  The cache is requested here, so BSS_EXPLORE_FP changes
// nothing; only the audit layer adds work of its own, which is why this
// case has no AllocGate fixture.
TEST(AllocGatePrune, RefuteSweepAllocatesUnderFortyEightPerSchedule) {
  if (forced_on("BSS_AUDIT")) {
    GTEST_SKIP() << "BSS_AUDIT adds per-schedule work";
  }
  service::LeaseConfig config;
  config.n = 2;
  config.renewals = 1;
  config.acquire_attempts = 2;
  config.sc_retries = 0;
  const service::LeaseServiceSystem system(
      config, service::LeaseMutant::kNoStepDownOnRenewFailure);
  ExploreOptions options;
  options.jobs = 1;
  options.iterative = true;
  options.preemption_bound = 4;
  options.fingerprint_prune = true;
  options.stop_at_first_violation = true;
  options.minimize = false;
  options.fault_bound = 1;
  options.explore_crashes = false;
  options.explore_restarts = false;
  options.explore_sc_failures = true;
  const Measured measured = measure(system, options);
  ASSERT_FALSE(measured.result.ok());
  ASSERT_EQ(measured.result.stats.schedules, 6'429u);
  ASSERT_GT(measured.result.stats.fingerprint_prunes, 0u);
  // Per schedule: make()'s instance and, per new frame, one fingerprint
  // string and the ledger's sorted copy of its reigns (38.1 measured; a
  // fingerprint built through an ostringstream made it 73.9).
  EXPECT_LE(measured.per_schedule, 48.0);
}

}  // namespace
}  // namespace bss::explore
