#include <gtest/gtest.h>

#include <execinfo.h>
#include <unistd.h>

#include <array>
#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/election_validator.h"
#include "core/sim_election.h"
#include "registers/mwmr_register.h"
#include "registers/swmr_register.h"
#include "runtime/fault_plan.h"
#include "runtime/scheduler.h"
#include "runtime/sim_env.h"

namespace bss::sim {
namespace {

TEST(SimEnv, RunsSingleProcessToCompletion) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  int observed = -1;
  env.add_process([&](Ctx& ctx) {
    reg.write(ctx, 41);
    observed = reg.read(ctx) + 1;
  });
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.finished_count(), 1);
  EXPECT_EQ(observed, 42);
  EXPECT_EQ(report.total_steps, 2u);
}

TEST(SimEnv, ProcessWithNoSharedOpsFinishes) {
  SimEnv env;
  bool ran = false;
  env.add_process([&](Ctx&) { ran = true; });
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(ran);
  EXPECT_EQ(report.total_steps, 0u);
}

TEST(SimEnv, DeterministicUnderSameScheduler) {
  const auto run_once = [](std::uint64_t seed) {
    SimEnv env;
    MwmrRegister<int> reg("r", 0);
    std::vector<int> reads;
    for (int pid = 0; pid < 4; ++pid) {
      env.add_process([&, pid](Ctx& ctx) {
        reg.write(ctx, pid);
        reads.push_back(reg.read(ctx));
      });
    }
    RandomScheduler sched(seed);
    env.run(sched);
    return reads;
  };
  EXPECT_EQ(run_once(5), run_once(5));
  // Different seeds usually produce different interleavings; do not assert
  // inequality (it is not guaranteed), just that both complete.
  EXPECT_EQ(run_once(6).size(), 4u);
}

TEST(SimEnv, ReplayReproducesDecisions) {
  std::vector<int> first_decisions;
  std::vector<int> first_reads;
  {
    SimEnv env;
    MwmrRegister<int> reg("r", 0);
    for (int pid = 0; pid < 3; ++pid) {
      env.add_process([&, pid](Ctx& ctx) {
        reg.write(ctx, pid);
        first_reads.push_back(reg.read(ctx));
      });
    }
    RandomScheduler sched(17);
    env.run(sched);
    first_decisions = env.decisions();
  }
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  std::vector<int> replay_reads;
  for (int pid = 0; pid < 3; ++pid) {
    env.add_process([&, pid](Ctx& ctx) {
      reg.write(ctx, pid);
      replay_reads.push_back(reg.read(ctx));
    });
  }
  ReplayScheduler sched(first_decisions);
  env.run(sched);
  EXPECT_EQ(replay_reads, first_reads);
  EXPECT_EQ(env.decisions(), first_decisions);
}

TEST(SimEnv, TraceRecordsOperationsInOrder) {
  SimEnv env;
  MwmrRegister<int> reg("reg", 7);
  env.add_process([&](Ctx& ctx) {
    (void)reg.read(ctx);
    reg.write(ctx, 9);
  });
  RoundRobinScheduler sched;
  env.run(sched);
  const auto& events = env.trace().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].desc.op, "read");
  EXPECT_TRUE(events[0].has_result);
  EXPECT_EQ(events[0].result, 7);
  EXPECT_EQ(events[1].desc.op, "write");
  EXPECT_EQ(events[1].desc.arg0, 9);
  EXPECT_EQ(events[0].step, 0u);
  EXPECT_EQ(events[1].step, 1u);
}

TEST(SimEnv, CrashBeforeOpKillsTheProcess) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  env.add_process([&](Ctx& ctx) {
    reg.write(ctx, 1);
    reg.write(ctx, 2);  // never reached: crash before op 1
  });
  env.add_process([&](Ctx& ctx) { reg.write(ctx, 3); });
  FaultPlan crashes;
  crashes.crash_before_op(0, 1);
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched, crashes);
  EXPECT_EQ(report.outcomes[0], ProcOutcome::kCrashed);
  EXPECT_EQ(report.outcomes[1], ProcOutcome::kFinished);
  EXPECT_NE(reg.peek(), 2);
}

TEST(SimEnv, CrashBeforeFirstOpMeansNoSteps) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  env.add_process([&](Ctx& ctx) { reg.write(ctx, 1); });
  FaultPlan crashes;
  crashes.crash_before_op(0, 0);
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched, crashes);
  EXPECT_EQ(report.outcomes[0], ProcOutcome::kCrashed);
  EXPECT_EQ(report.total_steps, 0u);
  EXPECT_EQ(reg.peek(), 0);
}

TEST(SimEnv, ProcessExceptionReportedAsFailure) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  env.add_process([&](Ctx& ctx) {
    reg.write(ctx, 1);
    throw std::runtime_error("intentional test failure");
  });
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.outcomes[0], ProcOutcome::kFailed);
  EXPECT_NE(report.errors[0].find("intentional"), std::string::npos);
}

TEST(SimEnv, StepLimitTerminatesSpinners) {
  SimEnv env({.step_limit = 50});
  MwmrRegister<int> reg("r", 0);
  env.add_process([&](Ctx& ctx) {
    for (;;) (void)reg.read(ctx);  // deliberately non-wait-free
  });
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched);
  EXPECT_TRUE(report.step_limit_hit);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.total_steps, 50u);
}

TEST(SimEnv, SoloSchedulerRunsLowestPidFirst) {
  SimEnv env;
  MwmrRegister<int> reg("r", -1);
  std::vector<int> order;
  for (int pid = 0; pid < 3; ++pid) {
    env.add_process([&, pid](Ctx& ctx) {
      reg.write(ctx, pid);
      order.push_back(pid);
    });
  }
  SoloScheduler sched;
  env.run(sched);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimEnv, ManyProcessesInterleaveAndFinish) {
  constexpr int kProcs = 64;
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  env.add_process([&](Ctx& ctx) {  // pid 0 also participates
    for (int i = 0; i < 10; ++i) (void)reg.read(ctx);
  });
  for (int pid = 1; pid < kProcs; ++pid) {
    env.add_process([&](Ctx& ctx) {
      for (int i = 0; i < 10; ++i) reg.write(ctx, i);
    });
  }
  RandomScheduler sched(3);
  const RunReport report = env.run(sched);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.finished_count(), kProcs);
  EXPECT_EQ(report.total_steps, static_cast<std::uint64_t>(kProcs) * 10);
}

TEST(Scheduler, CasConvoyPrefersNonCas) {
  // One process about to cas, one about to read: convoy must pick the read.
  ProcView p0{.pid = 0, .ready = true, .pending = {"c", "cas", 0, 1}};
  ProcView p1{.pid = 1, .ready = true, .pending = {"r", "read", 0, 0}};
  std::vector<ProcView> procs{p0, p1};
  std::vector<int> runnable{0, 1};
  CasConvoyScheduler sched(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(sched.pick({0, runnable, procs}), 1);
  }
}

TEST(Scheduler, ExactReplayHasZeroDivergences) {
  std::vector<int> decisions;
  const auto build = [](SimEnv& env, MwmrRegister<int>& reg) {
    for (int pid = 0; pid < 3; ++pid) {
      env.add_process([&reg, pid](Ctx& ctx) {
        reg.write(ctx, pid);
        (void)reg.read(ctx);
      });
    }
  };
  {
    SimEnv env;
    MwmrRegister<int> reg("r", 0);
    build(env, reg);
    RandomScheduler sched(23);
    env.run(sched);
    decisions = env.decisions();
  }
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  build(env, reg);
  ReplayScheduler sched(decisions);
  env.run(sched);
  EXPECT_EQ(sched.divergences(), 0u);
  EXPECT_TRUE(sched.exact_so_far());
  EXPECT_EQ(sched.consumed(), decisions.size());
}

TEST(Scheduler, StaleTapeDivergencesAreCounted) {
  // Two processes, one op each; the tape asks for p0 twice and is then
  // exhausted: one skip (p0 already finished) + one fallback pick.
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  for (int pid = 0; pid < 2; ++pid) {
    env.add_process([&reg, pid](Ctx& ctx) { reg.write(ctx, pid); });
  }
  ReplayScheduler sched({0, 0});
  const RunReport report = env.run(sched);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(sched.divergences(), 2u);
  EXPECT_FALSE(sched.exact_so_far());
}

TEST(Scheduler, ShortTapeFallsBackAndCounts) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  for (int pid = 0; pid < 2; ++pid) {
    env.add_process([&reg, pid](Ctx& ctx) {
      reg.write(ctx, pid);
      (void)reg.read(ctx);
    });
  }
  ReplayScheduler sched({1});  // 4 steps needed, tape covers one
  const RunReport report = env.run(sched);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(sched.divergences(), 3u);  // three fallback-served picks
}

// Seeded stress sweep of the randomized adversaries over the scheduler-
// driven FirstValueTree election (the simulator twin of the OS-thread
// concurrent_election backend): every seed must produce a clean run that
// the paper-grade validator accepts.
TEST(Scheduler, HundredSeedSweepOverElection) {
  constexpr int kK = 4;
  constexpr int kProcs = 4;  // capacity (k-1)! = 6
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    {
      RandomScheduler sched(seed);
      const auto report = bss::core::run_sim_election(kK, kProcs, sched);
      ASSERT_TRUE(report.run.clean())
          << "random seed " << seed << ": " << report.run.summary();
      const auto verdict = bss::core::verify_election(report);
      ASSERT_TRUE(verdict.ok())
          << "random seed " << seed << ": " << verdict.diagnosis;
    }
    {
      CasConvoyScheduler sched(seed);
      const auto report = bss::core::run_sim_election(kK, kProcs, sched);
      ASSERT_TRUE(report.run.clean())
          << "cas-convoy seed " << seed << ": " << report.run.summary();
      const auto verdict = bss::core::verify_election(report);
      ASSERT_TRUE(verdict.ok())
          << "cas-convoy seed " << seed << ": " << verdict.diagnosis;
    }
  }
}

TEST(Trace, FiltersAndCounts) {
  Trace trace;
  trace.append({0, 1, {"a", "read", 0, 0}, 0, false});
  trace.append({1, 2, {"b", "write", 5, 0}, 0, false});
  trace.append({2, 1, {"a", "write", 6, 0}, 0, false});
  EXPECT_EQ(trace.for_object("a").size(), 2u);
  EXPECT_EQ(trace.for_pid(2).size(), 1u);
  EXPECT_EQ(trace.count(1), 2u);
  EXPECT_EQ(trace.count(1, "write"), 1u);
  EXPECT_NE(trace.to_string().find("b.write"), std::string::npos);
}

TEST(Trace, HelpersOnEmptyTrace) {
  const Trace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_TRUE(trace.for_object("a").empty());
  EXPECT_TRUE(trace.for_pid(0).empty());
  EXPECT_EQ(trace.count(0), 0u);
  EXPECT_EQ(trace.count(0, "read"), 0u);
  EXPECT_EQ(trace.to_string().find("... ("), std::string::npos);
}

TEST(Trace, HelpersOnUnknownNamesAndPids) {
  Trace trace;
  trace.append({0, 1, {"a", "read", 0, 0}, 0, false});
  EXPECT_TRUE(trace.for_object("no-such-object").empty());
  EXPECT_TRUE(trace.for_pid(7).empty());
  EXPECT_TRUE(trace.for_pid(-1).empty());
  EXPECT_EQ(trace.count(7), 0u);
  EXPECT_EQ(trace.count(1, "no-such-op"), 0u);
}

TEST(Trace, ToStringTruncatesLongTraces) {
  Trace trace;
  for (int i = 0; i < 10; ++i) {
    trace.append({static_cast<std::uint64_t>(i), 0, {"a", "read", 0, 0}, 0,
                  false});
  }
  const std::string text = trace.to_string(3);
  EXPECT_NE(text.find("... (7 more)"), std::string::npos) << text;
  // At the exact limit nothing is elided.
  EXPECT_EQ(trace.to_string(10).find("more)"), std::string::npos);
}

TEST(VirtualTime, NowReadsZeroUntilATimerFires) {
  SimEnv env;
  std::vector<std::uint64_t> readings;
  env.add_process([&](Ctx& ctx) {
    readings.push_back(ctx.now());
    readings.push_back(ctx.now());
    readings.push_back(ctx.sleep_until(5));
    readings.push_back(ctx.now());
  });
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(readings, (std::vector<std::uint64_t>{0, 0, 5, 5}));
  // Every clock access is an ordinary synced step on the "@clock" object.
  EXPECT_EQ(report.total_steps, 4u);
  const auto clock_events = env.trace().for_object("@clock");
  ASSERT_EQ(clock_events.size(), 4u);
  EXPECT_EQ(clock_events[0].desc.op, "read");
  EXPECT_EQ(clock_events[2].desc.op, "timer");
  EXPECT_EQ(clock_events[2].desc.arg0, 5);
  EXPECT_TRUE(clock_events[2].has_result);
  EXPECT_EQ(clock_events[2].result, 5);
}

TEST(VirtualTime, SleepUntilIsMonotoneFetchMax) {
  SimEnv env;
  std::vector<std::uint64_t> readings;
  env.add_process([&](Ctx& ctx) {
    readings.push_back(ctx.sleep_until(5));
    // A deadline already in the past fires immediately without rewinding.
    readings.push_back(ctx.sleep_until(3));
    readings.push_back(ctx.sleep_until(10));
  });
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(readings, (std::vector<std::uint64_t>{5, 5, 10}));
  EXPECT_EQ(env.virtual_now(), 10u);
}

TEST(VirtualTime, TimerGrantIsVisibleToOtherProcesses) {
  // p0 parks on a timer, p1 on a clock read; round-robin grants the timer
  // first, so p1 observes the post-advance clock — the firing is a step
  // like any other, ordered by the scheduler.
  SimEnv env;
  std::uint64_t p1_read = 0;
  env.add_process([&](Ctx& ctx) { ctx.sleep_until(10); });
  env.add_process([&](Ctx& ctx) { p1_read = ctx.now(); });
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(p1_read, 10u);
}

TEST(VirtualTime, RestartAbandonsParkedTimerWithoutFiringIt) {
  // Crash-restarting a process parked on a timer must NOT advance the
  // clock: the pending operation is abandoned, never performed.  The
  // restarted incarnation re-parks on a fresh timer which fires normally.
  SimEnv env(SimOptions{});
  SwmrRegister<std::int64_t> done("done", 0, 0);
  const auto body = [&](Ctx& ctx) {
    const std::uint64_t woke = ctx.sleep_until(7);
    done.write(ctx, static_cast<std::int64_t>(woke));
  };
  env.add_process(body, body);
  env.start();
  ASSERT_TRUE(env.is_parked(0));
  EXPECT_EQ(env.pending_of(0).object, "@clock");
  EXPECT_EQ(env.pending_of(0).op, "timer");
  env.restart_process(0);
  EXPECT_EQ(env.virtual_now(), 0u);  // the abandoned timer never fired
  ASSERT_TRUE(env.is_parked(0));
  EXPECT_EQ(env.pending_of(0).op, "timer");
  env.step_process(0);  // the fresh incarnation's timer fires now
  EXPECT_EQ(env.virtual_now(), 7u);
  env.step_process(0);  // the write after the sleep
  env.finish();
  EXPECT_EQ(done.peek(), 7);
  const RunReport report = env.snapshot_report();
  EXPECT_EQ(report.restarts_by_pid[0], 1);
}

// ------------------------------------------------------------ the substrate
// Processes are fibers on the calling thread (sim_env.h "Implementation").
// These pin that structurally — which thread runs a body, that unwinding
// runs destructors on every path, that engines stay independent — with no
// timing threshold.

/// Entries of /proc/self/task: the OS threads of this process.
std::size_t os_thread_count() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

TEST(Substrate, BodiesRunOnTheCallingThreadAndSpawnNoThreads) {
  const std::thread::id caller = std::this_thread::get_id();
  const std::size_t threads_before = os_thread_count();
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  std::vector<std::thread::id> seen;
  std::vector<std::size_t> thread_counts;
  for (int pid = 0; pid < 3; ++pid) {
    env.add_process([&, pid](Ctx& ctx) {
      seen.push_back(std::this_thread::get_id());
      thread_counts.push_back(os_thread_count());
      reg.write(ctx, pid);
      seen.push_back(std::this_thread::get_id());
      thread_counts.push_back(os_thread_count());
    });
  }
  RandomScheduler sched(3);
  EXPECT_TRUE(env.run(sched).clean());
  ASSERT_EQ(seen.size(), 6u);
  for (const std::thread::id id : seen) EXPECT_EQ(id, caller);
  for (const std::size_t count : thread_counts) {
    EXPECT_EQ(count, threads_before);
  }
  EXPECT_EQ(os_thread_count(), threads_before);
}

/// Counts its constructions and destructions: a body's RAII witness.
struct Witness {
  explicit Witness(std::vector<int>& log, int pid) : log_(log), pid_(pid) {
    log_.push_back(pid_ + 1);
  }
  ~Witness() { log_.push_back(-(pid_ + 1)); }
  Witness(const Witness&) = delete;
  Witness& operator=(const Witness&) = delete;

 private:
  std::vector<int>& log_;
  int pid_;
};

/// +pid+1 per construction, -(pid+1) per destruction, both counted for `pid`.
std::pair<int, int> lifetimes(const std::vector<int>& log, int pid) {
  int made = 0;
  int destroyed = 0;
  for (const int entry : log) {
    if (entry == pid + 1) ++made;
    if (entry == -(pid + 1)) ++destroyed;
  }
  return {made, destroyed};
}

TEST(Substrate, FaultPlanCrashRunsBodyDestructorsOnce) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  std::vector<int> log;
  for (int pid = 0; pid < 2; ++pid) {
    env.add_process([&, pid](Ctx& ctx) {
      const Witness witness(log, pid);
      reg.write(ctx, 1);
      reg.write(ctx, 2);
    });
  }
  FaultPlan faults;
  faults.crash_before_op(0, 1);
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched, faults);
  EXPECT_EQ(report.outcomes[0], ProcOutcome::kCrashed);
  EXPECT_EQ(report.outcomes[1], ProcOutcome::kFinished);
  EXPECT_EQ(lifetimes(log, 0), std::make_pair(1, 1));
  EXPECT_EQ(lifetimes(log, 1), std::make_pair(1, 1));
}

TEST(Substrate, CrashRestartRunsEachIncarnationsDestructorsOnce) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  std::vector<int> log;
  const auto body = [&](Ctx& ctx) {
    const Witness witness(log, 0);
    reg.write(ctx, 1);
    reg.write(ctx, 2);
  };
  env.add_process(body, body);
  FaultPlan faults;
  faults.restart_before_op(0, 1);
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched, faults);
  EXPECT_EQ(report.outcomes[0], ProcOutcome::kFinished);
  EXPECT_EQ(report.restarts_by_pid[0], 1);
  // The unwound incarnation's witness dies before the restarted one is made.
  EXPECT_EQ(log, (std::vector<int>{1, -1, 1, -1}));
}

TEST(Substrate, FinishShutdownKillsRunBodyDestructorsOnce) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  std::vector<int> log;
  for (int pid = 0; pid < 3; ++pid) {
    env.add_process([&, pid](Ctx& ctx) {
      const Witness witness(log, pid);
      for (int op = 0; op < 4; ++op) reg.write(ctx, op);
    });
  }
  env.start();
  env.step_process(1);
  env.step_process(0);
  env.finish();
  for (int pid = 0; pid < 3; ++pid) {
    EXPECT_EQ(env.outcome_of(pid), ProcOutcome::kCrashed);
    EXPECT_EQ(lifetimes(log, pid), std::make_pair(1, 1)) << "pid " << pid;
  }
  env.finish();  // idempotent: nothing left to unwind
  EXPECT_EQ(log.size(), 6u);
}

/// Grants round robin, then throws: a scheduler bug in the middle of run().
class ThrowingScheduler final : public Scheduler {
 public:
  explicit ThrowingScheduler(int picks_before_throw)
      : left_(picks_before_throw) {}
  int pick(const SchedView& view) override {
    if (left_-- == 0) throw std::runtime_error("scheduler bug");
    return inner_.pick(view);
  }
  std::string name() const override { return "throwing"; }

 private:
  int left_;
  RoundRobinScheduler inner_;
};

TEST(Substrate, DestructorUnwindsParkedBodiesAfterSchedulerThrows) {
  std::vector<int> log;
  MwmrRegister<int> reg("r", 0);
  {
    SimEnv env;
    for (int pid = 0; pid < 3; ++pid) {
      env.add_process([&, pid](Ctx& ctx) {
        const Witness witness(log, pid);
        for (int op = 0; op < 4; ++op) reg.write(ctx, op);
      });
    }
    ThrowingScheduler sched(5);
    EXPECT_THROW(env.run(sched), std::runtime_error);
    EXPECT_EQ(log.size(), 3u);  // every body is alive and parked
  }
  for (int pid = 0; pid < 3; ++pid) {
    EXPECT_EQ(lifetimes(log, pid), std::make_pair(1, 1)) << "pid " << pid;
  }
}

TEST(Substrate, TwoIncrementalEnvsOnOneThreadStayIndependent) {
  SimEnv a;
  SimEnv b;
  MwmrRegister<int> reg_a("a", 0);
  MwmrRegister<int> reg_b("b", 100);
  std::array<std::vector<int>, 2> reads_a;
  std::array<std::vector<int>, 2> reads_b;
  for (int pid = 0; pid < 2; ++pid) {
    a.add_process([&, pid](Ctx& ctx) {
      for (int op = 0; op < 3; ++op) {
        reg_a.write(ctx, reg_a.read(ctx) + 1);
        reads_a[static_cast<std::size_t>(pid)].push_back(reg_a.peek());
      }
    });
    b.add_process([&, pid](Ctx& ctx) {
      for (int op = 0; op < 2; ++op) {
        reads_b[static_cast<std::size_t>(pid)].push_back(reg_b.read(ctx));
        reg_b.write(ctx, reg_b.peek() - 10);
      }
    });
  }
  a.start();
  b.start();
  // Interleave the two engines step by step on this one thread.
  while (!a.parked_processes().empty() || !b.parked_processes().empty()) {
    for (SimEnv* env : {&a, &b}) {
      const std::vector<int> parked = env->parked_processes();
      if (!parked.empty()) env->step_process(parked.front());
    }
  }
  a.finish();
  b.finish();
  // a ran its processes sequentially (pid 0 first): 6 increments, no loss.
  EXPECT_EQ(reg_a.peek(), 6);
  EXPECT_EQ(reads_a[0], (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(reads_a[1], (std::vector<int>{4, 5, 6}));
  EXPECT_EQ(reg_b.peek(), 60);
  EXPECT_EQ(reads_b[0], (std::vector<int>{100, 90}));
  EXPECT_EQ(reads_b[1], (std::vector<int>{80, 70}));
  EXPECT_EQ(a.snapshot_report().total_steps, 12u);
  EXPECT_EQ(b.snapshot_report().total_steps, 8u);
  EXPECT_EQ(a.trace().size(), 12u);
  EXPECT_EQ(b.trace().size(), 8u);
}

TEST(Substrate, BodyWithA32KiBLocalArrayRunsAndKeepsItAcrossSwitches) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  std::uint64_t sums[2] = {0, 0};
  for (int pid = 0; pid < 2; ++pid) {
    env.add_process([&, pid](Ctx& ctx) {
      std::array<unsigned char, 32 * 1024> local{};
      for (std::size_t i = 0; i < local.size(); ++i) {
        local[i] = static_cast<unsigned char>(i * 7 + static_cast<std::size_t>(pid));
      }
      reg.write(ctx, pid);  // switch out and back with the array live
      std::uint64_t sum = 0;
      for (const unsigned char byte : local) sum += byte;
      sums[pid] = sum;
    });
  }
  RoundRobinScheduler sched;
  EXPECT_TRUE(env.run(sched).clean());
  std::uint64_t expected[2] = {0, 0};
  for (std::size_t i = 0; i < 32 * 1024; ++i) {
    for (std::size_t pid = 0; pid < 2; ++pid) {
      expected[pid] += static_cast<unsigned char>(i * 7 + pid);
    }
  }
  EXPECT_EQ(sums[0], expected[0]);
  EXPECT_EQ(sums[1], expected[1]);
}

/// True iff `object` sits on a 16-byte boundary.  The address passes
/// through an empty asm first, so the compiler cannot fold the test away
/// from an alignas it knows about.
bool on_16_byte_boundary(const void* object) {
  void* address = const_cast<void*>(object);
  asm volatile("" : "+r"(address));
  std::size_t space = 16;
  return std::align(16, 1, address, space) == object;
}

/// The System V ABI checks a fiber frame must pass: an alignas(16) local
/// lands on a 16-byte boundary, and a variadic call with a double (whose
/// SSE register spills fault on a misaligned stack) formats correctly.
std::string check_abi_alignment(double value) {
  alignas(16) std::array<unsigned char, 16> local{};
  EXPECT_TRUE(on_16_byte_boundary(local.data()));
  std::array<char, 32> text{};
  std::snprintf(text.data(), text.size(), "%f", value);
  return text.data();
}

TEST(Substrate, FiberFramesAreAbiAligned) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  std::vector<std::string> formatted;
  env.add_process(
      [&](Ctx& ctx) {
        formatted.push_back(check_abi_alignment(1.5));
        reg.write(ctx, 1);
      },
      [&](Ctx& ctx) {
        formatted.push_back(check_abi_alignment(2.25));
        reg.write(ctx, 2);
      });
  FaultPlan faults;
  faults.restart_before_op(0, 0);  // re-enter through the hook at once
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched, faults);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.restarts_by_pid[0], 1);
  EXPECT_EQ(formatted, (std::vector<std::string>{"1.500000", "2.250000"}));
  EXPECT_EQ(reg.peek(), 2);
}

/// 1/3 computed in SSE at run time, so it rounds in the current MXCSR mode.
double one_third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  volatile double quotient = one / three;
  return quotient;
}

TEST(Substrate, FloatingPointControlStaysWithItsFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = one_third();
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  std::vector<int> body_modes;
  std::vector<double> body_thirds;
  env.add_process([&](Ctx& ctx) {
    std::fesetround(FE_UPWARD);
    for (int op = 0; op < 2; ++op) {
      reg.write(ctx, op);  // switch out and back
      body_modes.push_back(std::fegetround());
      body_thirds.push_back(one_third());
    }
  });
  env.start();
  for (int step = 0; step < 2; ++step) {
    // The engine keeps its own modes while the body has switched out: the
    // x87 control word (fegetround) and MXCSR (SSE division).
    EXPECT_EQ(std::fegetround(), FE_TONEAREST) << "step " << step;
    EXPECT_EQ(one_third(), nearest) << "step " << step;
    env.step_process(0);
  }
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(one_third(), nearest);
  env.finish();
  EXPECT_EQ(env.outcome_of(0), ProcOutcome::kFinished);
  EXPECT_EQ(body_modes, (std::vector<int>{FE_UPWARD, FE_UPWARD}));
  ASSERT_EQ(body_thirds.size(), 2u);
  for (const double third : body_thirds) EXPECT_GT(third, nearest);
}

TEST(Substrate, UnwinderStopsAtTheFiberBase) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  std::vector<int> log;
  int frames = -1;
  bool caught = false;
  void* end_of_stack = &log;  // anything but null until read
  env.add_process([&](Ctx& ctx) {
    // The fiber's stack ends at the page boundary just above the body's
    // first frame; its last slot is the entry function's return slot, which
    // must hold null so that unwinders stop there.
    const auto frame =
        reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
    const std::uintptr_t top = (frame | (page - 1)) + 1;
    std::memcpy(&end_of_stack,
                reinterpret_cast<const void*>(top - sizeof(void*)),
                sizeof(void*));
    const Witness witness(log, 0);
    reg.write(ctx, 1);
    std::array<void*, 256> addresses{};
    frames = backtrace(addresses.data(), static_cast<int>(addresses.size()));
    try {
      throw std::runtime_error("thrown and caught inside the body");
    } catch (const std::runtime_error&) {
      caught = true;
    }
    reg.write(ctx, 2);  // parks here until the kill below
  });
  env.start();
  env.step_process(0);  // backtrace, throw and catch, park again
  ASSERT_TRUE(env.is_parked(0));
  // ProcessCrashed unwinds to the fiber's base.
  env.apply({ActionKind::kCrash, 0});
  EXPECT_EQ(env.outcome_of(0), ProcOutcome::kCrashed);
  // The walk ends at the fiber's base instead of running on into whatever
  // lies above its stack: the body, std::function and the fiber entry are a
  // handful of frames.
  EXPECT_GT(frames, 0);
  EXPECT_LT(frames, 32);
  EXPECT_EQ(end_of_stack, nullptr);
  EXPECT_TRUE(caught);
  EXPECT_EQ(lifetimes(log, 0), std::make_pair(1, 1));
}

TEST(SwmrRegister, SecondWriterTrapped) {
  SimEnv env;
  SwmrRegister<int> reg("r", SwmrRegister<int>::kAnyWriter, 0);
  env.add_process([&](Ctx& ctx) { reg.write(ctx, 1); });
  env.add_process([&](Ctx& ctx) { reg.write(ctx, 2); });
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched);
  // Exactly one of them must have failed the single-writer discipline.
  EXPECT_EQ(report.finished_count(), 1);
  int failed = 0;
  for (const auto outcome : report.outcomes) {
    if (outcome == ProcOutcome::kFailed) ++failed;
  }
  EXPECT_EQ(failed, 1);
}

}  // namespace
}  // namespace bss::sim
