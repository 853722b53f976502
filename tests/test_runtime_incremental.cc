// The incremental SimEnv API (start/pending/inject/apply/step/finish) — the
// mechanism the explorer and the Section 3 emulation drive processes with.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "audit/ledger.h"
#include "registers/ll_sc.h"
#include "registers/mwmr_register.h"
#include "runtime/fault_plan.h"
#include "runtime/scheduler.h"
#include "runtime/sim_env.h"
#include "util/rng.h"

namespace bss::sim {
namespace {

TEST(Incremental, PendingOpsVisibleBeforeExecution) {
  SimEnv env;
  MwmrRegister<int> reg("r", 5);
  env.add_process([&](Ctx& ctx) {
    (void)reg.read(ctx);
    reg.write(ctx, 9);
  });
  env.start();
  ASSERT_TRUE(env.is_parked(0));
  EXPECT_EQ(env.pending_of(0).op, "read");
  EXPECT_EQ(env.pending_of(0).object, "r");
  const TraceEvent first = env.step_process(0);
  EXPECT_EQ(first.desc.op, "read");
  EXPECT_EQ(first.result, 5);
  ASSERT_TRUE(env.is_parked(0));
  EXPECT_EQ(env.pending_of(0).op, "write");
  EXPECT_EQ(env.pending_of(0).arg0, 9);
  env.step_process(0);
  EXPECT_TRUE(env.is_finished(0));
  EXPECT_EQ(env.outcome_of(0), ProcOutcome::kFinished);
  env.finish();
  EXPECT_EQ(reg.peek(), 9);
}

TEST(Incremental, InjectionDeliversResults) {
  SimEnv env;
  std::int64_t got = -1;
  env.add_process([&](Ctx& ctx) {
    ctx.sync({"fake", "cas", 0, 1});
    got = ctx.take_injection();
  });
  env.start();
  env.inject(0, 42);
  env.step_process(0);
  env.finish();
  EXPECT_EQ(got, 42);
}

TEST(Incremental, MissingInjectionIsAnError) {
  SimEnv env;
  env.add_process([&](Ctx& ctx) {
    ctx.sync({"fake", "cas", 0, 1});
    (void)ctx.take_injection();  // nothing injected: invariant error
  });
  env.start();
  env.step_process(0);
  EXPECT_TRUE(env.is_finished(0));
  EXPECT_EQ(env.outcome_of(0), ProcOutcome::kFailed);
  EXPECT_NE(env.error_of(0).find("injected"), std::string::npos);
  env.finish();
}

TEST(Incremental, InjectionIsConsumedPerStep) {
  SimEnv env;
  std::vector<std::int64_t> got;
  env.add_process([&](Ctx& ctx) {
    for (int i = 0; i < 2; ++i) {
      ctx.sync({"fake", "cas", i, i + 1});
      got.push_back(ctx.take_injection());
    }
  });
  env.start();
  env.inject(0, 7);
  env.step_process(0);
  env.inject(0, 8);
  env.step_process(0);
  env.finish();
  EXPECT_EQ(got, (std::vector<std::int64_t>{7, 8}));
}

TEST(Incremental, InterleavesTwoProcessesUnderDriverControl) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  std::vector<int> p1_reads;
  env.add_process([&](Ctx& ctx) {
    reg.write(ctx, 1);
    reg.write(ctx, 2);
  });
  env.add_process([&](Ctx& ctx) {
    p1_reads.push_back(reg.read(ctx));
    p1_reads.push_back(reg.read(ctx));
  });
  env.start();
  env.step_process(0);  // write 1
  env.step_process(1);  // read -> 1
  env.step_process(0);  // write 2
  env.step_process(1);  // read -> 2
  env.finish();
  EXPECT_EQ(p1_reads, (std::vector<int>{1, 2}));
}

TEST(Incremental, KillUnwindsAParkedProcess) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  env.add_process([&](Ctx& ctx) {
    reg.write(ctx, 1);
    reg.write(ctx, 2);
  });
  env.start();
  env.step_process(0);
  env.apply({ActionKind::kCrash, 0});
  EXPECT_TRUE(env.is_finished(0));
  EXPECT_EQ(env.outcome_of(0), ProcOutcome::kCrashed);
  env.finish();
  EXPECT_EQ(reg.peek(), 1);
}

TEST(Incremental, FinishKillsEverythingParked) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  for (int pid = 0; pid < 3; ++pid) {
    env.add_process([&](Ctx& ctx) {
      for (int i = 0; i < 100; ++i) reg.write(ctx, i);
    });
  }
  env.start();
  env.step_process(1);
  env.finish();
  for (int pid = 0; pid < 3; ++pid) {
    EXPECT_TRUE(env.is_finished(pid));
    EXPECT_EQ(env.outcome_of(pid), ProcOutcome::kCrashed);
  }
}

TEST(Incremental, StepTraceIsRecorded) {
  SimEnv env;
  MwmrRegister<int> reg("r", 3);
  env.add_process([&](Ctx& ctx) { (void)reg.read(ctx); });
  env.start();
  env.step_process(0);
  env.finish();
  ASSERT_EQ(env.trace().size(), 1u);
  EXPECT_EQ(env.trace().events()[0].desc.op, "read");
}

TEST(Incremental, MixedModesRejected) {
  SimEnv env;
  env.add_process([](Ctx&) {});
  env.start();
  RoundRobinScheduler scheduler;
  EXPECT_THROW(env.run(scheduler), bss::InvariantError);
  env.finish();
}

TEST(Incremental, GlobalStepAdvancesWithSteps) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  std::vector<std::uint64_t> stamps;
  env.add_process([&](Ctx& ctx) {
    stamps.push_back(ctx.global_step());
    reg.write(ctx, 1);
    stamps.push_back(ctx.global_step());
    reg.write(ctx, 2);
    stamps.push_back(ctx.global_step());
  });
  env.start();
  env.step_process(0);
  env.step_process(0);
  env.finish();
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_LE(stamps[0], stamps[1]);
  EXPECT_LT(stamps[1], stamps[2]);
}

TEST(Apply, CanApplyRejectsWhatApplyWouldNot) {
  SimEnv env;
  // p0: restartable, parked on an SC; p1: fail-stop only, parked on a read;
  // p2: takes no shared step, so it is finished right after start().
  const auto on_sc = [](Ctx& ctx) { ctx.sync({"x", "sc", 0, 0}); };
  env.add_process(on_sc, on_sc);
  env.add_process([](Ctx& ctx) { ctx.sync({"x", "read", 0, 0}); });
  env.add_process([](Ctx&) {});
  EXPECT_FALSE(env.can_apply({ActionKind::kGrant, 0}));  // before start()
  EXPECT_THROW(env.apply({ActionKind::kGrant, 0}), bss::InvariantError);
  env.start();
  ASSERT_TRUE(env.is_finished(2));

  const std::vector<Action> rejected = {
      {ActionKind::kGrant, -1},     {ActionKind::kCrash, -1},
      {ActionKind::kGrant, 3},      {ActionKind::kRestart, 3},
      {ActionKind::kGrant, 2},      {ActionKind::kCrash, 2},
      {ActionKind::kRestart, 2},    {ActionKind::kScFailure, 2},
      {ActionKind::kRestart, 1},    {ActionKind::kScFailure, 1},
  };
  for (const Action action : rejected) {
    EXPECT_FALSE(env.can_apply(action))
        << "kind " << static_cast<int>(action.kind) << " pid " << action.pid;
    EXPECT_THROW(env.apply(action), bss::InvariantError);
  }
  const std::vector<Action> accepted = {
      {ActionKind::kGrant, 0},   {ActionKind::kGrant, 1},
      {ActionKind::kCrash, 0},   {ActionKind::kCrash, 1},
      {ActionKind::kRestart, 0}, {ActionKind::kScFailure, 0},
  };
  for (const Action action : accepted) {
    EXPECT_TRUE(env.can_apply(action))
        << "kind " << static_cast<int>(action.kind) << " pid " << action.pid;
  }
  // The rejected applies changed nothing.
  EXPECT_TRUE(env.trace().empty());
  EXPECT_TRUE(env.is_parked(0));
  EXPECT_TRUE(env.is_parked(1));

  // Each valid kind takes effect.
  env.apply({ActionKind::kRestart, 0});
  EXPECT_EQ(env.snapshot_report().restarts_by_pid[0], 1);
  EXPECT_TRUE(env.is_parked(0));
  env.apply({ActionKind::kScFailure, 0});
  EXPECT_TRUE(env.is_finished(0));
  env.apply({ActionKind::kGrant, 1});
  EXPECT_TRUE(env.is_finished(1));
  ASSERT_EQ(env.trace().size(), 2u);
  EXPECT_EQ(env.trace().events()[0].desc.op, "sc");
  EXPECT_EQ(env.trace().events()[1].desc.op, "read");
  env.finish();
  EXPECT_FALSE(env.can_apply({ActionKind::kCrash, 1}));
  EXPECT_THROW(env.apply({ActionKind::kCrash, 0}), bss::InvariantError);

  SimEnv crash_env;
  crash_env.add_process([](Ctx& ctx) { ctx.sync({"x", "read", 0, 0}); });
  crash_env.start();
  crash_env.apply({ActionKind::kCrash, 0});
  EXPECT_EQ(crash_env.outcome_of(0), ProcOutcome::kCrashed);
  crash_env.finish();
}

/// A three-process system exercising every decision kind: p0 restarts, p1's
/// first SC fails spuriously, p2 fires a timer and later crashes.
struct MixedSystem {
  MwmrRegister<int> reg{"r", 0};
  LlScRegisterK llsc{"llsc", 4};
  std::vector<bool> sc_results;

  void populate(SimEnv& env) {
    const auto writer = [this](Ctx& ctx) {
      reg.write(ctx, 10 + ctx.incarnation());
      reg.write(ctx, 20 + ctx.incarnation());
    };
    env.add_process(writer, writer);
    const auto linker = [this](Ctx& ctx) {
      for (int value = 1; value <= 2; ++value) {
        llsc.load_link(ctx);
        sc_results.push_back(llsc.store_conditional(ctx, value));
      }
    };
    env.add_process(linker, linker);
    env.add_process([this](Ctx& ctx) {
      ctx.sleep_until(5);
      (void)reg.read(ctx);
      reg.write(ctx, 99);
    });
  }
};

void expect_same_events(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const TraceEvent& x = a.events()[i];
    const TraceEvent& y = b.events()[i];
    EXPECT_EQ(x.step, y.step) << "event " << i;
    EXPECT_EQ(x.pid, y.pid) << "event " << i;
    EXPECT_EQ(x.desc.object, y.desc.object) << "event " << i;
    EXPECT_EQ(x.desc.op, y.desc.op) << "event " << i;
    EXPECT_EQ(x.desc.arg0, y.desc.arg0) << "event " << i;
    EXPECT_EQ(x.desc.arg1, y.desc.arg1) << "event " << i;
    EXPECT_EQ(x.has_result, y.has_result) << "event " << i;
    EXPECT_EQ(x.result, y.result) << "event " << i;
  }
}

TEST(Apply, RunAgreesWithTheEquivalentActionSequence) {
  MixedSystem by_run;
  SimEnv run_env;
  by_run.populate(run_env);
  FaultPlan plan;
  plan.restart_before_op(0, 1).fail_sc(1, 0).crash_before_op(2, 2);
  ReplayScheduler scheduler({0, 1, 2, 0, 1, 2, 0, 1, 1});
  const RunReport run_report = run_env.run(scheduler, plan);
  EXPECT_EQ(scheduler.divergences(), 0u);

  // What run() does with that plan and those picks, spelled out: due faults
  // fire before each pick, and the pick of p1's first SC is a kScFailure.
  MixedSystem by_apply;
  SimEnv apply_env;
  by_apply.populate(apply_env);
  apply_env.start();
  for (const Action action : std::vector<Action>{
           {ActionKind::kGrant, 0},     {ActionKind::kRestart, 0},
           {ActionKind::kGrant, 1},     {ActionKind::kGrant, 2},
           {ActionKind::kGrant, 0},     {ActionKind::kScFailure, 1},
           {ActionKind::kGrant, 2},     {ActionKind::kCrash, 2},
           {ActionKind::kGrant, 0},     {ActionKind::kGrant, 1},
           {ActionKind::kGrant, 1}}) {
    apply_env.apply(action);
  }
  EXPECT_TRUE(apply_env.parked_processes().empty());
  apply_env.finish();
  const RunReport apply_report = apply_env.snapshot_report();

  expect_same_events(run_env.trace(), apply_env.trace());
  EXPECT_EQ(run_report.summary(), apply_report.summary());
  EXPECT_EQ(run_report.total_steps, apply_report.total_steps);
  EXPECT_EQ(run_report.step_limit_hit, apply_report.step_limit_hit);
  EXPECT_EQ(run_report.outcomes, apply_report.outcomes);
  EXPECT_EQ(run_report.errors, apply_report.errors);
  EXPECT_EQ(run_report.steps_by_pid, apply_report.steps_by_pid);
  EXPECT_EQ(run_report.restarts_by_pid, apply_report.restarts_by_pid);
  EXPECT_EQ(run_env.virtual_now(), apply_env.virtual_now());
  EXPECT_EQ(by_run.sc_results, by_apply.sc_results);
  EXPECT_EQ(by_run.reg.peek(), by_apply.reg.peek());

  // The run did take every decision kind.
  EXPECT_EQ(run_report.outcomes,
            (std::vector<ProcOutcome>{ProcOutcome::kFinished,
                                      ProcOutcome::kFinished,
                                      ProcOutcome::kCrashed}));
  EXPECT_EQ(run_report.restarts_by_pid, (std::vector<int>{1, 0, 0}));
  EXPECT_EQ(by_run.sc_results, (std::vector<bool>{false, true}));
  EXPECT_EQ(run_env.virtual_now(), 5u);
  EXPECT_EQ(by_run.reg.peek(), 21);
}

TEST(Apply, AnUnconsumedSpuriousScMarkLapses) {
  // The body performs a raw "sc" without asking take_sc_failure: the mark
  // applied to it lapses when the operation ends, so the next operation
  // never sees it — in incremental mode exactly as in run().
  SimEnv env;
  bool next_op_saw_mark = true;
  env.add_process([&](Ctx& ctx) {
    ctx.sync({"x", "sc", 0, 0});
    ctx.sync({"x", "write", 0, 0});
    next_op_saw_mark = ctx.take_sc_failure();
  });
  env.start();
  env.apply({ActionKind::kScFailure, 0});
  env.apply({ActionKind::kGrant, 0});
  env.finish();
  EXPECT_EQ(env.outcome_of(0), ProcOutcome::kFinished);
  EXPECT_FALSE(next_op_saw_mark);
}

// ------------------------------------------------------------------ reset

/// Counts the access windows an env opens while the observer is attached.
struct WindowCounter final : audit::AccessObserver {
  void on_window_begin(int, const OpDesc&, std::uint64_t) override {
    ++windows;
  }
  void on_window_end(int, bool) override {}
  void on_access(int, const std::string&, audit::AccessKind,
                 std::uint64_t) override {}
  std::uint64_t windows = 0;
};

/// MixedSystem's processes, the first `n` of them, all restartable, each
/// holding a guard local for as long as its body runs: `live` counts bodies
/// not yet returned or unwound.  A restarted sleeper (pid 2) fails.
struct GuardedSystem {
  struct Guard {
    explicit Guard(int& count) : live(count) { ++live; }
    ~Guard() { --live; }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    int& live;
  };

  GuardedSystem(int n, int& live_count) : processes(n), live(live_count) {}

  void populate(SimEnv& env) {
    const auto writer = [this](Ctx& ctx) {
      const Guard guard(live);
      reg.write(ctx, 10 + ctx.incarnation());
      reg.write(ctx, 20 + ctx.incarnation());
    };
    env.add_process(writer, writer);
    const auto linker = [this](Ctx& ctx) {
      const Guard guard(live);
      for (int value = 1; value <= 2; ++value) {
        llsc.load_link(ctx);
        (void)llsc.store_conditional(ctx, value);
      }
    };
    env.add_process(linker, linker);
    if (processes < 3) return;
    const auto sleeper = [this](Ctx& ctx) {
      const Guard guard(live);
      ctx.sleep_until(5);
      // A restarted sleeper fails, so some runs carry an error text.
      if (ctx.incarnation() > 0) throw std::runtime_error("sleeper restarted");
      (void)reg.read(ctx);
      reg.write(ctx, 99);
    };
    env.add_process(sleeper, sleeper);
  }

  int processes;
  int& live;
  MwmrRegister<int> reg{"r", 0};
  LlScRegisterK llsc{"llsc", 4};
};

/// What one run leaves behind, for comparing a reused env with a fresh one.
struct RunResult {
  std::vector<TraceEvent> events;
  RunReport report;
  std::uint64_t virtual_now = 0;
  std::vector<std::uint64_t> steps;
  std::vector<int> decisions;
};

RunResult observe(const SimEnv& env, const RunReport& report) {
  RunResult result{env.trace().events(), report, env.virtual_now(), {},
                   env.decisions()};
  for (int pid = 0; pid < env.process_count(); ++pid) {
    result.steps.push_back(env.steps_of(pid));
  }
  return result;
}

void expect_same_run(const RunResult& reused, const RunResult& fresh,
                     int schedule) {
  ASSERT_EQ(reused.events.size(), fresh.events.size()) << "schedule " << schedule;
  for (std::size_t i = 0; i < fresh.events.size(); ++i) {
    const TraceEvent& x = reused.events[i];
    const TraceEvent& y = fresh.events[i];
    EXPECT_TRUE(x.step == y.step && x.pid == y.pid &&
                x.desc.object == y.desc.object && x.desc.op == y.desc.op &&
                x.desc.arg0 == y.desc.arg0 && x.desc.arg1 == y.desc.arg1 &&
                x.has_result == y.has_result && x.result == y.result)
        << "schedule " << schedule << " event " << i;
  }
  EXPECT_EQ(reused.report.summary(), fresh.report.summary())
      << "schedule " << schedule;
  EXPECT_EQ(reused.report.total_steps, fresh.report.total_steps);
  EXPECT_EQ(reused.report.step_limit_hit, fresh.report.step_limit_hit);
  EXPECT_EQ(reused.report.outcomes, fresh.report.outcomes);
  EXPECT_EQ(reused.report.errors, fresh.report.errors);
  EXPECT_EQ(reused.report.steps_by_pid, fresh.report.steps_by_pid);
  EXPECT_EQ(reused.report.restarts_by_pid, fresh.report.restarts_by_pid);
  EXPECT_EQ(reused.virtual_now, fresh.virtual_now) << "schedule " << schedule;
  EXPECT_EQ(reused.steps, fresh.steps) << "schedule " << schedule;
  EXPECT_EQ(reused.decisions, fresh.decisions) << "schedule " << schedule;
}

/// One seeded random schedule of `env`, already populated: every fourth
/// through run() with a random scheduler and fault plan, the others through
/// apply() with random grants, crashes, restarts and spurious SC failures.
/// Returns false when the schedule stops early with processes still parked.
bool drive(SimEnv& env, int schedule, RunReport& report) {
  const auto seed = static_cast<std::uint64_t>(schedule);
  if (schedule % 4 == 0) {
    Rng plan_rng(seed);
    RandomScheduler scheduler(seed);
    report = env.run(scheduler, FaultPlan::random(env.process_count(), 0.2,
                                                  0.3, 0.3, 4, plan_rng));
    return true;
  }
  Rng rng(seed);
  // One schedule in five is abandoned after a few decisions.
  const std::uint64_t stop_after =
      schedule % 5 == 3 ? 1 + rng.next_below(4) : ~std::uint64_t{0};
  env.start();
  std::vector<int> parked;
  for (std::uint64_t taken = 0;; ++taken) {
    env.parked_processes(parked);
    if (parked.empty()) break;
    if (taken == stop_after) return false;
    const int pid = parked[rng.next_below(parked.size())];
    Action action{ActionKind::kGrant, pid};
    switch (rng.next_below(8)) {
      case 0: action.kind = ActionKind::kCrash; break;
      case 1: action.kind = ActionKind::kRestart; break;
      case 2: action.kind = ActionKind::kScFailure; break;
      default: break;
    }
    if (!env.can_apply(action)) action.kind = ActionKind::kGrant;
    env.apply(action);
  }
  env.finish();
  env.snapshot_report(report);
  return true;
}

TEST(Reset, AReusedEnvRunsLikeAFreshOne) {
  SimEnv reused;
  WindowCounter observer;
  int live = 0;
  // The reused env's previous system: it must outlive the reset() that
  // unwinds an abandoned run's parked bodies.
  std::unique_ptr<GuardedSystem> previous;
  RunReport reused_report;
  for (int schedule = 0; schedule < 120; ++schedule) {
    const int n = schedule % 3 == 1 ? 2 : 3;  // 3 -> 2 -> 3 processes
    const bool observed = schedule % 5 == 2;
    const SimOptions options{10'000, schedule % 7 != 6};

    auto system = std::make_unique<GuardedSystem>(n, live);
    reused.reset(options);
    EXPECT_EQ(live, 0) << "reset() left a body of schedule " << schedule - 1
                       << " parked";
    previous = nullptr;
    system->populate(reused);
    const std::uint64_t windows_before = observer.windows;
    if (observed) reused.set_access_observer(&observer);
    const bool completed = drive(reused, schedule, reused_report);
    const std::uint64_t windows = observer.windows - windows_before;
    if (!observed) {
      EXPECT_EQ(windows, 0u) << "schedule " << schedule
                             << " still reports to an earlier observer";
    }

    int fresh_live = 0;
    GuardedSystem fresh_system(n, fresh_live);
    SimEnv fresh(options);
    fresh_system.populate(fresh);
    WindowCounter fresh_observer;
    if (observed) fresh.set_access_observer(&fresh_observer);
    RunReport fresh_report;
    EXPECT_EQ(drive(fresh, schedule, fresh_report), completed);
    EXPECT_EQ(fresh_observer.windows, windows) << "schedule " << schedule;
    if (!completed) {
      // Abandoned: compare the state at the stop, before either unwinds.
      reused.snapshot_report(reused_report);
      fresh.snapshot_report(fresh_report);
      EXPECT_GT(live, 0) << "schedule " << schedule;
    }
    expect_same_run(observe(reused, reused_report),
                    observe(fresh, fresh_report), schedule);
    EXPECT_EQ(system->reg.peek(), fresh_system.reg.peek())
        << "schedule " << schedule;
    fresh.finish();
    previous = std::move(system);
  }
  reused.reset();
  EXPECT_EQ(live, 0);
  EXPECT_GT(observer.windows, 0u);
}

TEST(Reset, ANeverStartedEnvResetsAndRuns) {
  SimEnv env;
  int live = 0;
  GuardedSystem unused(3, live);
  unused.populate(env);
  env.reset();
  EXPECT_EQ(env.process_count(), 0);
  EXPECT_TRUE(env.parked_processes().empty());
  GuardedSystem system(2, live);
  system.populate(env);
  RoundRobinScheduler scheduler;
  const RunReport report = env.run(scheduler);
  EXPECT_EQ(report.finished_count(), 2);
  EXPECT_EQ(report.outcomes.size(), 2u);
  EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace bss::sim
