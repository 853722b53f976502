// SimEnv — the deterministic asynchronous shared-memory machine.
//
// Model: n sequential processes, each an arbitrary C++ callable, communicate
// only through shared objects (src/registers).  Every shared-object operation
// begins with Ctx::sync(), which *blocks the process* until the scheduler
// grants it the step; while everything is blocked the engine consults the
// Scheduler (the adversary) to choose who moves.  Exactly one process runs at
// a time, so each granted operation executes atomically — which is precisely
// the atomic-register/atomic-RMW model of Afek & Stupp (and Herlihy [10]).
//
// Determinism: the execution is a pure function of (process bodies, scheduler
// decisions, fault plan).  Schedulers are replayable, so every run in this
// repository can be reproduced from a seed.
//
// Decisions: every step and every fault is one Action (runtime/action.h)
// taken by SimEnv::apply — a grant, a spurious store-conditional failure
// plus grant, a fail-stop kill, or a crash-restart.  run() turns its
// scheduler's picks and its FaultPlan (fault_plan.h) into Actions; the
// incremental API lets a caller (the explorer, a replayer) apply its own.
// Fail-stop kills a parked process for good; crash-*restart* unwinds it (all
// private state — locals, program counter, the in-flight operation — is
// lost, shared registers persist) and re-enters its program through the
// restart hook registered with the two-argument add_process overload.
// Spurious store-conditional failures are delivered to the LL/SC object
// through Ctx::take_sc_failure.
//
// Virtual time: the engine carries a logical clock (virtual_now, a plain
// uint64 of abstract ticks) that only timer operations move.  Ctx::now()
// reads it as a synced shared operation on the pseudo-object "@clock";
// Ctx::sleep_until(deadline) parks the process on a {"@clock", "timer"}
// operation whose *grant* advances the clock to max(now, deadline).  Because
// a timer firing is just another granted step, the scheduler — and therefore
// the DFS explorer — adversarially races timeouts against ordinary steps and
// faults with no extra machinery: a timer decision is a decision.  Footprints
// are declared like any register's ("read" reads @clock, "timer" writes it),
// so sleep-set POR and the access-ledger audit stay sound: two reads of the
// clock commute, everything else on @clock conflicts.
//
// Implementation: each process runs on a fiber (its own stack, switched to
// by a hand-written x86-64 register switch, bss_fiber_switch) driven from
// the thread that calls run(), start() or apply(); no other OS thread
// is ever involved.  A grant resumes the grantee's fiber from the SimEnv's
// engine, and the fiber switches back when it reaches its next sync point or
// finishes — Ctx::sync() is the only switch point.  A switch saves the
// callee-saved registers (rbp, rbx, r12-r15), the stack pointer, MXCSR and
// the x87 control word, and nothing else: not the signal mask, so it costs no
// syscall.  A fresh fiber's first frame is built by hand at the top of its
// stack so that its entry starts ABI-aligned under a null return slot, where
// unwinders stop.  Kills and crash-restarts resume a parked fiber with
// crash_requested set, so ProcessCrashed unwinds entirely on the fiber's own
// stack.  Fiber stacks (mmap'd, with a PROT_NONE guard page below them) come
// from a per-OS-thread pool and go back to it as each process ends.  A SimEnv
// must be driven from one thread for its whole life.
//
// Reuse: one run per SimEnv life cycle — populate, run() or start()..
// finish() — and reset() begins the next one on the same object.  reset()
// keeps the memory of the last run (the per-process records and Ctx
// objects, the engine context, the body and hook lists, the trace), so a
// caller that runs many short schedules (the explorer keeps one SimEnv per
// worker) allocates nothing for the environment once it is warm.  Bodies
// capture their system's shared state by reference, so finish() — or
// reset(), which finishes first — must run while that state is alive.
//
// Rules for process bodies: never call Ctx::sync() (any shared operation)
// inside a catch handler.  The C++ runtime keeps its caught-exception stack
// per OS thread, so fibers interleaving inside handlers would corrupt it.
// And never change the thread's signal mask: a switch does not carry it, so
// a mask set in one fiber would leak into the engine and every other fiber.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/ledger.h"
#include "runtime/action.h"
#include "runtime/fault_plan.h"
#include "runtime/scheduler.h"
#include "runtime/trace.h"

namespace bss::obs {
class ObsSink;
}  // namespace bss::obs

namespace bss::sim {

class SimEnv;

/// Thrown inside a process body to unwind it when the crash plan (or engine
/// shutdown) kills the process.  Process bodies must not swallow it.
struct ProcessCrashed {};

/// Per-process handle passed to process bodies and shared objects.
class Ctx {
 public:
  int pid() const { return pid_; }
  std::uint64_t steps_taken() const { return steps_taken_; }
  /// 0 for the initial execution, +1 per crash-restart.  Survives restarts
  /// (it lives in the engine, not on the process's stack), so recovery code
  /// — and recovery *mutants* — can tell re-entries apart.
  int incarnation() const { return incarnation_; }
  /// Global step counter at the moment of the call — timestamps for interval
  /// histories (runtime/linearizability.h).  Stable while this process runs.
  std::uint64_t global_step() const;

  /// Reads the virtual clock as a synced shared operation on "@clock"
  /// (footprint: read).  The value is the logical tick count advanced only
  /// by granted timer operations, so it is deterministic per schedule.
  std::uint64_t now();

  /// Parks the process on a {"@clock", "timer", deadline} operation; when
  /// the scheduler grants it, the virtual clock jumps to
  /// max(virtual_now, deadline) and the new now is returned (footprint:
  /// write — timers conflict with every other @clock op, so POR never
  /// prunes a schedule that orders a timeout differently).  The scheduler
  /// may grant the timer at any point, which is exactly the asynchronous-
  /// model reading of a timeout: "at least until `deadline`, then whenever
  /// the adversary feels like it".
  std::uint64_t sleep_until(std::uint64_t deadline);

  /// Announces the pending operation and blocks until the scheduler grants
  /// this process its next step.  Called by shared objects at the start of
  /// every operation.  Throws ProcessCrashed if the process was killed.
  void sync(OpDesc desc);

  /// Records the result of the operation granted by the last sync(), for the
  /// trace.  Optional; at most once per sync.
  void note_result(std::int64_t result);

  /// Consumes the value injected by SimEnv::inject for the operation granted
  /// by the last sync().  Emulated objects (src/emulation) use this to let a
  /// driver dictate operation results; InvariantError if nothing was
  /// injected.
  std::int64_t take_injection();

  /// True iff the operation granted by the last sync() was marked as a
  /// spurious store-conditional failure (an ActionKind::kScFailure, e.g.
  /// from FaultPlan::fail_sc).  Consuming clears the mark; the LL/SC object
  /// calls this once per SC.  A mark the operation does not consume lapses
  /// when the operation ends: the next operation never sees it.
  bool take_sc_failure();

  /// Checks out this process's access-ledger stamp for the grant window the
  /// last sync() opened.  Shared objects call token.read/write(name) on
  /// every load/store of shared state; with no observer attached (the
  /// default) the token is inert.  A token checked out with no window open
  /// (body code ahead of its first sync) carries AccessToken::kNoWindow —
  /// using it to touch shared state is exactly the unsynced access the
  /// auditor reports.
  audit::AccessToken access_token() const;

 private:
  friend class SimEnv;
  Ctx(SimEnv* env, int pid) : env_(env), pid_(pid) {}

  SimEnv* env_;
  int pid_;
  std::uint64_t steps_taken_ = 0;  // lifetime count; NOT reset by restarts
  int incarnation_ = 0;
};

enum class ProcOutcome {
  kFinished,   ///< body returned normally
  kCrashed,    ///< killed by the crash plan or engine shutdown
  kFailed,     ///< body threw a non-crash exception (a bug; message kept)
  kUnstarted,  ///< never scheduled (only possible with step limits)
};

struct RunReport {
  std::uint64_t total_steps = 0;
  bool step_limit_hit = false;
  std::vector<ProcOutcome> outcomes;       // indexed by pid
  std::vector<std::string> errors;         // non-empty for kFailed pids
  std::vector<std::uint64_t> steps_by_pid;
  std::vector<int> restarts_by_pid;        // crash-restarts survived, by pid

  int finished_count() const;
  int crashed_count() const;
  /// Processes that survived at least one crash-restart.
  int restarted_count() const;
  /// True iff no process failed with an exception and the step limit held.
  bool clean() const;
  std::string summary() const;
};

struct SimOptions {
  std::uint64_t step_limit = 10'000'000;
  bool record_trace = true;
};

class SimEnv {
 public:
  explicit SimEnv(SimOptions options = {});
  ~SimEnv();

  SimEnv(const SimEnv&) = delete;
  SimEnv& operator=(const SimEnv&) = delete;

  /// Registers a process body; returns its pid (dense, starting at 0).
  /// Bodies receive their Ctx and may capture shared objects by reference.
  int add_process(std::function<void(Ctx&)> body);

  /// Registers a crash-*restartable* process: after a restart fault, the
  /// process is re-entered through `restart_hook` (every local of the
  /// unwound body is gone; shared registers persist).  Recovery-safe
  /// programs simply pass their body again — recovery must be derivable
  /// from shared state plus the process's immutable inputs.
  int add_process(std::function<void(Ctx&)> body,
                  std::function<void(Ctx&)> restart_hook);

  /// True iff `pid` was registered with a restart hook.
  bool restart_supported(int pid) const;

  int process_count() const { return static_cast<int>(bodies_.size()); }

  /// Attaches an access-ledger observer (src/audit) before the run: the
  /// engine brackets every granted operation with on_window_begin/end and
  /// instrumented objects stamp their accesses through Ctx::access_token().
  /// Observers are passive — attaching one changes neither scheduling nor
  /// results — and must outlive the run.  Call before run()/start().
  void set_access_observer(audit::AccessObserver* observer);

  /// Attaches a telemetry sink (src/obs) before the run: fault actions
  /// taken by apply() (kCrash, kRestart, kScFailure — from a caller or from
  /// run()'s FaultPlan) emit sim.crash / sim.restart / sim.sc_failure events
  /// stamped with the global step counter.  Passive, like the access
  /// observer: attaching one changes neither scheduling nor results.  The
  /// engine's own shutdown kills in finish() are NOT events.  The explorer
  /// attaches this on counterexample replays only (exploration re-runs the
  /// factory thousands of times and would flood the bounded log).
  void set_obs_sink(obs::ObsSink* sink);

  /// Executes the system to quiescence (all processes finished/crashed) or
  /// to the step limit: start(), then apply() each due FaultPlan event and
  /// each scheduler pick (a kScFailure where FaultPlan::should_fail_sc says
  /// so), then finish().  Once per run: not after start() or a previous
  /// run() until reset().
  RunReport run(Scheduler& scheduler, const FaultPlan& faults = {});

  /// Returns the env to the state of a freshly constructed SimEnv(options):
  /// finishes a run still in progress (its parked processes unwind, so the
  /// state their bodies captured must still be alive), then drops every
  /// body, restart hook, observer, sink, trace event and decision, and
  /// zeroes the step counter and the virtual clock.  The capacity behind
  /// them is kept for the next run.  Also valid on a never-started env.
  void reset(SimOptions options = {});

  // --- Incremental mode (the explorer, replayers, the emulation driver) ---
  // start() launches the processes up to their first sync point; the caller
  // then inspects pending operations and applies one decision at a time —
  // apply() for any Action, step_process() for a grant whose trace event the
  // caller wants back, optionally after inject()ing its result.  finish()
  // kills whatever is still parked.  Mutually exclusive with run().

  void start();
  /// True iff `action` can be applied now: its pid names a parked process,
  /// a kRestart's process has a restart hook, and a kScFailure's pending
  /// operation is a store-conditional ("sc").
  bool can_apply(Action action) const;
  /// Applies one decision between start() and finish(): kGrant grants the
  /// pid one operation (recorded in the trace when record_trace is on);
  /// kScFailure marks its pending SC to fail spuriously and grants it;
  /// kCrash fail-stops it; kRestart crash-restarts it — the pending
  /// operation is ABANDONED (never performed), the stack unwinds, and the
  /// process re-enters via its restart hook, parking at the hook's first
  /// shared operation (or finishing).  Requires can_apply(action).
  void apply(Action action);
  /// True iff `pid` is parked at a pending operation.
  bool is_parked(int pid) const;
  /// The operation `pid` is parked on (valid iff is_parked).
  const OpDesc& pending_of(int pid) const;
  bool is_finished(int pid) const;
  ProcOutcome outcome_of(int pid) const;
  const std::string& error_of(int pid) const;
  /// Supplies the result the next step of `pid` will observe through
  /// Ctx::take_injection().
  void inject(int pid, std::int64_t value);
  /// apply({kGrant, pid}) that also returns the completed trace event.
  TraceEvent step_process(int pid);
  /// apply({kRestart, pid}).
  void restart_process(int pid);
  /// Lifetime shared-operation count of `pid` (the fault-point coordinate).
  std::uint64_t steps_of(int pid) const;
  /// The ascending pids currently parked at a pending operation — the
  /// explorer's runnable set (and the frame-replay validation set when a
  /// checkpointed frontier is re-materialized on a fresh SimEnv).
  std::vector<int> parked_processes() const;
  /// The same set written into `parked`, reusing its capacity: the form for
  /// loops that ask once per step.
  void parked_processes(std::vector<int>& parked) const;
  void finish();

  /// Builds a RunReport from the current process states.  Meaningful once
  /// every process is parked or finished (e.g. after finish()); the caller
  /// sets step_limit_hit, which incremental mode does not track.
  RunReport snapshot_report() const;
  /// The same report written into `report` (step_limit_hit cleared),
  /// reusing the capacity of its vectors and strings.
  void snapshot_report(RunReport& report) const;

  const Trace& trace() const { return trace_; }
  /// Scheduler picks made during run() (pids; faults are not picks), for
  /// ReplayScheduler.
  const std::vector<int>& decisions() const { return decisions_; }
  /// The virtual clock: logical ticks advanced only by granted timer
  /// operations (Ctx::sleep_until).  Deterministic per schedule; harness
  /// checkers read it to timestamp reconstructed histories.
  std::uint64_t virtual_now() const { return virtual_now_; }

 private:
  friend class Ctx;

  enum class State : std::uint8_t {
    kCreated,
    kReady,    // blocked in sync with a pending op
    kRunning,  // granted; executing its operation + local code
    kDone,     // finished, crashed or failed
  };

  struct Fiber;   // a pooled fiber stack and its saved context (sim_env.cc)
  struct Engine;  // the engine's saved context (sim_env.cc)

  struct Proc {
    std::unique_ptr<Ctx> ctx;  // kept across reset(), like the Proc itself
    std::unique_ptr<Fiber> fiber;  // null before launch and once kDone
    State state = State::kCreated;
    bool crash_requested = false;
    bool restart_requested = false;   // with crash_requested: unwind + re-enter
    bool sc_failure_pending = false;  // next SC step fails spuriously
    int restarts = 0;
    OpDesc pending;
    std::optional<std::int64_t> last_result;
    std::optional<std::int64_t> injection;
    ProcOutcome outcome = ProcOutcome::kUnstarted;
    std::string error;
  };

  // Entry point of every fiber: runs the process start() is launching.
  static void fiber_entry();
  // The process's whole life on its fiber: body, restarts, final switch out.
  void fiber_main(int pid);
  // Ctx::sync body: park the calling process and hand control to the engine.
  void park(int pid, OpDesc desc);
  // Engine side: runs `pid` until it parks again or ends; pools its stack
  // once it has ended.
  void resume(int pid);
  // Fiber side: switches back to the engine (for good when `exiting`).
  void yield(Fiber& fiber, bool exiting);
  // Grants the parked `pid` one operation inside an access window, clears a
  // spurious-SC mark the operation did not consume, and advances the global
  // step; returns the completed event (not yet in the trace).
  TraceEvent grant(int pid);
  // Unwinds the parked `pid`: fail-stop, or re-entry through its restart
  // hook when `restart`.
  void crash(int pid, bool restart);

  // Emits a sim.* fault-action event through obs_sink_ (no-op when
  // detached).
  void note_fault_event(const char* kind, int pid);

  SimOptions options_;
  audit::AccessObserver* observer_ = nullptr;
  obs::ObsSink* obs_sink_ = nullptr;
  int window_pid_ = -1;  ///< grantee of the currently open window, or -1
  std::vector<std::function<void(Ctx&)>> bodies_;
  std::vector<std::function<void(Ctx&)>> restart_hooks_;  // empty = fail-stop only
  std::vector<Proc> procs_;  // sized by start(); entries outlive reset()
  std::unique_ptr<Engine> engine_;
  Trace trace_;
  std::vector<int> decisions_;
  std::uint64_t step_ = 0;
  std::uint64_t virtual_now_ = 0;  ///< logical clock; timer grants advance it
  bool started_ = false;
  bool finished_ = false;
};

/// Convenience: build, populate and run a SimEnv in one call.
/// `make_body(pid)` must return the body for process `pid`.
///
/// This is also the cheap re-run-from-factory path used by the schedule
/// explorer (src/explore), which re-executes the same factory thousands of
/// times: pass `options.record_trace = false` to skip trace accumulation and
/// `decisions_out` to receive the decision sequence (moved, not copied) for
/// replay or shrinking.
RunReport run_system(int n, const std::function<std::function<void(Ctx&)>(int)>& make_body,
                     Scheduler& scheduler, Trace* trace_out = nullptr,
                     const FaultPlan& faults = {}, SimOptions options = {},
                     std::vector<int>* decisions_out = nullptr);

}  // namespace bss::sim
