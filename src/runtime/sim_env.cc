#include "runtime/sim_env.h"

#include <sys/mman.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdlib>
#include <new>
#include <sstream>
#include <system_error>
#include <utility>

#include "obs/obs.h"
#include "util/checked.h"

// Sanitizer fiber hooks, compiled in exactly when the sanitizer is.
#if defined(__SANITIZE_ADDRESS__)
#define BSS_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BSS_ASAN_FIBERS 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define BSS_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BSS_TSAN_FIBERS 1
#endif
#endif
#ifdef BSS_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef BSS_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__)
#error "SimEnv's fiber switch is x86-64 System V only; DESIGN.md §4g says what a port needs"
#endif

// Pushes the caller's callee-saved registers, MXCSR and x87 control word
// onto its own stack (the layout of SwitchFrame below), stores the stack
// pointer in *save_sp, and resumes the fiber whose stack pointer is to_sp by
// popping the same frame off it.  The signal mask is left alone, so a switch
// is two dozen instructions and no syscall.  The .cfi lines keep a debugger's
// or profiler's stack walk right inside the switch.
extern "C" void bss_fiber_switch(void** save_sp, void* to_sp);
asm(R"(
  .pushsection .text
  .globl bss_fiber_switch
  .hidden bss_fiber_switch
  .type bss_fiber_switch, @function
  .p2align 4
bss_fiber_switch:
  .cfi_startproc
  pushq %rbp; .cfi_adjust_cfa_offset 8
  pushq %rbx; .cfi_adjust_cfa_offset 8
  pushq %r12; .cfi_adjust_cfa_offset 8
  pushq %r13; .cfi_adjust_cfa_offset 8
  pushq %r14; .cfi_adjust_cfa_offset 8
  pushq %r15; .cfi_adjust_cfa_offset 8
  subq $8, %rsp; .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp; .cfi_adjust_cfa_offset -8
  popq %r15; .cfi_adjust_cfa_offset -8
  popq %r14; .cfi_adjust_cfa_offset -8
  popq %r13; .cfi_adjust_cfa_offset -8
  popq %r12; .cfi_adjust_cfa_offset -8
  popq %rbx; .cfi_adjust_cfa_offset -8
  popq %rbp; .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size bss_fiber_switch, .-bss_fiber_switch
  .popsection
)");

namespace bss::sim {

namespace {

/// Usable bytes of every fiber stack.  Only the pages a body touches become
/// resident; see DESIGN.md for the measured high-water marks.
constexpr std::size_t kStackBytes = 64 * 1024;

std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

/// The process start() is launching on this OS thread: a fresh fiber enters
/// fiber_entry by a return, with no arguments, so the entry picks it up here.
thread_local Ctx* launching = nullptr;

/// What bss_fiber_switch pops off a fiber it resumes, lowest address first.
/// Fiber::take writes one at the top of a fresh stack, so the first resume
/// "returns" into the entry function.
struct SwitchFrame {
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_control = 0;
  std::uint16_t padding = 0;
  std::array<void*, 6> callee_saved{};  // r15, r14, r13, r12, rbx, rbp
  void (*entry)() = nullptr;  // the return address of the first resume
  // The entry's own return slot: null, so unwinders stop at the fiber base.
  void* end_of_stack = nullptr;
};
static_assert(sizeof(SwitchFrame) == 72);

}  // namespace

/// A fiber: a stack of kStackBytes above a PROT_NONE guard page (an
/// overflow faults instead of running into a neighbouring mapping), and the
/// stack pointer saved while its process is switched out.  Ended fibers go
/// back to a per-OS-thread pool, so a warm thread maps no stacks at all.
struct SimEnv::Fiber {
  Fiber() {
    mapping = mmap(nullptr, mapping_bytes(), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (mapping == MAP_FAILED) {
      throw std::system_error(errno, std::generic_category(),
                              "SimEnv: mmap of a fiber stack");
    }
    if (mprotect(mapping, page_bytes(), PROT_NONE) != 0) {
      const int error = errno;
      munmap(mapping, mapping_bytes());
      throw std::system_error(error, std::generic_category(),
                              "SimEnv: fiber stack guard page");
    }
  }
  ~Fiber() { munmap(mapping, mapping_bytes()); }
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// A fiber from this thread's pool (or a fresh one) whose next resume
  /// enters `entry` on an empty stack.
  static std::unique_ptr<Fiber> take(void (*entry)()) {
    auto& pool = free_list();
    std::unique_ptr<Fiber> fiber;
    if (pool.empty()) {
      fiber = std::make_unique<Fiber>();
    } else {
      fiber = std::move(pool.back());
      pool.pop_back();
    }
    // The stack top is page-aligned, so the entry starts, as after a call,
    // with rsp at its return slot, 8 (mod 16).
    auto* frame = new (static_cast<char*>(fiber->stack()) + kStackBytes -
                       sizeof(SwitchFrame)) SwitchFrame{};
    // A fresh fiber starts with the floating-point controls of its creator.
    asm volatile("stmxcsr %0\n\tfnstcw %1"
                 : "=m"(frame->mxcsr), "=m"(frame->x87_control));
    frame->entry = entry;
    fiber->sp = frame;
#ifdef BSS_TSAN_FIBERS
    fiber->tsan_fiber = __tsan_create_fiber(0);
#endif
    return fiber;
  }

  /// Returns a fiber whose process has ended to this thread's pool.
  static void put_back(std::unique_ptr<Fiber> fiber) {
#ifdef BSS_TSAN_FIBERS
    __tsan_destroy_fiber(fiber->tsan_fiber);
#endif
    free_list().push_back(std::move(fiber));
  }

  void* stack() const { return static_cast<char*>(mapping) + page_bytes(); }

  void* mapping = nullptr;
  void* sp = nullptr;  // saved stack pointer while switched out
#ifdef BSS_ASAN_FIBERS
  void* fake_stack = nullptr;  // ASan's fake frames while switched out
#endif
#ifdef BSS_TSAN_FIBERS
  void* tsan_fiber = nullptr;
#endif

 private:
  static std::size_t mapping_bytes() { return kStackBytes + page_bytes(); }
  static std::vector<std::unique_ptr<Fiber>>& free_list() {
    thread_local std::vector<std::unique_ptr<Fiber>> pool;
    return pool;
  }
};

/// The stack pointer of whoever drives this SimEnv, saved while a process
/// runs.
struct SimEnv::Engine {
  void* sp = nullptr;
#ifdef BSS_ASAN_FIBERS
  void* fake_stack = nullptr;
  const void* stack_bottom = nullptr;  // learned as each fiber switches in
  std::size_t stack_size = 0;
#endif
#ifdef BSS_TSAN_FIBERS
  void* tsan_fiber = nullptr;
#endif
};

int RunReport::finished_count() const {
  int n = 0;
  for (const auto outcome : outcomes) {
    if (outcome == ProcOutcome::kFinished) ++n;
  }
  return n;
}

int RunReport::crashed_count() const {
  int n = 0;
  for (const auto outcome : outcomes) {
    if (outcome == ProcOutcome::kCrashed) ++n;
  }
  return n;
}

int RunReport::restarted_count() const {
  int n = 0;
  for (const auto restarts : restarts_by_pid) {
    if (restarts > 0) ++n;
  }
  return n;
}

bool RunReport::clean() const {
  if (step_limit_hit) return false;
  for (const auto outcome : outcomes) {
    if (outcome == ProcOutcome::kFailed) return false;
  }
  return true;
}

std::string RunReport::summary() const {
  std::ostringstream out;
  out << "steps=" << total_steps << " finished=" << finished_count()
      << " crashed=" << crashed_count();
  if (restarted_count() > 0) out << " restarted=" << restarted_count();
  if (step_limit_hit) out << " STEP-LIMIT";
  for (std::size_t pid = 0; pid < outcomes.size(); ++pid) {
    if (outcomes[pid] == ProcOutcome::kFailed) {
      out << "\n  p" << pid << " FAILED: " << errors[pid];
    }
  }
  return out.str();
}

std::uint64_t Ctx::global_step() const { return env_->step_; }

std::uint64_t Ctx::now() {
  sync({"@clock", "read", 0, 0});
  access_token().read("@clock");
  const std::uint64_t value = env_->virtual_now_;
  note_result(static_cast<std::int64_t>(value));
  return value;
}

std::uint64_t Ctx::sleep_until(std::uint64_t deadline) {
  sync({"@clock", "timer", static_cast<std::int64_t>(deadline), 0});
  // The grant IS the timer firing: the adversary chose this moment, so the
  // clock jumps far enough for the deadline to have passed (and no further —
  // other processes' views only move when their own ops are granted).
  access_token().write("@clock");
  if (deadline > env_->virtual_now_) env_->virtual_now_ = deadline;
  const std::uint64_t value = env_->virtual_now_;
  note_result(static_cast<std::int64_t>(value));
  return value;
}

void Ctx::sync(OpDesc desc) {
  env_->park(pid_, std::move(desc));
  ++steps_taken_;
}

void Ctx::note_result(std::int64_t result) {
  env_->procs_[static_cast<std::size_t>(pid_)].last_result = result;
}

std::int64_t Ctx::take_injection() {
  auto& injection = env_->procs_[static_cast<std::size_t>(pid_)].injection;
  expects(injection.has_value(),
          "emulated operation executed without an injected result");
  const std::int64_t value = *injection;
  injection.reset();
  return value;
}

audit::AccessToken Ctx::access_token() const {
  // The window serial is the global step of the grant: step_ is stable for
  // the whole window (the engine increments it only after the op parks
  // again), and every grant bumps it, so serials are unique per window.
  const std::uint64_t window = env_->window_pid_ == pid_
                                   ? env_->step_
                                   : audit::AccessToken::kNoWindow;
  return {env_->observer_, pid_, window};
}

bool Ctx::take_sc_failure() {
  bool& pending = env_->procs_[static_cast<std::size_t>(pid_)].sc_failure_pending;
  const bool fail = pending;
  pending = false;
  return fail;
}

SimEnv::SimEnv(SimOptions options) : options_(options) {}

SimEnv::~SimEnv() {
  // If run() threw (e.g. a scheduler bug), processes may still be parked:
  // unwind each one on its fiber so its destructors run.
  for (int pid = 0; pid < static_cast<int>(procs_.size()); ++pid) {
    if (procs_[static_cast<std::size_t>(pid)].state == State::kReady) {
      crash(pid, false);
    }
  }
}

void SimEnv::reset(SimOptions options) {
  finish();  // a run abandoned mid-way unwinds its parked processes first
  for (Proc& proc : procs_) {
    proc.ctx->steps_taken_ = 0;
    proc.ctx->incarnation_ = 0;
    proc.state = State::kCreated;
    proc.crash_requested = false;
    proc.restart_requested = false;
    proc.sc_failure_pending = false;
    proc.restarts = 0;
    proc.last_result.reset();
    proc.injection.reset();
    proc.outcome = ProcOutcome::kUnstarted;
    proc.error.clear();
  }
  bodies_.clear();
  restart_hooks_.clear();
  trace_.clear();
  decisions_.clear();
  options_ = options;
  observer_ = nullptr;
  obs_sink_ = nullptr;
  window_pid_ = -1;
  step_ = 0;
  virtual_now_ = 0;
  started_ = false;
  finished_ = false;
}

int SimEnv::add_process(std::function<void(Ctx&)> body) {
  expects(!started_, "SimEnv::add_process after the run began");
  bodies_.push_back(std::move(body));
  restart_hooks_.emplace_back();  // no hook: restarts unsupported
  return checked_cast<int>(bodies_.size()) - 1;
}

int SimEnv::add_process(std::function<void(Ctx&)> body,
                        std::function<void(Ctx&)> restart_hook) {
  expects(!started_, "SimEnv::add_process after the run began");
  expects(static_cast<bool>(restart_hook),
          "add_process: restart hook must be callable");
  bodies_.push_back(std::move(body));
  restart_hooks_.push_back(std::move(restart_hook));
  return checked_cast<int>(bodies_.size()) - 1;
}

void SimEnv::set_access_observer(audit::AccessObserver* observer) {
  expects(!started_, "set_access_observer after the run began");
  observer_ = observer;
}

void SimEnv::set_obs_sink(obs::ObsSink* sink) {
  expects(!started_, "set_obs_sink after the run began");
  obs_sink_ = sink;
}

void SimEnv::note_fault_event(const char* kind, int pid) {
  if (obs_sink_ == nullptr || !obs_sink_->events_enabled()) {
    return;
  }
  obs::Event event;
  event.kind = kind;
  event.step = step_;  // global step counter: deterministic for replays
  event.fields.emplace_back("pid", std::to_string(pid));
  event.fields.emplace_back(
      "victim_steps",
      std::to_string(procs_[static_cast<std::size_t>(pid)].ctx->steps_taken()));
  obs_sink_->emit(std::move(event));
}

bool SimEnv::restart_supported(int pid) const {
  return static_cast<bool>(restart_hooks_[static_cast<std::size_t>(pid)]);
}

void SimEnv::fiber_entry() {
  Ctx& ctx = *launching;
  ctx.env_->fiber_main(ctx.pid_);
}

void SimEnv::fiber_main(int pid) {
#ifdef BSS_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(nullptr, &engine_->stack_bottom,
                                  &engine_->stack_size);
#endif
  Proc& proc = procs_[static_cast<std::size_t>(pid)];
  for (;;) {
    try {
      if (proc.ctx->incarnation_ == 0) {
        bodies_[static_cast<std::size_t>(pid)](*proc.ctx);
      } else {
        restart_hooks_[static_cast<std::size_t>(pid)](*proc.ctx);
      }
      proc.outcome = ProcOutcome::kFinished;
    } catch (const ProcessCrashed&) {
      if (proc.restart_requested) {
        // Crash-restart: the unwound stack took every private local with
        // it; shared registers persist untouched.  Re-enter through the
        // restart hook on the same fiber — the engine waits in resume()
        // until the new incarnation parks at its first shared operation
        // (or finishes), so the re-entry stays serialized like the launch.
        proc.restart_requested = false;
        proc.crash_requested = false;
        proc.injection.reset();
        ++proc.ctx->incarnation_;
        ++proc.restarts;
        continue;
      }
      proc.outcome = ProcOutcome::kCrashed;
    } catch (const std::exception& e) {
      proc.outcome = ProcOutcome::kFailed;
      proc.error = e.what();
    } catch (...) {
      proc.outcome = ProcOutcome::kFailed;
      proc.error = "unknown exception";
    }
    break;
  }
  proc.state = State::kDone;
  yield(*proc.fiber, true);
  std::abort();  // an ended fiber is never resumed
}

void SimEnv::park(int pid, OpDesc desc) {
  Proc& proc = procs_[static_cast<std::size_t>(pid)];
  proc.pending = std::move(desc);
  proc.state = State::kReady;
  yield(*proc.fiber, false);
  if (proc.crash_requested) throw ProcessCrashed{};
}

void SimEnv::resume(int pid) {
  Proc& proc = procs_[static_cast<std::size_t>(pid)];
  Fiber& fiber = *proc.fiber;
#ifdef BSS_TSAN_FIBERS
  engine_->tsan_fiber = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(fiber.tsan_fiber, 0);
#endif
#ifdef BSS_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&engine_->fake_stack, fiber.stack(),
                                 kStackBytes);
#endif
  bss_fiber_switch(&engine_->sp, fiber.sp);
#ifdef BSS_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(engine_->fake_stack, nullptr, nullptr);
#endif
  if (proc.state == State::kDone) Fiber::put_back(std::move(proc.fiber));
}

void SimEnv::yield(Fiber& fiber, [[maybe_unused]] bool exiting) {
#ifdef BSS_TSAN_FIBERS
  __tsan_switch_to_fiber(engine_->tsan_fiber, 0);
#endif
#ifdef BSS_ASAN_FIBERS
  // Leaving for good releases the fiber's fake stack.
  __sanitizer_start_switch_fiber(exiting ? nullptr : &fiber.fake_stack,
                                 engine_->stack_bottom, engine_->stack_size);
#endif
  bss_fiber_switch(&fiber.sp, engine_->sp);
#ifdef BSS_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fiber.fake_stack, &engine_->stack_bottom,
                                  &engine_->stack_size);
#endif
}

TraceEvent SimEnv::grant(int pid) {
  Proc& proc = procs_[static_cast<std::size_t>(pid)];
  TraceEvent event;
  event.step = step_;
  event.pid = pid;
  // pending is dead from here: nothing reads it until the next park
  // overwrites it.
  event.desc = std::move(proc.pending);
  proc.last_result.reset();
  proc.state = State::kRunning;
  window_pid_ = pid;
  if (observer_ != nullptr) observer_->on_window_begin(pid, event.desc, step_);
  resume(pid);  // the process parked again or ended
  window_pid_ = -1;
  if (observer_ != nullptr) {
    observer_->on_window_end(
        pid, proc.state == State::kDone && proc.outcome != ProcOutcome::kFinished);
  }
  proc.sc_failure_pending = false;  // a fault the op did not consume lapses
  if (proc.last_result.has_value()) {
    event.result = *proc.last_result;
    event.has_result = true;
  }
  ++step_;
  return event;
}

void SimEnv::crash(int pid, bool restart) {
  Proc& proc = procs_[static_cast<std::size_t>(pid)];
  proc.restart_requested = restart;
  proc.crash_requested = true;
  resume(pid);  // unwound and ended, or re-entered and parked again
}

void SimEnv::start() {
  expects(!started_, "SimEnv::start conflicts with a previous run");
  started_ = true;
  const int n = process_count();
  expects(n > 0, "SimEnv started with no processes");
  // Records left by a run before reset() are reused as they are (reset()
  // cleared them); only new pids get a Ctx.
  procs_.resize(static_cast<std::size_t>(n));
  if (engine_ == nullptr) engine_ = std::make_unique<Engine>();
  for (int pid = 0; pid < n; ++pid) {
    auto& ctx = procs_[static_cast<std::size_t>(pid)].ctx;
    if (ctx == nullptr) ctx = std::unique_ptr<Ctx>(new Ctx(this, pid));
  }
  // Launch only after procs_ is fully built (fibers index into it), and one
  // at a time: each process runs to its first sync point (or completion)
  // before the next starts, so body code ahead of the first shared operation
  // never interleaves — objects may touch shared state anywhere inside an
  // operation's implementation.
  for (int pid = 0; pid < n; ++pid) {
    Proc& proc = procs_[static_cast<std::size_t>(pid)];
    proc.fiber = Fiber::take(&SimEnv::fiber_entry);
    launching = proc.ctx.get();
    resume(pid);
  }
}

bool SimEnv::is_parked(int pid) const {
  return procs_[static_cast<std::size_t>(pid)].state == State::kReady;
}

const OpDesc& SimEnv::pending_of(int pid) const {
  const Proc& proc = procs_[static_cast<std::size_t>(pid)];
  expects(proc.state == State::kReady, "pending_of: process is not parked");
  return proc.pending;
}

bool SimEnv::is_finished(int pid) const {
  return procs_[static_cast<std::size_t>(pid)].state == State::kDone;
}

ProcOutcome SimEnv::outcome_of(int pid) const {
  return procs_[static_cast<std::size_t>(pid)].outcome;
}

const std::string& SimEnv::error_of(int pid) const {
  return procs_[static_cast<std::size_t>(pid)].error;
}

void SimEnv::inject(int pid, std::int64_t value) {
  expects(is_parked(pid), "inject: process is not parked");
  procs_[static_cast<std::size_t>(pid)].injection = value;
}

bool SimEnv::can_apply(Action action) const {
  // procs_ is empty until start(), so nothing applies before it.
  if (action.pid < 0 || action.pid >= static_cast<int>(procs_.size())) {
    return false;
  }
  if (!is_parked(action.pid)) return false;
  switch (action.kind) {
    case ActionKind::kGrant:
    case ActionKind::kCrash:
      return true;
    case ActionKind::kRestart:
      return restart_supported(action.pid);
    case ActionKind::kScFailure:
      return procs_[static_cast<std::size_t>(action.pid)].pending.op == "sc";
  }
  return false;
}

void SimEnv::apply(Action action) {
  expects(started_ && !finished_, "SimEnv::apply outside start()/finish()");
  expects(can_apply(action), "SimEnv::apply: action is not applicable");
  const int pid = action.pid;
  switch (action.kind) {
    case ActionKind::kScFailure:
      note_fault_event("sim.sc_failure", pid);
      procs_[static_cast<std::size_t>(pid)].sc_failure_pending = true;
      [[fallthrough]];
    case ActionKind::kGrant: {
      TraceEvent event = grant(pid);
      if (options_.record_trace) trace_.append(std::move(event));
      return;
    }
    case ActionKind::kCrash:
      note_fault_event("sim.crash", pid);
      crash(pid, false);
      return;
    case ActionKind::kRestart:
      note_fault_event("sim.restart", pid);
      crash(pid, true);
      return;
  }
}

TraceEvent SimEnv::step_process(int pid) {
  expects(started_ && !finished_, "step_process outside start()/finish()");
  expects(can_apply({ActionKind::kGrant, pid}),
          "step_process: process is not parked");
  TraceEvent event = grant(pid);
  if (options_.record_trace) trace_.append(event);
  return event;
}

void SimEnv::restart_process(int pid) { apply({ActionKind::kRestart, pid}); }

std::uint64_t SimEnv::steps_of(int pid) const {
  return procs_[static_cast<std::size_t>(pid)].ctx->steps_taken();
}

std::vector<int> SimEnv::parked_processes() const {
  std::vector<int> parked;
  parked_processes(parked);
  return parked;
}

void SimEnv::parked_processes(std::vector<int>& parked) const {
  parked.clear();
  // procs_, not process_count(): before start() the two can differ.
  for (int pid = 0; pid < static_cast<int>(procs_.size()); ++pid) {
    if (is_parked(pid)) parked.push_back(pid);
  }
}

RunReport SimEnv::snapshot_report() const {
  RunReport report;
  snapshot_report(report);
  return report;
}

void SimEnv::snapshot_report(RunReport& report) const {
  const auto n = static_cast<std::size_t>(process_count());
  report.total_steps = step_;
  report.step_limit_hit = false;
  report.outcomes.resize(n);
  report.errors.resize(n);
  report.steps_by_pid.resize(n);
  report.restarts_by_pid.resize(n);
  for (std::size_t pid = 0; pid < n; ++pid) {
    const Proc& proc = procs_[pid];
    report.outcomes[pid] = proc.outcome;
    report.errors[pid] = proc.error;
    report.steps_by_pid[pid] = proc.ctx ? proc.ctx->steps_taken() : 0;
    report.restarts_by_pid[pid] = proc.restarts;
  }
}

void SimEnv::finish() {
  if (!started_ || finished_) return;
  finished_ = true;
  // Shutdown kills are not fault actions: no events, no apply().
  for (int pid = 0; pid < process_count(); ++pid) {
    if (is_parked(pid)) crash(pid, false);
  }
}

RunReport SimEnv::run(Scheduler& scheduler, const FaultPlan& faults) {
  start();
  const int n = process_count();
  std::vector<ProcView> views(static_cast<std::size_t>(n));
  const auto refresh_view = [&](int pid) {
    const Proc& proc = procs_[static_cast<std::size_t>(pid)];
    ProcView& view = views[static_cast<std::size_t>(pid)];
    view.pid = pid;
    view.ready = proc.state == State::kReady;
    view.pending = proc.pending;
    view.steps_taken = proc.ctx->steps_taken();
  };
  for (int pid = 0; pid < n; ++pid) refresh_view(pid);

  // Per-pid cursor into the (sorted) fault event list, and count of granted
  // store-conditionals (the coordinate fail_sc addresses).
  std::vector<std::size_t> fault_cursor(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> sc_granted(static_cast<std::size_t>(n), 0);

  std::vector<int> runnable;
  bool limit_hit = false;
  for (;;) {
    // Apply due fault events to every parked process first.  A restart
    // leaves the process parked again (at its new first operation) with its
    // lifetime step count intact, so several due events fire back-to-back.
    for (int pid = 0; pid < n; ++pid) {
      const auto& events = faults.events_for(pid);
      std::size_t& cursor = fault_cursor[static_cast<std::size_t>(pid)];
      while (is_parked(pid) && cursor < events.size() &&
             steps_of(pid) >= events[cursor].op_index) {
        const bool fail_stop = events[cursor++].kind == FaultKind::kCrash;
        apply({fail_stop ? ActionKind::kCrash : ActionKind::kRestart, pid});
        refresh_view(pid);
      }
    }
    parked_processes(runnable);
    if (runnable.empty()) break;
    if (step_ >= options_.step_limit) {
      limit_hit = true;
      break;
    }

    const SchedView view{step_, runnable, views};
    const int pid = scheduler.pick(view);
    expects(pid >= 0 && pid < n && is_parked(pid),
            "scheduler picked a non-runnable process");
    decisions_.push_back(pid);
    const bool fail_sc =
        pending_of(pid).op == "sc" &&
        faults.should_fail_sc(pid, sc_granted[static_cast<std::size_t>(pid)]++);
    apply({fail_sc ? ActionKind::kScFailure : ActionKind::kGrant, pid});
    refresh_view(pid);
  }
  finish();  // kills what the step limit left parked

  RunReport report = snapshot_report();
  report.step_limit_hit = limit_hit;
  return report;
}

RunReport run_system(
    int n, const std::function<std::function<void(Ctx&)>(int)>& make_body,
    Scheduler& scheduler, Trace* trace_out, const FaultPlan& faults,
    SimOptions options, std::vector<int>* decisions_out) {
  SimEnv env(options);
  for (int pid = 0; pid < n; ++pid) env.add_process(make_body(pid));
  RunReport report = env.run(scheduler, faults);
  if (trace_out != nullptr) *trace_out = env.trace();
  if (decisions_out != nullptr) *decisions_out = env.decisions();
  return report;
}

}  // namespace bss::sim
