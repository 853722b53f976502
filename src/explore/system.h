// The explorable-system interface: what the schedule-space explorer needs
// from a system under test.
//
// An ExplorableSystem is a *factory*: every explored schedule re-runs the
// system from scratch, so make() must return a fresh, fully independent
// instance (fresh shared registers, fresh per-run accumulators).  The
// factory must be deterministic — two instances driven by the same decision
// sequence must behave identically — which every simulator-backed system in
// this repository already is (SimEnv executions are a pure function of the
// scheduler's decisions).
//
// With parallel exploration (ExploreOptions::jobs > 1) make() is called
// CONCURRENTLY from explorer worker threads, so factories must also be
// thread-safe: const member functions only, no mutable shared state, no
// lazily initialized caches.  Instances themselves are never shared — each
// worker drives its own instance on its own private SimEnv — so only the
// factory (and anything it captures by reference) needs the guarantee.
//
// Properties are pluggable through SystemInstance::check: election safety
// (core/election_validator.h), linearizability (runtime/linearizability.h),
// or any user invariant phrased over the finished run.  check() returns a
// human-readable violation description, or nullopt when the run is correct.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "runtime/sim_env.h"
#include "util/checked.h"

namespace bss::explore {

/// One run-worth of system state plus its property check.
class SystemInstance {
 public:
  virtual ~SystemInstance() = default;

  /// Registers the process bodies into `env`.  Called exactly once, before
  /// the run; bodies may capture this instance's shared state by reference.
  virtual void populate(sim::SimEnv& env) = 0;

  /// Post-run property check.  `env` still holds the trace (if recorded) and
  /// the shared objects captured by the bodies.  Never called on truncated
  /// (step-limited) runs.  Returns the violation, or nullopt if correct.
  virtual std::optional<std::string> check(const sim::SimEnv& env,
                                           const sim::RunReport& report) = 0;

  /// Deterministic serialization of the instance's state — shared
  /// register values plus per-process results.  Two runs reaching the same
  /// state must return the same string.  Its consumers:
  ///   - the visited-state cache (ExploreOptions::fingerprint_prune) hashes
  ///     it into the key of every DFS node, calling it once per new frame
  ///     in the middle of a run, so it is on the explorer's hot path;
  ///   - that key's halves are stored in `bss-checkpoint v1` artifacts as
  ///     coverage partials, so the text is a compatibility surface: a
  ///     changed separator makes saved checkpoints cover different states
  ///     (tests/test_fingerprint.cc pins it byte for byte);
  ///   - the audit layer's differential commutation cross-check
  ///     (src/audit/commute_check.h) demands byte-identical fingerprints
  ///     after swapping independent operations.
  /// An override writes through the helpers in explore/fingerprint.h into
  /// one std::string, with no stream.  The default (empty) opts out: no
  /// prune cache, and the cross-check compares traces, reports and
  /// verdicts only.
  virtual std::string fingerprint(const sim::SimEnv& env) {
    (void)env;
    return {};
  }
};

/// A named, repeatable source of fresh SystemInstances.
class ExplorableSystem {
 public:
  virtual ~ExplorableSystem() = default;
  virtual std::string name() const = 0;
  virtual int process_count() const = 0;
  virtual std::unique_ptr<SystemInstance> make() const = 0;
};

/// A fresh instance of `system` populated into a started SimEnv: the
/// preamble of every run that the explorer, its replayer and the
/// commutation cross-check drive one decision at a time through
/// SimEnv::apply.  The SimEnv is borrowed, not owned: the constructor
/// reset()s it with `options`, so a caller that keeps one SimEnv for many
/// runs (each explorer worker does) reuses its memory.  `observer` and
/// `sink` are attached before start() when non-null.  The destructor
/// finishes `env` before `instance` dies, so still-parked bodies unwind
/// while the instance's shared state is alive — also when the run is left
/// by an exception.
struct SystemRun {
  SystemRun(const ExplorableSystem& system, sim::SimEnv& borrowed,
            sim::SimOptions options, audit::AccessObserver* observer = nullptr,
            obs::ObsSink* sink = nullptr)
      : instance(system.make()), env(borrowed) {
    env.reset(options);
    instance->populate(env);
    expects(env.process_count() <= 64,
            "the fault-aware explorer supports at most 64 processes");
    if (observer != nullptr) env.set_access_observer(observer);
    if (sink != nullptr) env.set_obs_sink(sink);
    try {
      env.start();
    } catch (...) {
      env.finish();  // the destructor does not run for a throwing constructor
      throw;
    }
  }
  ~SystemRun() { env.finish(); }

  SystemRun(const SystemRun&) = delete;
  SystemRun& operator=(const SystemRun&) = delete;

  std::unique_ptr<SystemInstance> instance;
  sim::SimEnv& env;
};

/// Instance helper for ad-hoc systems (tests, user invariants): owns a State
/// and forwards populate/check to callables bound to it.
template <class State>
class StatefulInstance final : public SystemInstance {
 public:
  using Populate = std::function<void(State&, sim::SimEnv&)>;
  using Check = std::function<std::optional<std::string>(
      State&, const sim::SimEnv&, const sim::RunReport&)>;
  using Fingerprint = std::function<std::string(State&, const sim::SimEnv&)>;

  StatefulInstance(std::unique_ptr<State> state, Populate populate,
                   Check check, Fingerprint fingerprint = {})
      : state_(std::move(state)),
        populate_(std::move(populate)),
        check_(std::move(check)),
        fingerprint_(std::move(fingerprint)) {}

  void populate(sim::SimEnv& env) override { populate_(*state_, env); }
  std::optional<std::string> check(const sim::SimEnv& env,
                                   const sim::RunReport& report) override {
    return check_(*state_, env, report);
  }
  /// Forwards to the bound fingerprint callable; without one, keeps the
  /// base-class empty opt-out (no commute cross-check, no prune cache).
  std::string fingerprint(const sim::SimEnv& env) override {
    return fingerprint_ ? fingerprint_(*state_, env)
                        : SystemInstance::fingerprint(env);
  }

 private:
  std::unique_ptr<State> state_;
  Populate populate_;
  Check check_;
  Fingerprint fingerprint_;
};

/// System helper wrapping a plain factory callable.
class FactorySystem final : public ExplorableSystem {
 public:
  using Factory = std::function<std::unique_ptr<SystemInstance>()>;

  FactorySystem(std::string name, int processes, Factory factory)
      : name_(std::move(name)),
        processes_(processes),
        factory_(std::move(factory)) {}

  std::string name() const override { return name_; }
  int process_count() const override { return processes_; }
  std::unique_ptr<SystemInstance> make() const override { return factory_(); }

 private:
  std::string name_;
  int processes_;
  Factory factory_;
};

}  // namespace bss::explore
