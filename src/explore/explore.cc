#include "explore/explore.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "audit/commute_check.h"
#include "audit/ledger.h"
#include "explore/checkpoint.h"
#include "explore/frontier.h"
#include "obs/obs.h"
#include "obs/status.h"
#include "runtime/sim_env.h"
#include "util/checked.h"
#include "util/env_registry.h"

namespace bss::explore {

using sim::Action;
using sim::ActionKind;
using sim::decode_action;
using sim::takes_step;

namespace {

/// The metric cells run_one bumps on every run.  A lookup by name builds
/// its key string, so each cell is looked up in the shard at its first use
/// and reused after.  Looking up on use, not up front, keeps the shard's
/// names exactly the ones the worker bumps, so runreports do not change.
struct RunCells {
  std::uint64_t* schedules = nullptr;
  std::uint64_t* transitions = nullptr;
  std::uint64_t* timer_grants = nullptr;
  std::uint64_t* faults_injected = nullptr;
  std::uint64_t* max_depth_seen = nullptr;  ///< a max-gauge
  obs::HistogramData* schedule_depth = nullptr;
  std::uint64_t* pruned_runs = nullptr;
  std::uint64_t* fingerprint_prunes = nullptr;
  std::uint64_t* truncated = nullptr;
};

/// Observability context threaded through the hot loop: the sink (null =
/// off), the caller's single-writer metric shard, and the logical worker id
/// events are attributed to.  Strictly passive — nothing here may influence
/// an exploration decision.
struct ObsCtx {
  obs::ObsSink* sink = nullptr;
  obs::MetricShard* shard = nullptr;
  int worker = obs::Event::kCoordinator;
  obs::PhaseProfiler* profiler = nullptr;
  RunCells cells;  ///< cells of `shard`, looked up on first use
};

/// The counter `name` of `shard`, looked up once and kept in `cell`.
std::uint64_t& counter_cell(obs::MetricShard& shard, std::uint64_t*& cell,
                            const char* name) {
  if (cell == nullptr) cell = &shard.counter(name);
  return *cell;
}

ObsCtx make_obs_ctx(obs::ObsSink* sink, int worker) {
  ObsCtx octx;
  octx.sink = sink;
  octx.shard = sink != nullptr ? sink->metric_shard(worker) : nullptr;
  octx.worker = worker;
  octx.profiler = sink != nullptr ? sink->profiler() : nullptr;
  return octx;
}

const std::vector<std::uint64_t>& depth_bounds() {
  static const std::vector<std::uint64_t> bounds = obs::pow2_bounds(16);
  return bounds;
}

/// The max_schedules safety valve, shared by every worker of a campaign.
struct SharedBudget {
  explicit SharedBudget(std::uint64_t cap) : max_schedules(cap) {}
  std::atomic<std::uint64_t> schedules{0};
  const std::uint64_t max_schedules;
  bool exhausted() const {
    return schedules.load(std::memory_order_relaxed) >= max_schedules;
  }
};


/// Worker-count-independent schedule sampling for the commutation
/// cross-check: FNV-1a over the canonical decision tape, so the same
/// schedules are selected no matter how the pass was split or merged.
bool commute_sampled(const std::vector<int>& tape, std::uint32_t sample) {
  if (sample == 0) return false;
  if (sample == 1) return true;
  std::uint64_t hash = 1469598103934665603ULL;
  for (const int decision : tape) {
    hash ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(decision));
    hash *= 1099511628211ULL;
  }
  return hash % sample == 0;
}

struct RunOutcome {
  bool pruned = false;
  bool truncated = false;
  std::optional<std::string> violation;
  std::vector<int> decisions;
};

/// Executes one run: replays the frame-stack prefix, then extends it one
/// decision at a time until the run completes or is pruned.
///
/// Frame-creation accounting (prune counters, budget/fault-limited flags)
/// commits to `tally` as each new frame is materialized: the run that first
/// descends a path accounts its frames.  Execution deltas (transitions,
/// faults, fault points, audit counters) are buffered and committed once,
/// when the run ends.
RunOutcome run_one(const ExplorableSystem& system, const ExploreOptions& opts,
                   PassState& pass, Tally& tally, ObsCtx& octx,
                   Scratch& scratch) {
  const obs::ScopedPhase step_scope(octx.profiler, obs::Phase::kStep);
  RunOutcome outcome;
  std::uint64_t run_transitions = 0;
  std::uint64_t run_timer_grants = 0;
  std::uint64_t run_faults = 0;
  std::vector<FaultPoint>& run_fault_points = scratch.fault_points;
  run_fault_points.clear();
  std::optional<audit::Auditor> auditor;
  if (opts.audit) auditor.emplace();
  const auto commit = [&] {
    tally.stats.transitions += run_transitions;
    tally.stats.timer_grants += run_timer_grants;
    tally.stats.faults_injected += run_faults;
    tally.fault_points.insert(run_fault_points.begin(), run_fault_points.end());
    if (auditor.has_value()) {
      tally.audit.windows += auditor->windows();
      tally.audit.accesses += auditor->accesses();
      tally.audit.ledger_violations += auditor->violation_count();
    }
  };
  SystemRun run(system, scratch.env, {opts.max_depth, opts.record_trace},
                auditor.has_value() ? &*auditor : nullptr);
  sim::SimEnv& env = run.env;
  SystemInstance& instance = *run.instance;

  std::vector<int>& actions = scratch.actions;
  actions.clear();
  std::size_t depth = 0;
  std::uint64_t granted = 0;
  bool truncated = false;
  for (;;) {
    env.parked_processes(scratch.runnable);
    if (scratch.runnable.empty()) break;
    if (granted >= opts.max_depth) {
      truncated = true;
      break;
    }
    int choice = kNoChoice;
    if (depth < pass.frames.size()) {
      // Prefix replay: the factory is deterministic, so the runnable set
      // must match what the previous run recorded here.
      const Frame& frame = pass.frames[depth];
      if (frame.runnable != scratch.runnable) {
        throw std::logic_error(
            "schedule exploration diverged on prefix replay: the system "
            "factory is nondeterministic");
      }
      choice = frame.chosen;
    } else {
      const Frame* parent = depth > 0 ? &pass.frames[depth - 1] : nullptr;
      Frame frame = make_frame(env, scratch, pass, parent);
      if (pass.fp_prune && compute_fp_key(instance, env, frame) &&
          pass.fp_cache != nullptr &&
          pass.fp_cache->count({frame.fp_lo, frame.fp_hi}) != 0) {
        // Visited-state hit against the frozen cache: an earlier pass
        // covered this node's full unbounded subtree clean, so nothing
        // below it can change stats, coverage, or violations.  The frame
        // is never pushed (its subtree is skipped wholesale) and its
        // siblings-at-this-node accounting never runs — matching what the
        // serial pruned explorer does, so parallel stays byte-identical.
        ++tally.stats.fingerprint_prunes;
        env.finish();
        commit();
        if (octx.shard != nullptr) {
          ++counter_cell(*octx.shard, octx.cells.fingerprint_prunes,
                         "explore.fingerprint_prunes");
          ++counter_cell(*octx.shard, octx.cells.pruned_runs,
                         "explore.pruned_runs");
        }
        outcome.pruned = true;
        return outcome;
      }
      const bool cut = account_frame(frame, pass, tally);
      if (pass.fp_prune && cut) {
        // A budget/fault filter cut siblings here: this node's subtree is
        // incompletely covered, which taints it and every open ancestor.
        mark_path_dirty(pass);
        frame.fp_dirty = true;
      }
      choice = select_choice(frame, pass);
      if (choice == kNoChoice) {
        env.finish();
        commit();
        if (octx.shard != nullptr) {
          ++counter_cell(*octx.shard, octx.cells.pruned_runs,
                         "explore.pruned_runs");
        }
        outcome.pruned = true;  // prune kinds were accounted above
        return outcome;
      }
      frame.chosen = choice;
      pass.frames.push_back(std::move(frame));
    }
    ++depth;

    const Action action = decode_action(choice);
    if (action.kind == ActionKind::kGrant) {
      if (env.pending_of(action.pid).op == "timer") ++run_timer_grants;
    } else {
      ++run_faults;
      run_fault_points.emplace_back(choice, env.steps_of(action.pid));
    }
    if (takes_step(action)) {
      ++granted;
      ++run_transitions;
    }
    env.apply(action);
    actions.push_back(choice);
  }
  env.finish();
  commit();

  ++tally.stats.schedules;
  tally.stats.max_depth_seen = std::max(tally.stats.max_depth_seen, granted);
  if (octx.shard != nullptr) {
    RunCells& cells = octx.cells;
    if (cells.schedules == nullptr) {  // every completed run bumps all six
      cells.schedules = &octx.shard->counter("explore.schedules");
      cells.transitions = &octx.shard->counter("explore.transitions");
      cells.timer_grants = &octx.shard->counter("explore.timer_grants");
      cells.faults_injected = &octx.shard->counter("explore.faults_injected");
      cells.max_depth_seen = &octx.shard->gauge("explore.max_depth_seen");
      cells.schedule_depth =
          &octx.shard->histogram("explore.schedule_depth", depth_bounds());
    }
    ++*cells.schedules;
    *cells.transitions += run_transitions;
    *cells.timer_grants += run_timer_grants;
    *cells.faults_injected += run_faults;
    *cells.max_depth_seen = std::max(*cells.max_depth_seen, granted);
    cells.schedule_depth->observe(granted);
  }
  if (truncated) {
    ++tally.stats.truncated;
    if (octx.shard != nullptr) {
      ++counter_cell(*octx.shard, octx.cells.truncated, "explore.truncated");
    }
    outcome.truncated = true;
    // The depth valve cut this run short: everything on the path is
    // incompletely covered.
    if (pass.fp_prune) mark_path_dirty(pass);
    return outcome;
  }
  env.snapshot_report(scratch.report);
  outcome.violation = instance.check(env, scratch.report);
  if (!outcome.violation.has_value() && auditor.has_value() &&
      !auditor->clean()) {
    // Ledger / footprint violations become ordinary counterexamples (so
    // they minimize and serialize like property violations), but only when
    // the property check is clean — real violations take precedence.
    outcome.violation = auditor->summary();
    for (const auto& violation : auditor->violations()) {
      tally.audit.note(violation.to_string());
    }
  }
  if (outcome.violation.has_value()) {
    // A violating path must never enter the cache clean: pruning it in a
    // later pass would suppress re-finding the violation.
    if (pass.fp_prune) mark_path_dirty(pass);
    // A copy: moving would hand the worker's tape buffer to the
    // counterexample, and the next run would grow a new one.
    outcome.decisions = actions;
  } else if (auditor.has_value() &&
             commute_sampled(actions, opts.audit_commute_sample)) {
    // Differential cross-check of the POR commutation oracle: replay this
    // schedule with adjacent independent operations swapped; any deviation
    // in the final state refutes ops_commute (and with it the sleep sets).
    const obs::ScopedPhase audit_scope(octx.profiler, obs::Phase::kAudit);
    const audit::CommuteCheckReport cross = audit::cross_check_commutation(
        system, actions, [](const sim::OpDesc& a, const sim::OpDesc& b) {
          return ops_commute(a, b);
        });
    ++tally.audit.schedules_cross_checked;
    tally.audit.pairs_considered += cross.pairs_considered;
    tally.audit.swaps_replayed += cross.swaps_replayed;
    tally.audit.commute_mismatches += cross.mismatches.size();
    for (const auto& mismatch : cross.mismatches) {
      tally.audit.note("commute mismatch: " + mismatch.detail);
    }
    if (octx.shard != nullptr) {
      ++octx.shard->counter("audit.schedules_cross_checked");
      octx.shard->counter("audit.swaps_replayed") += cross.swaps_replayed;
    }
    if (octx.sink != nullptr && octx.sink->events_enabled()) {
      obs::Event event;
      event.kind = "audit.cross_check";
      event.step = tally.audit.schedules_cross_checked;
      event.worker = octx.worker;
      event.fields.emplace_back("pairs",
                                std::to_string(cross.pairs_considered));
      event.fields.emplace_back("swaps", std::to_string(cross.swaps_replayed));
      event.fields.emplace_back("mismatches",
                                std::to_string(cross.mismatches.size()));
      octx.sink->emit(std::move(event));
    }
  }
  return outcome;
}

// ------------------------------------------------- parallel pass machinery

/// Per-pass configuration shared by every worker.
struct PassConfig {
  PassState base;  ///< budgets + filter flags; frames empty, floor 0
  int jobs = 1;
  std::size_t violations_so_far = 0;  ///< result.violations.size() at entry
};

/// What the DFS-ordered merge concluded about a pass.
struct MergeOutcome {
  bool stopped = false;        ///< stop policy met (serial `stopped`)
  bool cap_hit = false;        ///< max_schedules fired (serial `cap_hit`)
  bool budget_limited = false;
  bool fault_limited = false;
};

/// `system_name` is system.name(), which the caller builds once rather than
/// once per violation.
Counterexample build_counterexample(const ExplorableSystem& system,
                                    const std::string& system_name,
                                    const ExploreOptions& opts,
                                    RunOutcome&& outcome, ExploreStats& stats,
                                    const ObsCtx& octx) {
  Counterexample cex;
  cex.system = system_name;
  cex.processes = system.process_count();
  cex.violation = std::move(*outcome.violation);
  cex.decisions = std::move(outcome.decisions);
  cex.shrunk_from = cex.decisions.size();
  const std::uint64_t shrink_before = stats.shrink_runs;
  if (opts.minimize) {
    cex = minimize_counterexample(system, std::move(cex), opts, &stats);
  }
  if (octx.shard != nullptr) {
    ++octx.shard->counter("explore.violations_found");
    octx.shard->counter("shrink.replays") += stats.shrink_runs - shrink_before;
  }
  return cex;
}

/// Folds ONE unit into `result` under the serial explorer's stop rule:
/// the first violation at which the serial loop would have stopped cuts the
/// fold at the tally recorded with that violation, discarding everything
/// the worker explored speculatively past the stop point.  Returns true
/// when the merge ends AT this unit (violation cut or schedule cap) — later
/// units must not be folded.  With a non-null `sink` the fold emits the
/// deterministic merge-time events (the real merge); the checkpoint
/// snapshot fold passes nullptr and reproduces the exact same fold
/// silently, on a copy.  The fold moves the unit's counterexamples out.
bool merge_one(UnitResult& unit, const ExploreOptions& opts,
               ExploreResult& result, std::set<FaultPoint>& fault_points,
               MergeOutcome& out, obs::ObsSink* sink) {
  const bool events = sink != nullptr && sink->events_enabled();
  // Violation and fault-point-first-coverage events are emitted HERE, at
  // merge time, not where workers found them: the merge runs in DFS order
  // on one thread, so the event stream (kind, step, fields) is identical
  // for every worker count — only the timing channel varies.
  const auto note_violation = [&](Counterexample&& cex) {
    if (events) {
      obs::Event event;
      event.kind = "violation.found";
      event.step = result.violations.size();
      event.fields.emplace_back("violation", cex.violation);
      event.fields.emplace_back("decisions",
                                std::to_string(cex.decisions.size()));
      event.fields.emplace_back("faults", std::to_string(cex.fault_count()));
      event.fields.emplace_back("shrunk_from",
                                std::to_string(cex.shrunk_from));
      sink->emit(std::move(event));
    }
    result.violations.push_back(std::move(cex));
  };
  const auto cover_fault_points = [&](const std::set<FaultPoint>& points) {
    for (const FaultPoint& point : points) {
      if (!fault_points.insert(point).second) continue;
      if (events) {
        obs::Event event;
        event.kind = "coverage.fault_point";
        event.step = fault_points.size() - 1;
        event.fields.emplace_back("action", action_token(point.first));
        event.fields.emplace_back("victim_steps",
                                  std::to_string(point.second));
        sink->emit(std::move(event));
      }
    }
  };
  std::optional<std::size_t> cut;
  for (std::size_t i = 0; i < unit.violations.size(); ++i) {
    if (opts.stop_at_first_violation ||
        result.violations.size() + i + 1 >= opts.max_violations) {
      cut = i;
      break;
    }
  }
  const Tally& tally = cut.has_value() ? unit.violations[*cut].at : unit.tally;
  result.stats.merge_from(tally.stats);
  result.audit.merge_from(tally.audit);
  cover_fault_points(tally.fault_points);
  out.budget_limited |= tally.budget_limited;
  out.fault_limited |= tally.fault_limited;
  const std::size_t folded =
      cut.has_value() ? *cut + 1 : unit.violations.size();
  for (std::size_t i = 0; i < folded; ++i) {
    note_violation(std::move(unit.violations[i].cex));
  }
  if (cut.has_value()) {
    out.stopped = true;
    return true;
  }
  if (unit.cap_hit) {
    out.cap_hit = true;
    return true;
  }
  return false;
}

// ------------------------------------------------ work-stealing pass engine

/// One unit of the stealing frontier: a contiguous segment of the pass's
/// DFS, owned by at most one worker at a time.  `frames`/`floor`/`result`
/// are the owner's last *published* snapshot (claim, split and checkpoint
/// boundaries); between publishes the owner works on private copies, so a
/// checkpoint taken from the snapshots simply re-explores anything past
/// them on resume — sound, because unit exploration is a pure function of
/// the frames.
struct StealUnit {
  enum class Status { kPending, kRunning, kComplete };
  std::vector<Frame> frames;
  std::size_t floor = 0;
  UnitResult result;
  Status status = Status::kPending;
  bool abort = false;  ///< deterministic stop confirmed before this unit ran
  bool stolen = false;  ///< unit was split off a victim (worker-beat steals)
  bool skipped = false;  ///< past a confirmed stop; results dropped
};

/// Folds a pass's units into `result` in DFS order, reproducing the serial
/// explorer's stop rule exactly via merge_one.  `out` starts as `restored`:
/// what the folded prefix of a resumed pass concluded before the kill.
MergeOutcome merge_pass(std::list<StealUnit>& units,
                        const ExploreOptions& opts, ExploreResult& result,
                        std::set<FaultPoint>& fault_points,
                        MergeOutcome restored) {
  MergeOutcome out = restored;
  for (StealUnit& unit : units) {
    expects(!unit.skipped,
            "deterministic merge reached a unit skipped past a stop");
    if (merge_one(unit.result, opts, result, fault_points, out,
                  opts.telemetry)) {
      break;
    }
  }
  return out;
}

/// Shared state of one stealing pass.  The std::list gives iterator-stable
/// DFS order: a split inserts the thief unit right after its victim, so at
/// every instant the list order IS the serial DFS order — which is what the
/// frontier walk, the checkpoint fold and the final merge all rely on.
struct StealPool {
  std::mutex mu;
  std::condition_variable cv;
  std::list<StealUnit> units;
  std::size_t idle = 0;     ///< workers blocked waiting for a pending unit
  std::size_t pending = 0;  ///< units no worker has claimed yet
  std::size_t running = 0;  ///< units currently owned by a worker
  bool stop_confirmed = false;
  bool halt = false;  ///< halt_after_checkpoints fired (SIGKILL stand-in)
  bool abort_all = false;
  std::exception_ptr error;
  /// The only hot-path coupling: owners poll this with a relaxed load at
  /// run boundaries and take the lock only when it is set (idle thieves,
  /// a due checkpoint, a confirmed stop, halt, or an error).
  std::atomic<bool> attention{false};
  std::atomic<bool> checkpoint_due{false};
  std::list<StealUnit>::iterator frontier;  ///< first non-merged-prefix unit
  std::size_t frontier_violations = 0;
};

CheckpointUnit serialize_steal_unit(const StealUnit& unit) {
  CheckpointUnit out;
  out.complete = unit.status == StealUnit::Status::kComplete;
  if (!out.complete) {
    out.frames.reserve(unit.frames.size());
    for (const Frame& frame : unit.frames) {
      CheckpointFrame cf;
      cf.chosen = frame.chosen;
      cf.done = frame.done;
      cf.fp_dirty = frame.fp_dirty;  // key recomputed by the resume replay
      out.frames.push_back(std::move(cf));
    }
    out.floor = unit.floor;
  }
  out.result = unit.result;
  return out;
}

/// Re-materializes a persisted unit: its results restore as they are; the
/// frame stack replays its decisions on a fresh SimEnv, recomputing the
/// runnable sets, pending operations, bitmasks and sleep sets the artifact
/// deliberately does not store.  The replay doubles as an integrity check —
/// an artifact whose decisions do not apply to the system is rejected here.
StealUnit materialize_steal_unit(const ExplorableSystem& system,
                                 const ExploreOptions& opts,
                                 const PassState& base,
                                 const CheckpointUnit& cu) {
  StealUnit unit;
  unit.result = cu.result;
  if (cu.complete) {
    unit.status = StealUnit::Status::kComplete;
    return unit;
  }
  unit.floor = static_cast<std::size_t>(cu.floor);

  PassState pass = base;
  Scratch scratch;
  SystemRun run(system, scratch.env, {opts.max_depth, false});
  sim::SimEnv& env = run.env;
  for (const CheckpointFrame& cf : cu.frames) {
    env.parked_processes(scratch.runnable);
    expects(!scratch.runnable.empty(),
            "checkpoint frontier replays past quiescence");
    const Frame* parent = pass.frames.empty() ? nullptr : &pass.frames.back();
    Frame frame = make_frame(env, scratch, pass, parent);
    // No account_frame here: the persisted partial stats already charged
    // this frame when it was first materialized.  The cache key is a pure
    // function of the replayed state, so recomputing it (rather than
    // persisting it) keeps the artifact small and doubles as coverage of
    // the key's determinism; only the dirty accumulator needs restoring.
    if (pass.fp_prune) {
      compute_fp_key(*run.instance, env, frame);
      frame.fp_dirty = cf.fp_dirty;
    }
    frame.done = cf.done;
    expects(env.can_apply(decode_action(cf.chosen)),
            "checkpoint frontier decision is not applicable on replay");
    frame.chosen = cf.chosen;
    env.apply(decode_action(cf.chosen));
    pass.frames.push_back(std::move(frame));
  }
  env.finish();
  expects(unit.floor <= pass.frames.size(),
          "checkpoint frontier floor exceeds its frame stack");
  unit.frames = std::move(pass.frames);
  return unit;
}

/// Checkpoint-writer state threaded through a campaign: `seq` numbering
/// spans passes (and resumes), `at` is refreshed by explore() before each
/// pass, and the pointers point at explore()'s state: the result
/// accumulated by the between-pass merges, and what a resumed pass's
/// artifact restored (never mutated while a pass runs, so the writer may
/// read them without coordination).
struct CheckpointCtx {
  std::uint64_t seq = 0;
  std::uint64_t written = 0;   ///< all artifacts this explore() call wrote
  std::uint64_t periodic = 0;  ///< periodic (non-final) artifacts only
  /// Schedule-valve reading at the last periodic write (or campaign start).
  /// Spans passes, so the checkpoint_every cadence counts claimed schedules
  /// across pass boundaries: a checkpoint that comes due in a pass's last
  /// runs is written early in the next pass instead of being dropped.
  std::atomic<std::uint64_t> last_checkpoint_at{0};
  CheckpointProgress at;  ///< the pass flags stay false
  const ExploreResult* merged = nullptr;
  const std::set<FaultPoint>* covered = nullptr;
  /// What the units folded into a resumed pass's prefix concluded: the
  /// MergeOutcome every snapshot fold of the pass starts from, and their
  /// coverage partials (fingerprint_prune only).  Empty on other passes.
  const MergeOutcome* restored = nullptr;
  const std::vector<FingerprintPartial>* restored_partials = nullptr;
  /// The visited-state cache frozen at the start of the current pass;
  /// null when pruning is off.
  const FpCache* fp_cache = nullptr;
};

/// Fingerprint-prune hit rate in parts per million of all schedule
/// attempts (prunes / (prunes + completed schedules)).  Integer so the
/// status artifact's deterministic channel never carries a double.
std::uint64_t fp_hit_ppm(std::uint64_t prunes, std::uint64_t schedules) {
  const std::uint64_t attempts = prunes + schedules;
  if (attempts == 0) return 0;
  return prunes * 1'000'000 / attempts;
}

/// Heartbeat state threaded through a campaign (ExploreOptions::status_path
/// or BSS_STATUS): the writer's `seq` spans passes, the pass fields are
/// refreshed by explore() before each pass, and `merged`/`ckpt` point at
/// state owned by explore().  Strictly passive — nothing here may feed back
/// into an exploration decision.
struct StatusCtx {
  obs::StatusWriter writer;
  std::string system;
  std::uint64_t max_schedules = 0;
  std::uint64_t jobs = 0;
  std::uint64_t pass_ordinal = 0;
  const ExploreResult* merged = nullptr;
  const CheckpointCtx* ckpt = nullptr;

  StatusCtx(std::string path, std::uint64_t every_ms)
      : writer(std::move(path), every_ms) {}

  /// Snapshot of the merged-prefix counters (between passes these are the
  /// campaign totals; the steal pass's heartbeat thread overlays its live
  /// view on top of this base).
  obs::Status snapshot(std::string state) const {
    obs::Status s;
    s.producer = "explore()";
    s.system = system;
    s.state = std::move(state);
    s.schedules = merged->stats.schedules;
    s.violations = merged->violations.size();
    s.fingerprint_prunes = merged->stats.fingerprint_prunes;
    s.fingerprint_hit_rate_ppm =
        fp_hit_ppm(s.fingerprint_prunes, s.schedules);
    s.checkpoints = ckpt != nullptr ? ckpt->written : 0;
    s.max_schedules = max_schedules;
    s.passes = pass_ordinal;
    s.jobs = jobs;
    return s;
  }
};

/// Writes one `bss-checkpoint v1` artifact, atomically, to checkpoint_path.
/// Fills the header every artifact shares — the campaign, the merged result
/// `merged` and its fault-site coverage `covered` — into `cp`, whose rest
/// the caller filled: the progress and frontier of a periodic snapshot, or
/// the final one's progress and `complete`.
void write_checkpoint(const ExplorableSystem& system,
                      const ExploreOptions& opts, CheckpointCtx& ckpt,
                      StatusCtx* status, ExploreResult merged,
                      std::set<FaultPoint> covered, Checkpoint& cp) {
  cp.seq = ckpt.seq++;
  cp.system = system.name();
  cp.processes = system.process_count();
  cp.options = CheckpointOptions::key_of(opts);
  cp.stats = merged.stats;
  cp.stats.fault_points = covered.size();
  cp.audit = std::move(merged.audit);
  cp.violations = std::move(merged.violations);
  cp.fault_points = std::move(covered);
  expects(write_checkpoint_file(opts.checkpoint_path, cp.to_artifact()),
          "failed to write checkpoint artifact: " + opts.checkpoint_path);
  ++ckpt.written;
  if (status != nullptr) status->writer.note_checkpoint();
}

/// Per-worker heartbeat cells, allocated only when a status file is on.
/// Workers publish with relaxed stores; the heartbeat thread reads them
/// approximately — nothing here is part of the deterministic result.
struct WorkerBeat {
  static constexpr int kIdle = 0;
  static constexpr int kRunning = 1;
  static constexpr int kStealing = 2;
  std::atomic<int> state{kIdle};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> schedules{0};
};

const char* beat_state_name(int state) {
  switch (state) {
    case WorkerBeat::kRunning:
      return "running";
    case WorkerBeat::kStealing:
      return "stealing";
    default:
      return "idle";
  }
}

struct StealPassOutput {
  std::list<StealUnit> units;  ///< DFS order, every unit complete
  bool halted = false;          ///< halt_after_checkpoints fired mid-pass
};

/// Runs one (budget pair) pass on the work-stealing engine.  The frontier
/// is a DFS-ordered list of units; idle workers raise the attention flag
/// and owners split their shallowest splittable frame off for them.  A
/// frontier walk over the complete-unit prefix confirms deterministic stops
/// as early as possible: pending units past the stop are skipped and
/// running owners abandon theirs.  With checkpointing on, the
/// owner that observes a due checkpoint persists the folded prefix plus the
/// outstanding frontier snapshots.  `seeds` (non-null on the resumed pass)
/// re-materializes a persisted frontier instead of starting from the root.
/// `status` (non-null when a heartbeat file is on) gets a dedicated thread
/// that periodically overlays the pool's live counters on the merged-prefix
/// base and writes the bss-status artifact — read-only w.r.t. the pool.
StealPassOutput run_steal_pass(const ExplorableSystem& system,
                               const ExploreOptions& opts,
                               const PassConfig& cfg, SharedBudget& budget,
                               const std::vector<CheckpointUnit>* seeds,
                               CheckpointCtx* ckpt, StatusCtx* status) {
  StealPassOutput output;
  StealPool pool;
  if (seeds != nullptr) {
    for (const CheckpointUnit& cu : *seeds) {
      pool.units.push_back(materialize_steal_unit(system, opts, cfg.base, cu));
    }
    if (pool.units.empty()) return output;
  } else {
    pool.units.emplace_back();  // the root unit: empty frames, floor 0
  }
  for (const StealUnit& unit : pool.units) {
    if (unit.status == StealUnit::Status::kPending) ++pool.pending;
  }
  pool.frontier = pool.units.begin();
  pool.frontier_violations = cfg.violations_so_far;

  obs::ObsSink* sink = opts.telemetry;
  const bool events = sink != nullptr && sink->events_enabled();
  const bool spans = sink != nullptr && sink->timeline_enabled();
  const std::size_t quota =
      opts.max_violations > cfg.violations_so_far
          ? opts.max_violations - cfg.violations_so_far
          : 1;
  const int steal_depth = std::max(opts.steal_depth, 0);
  const int nworkers = std::max(cfg.jobs, 1);
  const bool status_on = status != nullptr && status->writer.enabled();
  std::unique_ptr<WorkerBeat[]> beats;
  if (status_on) {
    beats = std::make_unique<WorkerBeat[]>(static_cast<std::size_t>(nworkers));
  }

  // Idle workers already covered by a pending unit (woken, not yet back on
  // a CPU) need no split; counting them would split again at every run
  // boundary for as long as they wait for a CPU.
  const auto refresh_attention = [&] {  // pool.mu held
    pool.attention.store(
        pool.idle > pool.pending ||
            pool.checkpoint_due.load(std::memory_order_relaxed) ||
            pool.stop_confirmed || pool.halt || pool.abort_all,
        std::memory_order_release);
  };

  const auto walk_frontier = [&] {  // pool.mu held
    if (pool.stop_confirmed) return;
    while (pool.frontier != pool.units.end() &&
           pool.frontier->status == StealUnit::Status::kComplete) {
      // No unit past a confirmed stop is walked, so none here is skipped.
      const UnitResult& unit = pool.frontier->result;
      bool stops = unit.cap_hit;
      for (std::size_t i = 0; i < unit.violations.size() && !stops; ++i) {
        ++pool.frontier_violations;
        if (opts.stop_at_first_violation ||
            pool.frontier_violations >= opts.max_violations) {
          stops = true;
        }
      }
      ++pool.frontier;
      if (stops) {
        // The merge provably ends at this unit: everything after it is
        // discarded work.  Pending units are skipped outright; running
        // owners are told to abandon theirs.
        pool.stop_confirmed = true;
        for (auto it = pool.frontier; it != pool.units.end(); ++it) {
          if (it->status == StealUnit::Status::kPending) {
            --pool.pending;
            it->status = StealUnit::Status::kComplete;
            it->result = UnitResult{};
            it->skipped = true;
            it->frames.clear();
          } else if (it->status == StealUnit::Status::kRunning) {
            it->abort = true;
          }
        }
        refresh_attention();
        pool.cv.notify_all();
        break;
      }
    }
  };

  /// Persists the campaign state (pool.mu held).  The completed-unit prefix
  /// is folded the way merge_pass will fold it — on copies, silently — so
  /// the snapshot is exactly the merged result of a serial campaign that
  /// got this far; the rest of the frontier is serialized as outstanding
  /// work.
  const auto checkpoint_now = [&](const ObsCtx& octx) {
    const obs::ScopedPhase checkpoint_scope(octx.profiler,
                                            obs::Phase::kCheckpointWrite);
    ExploreResult folded = *ckpt->merged;
    std::set<FaultPoint> covered = *ckpt->covered;
    MergeOutcome fold = *ckpt->restored;
    Checkpoint cp;
    cp.fp_partials = *ckpt->restored_partials;
    bool prefix_stopped = false;
    auto it = pool.units.begin();
    while (it != pool.units.end() &&
           it->status == StealUnit::Status::kComplete && !it->skipped) {
      UnitResult copy = it->result;
      const bool ends = merge_one(copy, opts, folded, covered, fold, nullptr);
      cp.fp_partials.insert(cp.fp_partials.end(), copy.fp_partials.begin(),
                            copy.fp_partials.end());
      ++it;
      if (ends) {
        prefix_stopped = true;
        break;
      }
    }
    cp.progress = ckpt->at;
    cp.progress.cap_hit |= fold.cap_hit;
    cp.progress.stopped |= fold.stopped;
    cp.progress.pass_budget_limited = fold.budget_limited;
    cp.progress.pass_fault_limited = fold.fault_limited;
    if (!prefix_stopped) {
      for (; it != pool.units.end(); ++it) {
        cp.frontier.push_back(serialize_steal_unit(*it));
      }
    }
    if (ckpt->fp_cache != nullptr) {
      // The frozen cache is what the in-progress pass is pruning against;
      // persisting it verbatim (std::set iteration = sorted) lets the
      // resumed pass reproduce every pruning decision bit-for-bit.
      cp.fp_cache.assign(ckpt->fp_cache->begin(), ckpt->fp_cache->end());
    }
    write_checkpoint(system, opts, *ckpt, status, std::move(folded),
                     std::move(covered), cp);
    ++ckpt->periodic;
    ckpt->last_checkpoint_at.store(
        budget.schedules.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    if (octx.shard != nullptr) ++octx.shard->counter("explore.checkpoints");
    if (events) {
      obs::Event event;
      event.kind = "worker.checkpoint";
      event.step = cp.seq;
      event.worker = octx.worker;
      event.fields.emplace_back("frontier", std::to_string(cp.frontier.size()));
      event.fields.emplace_back("schedules",
                                std::to_string(cp.stats.schedules));
      sink->emit(std::move(event));
    }
  };

  const auto worker = [&](int worker_index) {
    try {
      ObsCtx octx = make_obs_ctx(sink, worker_index);
      const std::string system_name = system.name();
      WorkerBeat* const beat =
          beats != nullptr ? &beats[worker_index] : nullptr;
      if (events) {
        obs::Event event;
        event.kind = "worker.start";
        event.worker = worker_index;
        sink->emit(std::move(event));
      }
      std::uint64_t claims = 0;
      bool halted = false;
      Scratch scratch;
      while (!halted) {
        auto self = pool.units.end();
        PassState pass = cfg.base;
        UnitResult local;
        {
          std::unique_lock<std::mutex> lock(pool.mu);
          for (;;) {
            if (pool.abort_all || pool.halt) break;
            for (auto it = pool.units.begin(); it != pool.units.end(); ++it) {
              if (it->status == StealUnit::Status::kPending) {
                self = it;
                break;
              }
            }
            if (self != pool.units.end() || pool.running == 0) break;
            ++pool.idle;
            refresh_attention();
            if (beat != nullptr) {
              beat->state.store(WorkerBeat::kStealing,
                                std::memory_order_relaxed);
            }
            pool.cv.wait(lock);
            --pool.idle;
            refresh_attention();
          }
          if (self == pool.units.end()) {
            pool.cv.notify_all();  // drained/halted: release the others too
            break;
          }
          self->status = StealUnit::Status::kRunning;
          --pool.pending;
          ++pool.running;
          pass.frames = self->frames;
          pass.floor = self->floor;
          local = self->result;
          if (beat != nullptr) {
            beat->state.store(WorkerBeat::kRunning, std::memory_order_relaxed);
            if (self->stolen) {
              beat->steals.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        if (events) {
          obs::Event event;
          event.kind = "worker.claim";
          event.step = claims;
          event.worker = worker_index;
          event.fields.emplace_back("depth",
                                    std::to_string(pass.frames.size()));
          event.fields.emplace_back("floor", std::to_string(pass.floor));
          sink->emit(std::move(event));
        }
        ++claims;
        const std::uint64_t unit_begin = spans ? sink->now_ns() : 0;
        bool aborted = false;
        for (;;) {
          if (pool.attention.load(std::memory_order_acquire)) {
            std::lock_guard<std::mutex> lock(pool.mu);
            if (pool.abort_all || pool.halt) {
              halted = true;
            } else if (self->abort) {
              aborted = true;
            } else {
              while (pool.pending < pool.idle) {
                StealUnit thief;
                if (!try_split(pass, steal_depth, thief.frames, thief.floor)) {
                  break;
                }
                thief.stolen = true;
                pool.units.insert(std::next(self), std::move(thief));
                ++pool.pending;
                if (octx.shard != nullptr) {
                  ++octx.shard->counter("explore.steals");
                }
                if (events) {
                  obs::Event event;
                  event.kind = "worker.steal";
                  event.step = pass.floor;  // victim floor == split depth + 1
                  event.worker = worker_index;
                  sink->emit(std::move(event));
                }
                pool.cv.notify_one();
              }
              // Publish the snapshot other threads read: splits moved the
              // floor, and the checkpoint writer serializes running units
              // from exactly these fields.
              self->frames = pass.frames;
              self->floor = pass.floor;
              self->result = local;
              if (ckpt != nullptr &&
                  pool.checkpoint_due.load(std::memory_order_relaxed)) {
                checkpoint_now(octx);
                pool.checkpoint_due.store(false, std::memory_order_relaxed);
                if (opts.halt_after_checkpoints > 0 &&
                    ckpt->periodic >= opts.halt_after_checkpoints) {
                  // Deterministic SIGKILL stand-in for kill-and-resume
                  // tests: stop dead right after the Nth periodic write,
                  // leaving the artifact as the only durable output.
                  pool.halt = true;
                  halted = true;
                  pool.cv.notify_all();
                }
              }
              refresh_attention();
            }
          }
          if (halted || aborted) break;
          if (budget.exhausted()) {
            local.cap_hit = true;
            break;
          }
          RunOutcome outcome =
              run_one(system, opts, pass, local.tally, octx, scratch);
          if (!outcome.pruned) {
            if (beat != nullptr) {
              beat->schedules.fetch_add(1, std::memory_order_relaxed);
            }
            const std::uint64_t claimed =
                budget.schedules.fetch_add(1, std::memory_order_relaxed) + 1;
            if (ckpt != nullptr && opts.checkpoint_every > 0 &&
                claimed - ckpt->last_checkpoint_at.load(
                              std::memory_order_relaxed) >=
                    opts.checkpoint_every &&
                !pool.checkpoint_due.exchange(true,
                                              std::memory_order_relaxed)) {
              pool.attention.store(true, std::memory_order_release);
            }
          }
          if (outcome.violation.has_value()) {
            // Built first: minimizing adds to the tally's shrink counters.
            Counterexample cex = build_counterexample(
                system, system_name, opts, std::move(outcome),
                local.tally.stats, octx);
            local.violations.push_back({std::move(cex), local.tally});
            if (opts.stop_at_first_violation ||
                local.violations.size() >= quota) {
              local.stopped = true;
              break;
            }
          }
          if (!advance(pass, local, scratch)) {
            // Normal drain: emit the below-floor prefix frames' coverage
            // partials.  The halted/aborted/cap/stopped breaks above emit
            // nothing — each either abandons the unit's results wholesale
            // or ends the campaign, and explore() discards all partials of
            // an ended pass.
            emit_open_frames(pass, local);
            break;
          }
        }
        if (halted) break;  // unit stays kRunning; the halt abandons the pass
        {
          std::lock_guard<std::mutex> lock(pool.mu);
          --pool.running;
          aborted = aborted || self->abort;
          self->frames.clear();
          self->floor = 0;
          if (aborted) {
            self->result = UnitResult{};
            self->skipped = true;
          } else {
            self->result = std::move(local);
          }
          self->status = StealUnit::Status::kComplete;
          walk_frontier();
          pool.cv.notify_all();
        }
        if (spans) {
          obs::Span span;
          span.name = "unit";
          span.track = worker_index;
          span.begin_ns = unit_begin;
          span.end_ns = sink->now_ns();
          span.args.emplace_back(
              "schedules", std::to_string(self->result.tally.stats.schedules));
          sink->record_span(std::move(span));
        }
      }
      if (beat != nullptr) {
        beat->state.store(WorkerBeat::kIdle, std::memory_order_relaxed);
      }
      if (events) {
        obs::Event event;
        event.kind = "worker.finish";
        event.step = claims;
        event.worker = worker_index;
        sink->emit(std::move(event));
      }
    } catch (...) {
      // Any lock held when the exception was raised has already been
      // released by the unwind, so re-locking here is safe.
      std::lock_guard<std::mutex> lock(pool.mu);
      if (!pool.error) pool.error = std::current_exception();
      pool.abort_all = true;
      pool.attention.store(true, std::memory_order_release);
      pool.cv.notify_all();
    }
  };

  {
    std::lock_guard<std::mutex> lock(pool.mu);
    walk_frontier();  // a restored frontier may already confirm a stop
  }

  // The heartbeat thread: overlays the pool's live counters on the merged
  // prefix and writes the status file whenever the cadence is due.  It only
  // ever reads pool state (under pool.mu) and worker beats (relaxed), so it
  // cannot perturb the exploration — kill it and the campaign is identical.
  std::mutex status_mu;
  std::condition_variable status_cv;
  bool status_stop = false;
  const auto build_status = [&] {
    obs::Status s = status->snapshot("running");
    s.schedules = budget.schedules.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(pool.mu);
      s.violations = pool.frontier_violations;
      std::uint64_t frontier = 0;
      std::uint64_t prunes = status->merged->stats.fingerprint_prunes;
      for (const StealUnit& unit : pool.units) {
        if (unit.status != StealUnit::Status::kComplete) ++frontier;
        prunes += unit.result.tally.stats.fingerprint_prunes;
      }
      s.frontier = frontier;
      s.fingerprint_prunes = prunes;
      s.checkpoints = status->ckpt != nullptr ? status->ckpt->written : 0;
    }
    s.fingerprint_hit_rate_ppm =
        fp_hit_ppm(s.fingerprint_prunes, s.schedules);
    for (int i = 0; i < nworkers; ++i) {
      obs::WorkerStatus w;
      w.worker = i;
      w.state = beat_state_name(beats[i].state.load(std::memory_order_relaxed));
      w.steals = beats[i].steals.load(std::memory_order_relaxed);
      w.schedules = beats[i].schedules.load(std::memory_order_relaxed);
      s.workers.push_back(std::move(w));
    }
    return s;
  };
  const auto status_loop = [&] {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(status_mu);
        status_cv.wait_for(lock, std::chrono::milliseconds(25),
                           [&] { return status_stop; });
        if (status_stop) return;
      }
      if (!status->writer.due()) continue;
      status->writer.write(build_status());
    }
  };
  std::thread status_thread;
  if (status_on) status_thread = std::thread(status_loop);

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nworkers - 1));
  for (int i = 1; i < nworkers; ++i) {
    threads.emplace_back(worker, i);
  }
  worker(0);  // the calling thread is worker 0
  for (auto& t : threads) t.join();
  if (status_on) {
    {
      std::lock_guard<std::mutex> lock(status_mu);
      status_stop = true;
    }
    status_cv.notify_all();
    status_thread.join();
  }
  if (pool.error) std::rethrow_exception(pool.error);
  if (pool.halt) {
    output.halted = true;
    return output;
  }
  for (const StealUnit& unit : pool.units) {
    expects(unit.status == StealUnit::Status::kComplete,
            "stealing pass ended with an incomplete unit");
  }
  output.units = std::move(pool.units);
  return output;
}

/// jobs == 0 resolves through BSS_EXPLORE_JOBS (how CI forces the worker
/// pool through every existing test); explicit values are never overridden.
int resolve_jobs(const ExploreOptions& options) {
  if (options.jobs > 0) return std::min(options.jobs, 64);
  static const int env_jobs = [] {
    const char* raw = std::getenv("BSS_EXPLORE_JOBS");
    if (raw == nullptr) return 1;
    char* end = nullptr;
    const long parsed = std::strtol(raw, &end, 10);
    if (end == raw || *end != '\0' || parsed < 1) return 1;
    return static_cast<int>(std::min<long>(parsed, 64));
  }();
  return env_jobs;
}

}  // namespace

ExploreResult explore(const ExplorableSystem& system,
                      const ExploreOptions& requested) {
  ExploreOptions options = requested;
  // The force-on variables are resolved here, per call (not at use sites),
  // so CheckpointOptions::key_of sees the effective values — a resume under
  // a different BSS_AUDIT or BSS_EXPLORE_FP is caught.  Neither can disable
  // an explicit request.
  options.audit =
      requested.audit || env::forces_on(std::getenv("BSS_AUDIT"));
  options.fingerprint_prune = requested.fingerprint_prune ||
                              env::forces_on(std::getenv("BSS_EXPLORE_FP"));
  ExploreResult result;
  result.audit.enabled = options.audit;
  const int jobs = resolve_jobs(options);

  obs::ObsSink* sink = options.telemetry;
  const bool events = sink != nullptr && sink->events_enabled();
  const bool spans = sink != nullptr && sink->timeline_enabled();
  obs::PhaseProfiler* const profiler =
      sink != nullptr ? sink->profiler() : nullptr;
  // bss-lint: wallclock-ok(feeds only the runreport "timing" section)
  const auto wall_begin = std::chrono::steady_clock::now();
  if (events) {
    obs::Event event;
    event.kind = "explore.start";
    event.fields.emplace_back("system", system.name());
    event.fields.emplace_back("jobs", std::to_string(jobs));
    event.fields.emplace_back("steal_depth",
                              std::to_string(options.steal_depth));
    sink->emit(std::move(event));
  }
  if (sink != nullptr) {
    if (obs::MetricShard* shard =
            sink->metric_shard(obs::Event::kCoordinator)) {
      shard->gauge_max("explore.jobs", static_cast<std::uint64_t>(jobs));
    }
  }

  // Chess-style iterative bounding: sweep small budgets first so the
  // simplest refutation surfaces; a budget that cut nothing covered the
  // whole space, making larger budgets redundant.  Fault budgets sweep
  // outermost — a zero-fault refutation beats a one-fault one.  Each
  // (fault, preemption) budget pair is one *pass*: stealing happens within
  // a pass, so fewest-fault-first ordering is preserved.
  std::vector<int> preemption_budgets;
  if (options.preemption_bound >= 0 && options.iterative) {
    for (int b = 0; b <= options.preemption_bound; ++b) {
      preemption_budgets.push_back(b);
    }
  } else {
    preemption_budgets.push_back(options.preemption_bound);
  }
  const bool faults_on =
      options.fault_bound > 0 &&
      (options.explore_crashes || options.explore_restarts ||
       options.explore_sc_failures);
  std::vector<int> fault_budgets;
  if (!faults_on) {
    fault_budgets.push_back(0);
  } else if (options.iterative) {
    for (int b = 0; b <= options.fault_bound; ++b) fault_budgets.push_back(b);
  } else {
    fault_budgets.push_back(options.fault_bound);
  }

  std::set<FaultPoint> fault_points;
  // Visited-state cache (fingerprint_prune only): frozen while a pass runs,
  // extended between passes from the pass's aggregated coverage partials.
  // `restored` and `restored_fp_partials` carry what the units already
  // folded into a resumed pass's merged prefix concluded: the merge of the
  // pass starts from the flags, and the partials join the pass's own at
  // its between-pass fold, so a killed-and-resumed campaign admits exactly
  // the keys an uninterrupted one would.  Both are empty on any other pass.
  FpCache fp_cache;
  MergeOutcome restored;
  std::vector<FingerprintPartial> restored_fp_partials;
  SharedBudget budget_valve(options.max_schedules);
  bool cap_hit = false;
  bool stopped = false;
  bool last_pass_budget_limited = false;
  std::uint64_t pass_ordinal = 0;

  // Resume: restore the merged snapshot, the campaign position and the
  // schedule valve from the artifact.  Everything result-affecting is
  // cross-checked — a checkpoint from a different system, process count or
  // option fingerprint is rejected, as is an out-of-range pass position.
  std::optional<Checkpoint> resume;
  std::size_t start_fault = 0;
  std::size_t start_preempt = 0;
  bool skip_passes = false;
  if (!options.resume_path.empty()) {
    std::ifstream in(options.resume_path, std::ios::binary);
    expects(static_cast<bool>(in),
            "resume: cannot read checkpoint: " + options.resume_path);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    resume = Checkpoint::from_artifact(buf.str(), &error);
    expects(resume.has_value(), "resume: invalid checkpoint: " + error);
    expects(resume->system == system.name() &&
                resume->processes == system.process_count(),
            "resume: checkpoint was taken on a different system");
    expects(resume->options == CheckpointOptions::key_of(options),
            "resume: result-affecting exploration options differ from the "
            "checkpointed campaign");
    const CheckpointProgress& at = resume->progress;
    skip_passes = resume->complete || at.stopped || at.cap_hit;
    expects(skip_passes || (at.fault_index < fault_budgets.size() &&
                            at.preemption_index < preemption_budgets.size()),
            "resume: checkpoint pass position is out of range");
    result.stats = resume->stats;
    result.audit = resume->audit;
    result.audit.enabled = options.audit;
    result.violations = resume->violations;
    fault_points = resume->fault_points;
    cap_hit = at.cap_hit;
    stopped = at.stopped;
    last_pass_budget_limited = at.last_pass_budget_limited;
    for (const auto& key : resume->fp_cache) fp_cache.insert(key);
    restored.budget_limited = at.pass_budget_limited;
    restored.fault_limited = at.pass_fault_limited;
    restored_fp_partials = resume->fp_partials;
    // The in-progress pass resumes under its own ordinal; a pass that
    // already concluded (stop/cap confirmed in the folded prefix) counts as
    // finished.  A complete artifact stores the final total verbatim.
    pass_ordinal =
        at.pass_ordinal + ((skip_passes && !resume->complete) ? 1 : 0);
    start_fault = static_cast<std::size_t>(at.fault_index);
    start_preempt = static_cast<std::size_t>(at.preemption_index);
    // The valve restores to schedules-merged + schedules-in-frontier: work
    // past the published snapshots re-runs and re-counts on resume, exactly
    // once each, so the valve stays consistent with the re-exploration.
    std::uint64_t consumed = result.stats.schedules;
    for (const CheckpointUnit& cu : resume->frontier) {
      consumed += cu.result.tally.stats.schedules;
    }
    budget_valve.schedules.store(consumed, std::memory_order_relaxed);
  }

  CheckpointCtx ckpt_state;
  CheckpointCtx* const ckpt =
      options.checkpoint_path.empty() ? nullptr : &ckpt_state;
  if (ckpt != nullptr) {
    ckpt->seq = resume.has_value() ? resume->seq + 1 : 0;
    ckpt->last_checkpoint_at.store(
        budget_valve.schedules.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    ckpt->merged = &result;
    ckpt->covered = &fault_points;
    ckpt->restored = &restored;
    ckpt->restored_partials = &restored_fp_partials;
    if (options.fingerprint_prune) ckpt->fp_cache = &fp_cache;
  }

  // The heartbeat writer (bss-status v1): enabled by status_path or
  // BSS_STATUS, purely observational.  The seq-0 snapshot goes out before
  // the first pass so monitors see the campaign (and any resumed prefix)
  // immediately.
  StatusCtx status_state(options.status_path, options.status_every_ms);
  StatusCtx* const status =
      status_state.writer.enabled() ? &status_state : nullptr;
  if (status != nullptr) {
    status_state.system = system.name();
    status_state.max_schedules = options.max_schedules;
    status_state.jobs = static_cast<std::uint64_t>(jobs);
    status_state.pass_ordinal = pass_ordinal;
    status_state.merged = &result;
    status_state.ckpt = ckpt;
    status_state.writer.set_profiler(profiler);
    status->writer.write(status->snapshot("running"));
  }

  bool halted = false;
  for (std::size_t fi = start_fault;
       !skip_passes && !halted && fi < fault_budgets.size(); ++fi) {
    const int fault_budget = fault_budgets[fi];
    bool fault_limited_at_this_budget = false;
    for (std::size_t pi = fi == start_fault ? start_preempt : 0;
         pi < preemption_budgets.size(); ++pi) {
      const int budget = preemption_budgets[pi];
      const bool resumed_pass =
          resume.has_value() && fi == start_fault && pi == start_preempt;
      if (events) {
        obs::Event event;
        event.kind = "pass.start";
        event.step = pass_ordinal;
        event.fields.emplace_back("fault_budget",
                                  std::to_string(faults_on ? fault_budget : 0));
        event.fields.emplace_back("preemption_budget", std::to_string(budget));
        sink->emit(std::move(event));
      }
      const std::uint64_t this_pass = pass_ordinal;
      ++pass_ordinal;
      PassConfig cfg;
      cfg.base.budget = budget;
      cfg.base.fault_budget = faults_on ? fault_budget : 0;
      cfg.base.use_por = options.use_por;
      cfg.base.explore_crashes = faults_on && options.explore_crashes;
      cfg.base.explore_restarts = faults_on && options.explore_restarts;
      cfg.base.explore_sc = faults_on && options.explore_sc_failures;
      cfg.base.fp_prune = options.fingerprint_prune;
      if (options.fingerprint_prune) cfg.base.fp_cache = &fp_cache;
      cfg.jobs = jobs;
      cfg.violations_so_far = result.violations.size();
      if (ckpt != nullptr) {
        ckpt->at = {this_pass, fi, pi, cap_hit, stopped,
                    last_pass_budget_limited, false, false};
      }
      if (status != nullptr) status->pass_ordinal = this_pass;
      StealPassOutput out = run_steal_pass(
          system, options, cfg, budget_valve,
          resumed_pass ? &resume->frontier : nullptr, ckpt, status);
      if (out.halted) {
        halted = true;
        break;
      }
      const std::uint64_t merge_begin = spans ? sink->now_ns() : 0;
      MergeOutcome merged;
      {
        const obs::ScopedPhase merge_scope(profiler, obs::Phase::kMerge);
        merged = merge_pass(out.units, options, result, fault_points, restored);
      }
      if (spans) {
        obs::Span span;
        span.name = "merge";
        span.track = obs::Timeline::kCoordinatorTrack;
        span.begin_ns = merge_begin;
        span.end_ns = sink->now_ns();
        span.args.emplace_back("units", std::to_string(out.units.size()));
        sink->record_span(std::move(span));
      }
      last_pass_budget_limited = merged.budget_limited;
      fault_limited_at_this_budget = merged.fault_limited;
      cap_hit |= merged.cap_hit;
      stopped |= merged.stopped;
      if (options.fingerprint_prune && !cap_hit && !stopped) {
        // Between-pass cache fold: aggregate the pass's coverage partials
        // per key (OR of dirty across every unit — commutative and
        // idempotent, so steal splits need no reconciliation) and admit the
        // keys that aggregate clean.  A clean key's subtree was explored in
        // full with no budget/fault cut, truncation or violation anywhere
        // below it — that is the whole unbounded reachable tree under the
        // node, so pruning it at ANY later budget loses nothing (which is
        // why budget positions are excluded from the key).  Passes that end
        // the campaign (cap/stop) fold nothing: their partials would never
        // be consulted.
        std::map<FpKey, bool> aggregated;
        const auto aggregate =
            [&](const std::vector<FingerprintPartial>& partials) {
              for (const FingerprintPartial& p : partials) {
                aggregated.try_emplace({p.lo, p.hi}, false).first->second |=
                    p.dirty;
              }
            };
        aggregate(restored_fp_partials);
        for (const StealUnit& unit : out.units) {
          aggregate(unit.result.fp_partials);
        }
        for (const auto& [key, dirty] : aggregated) {
          if (!dirty) fp_cache.insert(key);
        }
      }
      // Only the resumed pass had a prefix folded before the kill.
      restored = MergeOutcome{};
      restored_fp_partials.clear();
      // Pass-boundary heartbeat: publishes the post-merge totals, which the
      // in-pass writer thread cannot see.  Cadence-gated so tiny passes
      // don't spam.
      if (status != nullptr && status->writer.due()) {
        status->writer.write(status->snapshot("running"));
      }
      if (cap_hit || stopped) break;
      if (!merged.budget_limited) break;  // space covered at this budget
    }
    if (halted || cap_hit || stopped) break;
    // A fault budget that cut nothing covered the whole bounded-fault
    // space; deeper fault budgets would only re-explore it.
    if (!fault_limited_at_this_budget) break;
  }

  if (halted) {
    // halt_after_checkpoints fired: the checkpoint artifact is the durable
    // output; the in-memory partials are deliberately NOT finalized (no
    // merge ran) and no explore.done/runreport is emitted — this return is
    // the deterministic stand-in for a SIGKILL.
    result.halted = true;
    result.checkpoints_written = ckpt != nullptr ? ckpt->written : 0;
    return result;
  }

  result.stats.fault_points = fault_points.size();
  result.exhausted = !cap_hit && !stopped && !last_pass_budget_limited &&
                     result.stats.truncated == 0;

  if (ckpt != nullptr) {
    // The final, `complete` checkpoint: the whole merged result, an empty
    // frontier.  Resuming from it just re-emits the same result.
    const obs::ScopedPhase checkpoint_scope(profiler,
                                            obs::Phase::kCheckpointWrite);
    Checkpoint cp;
    cp.progress = {pass_ordinal, 0, 0, cap_hit, stopped,
                   last_pass_budget_limited, false, false};
    cp.complete = true;
    cp.exhausted = result.exhausted;
    write_checkpoint(system, options, *ckpt, status, result, fault_points, cp);
    result.checkpoints_written = ckpt->written;
  }

  if (sink != nullptr) {
    if (events) {
      obs::Event event;
      event.kind = "explore.done";
      event.fields.emplace_back("schedules",
                                std::to_string(result.stats.schedules));
      event.fields.emplace_back("violations",
                                std::to_string(result.violations.size()));
      event.fields.emplace_back("exhausted", result.exhausted ? "1" : "0");
      sink->emit(std::move(event));
    }
    obs::ReportBuilder report("explore", "explore()");
    report.set_system(system.name());
    report.environment("jobs", jobs);
    report.environment("processes", system.process_count());
    report.option("max_depth", options.max_depth);
    report.option("preemption_bound", options.preemption_bound);
    report.option("iterative", options.iterative);
    report.option("use_por", options.use_por);
    report.option("max_schedules", options.max_schedules);
    report.option("stop_at_first_violation", options.stop_at_first_violation);
    report.option("max_violations",
                  static_cast<std::uint64_t>(options.max_violations));
    report.option("minimize", options.minimize);
    report.option("shrink_budget", options.shrink_budget);
    report.option("fault_bound", options.fault_bound);
    report.option("audit", options.audit);
    report.option("fingerprint_prune", options.fingerprint_prune);
    const ExploreStats& stats = result.stats;
    report.stat("schedules", stats.schedules);
    report.stat("transitions", stats.transitions);
    report.stat("timer_grants", stats.timer_grants);
    report.stat("sleep_set_prunes", stats.sleep_set_prunes);
    report.stat("preemption_prunes", stats.preemption_prunes);
    report.stat("truncated", stats.truncated);
    report.stat("max_depth_seen", stats.max_depth_seen);
    report.stat("shrink_runs", stats.shrink_runs);
    report.stat("shrink_budget_hits", stats.shrink_budget_hits);
    report.stat("fault_prunes", stats.fault_prunes);
    report.stat("faults_injected", stats.faults_injected);
    report.stat("fingerprint_prunes", stats.fingerprint_prunes);
    report.stat("fault_points", stats.fault_points);
    report.stat("violations", result.violations.size());
    report.coverage("exhausted", result.exhausted);
    report.coverage("passes", pass_ordinal);
    report.coverage("cap_hit", cap_hit);
    report.coverage("stopped", stopped);
    for (const Counterexample& cex : result.violations) {
      obs::json::Object violation;
      violation.emplace("violation", obs::json::Value(cex.violation));
      violation.emplace(
          "decisions",
          obs::json::Value(static_cast<std::uint64_t>(cex.decisions.size())));
      violation.emplace(
          "faults",
          obs::json::Value(static_cast<std::uint64_t>(cex.fault_count())));
      violation.emplace(
          "shrunk_from",
          obs::json::Value(static_cast<std::uint64_t>(cex.shrunk_from)));
      report.violation(std::move(violation));
    }
    const auto wall_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            // bss-lint: wallclock-ok(runreport "timing" section only)
            std::chrono::steady_clock::now() - wall_begin)
            .count();
    report.timing("explore_wall_ns",
                  static_cast<std::uint64_t>(wall_ns));
    // Schedules/second lives in the quarantined timing channel: it varies
    // run to run, so it must never leak into the canonical sections.
    if (wall_ns > 0) {
      report.timing("schedules_per_second",
                    static_cast<double>(stats.schedules) * 1e9 /
                        static_cast<double>(wall_ns));
    }
    sink->report(report);
  }
  if (status != nullptr) {
    // Terminal heartbeat: unconditional (cadence ignored) so monitors see
    // state == "complete" with the final totals even for sub-cadence runs.
    status->pass_ordinal = pass_ordinal;
    status->writer.write(status->snapshot("complete"));
  }
  return result;
}

}  // namespace bss::explore
