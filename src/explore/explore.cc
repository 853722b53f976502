#include "explore/explore.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
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
#include "obs/obs.h"
#include "obs/status.h"
#include "runtime/sim_env.h"
#include "util/checked.h"

namespace bss::explore {

using sim::Action;
using sim::ActionKind;
using sim::decode_action;
using sim::encode_action;
using sim::is_fault_action;
using sim::kMaxActionPid;
using sim::takes_step;

bool ops_commute(const sim::OpDesc& a, const sim::OpDesc& b) {
  if (a.object != b.object) return true;
  // Anything that is not a plain read (write, cas, ll, sc, …) may change the
  // object or its hidden state (LL links), so it conflicts with every other
  // access to the same object.
  return a.op == "read" && b.op == "read";
}

namespace {

/// Sentinel for "no choice"; distinct from every encoded action (grants are
/// >= 0, faults are small negatives).
constexpr int kNoChoice = std::numeric_limits<int>::min();

constexpr std::uint64_t pid_bit(int pid) {
  return std::uint64_t{1} << static_cast<unsigned>(pid);
}

// ------------------------------------------------- visited-state cache keys
//
// The fingerprint-prune cache (ExploreOptions::fingerprint_prune) keys every
// DFS node on a 128-bit hash of the instance fingerprint plus the
// scheduler-visible SimEnv state.  The preemption/fault counters spent on
// the way to a node are deliberately EXCLUDED: a node cleanly covered at one
// budget is covered at every budget (clean == no budget ever cut below), so
// cross-budget cache hits are exactly the point of the iterative sweep.

/// 128-bit state key: two FNV-1a-64 streams over the same bytes, the second
/// perturbed (different offset basis, bytes xor'd) so the pair behaves like
/// independent hashes.  Collision soundness is validated empirically by the
/// mutant sweep (a colliding prune on a mutant would lose its refutation).
struct FpHash {
  std::uint64_t h1 = 14695981039346656037ULL;
  std::uint64_t h2 = 0x6c62272e07bb0142ULL;
  void byte(unsigned char b) {
    h1 = (h1 ^ b) * 1099511628211ULL;
    h2 = (h2 ^ static_cast<unsigned char>(b ^ 0xa5U)) * 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<unsigned char>(v & 0xffU));
      v >>= 8U;
    }
  }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
};

using FpKey = std::pair<std::uint64_t, std::uint64_t>;
/// Frozen for the duration of a pass; read concurrently without locks.
using FpCache = std::set<FpKey>;

/// One node of the DFS tree: the scheduling state after `index` decisions
/// (grants and faults alike).
struct Frame {
  std::vector<int> runnable;           ///< ascending pids runnable here
  std::vector<sim::OpDesc> pending;    ///< by pid; valid for runnable pids
  std::uint64_t restartable = 0;       ///< runnable pids with a restart hook
  std::uint64_t sc_ready = 0;          ///< runnable pids parked on an SC
  std::uint64_t sc_failed_before = 0;  ///< pids already failed spuriously
  std::vector<int> entry_sleep;        ///< sleeping pids on entry (sorted)
  std::vector<int> done;               ///< sibling choices already explored
  int chosen = kNoChoice;              ///< choice taken on the current path
  int prev_grant = -1;                 ///< pid granted most recently before
  int preemptions_before = 0;          ///< preemptions in decisions 0..index-1
  int faults_before = 0;               ///< faults injected in 0..index-1
  // Visited-state cache accumulator (fingerprint_prune only).  `fp_dirty`
  // records whether anything incomplete happened in this node's subtree
  // while the frame was open — a budget or fault cut, a truncation, a
  // violation.  Every disqualifying event marks EVERY open frame, so by the
  // DFS invariant (all execution happens inside every open frame's subtree)
  // a frame's dirty bit is always a statement about its own subtree; unions
  // of the bit across frame copies (steal splits) therefore aggregate
  // commutatively to exactly the serial walk's answer.
  std::uint64_t fp_lo = 0;
  std::uint64_t fp_hi = 0;
  bool fp_valid = false;  ///< key computed (fingerprint non-empty)
  bool fp_dirty = false;  ///< subtree coverage incomplete so far
};

bool contains(const std::vector<int>& values, int value) {
  return std::find(values.begin(), values.end(), value) != values.end();
}

struct PassState {
  std::vector<Frame> frames;
  int budget = -1;        ///< preemption budget; -1 = unbounded
  int fault_budget = 0;   ///< fault budget; 0 = no fault exploration
  bool use_por = true;
  bool explore_crashes = false;
  bool explore_restarts = false;
  bool explore_sc = false;
  /// Visited-state pruning: read `fp_cache` (frozen at pass start, never
  /// written during a pass — lock-free shared reads) at every fresh frame.
  bool fp_prune = false;
  const FpCache* fp_cache = nullptr;
  /// Subtree floor: advance() never backtracks below this many frames.  0
  /// for a pass's root unit; a steal split raises it past the cut, so the
  /// sibling choices above the cut belong to exactly one other unit.
  std::size_t floor = 0;
};

/// Fault-site coordinate: (encoded action, victim's lifetime op count).
using FaultPoint = std::pair<int, std::uint64_t>;

/// Snapshot of a unit's cumulative results taken right after a violation is
/// recorded.  When the deterministic merge decides the serial explorer would
/// have stopped at that violation, it folds the checkpoint instead of the
/// full unit, discarding everything the worker explored speculatively past
/// the stop point.
struct UnitCheckpoint {
  ExploreStats stats;
  AuditSummary audit;
  std::set<FaultPoint> fault_points;
  bool budget_limited = false;
  bool fault_limited = false;
};

/// Results of one unit of the stealing frontier: a contiguous segment of
/// the pass's DFS.  Units are merged in DFS order, which makes the parallel
/// explorer byte-identical to the serial one.
struct UnitResult {
  ExploreStats stats;
  AuditSummary audit;
  std::set<FaultPoint> fault_points;
  std::vector<Counterexample> violations;
  std::vector<UnitCheckpoint> checkpoints;  ///< parallel to `violations`
  /// Visited-state coverage partials (fingerprint_prune only), emitted when
  /// a keyed frame pops and for the still-open below-floor frames when the
  /// unit drains.  Folded per key across all units between passes; dropped
  /// wholesale on stop/cap (the campaign is over — the cache is dead).
  std::vector<FingerprintPartial> fp_partials;
  bool budget_limited = false;  ///< a branch was cut by the preemption budget
  bool fault_limited = false;   ///< a branch was cut by the fault budget
  bool cap_hit = false;         ///< max_schedules fired before some run
  bool stopped = false;         ///< the worker hit its violation quota
  bool skipped = false;         ///< past a confirmed stop; results dropped
};

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

/// Granting away from the most recently granted (still-runnable) process
/// costs one preemption.  Fault actions are not grants: a crash/restart of
/// another process does not preempt the running one.
int choice_cost(const Frame& frame, int grant_pid) {
  if (frame.prev_grant < 0 || grant_pid == frame.prev_grant) return 0;
  return contains(frame.runnable, frame.prev_grant) ? 1 : 0;
}

bool grant_feasible(const Frame& frame, int pid, const PassState& pass) {
  if (contains(frame.done, pid)) return false;
  if (pass.use_por && contains(frame.entry_sleep, pid)) return false;
  if (pass.budget >= 0 &&
      frame.preemptions_before + choice_cost(frame, pid) > pass.budget) {
    return false;
  }
  return true;
}

/// First unexplored, feasible choice at `frame`: grants first (continuing
/// prev_grant is free, then ascending pid order), then — fault budget
/// permitting — spurious-SC, crash and restart injections in pid order.
/// Sleep sets apply to plain grants only: a spurious-failing SC has a
/// different effect than the explored grant, so it never sleeps.
int select_choice(const Frame& frame, const PassState& pass) {
  if (contains(frame.runnable, frame.prev_grant) &&
      grant_feasible(frame, frame.prev_grant, pass)) {
    return frame.prev_grant;
  }
  for (const int pid : frame.runnable) {
    if (pid == frame.prev_grant) continue;
    if (grant_feasible(frame, pid, pass)) return pid;
  }
  if (pass.fault_budget > 0 && frame.faults_before < pass.fault_budget) {
    if (pass.explore_sc) {
      for (const int pid : frame.runnable) {
        if ((frame.sc_ready & pid_bit(pid)) == 0) continue;
        if ((frame.sc_failed_before & pid_bit(pid)) != 0) continue;
        const int choice = encode_action(ActionKind::kScFailure, pid);
        if (contains(frame.done, choice)) continue;
        // A spurious SC still performs the (failing) operation, so the
        // preemption cost of granting `pid` applies.
        if (pass.budget >= 0 &&
            frame.preemptions_before + choice_cost(frame, pid) > pass.budget) {
          continue;
        }
        return choice;
      }
    }
    if (pass.explore_crashes) {
      for (const int pid : frame.runnable) {
        const int choice = encode_action(ActionKind::kCrash, pid);
        if (!contains(frame.done, choice)) return choice;
      }
    }
    if (pass.explore_restarts) {
      for (const int pid : frame.runnable) {
        if ((frame.restartable & pid_bit(pid)) == 0) continue;
        const int choice = encode_action(ActionKind::kRestart, pid);
        if (!contains(frame.done, choice)) return choice;
      }
    }
  }
  return kNoChoice;
}

/// Per-worker allocation arena for the DFS inner loop: frames popped by
/// advance() park here and make_frame reuses them, so the per-step vector
/// and string capacities (runnable/pending/entry_sleep/done, the OpDesc
/// object/op strings inside `pending`) circulate instead of being
/// reallocated on every node.  Every run of the worker reset()s the same
/// SimEnv and fills the same RunReport, so a warm worker's runs allocate
/// only what the system's make() and check() do.  Strictly an allocation
/// cache — nothing in here influences an exploration decision.
struct Scratch {
  std::vector<Frame> spare;             ///< recycled frames, fields cleared
  std::vector<int> runnable;            ///< per-step parked-set buffer
  std::vector<int> actions;             ///< per-run decision-tape buffer
  std::vector<FaultPoint> fault_points; ///< per-run fault-site buffer
  sim::SimEnv env;                      ///< every run's env, reset per run
  sim::RunReport report;                ///< every checked run's report
};

/// Pulls a recycled frame from the arena (or default-constructs one): all
/// fields reset, vector/string capacities preserved.
Frame take_frame(Scratch& scratch) {
  if (scratch.spare.empty()) return Frame{};
  Frame frame = std::move(scratch.spare.back());
  scratch.spare.pop_back();
  frame.runnable.clear();
  frame.restartable = 0;
  frame.sc_ready = 0;
  frame.sc_failed_before = 0;
  frame.entry_sleep.clear();
  frame.done.clear();
  frame.chosen = kNoChoice;
  frame.prev_grant = -1;
  frame.preemptions_before = 0;
  frame.faults_before = 0;
  frame.fp_lo = 0;
  frame.fp_hi = 0;
  frame.fp_valid = false;
  frame.fp_dirty = false;
  return frame;
}

/// Materializes the frontier node reached after `parent` took its chosen
/// action (parent == nullptr at the root).  Consumes `scratch.runnable` (by
/// swap, so its capacity returns to the buffer pool with the frame).
Frame make_frame(const sim::SimEnv& env, Scratch& scratch,
                 const PassState& pass, const Frame* parent) {
  Frame frame = take_frame(scratch);
  frame.runnable.swap(scratch.runnable);
  frame.pending.resize(static_cast<std::size_t>(env.process_count()));
  for (const int pid : frame.runnable) {
    frame.pending[static_cast<std::size_t>(pid)] = env.pending_of(pid);
    if (env.restart_supported(pid)) frame.restartable |= pid_bit(pid);
    if (frame.pending[static_cast<std::size_t>(pid)].op == "sc") {
      frame.sc_ready |= pid_bit(pid);
    }
  }
  if (parent == nullptr) return frame;

  const Action parent_action = decode_action(parent->chosen);
  frame.sc_failed_before = parent->sc_failed_before;
  if (parent_action.kind == ActionKind::kScFailure) {
    frame.sc_failed_before |= pid_bit(parent_action.pid);
  }
  frame.faults_before = parent->faults_before +
                        (parent_action.kind == ActionKind::kGrant ? 0 : 1);
  if (takes_step(parent_action)) {
    frame.prev_grant = parent_action.pid;
    frame.preemptions_before =
        parent->preemptions_before + choice_cost(*parent, parent_action.pid);
    if (pass.use_por) {
      // Sleep-set propagation: everything asleep at the parent (inherited
      // or explored there) stays asleep iff it commutes with the operation
      // the parent's choice just performed.  Only plain grants in the
      // parent's done set count — fault siblings are not operations.
      const auto& parent_op =
          parent->pending[static_cast<std::size_t>(parent_action.pid)];
      const auto inherit = [&](int pid) {
        if (pid == parent_action.pid) return;
        if (ops_commute(parent->pending[static_cast<std::size_t>(pid)],
                        parent_op)) {
          frame.entry_sleep.push_back(pid);
        }
      };
      for (const int pid : parent->entry_sleep) inherit(pid);
      for (const int choice : parent->done) {
        const Action done_action = decode_action(choice);
        if (done_action.kind == ActionKind::kGrant) inherit(done_action.pid);
      }
      std::sort(frame.entry_sleep.begin(), frame.entry_sleep.end());
    }
  } else {
    // Crash/restart: not a shared-memory operation, so the commutation
    // bookkeeping does not extend across it — start this node with an empty
    // sleep set (sound: strictly less pruning).  Continuing the previously
    // granted process after an unrelated fault is still free.
    frame.prev_grant = parent->prev_grant;
    frame.preemptions_before = parent->preemptions_before;
  }
  return frame;
}

/// Accounts the branches the filters cut at a freshly materialized node
/// (all filters are functions of the frame alone, so counting once at
/// creation is exact).  Returns true iff a *budget* filter (preemption or
/// fault) cut anything — the fingerprint cache treats that as incomplete
/// coverage of the node's subtree.  Sleep-set prunes do NOT count: POR
/// pruning is soundness-preserving, so a sleep-pruned subtree is still
/// fully covered by proxy.
bool account_frame(const Frame& frame, const PassState& pass,
                   UnitResult& unit) {
  bool cut_any = false;
  for (const int pid : frame.runnable) {
    if (pass.use_por && contains(frame.entry_sleep, pid)) {
      ++unit.stats.sleep_set_prunes;
      continue;
    }
    if (pass.budget >= 0 &&
        frame.preemptions_before + choice_cost(frame, pid) > pass.budget) {
      ++unit.stats.preemption_prunes;
      unit.budget_limited = true;
      cut_any = true;
    }
  }
  // Note: this must also count at fault_budget == 0 (where every fault
  // choice is cut) — the iterative sweep keys "deepen the fault budget?"
  // off fault_limited.
  const bool faults_enabled =
      pass.explore_crashes || pass.explore_restarts || pass.explore_sc;
  if (faults_enabled && frame.faults_before >= pass.fault_budget) {
    std::uint64_t cut = 0;
    if (pass.explore_crashes) cut += frame.runnable.size();
    for (const int pid : frame.runnable) {
      if (pass.explore_restarts && (frame.restartable & pid_bit(pid)) != 0) {
        ++cut;
      }
      if (pass.explore_sc && (frame.sc_ready & pid_bit(pid)) != 0 &&
          (frame.sc_failed_before & pid_bit(pid)) == 0) {
        ++cut;
      }
    }
    if (cut > 0) {
      unit.stats.fault_prunes += cut;
      unit.fault_limited = true;
      cut_any = true;
    }
  }
  return cut_any;
}

/// Marks every open frame's coverage accumulator dirty.  Called whenever
/// the current run hits something that leaves subtree coverage incomplete —
/// a budget/fault cut, a depth truncation, or a violation — because under
/// DFS all execution happens inside every open frame's subtree, so the
/// event taints all of them.  Frames pushed later (after the event) start
/// clean again: the event is not in *their* subtree.
void mark_path_dirty(PassState& pass) {
  for (Frame& frame : pass.frames) frame.fp_dirty = true;
}

/// Computes the visited-state cache key for a freshly materialized frame:
/// a 128-bit hash over the system's semantic fingerprint plus every piece
/// of scheduler-visible env state that influences future exploration from
/// this node (virtual clock, per-pid step counts, parked/pending ops,
/// restartability, SC arming).  Budget positions (preemptions_before,
/// faults_before, prev_grant) are deliberately EXCLUDED — a state first
/// reached under a tight budget and revisited with slack is the same
/// state, and cross-budget hits are where the cache pays.  The sleep set
/// IS included: two visits with different sleep sets cover different
/// subtrees, so conflating them would under-explore.
///
/// Returns false (frame.fp_valid stays false) when the system opts out via
/// the empty default fingerprint — without semantic state the env-only key
/// would alias distinct states.
bool compute_fp_key(SystemInstance& instance, const sim::SimEnv& env,
                    Frame& frame) {
  const std::string fp = instance.fingerprint(env);
  if (fp.empty()) return false;
  FpHash hash;
  hash.str(fp);
  hash.u64(static_cast<std::uint64_t>(env.virtual_now()));
  const int n = env.process_count();
  hash.u64(static_cast<std::uint64_t>(n));
  for (int pid = 0; pid < n; ++pid) {
    const bool parked = env.is_parked(pid);
    hash.byte(parked ? 1 : 0);
    hash.u64(env.steps_of(pid));
    if (parked) {
      const sim::OpDesc& op = frame.pending[static_cast<std::size_t>(pid)];
      hash.str(op.object);
      hash.str(op.op);
      hash.u64(static_cast<std::uint64_t>(op.arg0));
      hash.u64(static_cast<std::uint64_t>(op.arg1));
    }
  }
  hash.u64(frame.restartable);
  hash.u64(frame.sc_ready);
  hash.u64(frame.sc_failed_before);
  hash.u64(static_cast<std::uint64_t>(frame.entry_sleep.size()));
  for (const int pid : frame.entry_sleep) {
    hash.u64(static_cast<std::uint64_t>(pid));
  }
  frame.fp_lo = hash.h1;
  frame.fp_hi = hash.h2;
  frame.fp_valid = true;
  return true;
}

/// Backtracks to the deepest node above the subtree floor with an
/// unexplored sibling; returns false when the whole space (at this budget
/// pair, within this subtree) is done.  A frame popped here has finished
/// its whole subtree segment within this unit, so its coverage partial
/// {key, dirty} is emitted before the frame recycles into the arena.
bool advance(PassState& pass, UnitResult& unit, Scratch& scratch) {
  auto& frames = pass.frames;
  while (frames.size() > pass.floor) {
    Frame& frame = frames.back();
    frame.done.push_back(frame.chosen);
    frame.chosen = kNoChoice;
    const int next = select_choice(frame, pass);
    if (next != kNoChoice) {
      frame.chosen = next;
      return true;
    }
    if (frame.fp_valid) {
      unit.fp_partials.push_back({frame.fp_lo, frame.fp_hi, frame.fp_dirty});
    }
    scratch.spare.push_back(std::move(frames.back()));
    frames.pop_back();
  }
  return false;
}

/// Emits coverage partials for the frames still open when a unit drains
/// normally (the below-floor prefix frames advance() never pops).  Their
/// dirty bits carry whatever this unit's segment of the subtree saw; the
/// per-key OR across all of a pass's units reassembles total subtree dirt
/// no matter how steal splits divided the work.
void emit_open_frames(const PassState& pass, UnitResult& unit) {
  for (const Frame& frame : pass.frames) {
    if (frame.fp_valid) {
      unit.fp_partials.push_back({frame.fp_lo, frame.fp_hi, frame.fp_dirty});
    }
  }
}

/// audit == false resolves through BSS_AUDIT (force-on only: the variable
/// can switch the audit layer on under an existing binary — how CI audits
/// the whole suite — but never disable an explicit request).
bool resolve_audit(const ExploreOptions& options) {
  if (options.audit) return true;
  static const bool env_audit = [] {
    const char* raw = std::getenv("BSS_AUDIT");
    return raw != nullptr && raw[0] != '\0' &&
           !(raw[0] == '0' && raw[1] == '\0');
  }();
  return env_audit;
}

/// fingerprint_prune == false resolves through BSS_EXPLORE_FP (force-on
/// only, the BSS_AUDIT pattern: the variable can switch pruning on under
/// an existing binary — how CI sweeps the suite with the cache engaged —
/// but never disable an explicit request).
bool resolve_fingerprint_prune(const ExploreOptions& options) {
  if (options.fingerprint_prune) return true;
  // Read per campaign (not latched like BSS_AUDIT): one getenv per
  // explore() call is free next to any pass, and it keeps the lever usable
  // from a single process that toggles it between campaigns.
  const char* raw = std::getenv("BSS_EXPLORE_FP");
  return raw != nullptr && raw[0] != '\0' &&
         !(raw[0] == '0' && raw[1] == '\0');
}

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
/// commits to `unit` as each new frame is materialized: the run that first
/// descends a path accounts its frames.  Execution deltas (transitions,
/// faults, fault points, audit counters) are buffered and committed once,
/// when the run ends.
RunOutcome run_one(const ExplorableSystem& system, const ExploreOptions& opts,
                   PassState& pass, UnitResult& unit, ObsCtx& octx,
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
    unit.stats.transitions += run_transitions;
    unit.stats.timer_grants += run_timer_grants;
    unit.stats.faults_injected += run_faults;
    unit.fault_points.insert(run_fault_points.begin(), run_fault_points.end());
    if (auditor.has_value()) {
      unit.audit.windows += auditor->windows();
      unit.audit.accesses += auditor->accesses();
      unit.audit.ledger_violations += auditor->violation_count();
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
        ++unit.stats.fingerprint_prunes;
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
      const bool cut = account_frame(frame, pass, unit);
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

  ++unit.stats.schedules;
  unit.stats.max_depth_seen = std::max(unit.stats.max_depth_seen, granted);
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
    ++unit.stats.truncated;
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
      unit.audit.note(violation.to_string());
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
    ++unit.audit.schedules_cross_checked;
    unit.audit.pairs_considered += cross.pairs_considered;
    unit.audit.swaps_replayed += cross.swaps_replayed;
    unit.audit.commute_mismatches += cross.mismatches.size();
    for (const auto& mismatch : cross.mismatches) {
      unit.audit.note("commute mismatch: " + mismatch.detail);
    }
    if (octx.shard != nullptr) {
      ++octx.shard->counter("audit.schedules_cross_checked");
      octx.shard->counter("audit.swaps_replayed") += cross.swaps_replayed;
    }
    if (octx.sink != nullptr && octx.sink->events_enabled()) {
      obs::Event event;
      event.kind = "audit.cross_check";
      event.step = unit.audit.schedules_cross_checked;
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

/// Replays `tape` — grants and faults — skipping inapplicable entries and
/// completing round-robin past its end (each counted as a divergence, the
/// ReplayScheduler contract), then re-checks the property.
struct TapeResult {
  bool reproduced = false;
  std::string violation;
  std::vector<int> canonical;
  std::uint64_t divergences = 0;
  bool truncated = false;
  sim::RunReport report;
};

TapeResult run_tape(const ExplorableSystem& system, const ExploreOptions& opts,
                    const std::vector<int>& tape,
                    obs::ObsSink* env_sink = nullptr) {
  const obs::ScopedPhase replay_scope(
      opts.telemetry != nullptr ? opts.telemetry->profiler() : nullptr,
      obs::Phase::kReplay);
  TapeResult result;
  // Replays audit too, so audit-found counterexamples reproduce (and
  // minimize) through the same machinery as property violations.
  std::optional<audit::Auditor> auditor;
  if (opts.audit) auditor.emplace();
  // Fault-action events (sim.crash / sim.restart / sim.sc_failure) are
  // attached only on explicit replays: exploration re-runs the factory
  // thousands of times and would drown the bounded event log.  Checks may
  // read the trace on replay, so it is always recorded.
  sim::SimEnv env;
  SystemRun run(system, env, {opts.max_depth, true},
                auditor.has_value() ? &*auditor : nullptr, env_sink);
  const int n = env.process_count();

  std::size_t next = 0;
  int rr_cursor = 0;
  std::uint64_t granted = 0;
  std::vector<int> parked;
  for (;;) {
    env.parked_processes(parked);
    if (parked.empty()) break;
    if (granted >= opts.max_depth) {
      result.truncated = true;
      break;
    }
    int choice = kNoChoice;
    while (next < tape.size()) {
      const int candidate = tape[next++];
      if (env.can_apply(decode_action(candidate))) {
        choice = candidate;
        break;
      }
      ++result.divergences;
    }
    if (choice == kNoChoice) {
      for (int i = 0; i < n; ++i) {
        const int pid = (rr_cursor + i) % n;
        if (env.is_parked(pid)) {
          choice = pid;
          rr_cursor = pid + 1;
          break;
        }
      }
      ++result.divergences;
    }
    const Action action = decode_action(choice);
    if (takes_step(action)) ++granted;
    env.apply(action);
    result.canonical.push_back(choice);
  }
  env.finish();

  result.report = env.snapshot_report();
  result.report.step_limit_hit = result.truncated;
  if (result.truncated) return result;
  const auto violation = run.instance->check(env, result.report);
  if (violation.has_value()) {
    result.reproduced = true;
    result.violation = *violation;
  } else if (auditor.has_value() && !auditor->clean()) {
    result.reproduced = true;
    result.violation = auditor->summary();
  }
  return result;
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

/// Records a violation plus a checkpoint of the unit's cumulative state, so
/// the merge can cut this unit exactly at any of its violations.
void record_violation(UnitResult& unit, Counterexample cex) {
  unit.violations.push_back(std::move(cex));
  UnitCheckpoint cp;
  cp.stats = unit.stats;
  cp.audit = unit.audit;
  cp.fault_points = unit.fault_points;
  cp.budget_limited = unit.budget_limited;
  cp.fault_limited = unit.fault_limited;
  unit.checkpoints.push_back(std::move(cp));
}

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
/// fold at that unit's checkpoint, discarding everything the worker explored
/// speculatively past the stop point.  Returns true when the merge ends AT
/// this unit (violation cut or schedule cap) — later units must not be
/// folded.  With a non-null `sink` the fold emits the deterministic
/// merge-time events (the real merge); the checkpoint snapshot fold passes
/// nullptr and reproduces the exact same fold silently, on copies.
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
  if (cut.has_value()) {
    const UnitCheckpoint& cp = unit.checkpoints[*cut];
    result.stats.merge_from(cp.stats);
    result.audit.merge_from(cp.audit);
    cover_fault_points(cp.fault_points);
    out.budget_limited |= cp.budget_limited;
    out.fault_limited |= cp.fault_limited;
    for (std::size_t i = 0; i <= *cut; ++i) {
      note_violation(std::move(unit.violations[i]));
    }
    out.stopped = true;
    return true;
  }
  result.stats.merge_from(unit.stats);
  result.audit.merge_from(unit.audit);
  cover_fault_points(unit.fault_points);
  out.budget_limited |= unit.budget_limited;
  out.fault_limited |= unit.fault_limited;
  for (auto& cex : unit.violations) {
    note_violation(std::move(cex));
  }
  if (unit.cap_hit) {
    out.cap_hit = true;
    return true;
  }
  return false;
}

/// Folds a pass's units into `result` in DFS order, reproducing the serial
/// explorer's stop rule exactly via merge_one.
MergeOutcome merge_pass(std::vector<UnitResult>& units,
                        const ExploreOptions& opts, ExploreResult& result,
                        std::set<FaultPoint>& fault_points) {
  MergeOutcome out;
  for (UnitResult& unit : units) {
    expects(!unit.skipped,
            "deterministic merge reached a unit skipped past a stop");
    if (merge_one(unit, opts, result, fault_points, out, opts.telemetry)) {
      break;
    }
  }
  return out;
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
};

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

/// Splits the victim's DFS at its shallowest splittable depth >= floor +
/// steal_depth: the thief takes the *rest of the victim's walk* — the
/// unexplored siblings at depth d plus every backtrack below, down to the
/// victim's old floor — while the victim keeps only its current depth-d
/// subtree (its floor rises to d+1).  Both halves stay contiguous DFS
/// segments with the victim's strictly first, so inserting the thief right
/// after the victim preserves global DFS order; a later, necessarily deeper
/// split inserts between them, which is again the DFS order.
bool try_split(PassState& pass, int steal_depth, StealUnit& thief) {
  const std::size_t base =
      pass.floor + static_cast<std::size_t>(std::max(steal_depth, 0));
  for (std::size_t d = base; d < pass.frames.size(); ++d) {
    Frame probe = pass.frames[d];
    probe.done.push_back(probe.chosen);
    probe.chosen = kNoChoice;
    const int next = select_choice(probe, pass);
    if (next == kNoChoice) continue;
    probe.chosen = next;
    thief.frames.assign(pass.frames.begin(),
                        pass.frames.begin() + static_cast<std::ptrdiff_t>(d));
    thief.frames.push_back(std::move(probe));
    thief.floor = pass.floor;
    thief.stolen = true;
    pass.floor = d + 1;
    return true;
  }
  return false;
}

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
  const UnitResult& r = unit.result;
  out.fp_partials = r.fp_partials;
  out.stats = r.stats;
  out.audit = r.audit;
  out.fault_points.assign(r.fault_points.begin(), r.fault_points.end());
  for (std::size_t i = 0; i < r.violations.size(); ++i) {
    CheckpointViolation v;
    v.cex = r.violations[i];
    const UnitCheckpoint& cp = r.checkpoints[i];
    v.stats = cp.stats;
    v.audit = cp.audit;
    v.fault_points.assign(cp.fault_points.begin(), cp.fault_points.end());
    v.budget_limited = cp.budget_limited;
    v.fault_limited = cp.fault_limited;
    out.violations.push_back(std::move(v));
  }
  out.budget_limited = r.budget_limited;
  out.fault_limited = r.fault_limited;
  out.cap_hit = r.cap_hit;
  out.stopped = r.stopped;
  return out;
}

/// Re-materializes a persisted unit: partial results restore directly; the
/// frame stack replays its decisions on a fresh SimEnv, recomputing the
/// runnable sets, pending operations, bitmasks and sleep sets the artifact
/// deliberately does not store.  The replay doubles as an integrity check —
/// an artifact whose decisions do not apply to the system is rejected here.
StealUnit materialize_steal_unit(const ExplorableSystem& system,
                                 const ExploreOptions& opts,
                                 const PassState& base,
                                 const CheckpointUnit& cu) {
  StealUnit unit;
  UnitResult& r = unit.result;
  r.fp_partials = cu.fp_partials;
  r.stats = cu.stats;
  r.audit = cu.audit;
  r.fault_points.insert(cu.fault_points.begin(), cu.fault_points.end());
  for (const CheckpointViolation& v : cu.violations) {
    r.violations.push_back(v.cex);
    UnitCheckpoint cp;
    cp.stats = v.stats;
    cp.audit = v.audit;
    cp.fault_points.insert(v.fault_points.begin(), v.fault_points.end());
    cp.budget_limited = v.budget_limited;
    cp.fault_limited = v.fault_limited;
    r.checkpoints.push_back(std::move(cp));
  }
  r.budget_limited = cu.budget_limited;
  r.fault_limited = cu.fault_limited;
  r.cap_hit = cu.cap_hit;
  r.stopped = cu.stopped;
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
/// spans passes (and resumes), the pass-position fields are refreshed by
/// explore() before each pass, and `merged`/`covered` point at the result
/// accumulated by the between-pass merges (never mutated while a pass
/// runs, so the writer may read them without coordination).
struct CheckpointCtx {
  std::uint64_t seq = 0;
  std::uint64_t written = 0;   ///< all artifacts this explore() call wrote
  std::uint64_t periodic = 0;  ///< periodic (non-final) artifacts only
  /// Schedule-valve reading at the last periodic write (or campaign start).
  /// Spans passes, so the checkpoint_every cadence counts claimed schedules
  /// across pass boundaries: a checkpoint that comes due in a pass's last
  /// runs is written early in the next pass instead of being dropped.
  std::atomic<std::uint64_t> last_checkpoint_at{0};
  std::uint64_t pass_ordinal = 0;
  std::uint64_t fault_index = 0;
  std::uint64_t preemption_index = 0;
  bool cap_hit = false;
  bool stopped = false;
  bool last_pass_budget_limited = false;
  /// MergeOutcome flags restored from a resumed pass's artifact, pre-seeded
  /// into every snapshot fold of that pass.
  bool restored_budget_limited = false;
  bool restored_fault_limited = false;
  const ExploreResult* merged = nullptr;
  const std::set<FaultPoint>* covered = nullptr;
  /// Visited-state cache state (fingerprint_prune only): the cache frozen
  /// at the start of the current pass, and the coverage partials of units
  /// already folded into `merged` (restored from a resumed artifact, then
  /// extended as checkpoints fold more prefix units).  Both null when
  /// pruning is off.
  const FpCache* fp_cache = nullptr;
  const std::vector<FingerprintPartial>* restored_partials = nullptr;
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
  std::vector<UnitResult> units;  ///< DFS order, every unit complete
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
      const UnitResult& unit = pool.frontier->result;
      bool stops = unit.cap_hit;
      if (!unit.skipped) {
        for (std::size_t i = 0; i < unit.violations.size() && !stops; ++i) {
          ++pool.frontier_violations;
          if (opts.stop_at_first_violation ||
              pool.frontier_violations >= opts.max_violations) {
            stops = true;
          }
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
            it->result.skipped = true;
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
  const auto write_checkpoint = [&](const ObsCtx& octx) {
    const obs::ScopedPhase checkpoint_scope(octx.profiler,
                                            obs::Phase::kCheckpointWrite);
    Checkpoint cp;
    cp.seq = ckpt->seq++;
    cp.system = system.name();
    cp.processes = system.process_count();
    cp.options = CheckpointOptions::key_of(opts);
    cp.pass_ordinal = ckpt->pass_ordinal;
    cp.fault_index = ckpt->fault_index;
    cp.preemption_index = ckpt->preemption_index;
    cp.cap_hit = ckpt->cap_hit;
    cp.stopped = ckpt->stopped;
    cp.last_pass_budget_limited = ckpt->last_pass_budget_limited;
    ExploreResult folded;
    folded.stats = ckpt->merged->stats;
    folded.audit = ckpt->merged->audit;
    folded.violations = ckpt->merged->violations;
    std::set<FaultPoint> covered = *ckpt->covered;
    MergeOutcome fold;
    fold.budget_limited = ckpt->restored_budget_limited;
    fold.fault_limited = ckpt->restored_fault_limited;
    if (ckpt->restored_partials != nullptr) {
      cp.fp_partials = *ckpt->restored_partials;
    }
    bool prefix_stopped = false;
    auto it = pool.units.begin();
    while (it != pool.units.end() &&
           it->status == StealUnit::Status::kComplete &&
           !it->result.skipped) {
      UnitResult copy = it->result;
      const bool ends = merge_one(copy, opts, folded, covered, fold, nullptr);
      cp.fp_partials.insert(cp.fp_partials.end(), it->result.fp_partials.begin(),
                            it->result.fp_partials.end());
      ++it;
      if (ends) {
        prefix_stopped = true;
        break;
      }
    }
    cp.stopped |= fold.stopped;
    cp.cap_hit |= fold.cap_hit;
    cp.pass_budget_limited = fold.budget_limited;
    cp.pass_fault_limited = fold.fault_limited;
    folded.stats.fault_points = covered.size();
    cp.stats = folded.stats;
    cp.audit = folded.audit;
    cp.violations = std::move(folded.violations);
    for (const FaultPoint& point : covered) {
      cp.fault_points.emplace_back(point.first, point.second);
    }
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
    expects(write_checkpoint_file(opts.checkpoint_path, cp.to_artifact()),
            "failed to write checkpoint artifact: " + opts.checkpoint_path);
    ++ckpt->written;
    ++ckpt->periodic;
    if (status != nullptr) status->writer.note_checkpoint();
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
                if (!try_split(pass, steal_depth, thief)) break;
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
                write_checkpoint(octx);
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
          RunOutcome outcome = run_one(system, opts, pass, local, octx, scratch);
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
            record_violation(local, build_counterexample(
                                        system, system_name, opts,
                                        std::move(outcome), local.stats, octx));
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
            self->result.skipped = true;
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
              "schedules", std::to_string(self->result.stats.schedules));
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
        prunes += unit.result.stats.fingerprint_prunes;
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
  for (auto& unit : pool.units) {
    expects(unit.status == StealUnit::Status::kComplete,
            "stealing pass ended with an incomplete unit");
    output.units.push_back(std::move(unit.result));
  }
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

std::size_t Counterexample::fault_count() const {
  return static_cast<std::size_t>(
      std::count_if(decisions.begin(), decisions.end(),
                    [](int decision) { return is_fault_action(decision); }));
}

Counterexample minimize_counterexample(const ExplorableSystem& system,
                                       Counterexample cex,
                                       const ExploreOptions& requested,
                                       ExploreStats* stats) {
  ExploreOptions options = requested;
  options.audit = resolve_audit(requested);
  const obs::ScopedPhase ddmin_scope(
      options.telemetry != nullptr ? options.telemetry->profiler() : nullptr,
      obs::Phase::kDdmin);
  std::uint64_t used = 0;
  const auto count_run = [&] {
    ++used;
    if (stats != nullptr) ++stats->shrink_runs;
  };
  // ddmin progress events: stamped with the re-execution count *within this
  // minimization*, so the per-counterexample shrink trajectory is
  // deterministic even when several minimizations interleave across workers.
  obs::ObsSink* sink = options.telemetry;
  const bool events = sink != nullptr && sink->events_enabled();
  const auto emit_ddmin = [&](const char* kind, std::size_t from,
                              std::size_t to) {
    if (!events) return;
    obs::Event event;
    event.kind = kind;
    event.step = used;
    event.fields.emplace_back("from", std::to_string(from));
    event.fields.emplace_back("to", std::to_string(to));
    sink->emit(std::move(event));
  };
  // The shrink analogue of max_schedules: ddmin replays on a pathological
  // tape must not run unboundedly after the exploration budget is spent.
  const auto budget_left = [&] {
    return options.shrink_budget == 0 || used < options.shrink_budget;
  };
  // Canonicalize up front and keep `best` canonical throughout: always the
  // *complete* decision sequence of a violating run, so the replayer
  // re-executes the result verbatim — zero divergences, no silent fallback.
  count_run();
  TapeResult current = run_tape(system, options, cex.decisions);
  expects(current.reproduced,
          "counterexample does not reproduce before minimization "
          "(nondeterministic system factory?)");
  std::vector<int> best = std::move(current.canonical);
  std::string violation = std::move(current.violation);
  cex.shrunk_from = std::max(cex.decisions.size(), best.size());
  emit_ddmin("ddmin.start", cex.shrunk_from, best.size());

  // Greedy ddmin-style chunk deletion: drop spans of halving size wherever
  // the violation still reproduces.  The fallback completes a truncated
  // candidate along a possibly *longer* schedule (LL/SC retry loops make
  // step counts schedule-dependent), so a deletion is accepted only when
  // its canonical tape is a strict length win.  Fault entries are ordinary
  // tape entries here: spans containing them are dropped like any other,
  // so a violation that needs fewer faults shrinks to fewer faults.
  bool budget_hit = false;
  std::vector<int> candidate;  // hoisted: reused across every ddmin replay
  for (std::size_t chunk = std::max<std::size_t>(best.size() / 2, 1);;
       chunk /= 2) {
    std::size_t start = 0;
    while (start < best.size()) {
      if (!budget_left()) {
        budget_hit = true;
        break;
      }
      const std::size_t len = std::min(chunk, best.size() - start);
      candidate.clear();
      candidate.reserve(best.size() - len);
      candidate.insert(candidate.end(), best.begin(),
                       best.begin() + static_cast<std::ptrdiff_t>(start));
      candidate.insert(candidate.end(),
                       best.begin() + static_cast<std::ptrdiff_t>(start + len),
                       best.end());
      count_run();
      TapeResult attempt = run_tape(system, options, candidate);
      if (attempt.reproduced && attempt.canonical.size() < best.size()) {
        emit_ddmin("ddmin.accept", best.size(), attempt.canonical.size());
        best = std::move(attempt.canonical);
        violation = std::move(attempt.violation);
        // retry the same start position against the new, shorter tape
      } else {
        start += chunk;
      }
    }
    if (budget_hit || chunk == 1) break;
  }
  if (budget_hit && stats != nullptr) ++stats->shrink_budget_hits;
  emit_ddmin(budget_hit ? "ddmin.budget_hit" : "ddmin.done", cex.shrunk_from,
             best.size());

  cex.decisions = std::move(best);
  cex.violation = std::move(violation);
  return cex;
}

ReplayOutcome replay_counterexample(const ExplorableSystem& system,
                                    const Counterexample& cex,
                                    const ExploreOptions& requested) {
  ExploreOptions options = requested;
  options.audit = resolve_audit(requested);
  TapeResult result = run_tape(system, options, cex.decisions,
                               options.telemetry);
  ReplayOutcome outcome;
  outcome.violated = result.reproduced;
  outcome.violation = std::move(result.violation);
  outcome.divergences = result.divergences;
  outcome.truncated = result.truncated;
  outcome.report = std::move(result.report);
  return outcome;
}

ExploreResult explore(const ExplorableSystem& system,
                      const ExploreOptions& requested) {
  ExploreOptions options = requested;
  options.audit = resolve_audit(requested);
  // Resolved here (not at use sites) so CheckpointOptions::key_of sees the
  // effective value — a resume under a different BSS_EXPLORE_FP is caught.
  options.fingerprint_prune = resolve_fingerprint_prune(requested);
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
  // `restored_fp_partials` carries the partials of units already folded
  // into a resumed campaign's merged prefix — they join the resumed pass's
  // own partials at its between-pass fold, so a killed-and-resumed campaign
  // admits exactly the keys an uninterrupted one would.
  FpCache fp_cache;
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
    skip_passes = resume->complete || resume->stopped || resume->cap_hit;
    expects(skip_passes ||
                (resume->fault_index < fault_budgets.size() &&
                 resume->preemption_index < preemption_budgets.size()),
            "resume: checkpoint pass position is out of range");
    result.stats = resume->stats;
    result.audit = resume->audit;
    result.audit.enabled = options.audit;
    result.violations = resume->violations;
    for (const auto& point : resume->fault_points) {
      fault_points.emplace(point.first, point.second);
    }
    cap_hit = resume->cap_hit;
    stopped = resume->stopped;
    last_pass_budget_limited = resume->last_pass_budget_limited;
    for (const auto& key : resume->fp_cache) fp_cache.insert(key);
    restored_fp_partials = resume->fp_partials;
    // The in-progress pass resumes under its own ordinal; a pass that
    // already concluded (stop/cap confirmed in the folded prefix) counts as
    // finished.  A complete artifact stores the final total verbatim.
    pass_ordinal =
        resume->pass_ordinal + ((skip_passes && !resume->complete) ? 1 : 0);
    start_fault = static_cast<std::size_t>(resume->fault_index);
    start_preempt = static_cast<std::size_t>(resume->preemption_index);
    // The valve restores to schedules-merged + schedules-in-frontier: work
    // past the published snapshots re-runs and re-counts on resume, exactly
    // once each, so the valve stays consistent with the re-exploration.
    std::uint64_t consumed = result.stats.schedules;
    for (const CheckpointUnit& cu : resume->frontier) {
      consumed += cu.stats.schedules;
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
        ckpt->pass_ordinal = this_pass;
        ckpt->fault_index = fi;
        ckpt->preemption_index = pi;
        ckpt->cap_hit = cap_hit;
        ckpt->stopped = stopped;
        ckpt->last_pass_budget_limited = last_pass_budget_limited;
        ckpt->restored_budget_limited =
            resumed_pass && resume->pass_budget_limited;
        ckpt->restored_fault_limited =
            resumed_pass && resume->pass_fault_limited;
        ckpt->restored_partials =
            resumed_pass ? &restored_fp_partials : nullptr;
      }
      if (status != nullptr) status->pass_ordinal = this_pass;
      StealPassOutput out = run_steal_pass(
          system, options, cfg, budget_valve,
          resumed_pass ? &resume->frontier : nullptr, ckpt, status);
      if (out.halted) {
        halted = true;
        break;
      }
      std::vector<UnitResult>& units = out.units;
      const std::uint64_t merge_begin = spans ? sink->now_ns() : 0;
      MergeOutcome merged;
      {
        const obs::ScopedPhase merge_scope(profiler, obs::Phase::kMerge);
        merged = merge_pass(units, options, result, fault_points);
      }
      if (resumed_pass) {
        // The folded prefix of the resumed pass contributed these flags
        // before the kill; the frontier units cannot re-derive them.
        merged.budget_limited |= resume->pass_budget_limited;
        merged.fault_limited |= resume->pass_fault_limited;
      }
      if (spans) {
        obs::Span span;
        span.name = "merge";
        span.track = obs::Timeline::kCoordinatorTrack;
        span.begin_ns = merge_begin;
        span.end_ns = sink->now_ns();
        span.args.emplace_back("units", std::to_string(units.size()));
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
        if (resumed_pass) {
          for (const FingerprintPartial& p : restored_fp_partials) {
            auto [it, inserted] = aggregated.try_emplace({p.lo, p.hi}, false);
            it->second |= p.dirty;
          }
        }
        for (const UnitResult& u : units) {
          for (const FingerprintPartial& p : u.fp_partials) {
            auto [it, inserted] = aggregated.try_emplace({p.lo, p.hi}, false);
            it->second |= p.dirty;
          }
        }
        for (const auto& [key, dirty] : aggregated) {
          if (!dirty) fp_cache.insert(key);
        }
      }
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
    cp.seq = ckpt->seq++;
    cp.system = system.name();
    cp.processes = system.process_count();
    cp.options = CheckpointOptions::key_of(options);
    cp.complete = true;
    cp.exhausted = result.exhausted;
    cp.pass_ordinal = pass_ordinal;
    cp.cap_hit = cap_hit;
    cp.stopped = stopped;
    cp.last_pass_budget_limited = last_pass_budget_limited;
    cp.stats = result.stats;
    cp.audit = result.audit;
    cp.violations = result.violations;
    for (const FaultPoint& point : fault_points) {
      cp.fault_points.emplace_back(point.first, point.second);
    }
    expects(write_checkpoint_file(options.checkpoint_path, cp.to_artifact()),
            "failed to write checkpoint artifact: " + options.checkpoint_path);
    ++ckpt->written;
    result.checkpoints_written = ckpt->written;
    if (status != nullptr) status->writer.note_checkpoint();
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

// ---------------------------------------------------------------- reporting

void ExploreStats::merge_from(const ExploreStats& other) {
  schedules += other.schedules;
  transitions += other.transitions;
  timer_grants += other.timer_grants;
  sleep_set_prunes += other.sleep_set_prunes;
  preemption_prunes += other.preemption_prunes;
  truncated += other.truncated;
  max_depth_seen = std::max(max_depth_seen, other.max_depth_seen);
  shrink_runs += other.shrink_runs;
  shrink_budget_hits += other.shrink_budget_hits;
  fault_prunes += other.fault_prunes;
  faults_injected += other.faults_injected;
  fingerprint_prunes += other.fingerprint_prunes;
  // fault_points intentionally untouched: distinct sites dedup through a
  // set and are written once at the end of explore().
}

std::string ExploreStats::summary() const {
  std::ostringstream out;
  out << "schedules=" << schedules << " transitions=" << transitions;
  if (timer_grants > 0) out << " timer-grants=" << timer_grants;
  out << " sleep-prunes=" << sleep_set_prunes
      << " preemption-prunes=" << preemption_prunes;
  if (fingerprint_prunes > 0) out << " fp-prunes=" << fingerprint_prunes;
  out << " truncated=" << truncated << " max-depth=" << max_depth_seen
      << " shrink-runs=" << shrink_runs;
  if (shrink_budget_hits > 0) {
    out << " shrink-budget-hits=" << shrink_budget_hits;
  }
  if (faults_injected > 0 || fault_prunes > 0) {
    out << " faults=" << faults_injected << " fault-points=" << fault_points
        << " fault-prunes=" << fault_prunes;
  }
  return out.str();
}

void AuditSummary::note(std::string finding) {
  if (findings.size() < kMaxFindings) findings.push_back(std::move(finding));
}

void AuditSummary::merge_from(const AuditSummary& other) {
  enabled |= other.enabled;
  windows += other.windows;
  accesses += other.accesses;
  ledger_violations += other.ledger_violations;
  schedules_cross_checked += other.schedules_cross_checked;
  pairs_considered += other.pairs_considered;
  swaps_replayed += other.swaps_replayed;
  commute_mismatches += other.commute_mismatches;
  for (const auto& finding : other.findings) note(finding);
}

std::string AuditSummary::summary() const {
  if (!enabled) return "audit: off";
  std::ostringstream out;
  out << "audit: windows=" << windows << " accesses=" << accesses
      << " ledger-violations=" << ledger_violations
      << " cross-checked=" << schedules_cross_checked
      << " pairs=" << pairs_considered << " swaps=" << swaps_replayed
      << " commute-mismatches=" << commute_mismatches;
  if (!findings.empty()) out << "\n  first: " << findings.front();
  return out.str();
}

std::string ExploreResult::summary() const {
  std::ostringstream out;
  out << stats.summary() << (exhausted ? " [exhaustive]" : " [bounded]");
  if (violations.empty()) {
    out << " no violations";
  } else {
    for (const auto& cex : violations) {
      out << "\n  VIOLATION (" << cex.decisions.size() << " decisions, "
          << cex.fault_count() << " faults, from " << cex.shrunk_from
          << "): " << cex.violation;
    }
  }
  return out.str();
}

// ----------------------------------------------------------------- artifact

std::string action_token(int decision) {
  const Action action = decode_action(decision);
  switch (action.kind) {
    case ActionKind::kGrant:
      return std::to_string(action.pid);
    case ActionKind::kCrash:
      return "c" + std::to_string(action.pid);
    case ActionKind::kRestart:
      return "r" + std::to_string(action.pid);
    case ActionKind::kScFailure:
      return "s" + std::to_string(action.pid);
  }
  return std::to_string(decision);
}

std::optional<int> parse_action_token(const std::string& token) {
  if (token.empty()) return std::nullopt;
  ActionKind kind = ActionKind::kGrant;
  std::size_t offset = 0;
  switch (token.front()) {
    case 'c':
      kind = ActionKind::kCrash;
      offset = 1;
      break;
    case 'r':
      kind = ActionKind::kRestart;
      offset = 1;
      break;
    case 's':
      kind = ActionKind::kScFailure;
      offset = 1;
      break;
    default:
      break;
  }
  int pid = 0;
  try {
    std::size_t used = 0;
    pid = std::stoi(token.substr(offset), &used);
    if (used != token.size() - offset) return std::nullopt;
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (pid < 0 || pid > kMaxActionPid) return std::nullopt;
  return encode_action(kind, pid);
}

namespace {

// Strict base-10 parse for artifact header counts: every byte must be a
// digit (no sign, no whitespace, no trailing junk) and the result must not
// exceed `limit`.  The std::stoi/std::stoull these replace threw straight
// through from_artifact on junk like "processes: x" and silently wrapped
// "shrunk-from: -1" to 2^64-1; a corrupt artifact must parse to nullopt,
// never to a crash or a bogus huge count.  (Found by fuzz_counterexample.)
std::optional<std::uint64_t> parse_artifact_count(const std::string& value,
                                                  std::uint64_t limit) {
  if (value.empty() || value.size() > 20) return std::nullopt;
  std::uint64_t out = 0;
  for (const char ch : value) {
    if (ch < '0' || ch > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(ch - '0');
    if (digit > limit || out > (limit - digit) / 10) return std::nullopt;
    out = out * 10 + digit;
  }
  return out;
}

}  // namespace

std::string Counterexample::to_artifact() const {
  std::ostringstream out;
  std::string flat = violation;
  std::replace(flat.begin(), flat.end(), '\n', ' ');
  // v1 (grants only) stays bit-for-bit the historical format; fault tapes
  // need the v2 token syntax.
  out << (fault_count() == 0 ? "bss-counterexample v1\n"
                             : "bss-counterexample v2\n");
  out << "system: " << system << "\n";
  out << "processes: " << processes << "\n";
  out << "shrunk-from: " << shrunk_from << "\n";
  out << "violation: " << flat << "\n";
  out << "decisions:";
  for (const int decision : decisions) out << ' ' << action_token(decision);
  out << "\n";
  return out.str();
}

std::optional<Counterexample> Counterexample::from_artifact(
    const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) ||
      (line != "bss-counterexample v1" && line != "bss-counterexample v2")) {
    return std::nullopt;
  }
  Counterexample cex;
  bool saw_decisions = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) return std::nullopt;
    const std::string key = line.substr(0, colon);
    std::string value = line.substr(colon + 1);
    if (!value.empty() && value.front() == ' ') value.erase(0, 1);
    if (key == "system") {
      cex.system = value;
    } else if (key == "processes") {
      const auto count = parse_artifact_count(
          value, static_cast<std::uint64_t>(kMaxActionPid) + 1);
      if (!count.has_value()) return std::nullopt;
      cex.processes = static_cast<int>(*count);
    } else if (key == "shrunk-from") {
      const auto count = parse_artifact_count(
          value, std::numeric_limits<std::size_t>::max());
      if (!count.has_value()) return std::nullopt;
      cex.shrunk_from = static_cast<std::size_t>(*count);
    } else if (key == "violation") {
      cex.violation = value;
    } else if (key == "decisions") {
      std::istringstream tokens(value);
      std::string token;
      while (tokens >> token) {
        const std::optional<int> decision = parse_action_token(token);
        if (!decision.has_value()) return std::nullopt;
        cex.decisions.push_back(*decision);
      }
      saw_decisions = true;
    } else {
      return std::nullopt;
    }
  }
  if (!saw_decisions) return std::nullopt;
  return cex;
}

}  // namespace bss::explore
