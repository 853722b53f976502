// The DFS frontier of one exploration pass: frames, sleep sets, choice
// selection, visited-state cache keys and steal splits.  Internal to
// src/explore — explore.cc's step loop (run_one) and steal pass drive it,
// and nothing here touches obs, status or checkpoint plumbing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "explore/checkpoint.h"
#include "runtime/sim_env.h"

namespace bss::explore {

/// Sentinel for "no choice"; distinct from every encoded action (grants are
/// >= 0, faults are small negatives).
constexpr int kNoChoice = std::numeric_limits<int>::min();

// ------------------------------------------------- visited-state cache keys
//
// The fingerprint-prune cache (ExploreOptions::fingerprint_prune) keys every
// DFS node on a 128-bit hash of the instance fingerprint plus the
// scheduler-visible SimEnv state.  The preemption/fault counters spent on
// the way to a node are deliberately EXCLUDED: a node cleanly covered at one
// budget is covered at every budget (clean == no budget ever cut below), so
// cross-budget cache hits are exactly the point of the iterative sweep.

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

/// First unexplored, feasible choice at `frame`: grants first (continuing
/// prev_grant is free, then ascending pid order), then — fault budget
/// permitting — spurious-SC, crash and restart injections in pid order.
/// Sleep sets apply to plain grants only: a spurious-failing SC has a
/// different effect than the explored grant, so it never sleeps.
int select_choice(const Frame& frame, const PassState& pass);

/// Materializes the frontier node reached after `parent` took its chosen
/// action (parent == nullptr at the root).  Consumes `scratch.runnable` (by
/// swap, so its capacity returns to the buffer pool with the frame).
Frame make_frame(const sim::SimEnv& env, Scratch& scratch,
                 const PassState& pass, const Frame* parent);

/// Accounts the branches the filters cut at a freshly materialized node
/// (all filters are functions of the frame alone, so counting once at
/// creation is exact).  Returns true iff a *budget* filter (preemption or
/// fault) cut anything — the fingerprint cache treats that as incomplete
/// coverage of the node's subtree.  Sleep-set prunes do NOT count: POR
/// pruning is soundness-preserving, so a sleep-pruned subtree is still
/// fully covered by proxy.
bool account_frame(const Frame& frame, const PassState& pass, Tally& tally);

/// Marks every open frame's coverage accumulator dirty.  Called whenever
/// the current run hits something that leaves subtree coverage incomplete —
/// a budget/fault cut, a depth truncation, or a violation — because under
/// DFS all execution happens inside every open frame's subtree, so the
/// event taints all of them.  Frames pushed later (after the event) start
/// clean again: the event is not in *their* subtree.
void mark_path_dirty(PassState& pass);

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
                    Frame& frame);

/// Backtracks to the deepest node above the subtree floor with an
/// unexplored sibling; returns false when the whole space (at this budget
/// pair, within this subtree) is done.  A frame popped here has finished
/// its whole subtree segment within this unit, so its coverage partial
/// {key, dirty} is emitted before the frame recycles into the arena.
bool advance(PassState& pass, UnitResult& unit, Scratch& scratch);

/// Emits coverage partials for the frames still open when a unit drains
/// normally (the below-floor prefix frames advance() never pops).  Their
/// dirty bits carry whatever this unit's segment of the subtree saw; the
/// per-key OR across all of a pass's units reassembles total subtree dirt
/// no matter how steal splits divided the work.
void emit_open_frames(const PassState& pass, UnitResult& unit);

/// Splits the victim's DFS at its shallowest splittable depth >= floor +
/// steal_depth: the thief takes the *rest of the victim's walk* — the
/// unexplored siblings at depth d plus every backtrack below, down to the
/// victim's old floor — while the victim keeps only its current depth-d
/// subtree (its floor rises to d+1).  Both halves stay contiguous DFS
/// segments with the victim's strictly first, so inserting the thief right
/// after the victim preserves global DFS order; a later, necessarily deeper
/// split inserts between them, which is again the DFS order.  On success
/// the thief's frame stack and floor are written to `thief_frames` and
/// `thief_floor`.
bool try_split(PassState& pass, int steal_depth,
               std::vector<Frame>& thief_frames, std::size_t& thief_floor);

}  // namespace bss::explore
