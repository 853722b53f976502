// `bss-checkpoint v1` — durable exploration state for the work-stealing
// engine (explore.h: checkpoint_path / resume_path).
//
// The artifact is one canonical-JSON document pairing a *snapshot* (the
// merged DFS-prefix result: stats, audit, violations, fault-point coverage,
// pass position) with a *log* of outstanding work (the frontier: every unit
// not yet folded into the prefix, serialized as its replayable frame stack —
// the `chosen` decision plus explored-sibling `done` set per frame, in
// `bss-counterexample v2` token syntax — next to its UnitResult).  A unit's
// results are one type from the worker that accumulates them, through the
// DFS-order merge, into the artifact: a unit and each of its violations
// store the same Tally under the same keys, so nothing is converted on the
// way.  Runnable sets, pending operations and sleep sets are deliberately
// NOT stored: the system factory is deterministic, so resume
// re-materializes each frame by replaying its decisions on a fresh SimEnv
// and recomputing the derived state — which doubles as an integrity check
// (an artifact that does not replay is rejected).
//
// Consistency model: workers publish unit snapshots at claim, split and
// checkpoint boundaries, so a checkpoint captures a frontier the serial
// explorer could have reached.  Work done after the last published snapshot
// is simply re-explored on resume — sound because unit exploration is a pure
// function of the frames.  A resumed campaign therefore ends byte-identical
// to an uninterrupted run.
//
// Version policy is the `bss-counterexample` / `bss-runreport` one: parsers
// hard-reject a missing or unknown schema string, unknown keys, wrong-typed
// values, out-of-range pid tokens, and frontiers that fail structural
// validation.  tools/report_check gates both runreports and checkpoints by
// sniffing the schema string.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "explore/explore.h"

namespace bss::explore {

inline constexpr std::string_view kCheckpointSchema = "bss-checkpoint v1";

/// The result-affecting option fingerprint stored in the artifact.  Resume
/// rejects a mismatch: exploring half a campaign under one sleep-set rule or
/// fault budget and half under another would not be byte-identical to
/// anything.  Scheduling knobs (jobs, steal_depth, checkpoint cadence) are
/// excluded — they never change results.
struct CheckpointOptions {
  std::uint64_t max_depth = 0;
  int preemption_bound = 0;
  bool iterative = false;
  bool use_por = false;
  std::uint64_t max_schedules = 0;
  bool stop_at_first_violation = false;
  std::uint64_t max_violations = 0;
  bool minimize = false;
  std::uint64_t shrink_budget = 0;
  bool record_trace = false;
  int fault_bound = 0;
  bool explore_crashes = false;
  bool explore_restarts = false;
  bool explore_sc_failures = false;
  bool audit = false;
  std::uint32_t audit_commute_sample = 0;
  /// Result-affecting: pruned passes cover the same space but count
  /// different stats, so half-pruned campaigns are not byte-identical to
  /// anything.  Serialized only when true (old artifacts parse as false).
  bool fingerprint_prune = false;

  /// Extracts the fingerprint (options.audit must already be resolved —
  /// explore() resolves BSS_AUDIT before checkpointing, so a resume under a
  /// different environment is caught).
  static CheckpointOptions key_of(const ExploreOptions& options);
  bool operator==(const CheckpointOptions&) const = default;
};

/// One visited-state coverage partial (fingerprint_prune campaigns only):
/// a 128-bit state-key hash plus whether the emitting unit saw anything
/// incomplete (budget/fault cut, truncation, violation) in that node's
/// subtree segment.  Partials aggregate per key with OR-of-dirty across all
/// units of a pass — commutative and idempotent, so frame copies made by
/// steal splits and shard prefixes need no reconciliation — and keys that
/// aggregate clean enter the frozen cache for the NEXT pass.
struct FingerprintPartial {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bool dirty = false;
};

/// One DFS frame of a persisted unit: the decision taken on the current
/// path and the sibling decisions already explored at this node.
/// `fp_dirty` (fingerprint_prune campaigns only) carries the frame's
/// coverage accumulator across a kill — the key itself is recomputed by the
/// resume replay.
struct CheckpointFrame {
  int chosen = 0;
  std::vector<int> done;
  bool fp_dirty = false;
};

/// Fault-site coordinate: (encoded action, victim's lifetime op count).
using FaultPoint = std::pair<int, std::uint64_t>;

/// What a unit of the stealing frontier has accumulated so far: its
/// counters, audit results, distinct fault sites, and whether a preemption
/// or fault budget cut any of its branches.
struct Tally {
  ExploreStats stats;
  AuditSummary audit;
  std::set<FaultPoint> fault_points;
  bool budget_limited = false;  ///< a branch was cut by the preemption budget
  bool fault_limited = false;   ///< a branch was cut by the fault budget
};

/// A violation a unit recorded, with the unit's tally right after it.  The
/// deterministic merge cuts a unit exactly at the violation where the
/// serial explorer would have stopped, folding `at` instead of the unit's
/// final tally and discarding everything explored speculatively past it.
struct UnitViolation {
  Counterexample cex;
  Tally at;
};

/// The results of one unit of the stealing frontier — a contiguous segment
/// of a pass's DFS.  The engine accumulates it, the DFS-order merge folds
/// it, and the checkpoint stores it verbatim.
struct UnitResult {
  Tally tally;
  std::vector<UnitViolation> violations;
  /// Visited-state coverage partials (fingerprint_prune only), emitted when
  /// a keyed frame pops and for the still-open below-floor frames when the
  /// unit drains.  Folded per key across all units between passes; dropped
  /// wholesale on stop/cap (the campaign is over — the cache is dead).
  std::vector<FingerprintPartial> fp_partials;
  bool cap_hit = false;  ///< max_schedules fired before some run
  bool stopped = false;  ///< the worker hit its violation quota
};

/// One outstanding unit: its replayable frame stack (empty when `complete`),
/// backtrack floor, and the results accumulated so far.
struct CheckpointUnit {
  std::vector<CheckpointFrame> frames;
  std::uint64_t floor = 0;
  bool complete = false;  ///< fully explored, waiting on the merge
  UnitResult result;
};

/// Where a campaign stands: the in-progress pass's ordinal and indices into
/// the iterative budget sweeps, plus the flags explore()'s pass loop
/// carries across passes.
struct CheckpointProgress {
  std::uint64_t pass_ordinal = 0;
  std::uint64_t fault_index = 0;
  std::uint64_t preemption_index = 0;
  bool cap_hit = false;
  bool stopped = false;
  bool last_pass_budget_limited = false;
  /// MergeOutcome of the folded prefix of the in-progress pass; OR-ed into
  /// the resumed pass's merge result.
  bool pass_budget_limited = false;
  bool pass_fault_limited = false;
};

struct Checkpoint {
  std::uint64_t seq = 0;  ///< monotone across a campaign, resumes included
  std::string system;     ///< ExplorableSystem::name() of the target
  int processes = 0;
  CheckpointOptions options;
  bool complete = false;   ///< exploration finished; `frontier` is empty
  bool exhausted = false;  ///< final coverage flag (meaningful iff complete)
  CheckpointProgress progress;
  // The merged DFS-prefix result.
  ExploreStats stats;
  AuditSummary audit;
  std::vector<Counterexample> violations;
  std::set<FaultPoint> fault_points;
  std::vector<CheckpointUnit> frontier;  ///< DFS order
  // Visited-state cache state (fingerprint_prune campaigns only, so
  // prune-off artifacts keep their historical shape): the cache frozen at
  // the start of the in-progress pass, plus the partials already folded
  // into the merged prefix.  Together with the per-unit/per-frame partials
  // above they make a resumed campaign's between-pass cache fold — and so
  // its pruning decisions — byte-identical to an uninterrupted run's.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fp_cache;
  std::vector<FingerprintPartial> fp_partials;

  /// Canonical JSON with a trailing newline; dump(parse(text)) is a fixed
  /// point, so round-trip tests assert byte equality.
  std::string to_artifact() const;
  /// Strict parse + structural validation; nullopt (with a one-line reason
  /// in `error`) on schema/version/type/range violations.
  static std::optional<Checkpoint> from_artifact(const std::string& text,
                                                 std::string* error = nullptr);
};

/// Full validation for the CI gate (tools/report_check): every error is
/// human-readable; empty result == valid.
std::vector<std::string> validate_checkpoint(std::string_view text);

/// Atomically replaces `path` with `text`: write to `path`.tmp, fsync-free
/// close, rename over the target — a reader (or a resume after SIGKILL)
/// sees either the previous checkpoint or the new one, never a torn file.
bool write_checkpoint_file(const std::string& path, std::string_view text);

}  // namespace bss::explore
