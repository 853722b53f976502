// The decision tape: the adversary's choices as data.
//
// In the paper's model a run is nothing but the adversary's choices — who
// takes the next step, and who crashes.  One tape entry is one such choice:
// either a plain grant (the pid, >= 0) or an encoded fault action (< 0).
// SimEnv::apply is the one place a choice takes effect; the explorer's DFS,
// its tape replayer and checkpoint-frontier replay, the commutation
// cross-check and SimEnv::run()'s scheduler-and-FaultPlan loop all drive a
// SimEnv through it.  The encoding is dense so ddmin shrinking and the
// counterexample artifact (whose token spelling lives in explore/explore.h)
// treat faults as ordinary tape entries.
#pragma once

#include <limits>

#include "util/checked.h"

namespace bss::sim {

enum class ActionKind : int {
  kGrant = 0,      ///< grant the pid one shared-memory step
  kCrash = 1,      ///< fail-stop the pid (terminal)
  kRestart = 2,    ///< crash-restart the pid (needs a restart hook)
  kScFailure = 3,  ///< grant the pid's pending SC, forcing spurious failure
};

struct Action {
  ActionKind kind = ActionKind::kGrant;
  int pid = 0;
};

/// Largest pid the dense encoding carries without overflowing int: the
/// fault encoding maps (kind, pid) to -(pid*3 + kind-1) - 1, so pid*3 + 2
/// must stay representable.  Far above the explorer's own 64-process cap;
/// the guard exists so silent wrap-around can never corrupt a tape.
constexpr int kMaxActionPid = (std::numeric_limits<int>::max() - 3) / 3;

/// Encodes an action onto the decision tape.  Throws InvariantError for
/// pids outside [0, kMaxActionPid] (compile error when evaluated constexpr)
/// instead of silently wrapping into some other action's encoding.
constexpr int encode_action(ActionKind kind, int pid) {
  if (pid < 0 || pid > kMaxActionPid) {
    throw InvariantError("encode_action: pid outside the dense encoding's range");
  }
  return kind == ActionKind::kGrant
             ? pid
             : -(pid * 3 + (static_cast<int>(kind) - 1)) - 1;
}

constexpr Action decode_action(int decision) {
  if (decision >= 0) return Action{ActionKind::kGrant, decision};
  const int index = -decision - 1;
  return Action{static_cast<ActionKind>(index % 3 + 1), index / 3};
}

constexpr bool is_fault_action(int decision) { return decision < 0; }

/// True iff `action` performs its pid's pending operation — one step, one
/// trace event: kGrant and kScFailure.  Crashes and restarts abandon it.
constexpr bool takes_step(Action action) {
  return action.kind == ActionKind::kGrant ||
         action.kind == ActionKind::kScFailure;
}

}  // namespace bss::sim
