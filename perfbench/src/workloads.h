// The benchmark's three workloads and their verdict gate.
//
// A workload is a list of cases; each case is one explore() call on one
// system and ends in one verdict: an exhaustive certificate, or (for a
// refutation case) a counterexample shrunk with minimize_counterexample and
// replayed with replay_counterexample.  The explorer is deterministic, so
// every case pins the exact counts its verdict must reproduce; any
// difference is a failed verdict, never a slow one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "explore/explore.h"
#include "explore/system.h"
#include "layer_trace.h"

namespace perfbench {

/// What a verdict must reproduce exactly.
struct Expected {
  std::uint64_t schedules = 0;
  std::uint64_t transitions = 0;
  std::uint64_t violations = 0;
  bool exhausted = false;
};

struct Case {
  std::string label;
  std::unique_ptr<bss::explore::ExplorableSystem> system;
  bss::explore::ExploreOptions options;
  Expected expected;
  /// The verdict is a minimized counterexample that must replay with zero
  /// divergences (otherwise it is an exhaustive certificate).
  bool refutation = false;
  /// The SimEnv walker may drive the system along random schedules.  A
  /// mutant that is memory-unsafe on schedules past its first violation
  /// (which the explorer, stopping there, never runs) is not walkable.
  bool walkable = true;
};

struct Workload {
  std::string name;
  std::vector<Case> cases;
};

/// Builds `name` at full size, or at the small smoke size.  `scratch_dir`
/// receives the checkpoint of the workloads that write one.  Throws
/// std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, bool smoke,
                       const std::string& scratch_dir);

struct Verdict {
  std::string label;
  bss::explore::ExploreResult result;
  std::uint64_t replay_divergences = 0;
  bool replays_violate = true;  ///< every counterexample reproduced
  std::vector<std::string> mismatches;  ///< empty iff the verdict passed
};

/// Runs one case through the public API: explore(), then, for a
/// refutation, minimize_counterexample and replay_counterexample on each
/// counterexample.  `system` is the case's system or a decorator of it;
/// `spans` (may be null) receives explore/minimize/replay spans and
/// `telemetry` (may be null) is attached to the explore() call.
Verdict run_case(const Case& c, const bss::explore::ExplorableSystem& system,
                 SpanLog* spans, bss::obs::ObsSink* telemetry);

/// Compares a verdict against its case's pinned expectation.
/// `perturb` shifts the expected schedule count by one, so every verdict
/// fails — the self-test's proof that the gate fires.
void gate(const Case& c, bool perturb, Verdict& verdict);

/// FNV-1a over every verdict's ExploreResult::summary() and counterexample
/// artifacts: equal digests mean byte-identical results and tapes.
std::string digest(const std::vector<Verdict>& verdicts);

}  // namespace perfbench
