#include "audit/commute_check.h"

#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "runtime/sim_env.h"

namespace bss::audit {

namespace {

using sim::Action;
using sim::decode_action;

/// Everything one strict replay produces, for byte-level comparison.
struct ReplayResult {
  bool applied = false;    ///< every tape entry was applicable, in order
  bool quiesced = false;   ///< all processes done when the tape ran out
  bool truncated = false;
  std::vector<sim::TraceEvent> events;  ///< granted ops, in order
  sim::RunReport report;
  std::optional<std::string> verdict;
  std::string fingerprint;
};

/// Replays `tape` verbatim — no divergence-skipping: an inapplicable entry
/// fails the replay (for the baseline that means a stale tape; for a
/// swapped tape it means the pair did not commute).
ReplayResult strict_replay(const explore::ExplorableSystem& system,
                           const std::vector<int>& tape,
                           std::uint64_t max_depth) {
  ReplayResult result;
  sim::SimEnv env;
  explore::SystemRun run(system, env, {max_depth, true});

  std::uint64_t granted = 0;
  bool applied = true;
  for (const int decision : tape) {
    if (granted >= max_depth) {
      result.truncated = true;
      break;
    }
    const Action action = decode_action(decision);
    if (!env.can_apply(action)) {
      applied = false;
      break;
    }
    if (sim::takes_step(action)) ++granted;
    env.apply(action);
  }
  bool quiesced = true;
  for (int pid = 0; pid < env.process_count(); ++pid) {
    if (!env.is_finished(pid)) quiesced = false;
  }
  env.finish();

  result.applied = applied;
  result.quiesced = quiesced;
  result.events = env.trace().events();
  result.report = env.snapshot_report();
  result.report.step_limit_hit = result.truncated;
  if (applied && quiesced && !result.truncated) {
    result.verdict = run.instance->check(env, result.report);
    result.fingerprint = run.instance->fingerprint(env);
  }
  return result;
}

bool events_equal(const sim::TraceEvent& a, const sim::TraceEvent& b) {
  // step is positional (dense in both runs) and carries no information the
  // index does not; everything else must match exactly.
  return a.pid == b.pid && a.desc.object == b.desc.object &&
         a.desc.op == b.desc.op && a.desc.arg0 == b.desc.arg0 &&
         a.desc.arg1 == b.desc.arg1 && a.has_result == b.has_result &&
         a.result == b.result;
}

bool reports_equal(const sim::RunReport& a, const sim::RunReport& b) {
  return a.total_steps == b.total_steps &&
         a.step_limit_hit == b.step_limit_hit && a.outcomes == b.outcomes &&
         a.errors == b.errors && a.steps_by_pid == b.steps_by_pid &&
         a.restarts_by_pid == b.restarts_by_pid;
}

/// First difference between the swapped replay and the baseline with the
/// pair at event positions (gi, gi+1) exchanged; empty when identical.
std::string diff_replays(const ReplayResult& baseline,
                         const ReplayResult& swapped, std::size_t gi) {
  if (!swapped.applied) {
    return "swapped tape became inapplicable mid-replay";
  }
  if (!swapped.quiesced) {
    return "swapped run did not quiesce on the same tape";
  }
  if (swapped.truncated) return "swapped run hit the step limit";
  if (swapped.events.size() != baseline.events.size()) {
    std::ostringstream out;
    out << "trace length changed: " << baseline.events.size() << " -> "
        << swapped.events.size();
    return out.str();
  }
  for (std::size_t i = 0; i < baseline.events.size(); ++i) {
    // Under true commutation the swapped run is the baseline with the two
    // granted events exchanged and nothing else disturbed.
    const std::size_t expect_from = i == gi ? gi + 1 : (i == gi + 1 ? gi : i);
    if (!events_equal(swapped.events[i], baseline.events[expect_from])) {
      std::ostringstream out;
      const auto& got = swapped.events[i];
      const auto& want = baseline.events[expect_from];
      out << "trace diverged at event " << i << ": expected p" << want.pid
          << " " << want.desc.object << "." << want.desc.op;
      if (want.has_result) out << "=" << want.result;
      out << ", got p" << got.pid << " " << got.desc.object << "."
          << got.desc.op;
      if (got.has_result) out << "=" << got.result;
      return out.str();
    }
  }
  if (!reports_equal(swapped.report, baseline.report)) {
    return "run reports differ: [" + baseline.report.summary() + "] vs [" +
           swapped.report.summary() + "]";
  }
  if (swapped.verdict != baseline.verdict) {
    return "property verdicts differ: [" +
           baseline.verdict.value_or("(clean)") + "] vs [" +
           swapped.verdict.value_or("(clean)") + "]";
  }
  if (swapped.fingerprint != baseline.fingerprint) {
    return "state fingerprints differ: [" + baseline.fingerprint + "] vs [" +
           swapped.fingerprint + "]";
  }
  return {};
}

bool grant_like(int decision) {
  return sim::takes_step(decode_action(decision));
}

}  // namespace

std::string CommuteCheckReport::summary() const {
  std::ostringstream out;
  out << "commute-check: pairs=" << pairs_considered
      << " swaps=" << swaps_replayed << " mismatches=" << mismatches.size();
  if (!baseline_ok) out << " (baseline did not replay)";
  if (!mismatches.empty()) {
    out << "; first: " << mismatches.front().detail;
  }
  return out.str();
}

CommuteCheckReport cross_check_commutation(
    const explore::ExplorableSystem& system, const std::vector<int>& tape,
    const CommuteOracle& commutes, const CommuteCheckOptions& options) {
  CommuteCheckReport report;
  const ReplayResult baseline = strict_replay(system, tape, options.max_depth);
  if (!baseline.applied || !baseline.quiesced || baseline.truncated) {
    return report;  // foreign/stale tape: nothing sound to compare against
  }
  report.baseline_ok = true;

  // Granted-event index for every tape position (grants and spurious SCs
  // produce trace events; crash/restart decisions do not).
  std::vector<std::size_t> event_index(tape.size(), 0);
  std::size_t next_event = 0;
  for (std::size_t i = 0; i < tape.size(); ++i) {
    event_index[i] = next_event;
    if (grant_like(tape[i])) ++next_event;
  }

  for (std::size_t i = 0; i + 1 < tape.size(); ++i) {
    if (!grant_like(tape[i]) || !grant_like(tape[i + 1])) continue;
    const Action a = decode_action(tape[i]);
    const Action b = decode_action(tape[i + 1]);
    if (a.pid == b.pid) continue;  // program order, never reorderable
    const std::size_t gi = event_index[i];
    const sim::OpDesc& op_a = baseline.events[gi].desc;
    const sim::OpDesc& op_b = baseline.events[gi + 1].desc;
    if (!commutes(op_a, op_b)) continue;  // oracle claims a conflict: fine
    ++report.pairs_considered;
    if (options.max_swaps > 0 && report.swaps_replayed >= options.max_swaps) {
      continue;  // keep counting pairs; stop paying for replays
    }

    std::vector<int> swapped_tape = tape;
    std::swap(swapped_tape[i], swapped_tape[i + 1]);
    ++report.swaps_replayed;
    const ReplayResult swapped =
        strict_replay(system, swapped_tape, options.max_depth);
    const std::string diff = diff_replays(baseline, swapped, gi);
    if (diff.empty()) continue;

    CommuteMismatch mismatch;
    mismatch.tape_index = i;
    mismatch.first_pid = a.pid;
    mismatch.second_pid = b.pid;
    mismatch.first = op_a;
    mismatch.second = op_b;
    std::ostringstream detail;
    detail << "ops_commute called p" << a.pid << " " << op_a.object << "."
           << op_a.op << " and p" << b.pid << " " << op_b.object << "."
           << op_b.op << " independent at decisions " << i << "/" << (i + 1)
           << ", but swapping them changed the run: " << diff;
    mismatch.detail = detail.str();
    report.mismatches.push_back(std::move(mismatch));
    if (report.mismatches.size() >= options.max_mismatches) break;
  }
  return report;
}

}  // namespace bss::audit
