#include "explore/explore.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "runtime/action.h"

namespace bss::explore {

using sim::Action;
using sim::ActionKind;
using sim::decode_action;
using sim::encode_action;
using sim::is_fault_action;
using sim::kMaxActionPid;

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

std::size_t Counterexample::fault_count() const {
  return static_cast<std::size_t>(
      std::count_if(decisions.begin(), decisions.end(),
                    [](int decision) { return is_fault_action(decision); }));
}

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
