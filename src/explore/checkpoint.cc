#include "explore/checkpoint.h"

#include <cstdio>
#include <utility>

#include "obs/json.h"
#include "obs/runreport.h"
#include "util/checked.h"

namespace bss::explore {

namespace json = bss::obs::json;

namespace {

using sim::Action;
using sim::decode_action;
using sim::is_fault_action;

// ------------------------------------------------------------- serialization

/// 128-bit cache keys serialize as 32 lowercase hex chars (lo then hi) —
/// fixed width keeps the artifact canonical and the parser strict.
std::string fp_key_to_hex(std::uint64_t lo, std::uint64_t hi) {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(hi));
  return std::string(buf);
}

json::Value fp_partials_to_json(
    const std::vector<FingerprintPartial>& partials) {
  json::Array array;
  for (const FingerprintPartial& partial : partials) {
    json::Array pair;
    pair.emplace_back(fp_key_to_hex(partial.lo, partial.hi));
    pair.emplace_back(partial.dirty);
    array.emplace_back(std::move(pair));
  }
  return json::Value(std::move(array));
}

json::Value stats_to_json(const ExploreStats& stats) {
  json::Object object;
  object.emplace("schedules", json::Value(stats.schedules));
  object.emplace("transitions", json::Value(stats.transitions));
  object.emplace("timer_grants", json::Value(stats.timer_grants));
  object.emplace("sleep_set_prunes", json::Value(stats.sleep_set_prunes));
  object.emplace("preemption_prunes", json::Value(stats.preemption_prunes));
  object.emplace("truncated", json::Value(stats.truncated));
  object.emplace("max_depth_seen", json::Value(stats.max_depth_seen));
  object.emplace("shrink_runs", json::Value(stats.shrink_runs));
  object.emplace("shrink_budget_hits", json::Value(stats.shrink_budget_hits));
  object.emplace("fault_prunes", json::Value(stats.fault_prunes));
  object.emplace("faults_injected", json::Value(stats.faults_injected));
  // Omitted when zero so prune-off artifacts keep their historical byte
  // shape; parses back as zero either way.
  if (stats.fingerprint_prunes > 0) {
    object.emplace("fingerprint_prunes",
                   json::Value(stats.fingerprint_prunes));
  }
  object.emplace("fault_points", json::Value(stats.fault_points));
  return json::Value(std::move(object));
}

json::Value audit_to_json(const AuditSummary& audit) {
  json::Object object;
  object.emplace("enabled", json::Value(audit.enabled));
  object.emplace("windows", json::Value(audit.windows));
  object.emplace("accesses", json::Value(audit.accesses));
  object.emplace("ledger_violations", json::Value(audit.ledger_violations));
  object.emplace("schedules_cross_checked",
                 json::Value(audit.schedules_cross_checked));
  object.emplace("pairs_considered", json::Value(audit.pairs_considered));
  object.emplace("swaps_replayed", json::Value(audit.swaps_replayed));
  object.emplace("commute_mismatches", json::Value(audit.commute_mismatches));
  json::Array findings;
  for (const std::string& finding : audit.findings) {
    findings.emplace_back(finding);
  }
  object.emplace("findings", json::Value(std::move(findings)));
  return json::Value(std::move(object));
}

json::Value fault_points_to_json(const std::set<FaultPoint>& points) {
  json::Array array;
  for (const auto& [action, steps] : points) {
    json::Array pair;
    pair.emplace_back(action_token(action));
    pair.emplace_back(steps);
    array.emplace_back(std::move(pair));
  }
  return json::Value(std::move(array));
}

/// The keys of a Tally, spelled the same in a unit object and in each of
/// its violation objects.
void tally_to_json(const Tally& tally, json::Object& object) {
  object.emplace("stats", stats_to_json(tally.stats));
  object.emplace("audit", audit_to_json(tally.audit));
  object.emplace("fault_points", fault_points_to_json(tally.fault_points));
  object.emplace("budget_limited", json::Value(tally.budget_limited));
  object.emplace("fault_limited", json::Value(tally.fault_limited));
}

json::Value options_to_json(const CheckpointOptions& options) {
  json::Object object;
  object.emplace("max_depth", json::Value(options.max_depth));
  object.emplace("preemption_bound", json::Value(options.preemption_bound));
  object.emplace("iterative", json::Value(options.iterative));
  object.emplace("use_por", json::Value(options.use_por));
  object.emplace("max_schedules", json::Value(options.max_schedules));
  object.emplace("stop_at_first_violation",
                 json::Value(options.stop_at_first_violation));
  object.emplace("max_violations", json::Value(options.max_violations));
  object.emplace("minimize", json::Value(options.minimize));
  object.emplace("shrink_budget", json::Value(options.shrink_budget));
  object.emplace("record_trace", json::Value(options.record_trace));
  object.emplace("fault_bound", json::Value(options.fault_bound));
  object.emplace("explore_crashes", json::Value(options.explore_crashes));
  object.emplace("explore_restarts", json::Value(options.explore_restarts));
  object.emplace("explore_sc_failures",
                 json::Value(options.explore_sc_failures));
  object.emplace("audit", json::Value(options.audit));
  object.emplace("audit_commute_sample",
                 json::Value(static_cast<std::uint64_t>(
                     options.audit_commute_sample)));
  // Serialized only when set, so prune-off artifacts keep their historical
  // byte shape (and old artifacts parse as fingerprint_prune == false).
  if (options.fingerprint_prune) {
    object.emplace("fingerprint_prune", json::Value(true));
  }
  return json::Value(std::move(object));
}

json::Value unit_to_json(const CheckpointUnit& unit) {
  json::Object object;
  json::Array frames;
  for (const CheckpointFrame& frame : unit.frames) {
    json::Object frame_object;
    frame_object.emplace("chosen", json::Value(action_token(frame.chosen)));
    json::Array done;
    for (const int decision : frame.done) {
      done.emplace_back(action_token(decision));
    }
    frame_object.emplace("done", json::Value(std::move(done)));
    // Omitted when clean (and always on prune-off campaigns, where it
    // never sets) — historical frame shape preserved.
    if (frame.fp_dirty) frame_object.emplace("fp_dirty", json::Value(true));
    frames.emplace_back(std::move(frame_object));
  }
  object.emplace("frames", json::Value(std::move(frames)));
  object.emplace("floor", json::Value(unit.floor));
  object.emplace("complete", json::Value(unit.complete));
  const UnitResult& result = unit.result;
  tally_to_json(result.tally, object);
  json::Array violations;
  for (const UnitViolation& violation : result.violations) {
    json::Object violation_object;
    violation_object.emplace("artifact",
                             json::Value(violation.cex.to_artifact()));
    tally_to_json(violation.at, violation_object);
    violations.emplace_back(std::move(violation_object));
  }
  object.emplace("violations", json::Value(std::move(violations)));
  object.emplace("cap_hit", json::Value(result.cap_hit));
  object.emplace("stopped", json::Value(result.stopped));
  if (!result.fp_partials.empty()) {
    object.emplace("fp_partials", fp_partials_to_json(result.fp_partials));
  }
  return json::Value(std::move(object));
}

// ------------------------------------------------------------------- parsing
//
// Strict shape enforcement mirrors the runreport gate: every key a parser
// reads is required unless it checks has() first (how fingerprint-prune
// fields extend the schema without invalidating pre-existing artifacts),
// unknown keys reject (schema drift must bump the version), and
// type/range violations throw InvariantError with the offending location —
// from_artifact catches and surfaces them as one-line errors.

/// Reads one JSON object, naming each key once, where it is read; done()
/// then rejects every key no read asked for.
class Reader {
 public:
  Reader(const json::Object& object, const char* where)
      : object_(object), where_(where) {}

  const char* where() const { return where_; }
  bool has(const char* key) const { return object_.count(key) != 0; }

  const json::Value& at(const char* key) {
    const auto it = object_.find(key);
    expects(it != object_.end(),
            std::string(where_) + ": missing required key '" + key + "'");
    read_.insert(it->first);
    return it->second;
  }
  /// A nested object, read under the same `where`.
  Reader object(const char* key) {
    const json::Value& value = at(key);
    expects(value.is_object(), fail(key, "an object"));
    return Reader(value.as_object(), where_);
  }
  const json::Array& array(const char* key) {
    const json::Value& value = at(key);
    expects(value.is_array(), fail(key, "an array"));
    return value.as_array();
  }
  std::uint64_t u64(const char* key) {
    const json::Value& value = at(key);
    expects(value.is_int() && value.as_int() >= 0,
            fail(key, "a non-negative integer"));
    return static_cast<std::uint64_t>(value.as_int());
  }
  int integer(const char* key) {
    const json::Value& value = at(key);
    expects(value.is_int(), fail(key, "an integer"));
    return checked_cast<int>(value.as_int());
  }
  bool boolean(const char* key) {
    const json::Value& value = at(key);
    expects(value.is_bool(), fail(key, "a boolean"));
    return value.as_bool();
  }
  const std::string& string(const char* key) {
    const json::Value& value = at(key);
    expects(value.is_string(), fail(key, "a string"));
    return value.as_string();
  }

  void done() const {
    for (const auto& [key, value] : object_) {
      expects(read_.count(key) != 0,
              std::string(where_) + ": unknown key '" + key + "'");
    }
  }

 private:
  std::string fail(const char* key, const char* what) const {
    return std::string(where_) + ": '" + key + "' must be " + what;
  }

  const json::Object& object_;
  const char* where_;
  std::set<std::string_view> read_;
};

/// Parses a 32-hex-char cache key back into its (lo, hi) halves; anything
/// but exactly 32 lowercase hex digits rejects.
std::pair<std::uint64_t, std::uint64_t> parse_fp_key(const std::string& text,
                                                     const char* where) {
  expects(text.size() == 32,
          std::string(where) + ": cache key must be 32 hex chars");
  std::uint64_t halves[2] = {0, 0};
  for (std::size_t i = 0; i < 32; ++i) {
    const char c = text[i];
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      expects(false, std::string(where) +
                         ": cache key must be lowercase hex");
    }
    halves[i / 16] = (halves[i / 16] << 4) | digit;
  }
  return {halves[0], halves[1]};
}

std::vector<FingerprintPartial> parse_fp_partials(Reader& in) {
  const char* where = in.where();
  std::vector<FingerprintPartial> partials;
  if (!in.has("fp_partials")) return partials;  // pre-prune artifacts
  for (const json::Value& entry : in.array("fp_partials")) {
    expects(entry.is_array() && entry.as_array().size() == 2,
            std::string(where) +
                ": fp partial must be a [key, dirty] pair");
    const json::Value& key_value = entry.as_array()[0];
    expects(key_value.is_string(),
            std::string(where) + ": fp partial key must be a string");
    const auto [lo, hi] = parse_fp_key(key_value.as_string(), where);
    const json::Value& dirty = entry.as_array()[1];
    expects(dirty.is_bool(),
            std::string(where) + ": fp partial dirty must be a boolean");
    FingerprintPartial partial;
    partial.lo = lo;
    partial.hi = hi;
    partial.dirty = dirty.as_bool();
    partials.push_back(partial);
  }
  return partials;
}

/// Decision tokens go through the shared parser plus the process-count
/// range check — an out-of-range pid in a checkpoint must reject exactly
/// like one in a counterexample artifact.
int parse_decision(const json::Value& value, int processes,
                   const char* where) {
  expects(value.is_string(),
          std::string(where) + ": decision token must be a string");
  const std::optional<int> decision = parse_action_token(value.as_string());
  expects(decision.has_value(),
          std::string(where) + ": malformed decision token '" +
              value.as_string() + "'");
  const Action action = decode_action(*decision);
  expects(action.pid < processes,
          std::string(where) + ": decision token pid " +
              std::to_string(action.pid) + " out of range for " +
              std::to_string(processes) + " processes");
  return *decision;
}

ExploreStats parse_stats(Reader in) {
  ExploreStats stats;
  stats.schedules = in.u64("schedules");
  stats.transitions = in.u64("transitions");
  stats.timer_grants = in.u64("timer_grants");
  stats.sleep_set_prunes = in.u64("sleep_set_prunes");
  stats.preemption_prunes = in.u64("preemption_prunes");
  stats.truncated = in.u64("truncated");
  stats.max_depth_seen = in.u64("max_depth_seen");
  stats.shrink_runs = in.u64("shrink_runs");
  stats.shrink_budget_hits = in.u64("shrink_budget_hits");
  stats.fault_prunes = in.u64("fault_prunes");
  stats.faults_injected = in.u64("faults_injected");
  if (in.has("fingerprint_prunes")) {
    stats.fingerprint_prunes = in.u64("fingerprint_prunes");
  }
  stats.fault_points = in.u64("fault_points");
  in.done();
  return stats;
}

AuditSummary parse_audit(Reader in) {
  AuditSummary audit;
  audit.enabled = in.boolean("enabled");
  audit.windows = in.u64("windows");
  audit.accesses = in.u64("accesses");
  audit.ledger_violations = in.u64("ledger_violations");
  audit.schedules_cross_checked = in.u64("schedules_cross_checked");
  audit.pairs_considered = in.u64("pairs_considered");
  audit.swaps_replayed = in.u64("swaps_replayed");
  audit.commute_mismatches = in.u64("commute_mismatches");
  for (const json::Value& finding : in.array("findings")) {
    expects(finding.is_string(),
            std::string(in.where()) + ": audit findings must be strings");
    audit.note(finding.as_string());
  }
  in.done();
  return audit;
}

std::set<FaultPoint> parse_fault_points(Reader& in, int processes) {
  const char* where = in.where();
  std::set<FaultPoint> points;
  for (const json::Value& entry : in.array("fault_points")) {
    expects(entry.is_array() && entry.as_array().size() == 2,
            std::string(where) +
                ": fault point must be a [token, steps] pair");
    const int action = parse_decision(entry.as_array()[0], processes, where);
    expects(is_fault_action(action),
            std::string(where) + ": fault point carries a non-fault token");
    const json::Value& steps = entry.as_array()[1];
    expects(steps.is_int() && steps.as_int() >= 0,
            std::string(where) + ": fault point steps must be non-negative");
    points.emplace(action, static_cast<std::uint64_t>(steps.as_int()));
  }
  return points;
}

/// Reads the keys tally_to_json writes.
Tally parse_tally(Reader& in, int processes) {
  Tally tally;
  tally.stats = parse_stats(in.object("stats"));
  tally.audit = parse_audit(in.object("audit"));
  tally.fault_points = parse_fault_points(in, processes);
  tally.budget_limited = in.boolean("budget_limited");
  tally.fault_limited = in.boolean("fault_limited");
  return tally;
}

CheckpointOptions parse_options(Reader in) {
  CheckpointOptions options;
  options.max_depth = in.u64("max_depth");
  options.preemption_bound = in.integer("preemption_bound");
  options.iterative = in.boolean("iterative");
  options.use_por = in.boolean("use_por");
  options.max_schedules = in.u64("max_schedules");
  options.stop_at_first_violation = in.boolean("stop_at_first_violation");
  options.max_violations = in.u64("max_violations");
  options.minimize = in.boolean("minimize");
  options.shrink_budget = in.u64("shrink_budget");
  options.record_trace = in.boolean("record_trace");
  options.fault_bound = in.integer("fault_bound");
  options.explore_crashes = in.boolean("explore_crashes");
  options.explore_restarts = in.boolean("explore_restarts");
  options.explore_sc_failures = in.boolean("explore_sc_failures");
  options.audit = in.boolean("audit");
  options.audit_commute_sample =
      checked_cast<std::uint32_t>(in.u64("audit_commute_sample"));
  options.fingerprint_prune =
      in.has("fingerprint_prune") && in.boolean("fingerprint_prune");
  in.done();
  return options;
}

Counterexample parse_embedded_counterexample(const json::Value& value,
                                             const std::string& system,
                                             int processes,
                                             const char* where) {
  expects(value.is_string(),
          std::string(where) + ": counterexample artifact must be a string");
  const std::optional<Counterexample> cex =
      Counterexample::from_artifact(value.as_string());
  expects(cex.has_value(),
          std::string(where) + ": embedded counterexample does not parse");
  expects(cex->system == system && cex->processes == processes,
          std::string(where) +
              ": embedded counterexample targets a different system");
  for (const int decision : cex->decisions) {
    expects(decode_action(decision).pid < processes,
            std::string(where) +
                ": embedded counterexample pid out of range");
  }
  return *cex;
}

CheckpointUnit parse_unit(const json::Value& value, const std::string& system,
                          int processes) {
  expects(value.is_object(), "frontier entries must be objects");
  Reader in(value.as_object(), "frontier unit");
  CheckpointUnit unit;
  for (const json::Value& frame_value : in.array("frames")) {
    expects(frame_value.is_object(), "frontier frames must be objects");
    Reader frame_in(frame_value.as_object(), "frontier frame");
    CheckpointFrame frame;
    frame.chosen = parse_decision(frame_in.at("chosen"), processes,
                                  "frontier frame chosen");
    for (const json::Value& done : frame_in.array("done")) {
      frame.done.push_back(
          parse_decision(done, processes, "frontier frame done"));
    }
    frame.fp_dirty = frame_in.has("fp_dirty") && frame_in.boolean("fp_dirty");
    frame_in.done();
    unit.frames.push_back(std::move(frame));
  }
  unit.floor = in.u64("floor");
  unit.complete = in.boolean("complete");
  expects(unit.floor <= unit.frames.size(),
          "frontier unit floor exceeds its frame stack");
  expects(!unit.complete || unit.frames.empty(),
          "complete frontier unit still carries frames");
  UnitResult& result = unit.result;
  result.tally = parse_tally(in, processes);
  for (const json::Value& violation_value : in.array("violations")) {
    expects(violation_value.is_object(),
            "frontier unit violations must be objects");
    Reader violation_in(violation_value.as_object(), "frontier violation");
    Counterexample cex = parse_embedded_counterexample(
        violation_in.at("artifact"), system, processes, "frontier violation");
    result.violations.push_back(
        {std::move(cex), parse_tally(violation_in, processes)});
    violation_in.done();
  }
  result.cap_hit = in.boolean("cap_hit");
  result.stopped = in.boolean("stopped");
  result.fp_partials = parse_fp_partials(in);
  in.done();
  return unit;
}

}  // namespace

CheckpointOptions CheckpointOptions::key_of(const ExploreOptions& options) {
  CheckpointOptions key;
  key.max_depth = options.max_depth;
  key.preemption_bound = options.preemption_bound;
  key.iterative = options.iterative;
  key.use_por = options.use_por;
  key.max_schedules = options.max_schedules;
  key.stop_at_first_violation = options.stop_at_first_violation;
  key.max_violations = static_cast<std::uint64_t>(options.max_violations);
  key.minimize = options.minimize;
  key.shrink_budget = options.shrink_budget;
  key.record_trace = options.record_trace;
  key.fault_bound = options.fault_bound;
  key.explore_crashes = options.explore_crashes;
  key.explore_restarts = options.explore_restarts;
  key.explore_sc_failures = options.explore_sc_failures;
  key.audit = options.audit;
  key.audit_commute_sample = options.audit_commute_sample;
  key.fingerprint_prune = options.fingerprint_prune;
  return key;
}

std::string Checkpoint::to_artifact() const {
  json::Object root;
  root.emplace("schema", json::Value(std::string(kCheckpointSchema)));
  root.emplace("seq", json::Value(seq));
  root.emplace("system", json::Value(system));
  root.emplace("processes", json::Value(processes));
  root.emplace("options", options_to_json(options));
  root.emplace("complete", json::Value(complete));
  root.emplace("exhausted", json::Value(exhausted));
  json::Object at;
  at.emplace("pass_ordinal", json::Value(progress.pass_ordinal));
  at.emplace("fault_index", json::Value(progress.fault_index));
  at.emplace("preemption_index", json::Value(progress.preemption_index));
  at.emplace("cap_hit", json::Value(progress.cap_hit));
  at.emplace("stopped", json::Value(progress.stopped));
  at.emplace("last_pass_budget_limited",
             json::Value(progress.last_pass_budget_limited));
  at.emplace("pass_budget_limited", json::Value(progress.pass_budget_limited));
  at.emplace("pass_fault_limited", json::Value(progress.pass_fault_limited));
  root.emplace("progress", json::Value(std::move(at)));
  root.emplace("stats", stats_to_json(stats));
  root.emplace("audit", audit_to_json(audit));
  json::Array violation_artifacts;
  for (const Counterexample& cex : violations) {
    violation_artifacts.emplace_back(cex.to_artifact());
  }
  root.emplace("violations", json::Value(std::move(violation_artifacts)));
  root.emplace("fault_points", fault_points_to_json(fault_points));
  json::Array frontier_array;
  for (const CheckpointUnit& unit : frontier) {
    frontier_array.emplace_back(unit_to_json(unit));
  }
  root.emplace("frontier", json::Value(std::move(frontier_array)));
  if (!fp_cache.empty()) {
    json::Array cache;
    for (const auto& [lo, hi] : fp_cache) {
      cache.emplace_back(fp_key_to_hex(lo, hi));
    }
    root.emplace("fp_cache", json::Value(std::move(cache)));
  }
  if (!fp_partials.empty()) {
    root.emplace("fp_partials", fp_partials_to_json(fp_partials));
  }
  return json::Value(std::move(root)).dump(2) + "\n";
}

std::optional<Checkpoint> Checkpoint::from_artifact(const std::string& text,
                                                    std::string* error) {
  const auto fail = [&](std::string message) -> std::optional<Checkpoint> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };
  std::string parse_error;
  const std::optional<json::Value> root = json::Value::parse(text,
                                                             &parse_error);
  if (!root.has_value()) return fail("parse error: " + parse_error);
  if (!root->is_object()) return fail("checkpoint must be a JSON object");
  try {
    Reader in(root->as_object(), "checkpoint");
    expects(in.has("schema") && in.at("schema").is_string(),
            "missing schema key");
    expects(in.at("schema").as_string() == kCheckpointSchema,
            "unknown schema version '" + in.at("schema").as_string() + "'");
    Checkpoint checkpoint;
    checkpoint.seq = in.u64("seq");
    checkpoint.system = in.string("system");
    checkpoint.processes = in.integer("processes");
    expects(checkpoint.processes >= 1 && checkpoint.processes <= 64,
            "checkpoint process count outside [1, 64]");
    checkpoint.options = parse_options(in.object("options"));
    checkpoint.complete = in.boolean("complete");
    checkpoint.exhausted = in.boolean("exhausted");
    Reader at = in.object("progress");
    CheckpointProgress& progress = checkpoint.progress;
    progress.pass_ordinal = at.u64("pass_ordinal");
    progress.fault_index = at.u64("fault_index");
    progress.preemption_index = at.u64("preemption_index");
    progress.cap_hit = at.boolean("cap_hit");
    progress.stopped = at.boolean("stopped");
    progress.last_pass_budget_limited =
        at.boolean("last_pass_budget_limited");
    progress.pass_budget_limited = at.boolean("pass_budget_limited");
    progress.pass_fault_limited = at.boolean("pass_fault_limited");
    at.done();
    checkpoint.stats = parse_stats(in.object("stats"));
    checkpoint.audit = parse_audit(in.object("audit"));
    for (const json::Value& value : in.array("violations")) {
      checkpoint.violations.push_back(parse_embedded_counterexample(
          value, checkpoint.system, checkpoint.processes,
          "checkpoint violation"));
    }
    checkpoint.fault_points = parse_fault_points(in, checkpoint.processes);
    for (const json::Value& value : in.array("frontier")) {
      checkpoint.frontier.push_back(
          parse_unit(value, checkpoint.system, checkpoint.processes));
    }
    if (in.has("fp_cache")) {
      for (const json::Value& value : in.array("fp_cache")) {
        expects(value.is_string(),
                "checkpoint: fp_cache entries must be strings");
        checkpoint.fp_cache.push_back(
            parse_fp_key(value.as_string(), "checkpoint fp_cache"));
      }
    }
    checkpoint.fp_partials = parse_fp_partials(in);
    in.done();
    expects(!checkpoint.complete || checkpoint.frontier.empty(),
            "complete checkpoint still carries a frontier");
    return checkpoint;
  } catch (const std::exception& failure) {
    return fail(failure.what());
  }
}

std::vector<std::string> validate_checkpoint(std::string_view text) {
  std::string error;
  if (!Checkpoint::from_artifact(std::string(text), &error).has_value()) {
    return {error};
  }
  return {};
}

bool write_checkpoint_file(const std::string& path, std::string_view text) {
  const std::string tmp = path + ".tmp";
  if (!obs::write_file(tmp, text)) return false;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace bss::explore
