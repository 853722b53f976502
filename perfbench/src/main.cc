// perfbench — one benchmark process.  perfbench/run.py spawns it; a
// person can too:
//
//   perfbench run    --workload W [--smoke] [--perturb] --scratch DIR
//   perfbench setup  --workload W [--smoke] --scratch DIR
//   perfbench trace  --workload W [--smoke] --scratch DIR --seed S
//   perfbench parity --workload W [--smoke] --scratch DIR
//
// run:    the workload's verdicts, untraced; prints verdict_s and the gate.
// setup:  one-schedule explore() of each of the workload's systems; prints
//         the time from process start (this binary's first static
//         initializer, ahead of the libraries' own) until they return.
// trace:  an untraced run, a traced run (decorated systems, telemetry
//         counters, spans) and the SimEnv walker; prints the per-layer
//         metrics and whether the traced run's results were identical.
// parity: checks that shrinking through the public minimize call gives the
//         same results as explore() with options.minimize.
//
// Every mode prints one JSON line and exits 1 when a verdict failed the
// gate (or parity broke), 2 on bad arguments.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <sched.h>
#include <string>
#include <vector>

#include "layer_trace.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "workloads.h"

namespace {

namespace json = bss::obs::json;
using perfbench::SpanName;

struct Args {
  std::string mode;
  std::string workload;
  std::string scratch = ".";
  bool smoke = false;
  bool perturb = false;
  std::uint64_t seed = 1;
};

/// Stamped before any other static initializer of the program, so set-up
/// time covers the libraries' static initialization too.
struct ProcessStart {
  std::int64_t ns = perfbench::now_ns();
};
__attribute__((init_priority(101))) const ProcessStart g_process_start;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench run|setup|trace|parity --workload W "
               "[--smoke] [--perturb] [--scratch DIR] [--seed S]\n");
  return 2;
}

bool parse(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--perturb") {
      args.perturb = true;
    } else if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--scratch" && has_value) {
      args.scratch = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::stoull(argv[++i]);
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

/// The process's peak resident set (VmHWM) in MiB, or -1 if unreadable.
/// Read here rather than from the parent's rusage: a child's ru_maxrss
/// also counts the parent image it was forked from before exec.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return -1;
  char line[256];
  double kb = -1;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    long long value = 0;
    if (std::sscanf(line, "VmHWM: %lld kB", &value) == 1) {
      kb = static_cast<double>(value);
      break;
    }
  }
  std::fclose(status);
  return kb < 0 ? -1 : kb / 1024.0;
}

/// CPUs this process may run on: how many explorer workers can run at once.
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(perfbench::now_ns() - start_ns) / 1e9;
}

json::Value build_info() {
  json::Object build;
  build.emplace("build_type", PERFBENCH_BUILD_TYPE);
  build.emplace("compiler", PERFBENCH_COMPILER);
  build.emplace("cxx_flags", PERFBENCH_CXX_FLAGS);
  return build;
}

struct RunOutcome {
  std::vector<perfbench::Verdict> verdicts;
  double verdict_s = 0;
  std::uint64_t failed = 0;
};

/// Runs every case of `workload` (through TimedSystem when `spans` is set),
/// gates each verdict, and returns the verdicts plus the wall time from the
/// first explore() call to the last verdict.
RunOutcome run_workload(const perfbench::Workload& workload, bool perturb,
                        perfbench::SpanLog* spans,
                        bss::obs::ObsSink* telemetry) {
  RunOutcome out;
  const std::int64_t start = perfbench::now_ns();
  for (std::size_t i = 0; i < workload.cases.size(); ++i) {
    const perfbench::Case& c = workload.cases[i];
    perfbench::Verdict verdict;
    if (spans == nullptr) {
      verdict = perfbench::run_case(c, *c.system, nullptr, nullptr);
    } else {
      spans->set_verdict(static_cast<std::uint32_t>(i + 1));
      perfbench::ScopedSpan span(spans, SpanName::kVerdict);
      const perfbench::TimedSystem timed(*c.system, *spans);
      verdict = perfbench::run_case(c, timed, spans, telemetry);
    }
    out.verdicts.push_back(std::move(verdict));
  }
  out.verdict_s = seconds_since(start);
  for (std::size_t i = 0; i < workload.cases.size(); ++i) {
    perfbench::gate(workload.cases[i], perturb, out.verdicts[i]);
    if (!out.verdicts[i].mismatches.empty()) ++out.failed;
  }
  return out;
}

json::Array verdict_rows(const RunOutcome& run) {
  json::Array rows;
  for (const perfbench::Verdict& v : run.verdicts) {
    json::Object row;
    row.emplace("label", v.label);
    row.emplace("schedules", v.result.stats.schedules);
    row.emplace("transitions", v.result.stats.transitions);
    row.emplace("violations",
                static_cast<std::uint64_t>(v.result.violations.size()));
    row.emplace("exhausted", v.result.exhausted);
    row.emplace("replay_divergences", v.replay_divergences);
    json::Array mismatches;
    for (const std::string& m : v.mismatches) mismatches.emplace_back(m);
    row.emplace("mismatches", std::move(mismatches));
    rows.emplace_back(std::move(row));
  }
  return rows;
}

int finish(json::Object out, bool ok) {
  out.emplace("build", build_info());
  std::printf("%s\n", json::Value(std::move(out)).dump().c_str());
  return ok ? 0 : 1;
}

int mode_run(const Args& args, const perfbench::Workload& workload) {
  const RunOutcome run = run_workload(workload, args.perturb, nullptr, nullptr);
  json::Object out;
  out.emplace("mode", "run");
  out.emplace("workload", workload.name);
  out.emplace("verdict_s", run.verdict_s);
  out.emplace("verdicts", static_cast<std::uint64_t>(run.verdicts.size()));
  out.emplace("failed", run.failed);
  out.emplace("digest", perfbench::digest(run.verdicts));
  out.emplace("cases", verdict_rows(run));
  out.emplace("peak_rss_mb", peak_rss_mb());
  return finish(std::move(out), run.failed == 0);
}

int mode_setup(const perfbench::Workload& workload) {
  for (const perfbench::Case& c : workload.cases) {
    bss::explore::ExploreOptions options = c.options;
    options.max_schedules = 1;
    options.minimize = false;
    options.checkpoint_path.clear();  // set-up, not a campaign: no file I/O
    (void)bss::explore::explore(*c.system, options);
  }
  json::Object out;
  out.emplace("mode", "setup");
  out.emplace("workload", workload.name);
  out.emplace("setup_s", seconds_since(g_process_start.ns));
  return finish(std::move(out), true);
}

int mode_trace(const Args& args, const perfbench::Workload& workload) {
  const RunOutcome untraced =
      run_workload(workload, args.perturb, nullptr, nullptr);

  perfbench::SpanLog spans;
  bss::obs::Telemetry::Options telemetry_options;
  telemetry_options.events = false;
  bss::obs::Telemetry telemetry(telemetry_options);
  const RunOutcome traced =
      run_workload(workload, args.perturb, &spans, &telemetry);
  const std::vector<perfbench::Span> workload_spans = spans.collect();

  std::vector<const bss::explore::ExplorableSystem*> systems;
  int walkers = 1;  // as many as the workload's explorer has workers
  for (const perfbench::Case& c : workload.cases) {
    systems.push_back(c.walkable ? c.system.get() : nullptr);
    walkers = std::max(walkers, c.options.jobs);
  }
  const perfbench::WalkerReport sim = perfbench::price_sim(
      systems, args.seed, args.smoke ? 50 : 500, walkers, spans);
  const std::string trace_path =
      args.scratch + "/" + workload.name + ".spans.tsv";
  const bool written = spans.write(trace_path);

  // Deterministic counts, summed over the workload's verdicts.
  bss::explore::ExploreStats stats;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;
  double worker_s = 0;  // explore wall time x workers that can run at once
  double sim_s = 0;     // SimEnv work inside explore, at walker prices
  const perfbench::SpanTotals all =
      perfbench::totals(workload_spans, SpanName::kCount);
  for (std::size_t i = 0; i < workload.cases.size(); ++i) {
    const perfbench::Case& c = workload.cases[i];
    const bss::explore::ExploreResult& r = traced.verdicts[i].result;
    stats.merge_from(r.stats);
    const perfbench::SimPrices& price = sim.by_system[i];
    const std::uint64_t case_runs =
        perfbench::totals(workload_spans, SpanName::kExplore,
                          static_cast<std::uint32_t>(i + 1))
            .calls_of(SpanName::kMake);
    sim_s += (static_cast<double>(case_runs) *
                  (price.start_us + price.finish_us) +
              static_cast<double>(r.stats.transitions) * price.step_us) /
             1e6;
    checkpoints += r.checkpoints_written;
    if (!c.options.checkpoint_path.empty() &&
        std::filesystem::exists(c.options.checkpoint_path)) {
      checkpoint_bytes += std::filesystem::file_size(c.options.checkpoint_path);
    }
    for (const perfbench::Span& span : workload_spans) {
      if (span.name == SpanName::kExplore && span.verdict == i + 1) {
        worker_s += static_cast<double>(span.end_ns - span.start_ns) / 1e9 *
                    std::clamp(c.options.jobs, 1, usable_cpus());
      }
    }
  }
  const perfbench::SpanTotals in_explore =
      perfbench::totals(workload_spans, SpanName::kExplore);
  const perfbench::SpanTotals in_minimize =
      perfbench::totals(workload_spans, SpanName::kMinimize);

  const auto per_call_us = [&all](SpanName name) {
    const std::uint64_t calls = all.calls_of(name);
    return calls == 0 ? 0.0
                      : static_cast<double>(all.ns_of(name)) / 1e3 /
                            static_cast<double>(calls);
  };
  const auto ratio = [](double num, double den) {
    return den == 0 ? 0.0 : num / den;
  };
  const double system_s =
      static_cast<double>(in_explore.ns_of(SpanName::kMake) +
                          in_explore.ns_of(SpanName::kPopulate) +
                          in_explore.ns_of(SpanName::kCheck) +
                          in_explore.ns_of(SpanName::kFingerprint)) /
      1e9;
  const double explore_s =
      static_cast<double>(all.ns_of(SpanName::kExplore)) / 1e9;
  const std::uint64_t runs = in_explore.calls_of(SpanName::kMake);
  const double self_s = worker_s - system_s;
  std::uint64_t steals = 0;
  const auto snapshot = telemetry.metrics_snapshot();
  if (const auto it = snapshot.counters.find("explore.steals");
      it != snapshot.counters.end()) {
    steals = it->second;
  }

  json::Object metrics;
  const auto put = [&metrics](const char* name, json::Value value) {
    metrics.emplace(name, std::move(value));
  };
  put("sim.start_us", sim.all.start_us);
  put("sim.handoff_us", sim.handoff_us);
  put("sim.step_us", sim.all.step_us);
  put("sim.step_p99_us", sim.step_p99_us);
  put("sim.finish_us", sim.all.finish_us);
  put("sim.restart_us", sim.all.restart_us);
  put("sim.steps_per_schedule",
      ratio(static_cast<double>(stats.transitions),
            static_cast<double>(stats.schedules)));
  put("system.populate_us", per_call_us(SpanName::kPopulate));
  put("system.check_us", per_call_us(SpanName::kCheck));
  put("system.fingerprint_us", per_call_us(SpanName::kFingerprint));
  put("system.calls.make", all.calls_of(SpanName::kMake));
  put("system.calls.check", all.calls_of(SpanName::kCheck));
  put("system.calls.fingerprint", all.calls_of(SpanName::kFingerprint));
  put("system.share", ratio(system_s, worker_s));
  put("explore.schedules", stats.schedules);
  put("explore.transitions", stats.transitions);
  put("explore.runs", runs);
  put("explore.useful_run_ratio",
      ratio(static_cast<double>(stats.schedules), static_cast<double>(runs)));
  put("explore.sleep_set_prunes", stats.sleep_set_prunes);
  put("explore.fault_prunes", stats.fault_prunes);
  put("explore.fingerprint_prunes", stats.fingerprint_prunes);
  put("explore.fp_hit_ratio",
      ratio(static_cast<double>(stats.fingerprint_prunes),
            static_cast<double>(in_explore.calls_of(SpanName::kFingerprint))));
  put("explore.schedules_per_s",
      ratio(static_cast<double>(stats.schedules), explore_s));
  put("explore.self_s", self_s);
  put("explore.engine_s_est", self_s - sim_s);
  put("explore.steals", steals);
  put("explore.checkpoints", checkpoints);
  put("explore.checkpoint_bytes", checkpoint_bytes);
  put("minimize.runs", in_minimize.calls_of(SpanName::kMake));
  put("minimize_s", static_cast<double>(all.ns_of(SpanName::kMinimize)) / 1e9);
  put("replay_s", static_cast<double>(all.ns_of(SpanName::kReplay)) / 1e9);
  put("trace.overhead", ratio(traced.verdict_s, untraced.verdict_s) - 1);

  const bool passive = perfbench::digest(untraced.verdicts) ==
                       perfbench::digest(traced.verdicts);
  json::Object out;
  out.emplace("mode", "trace");
  out.emplace("workload", workload.name);
  out.emplace("verdicts", static_cast<std::uint64_t>(untraced.verdicts.size() +
                                                     traced.verdicts.size()));
  out.emplace("failed", untraced.failed + traced.failed);
  out.emplace("passive", passive);
  out.emplace("untraced_verdict_s", untraced.verdict_s);
  out.emplace("traced_verdict_s", traced.verdict_s);
  out.emplace("restart_priced_on_null_system", sim.restart_on_null);
  out.emplace("walker", json::Object{{"walks", sim.walks},
                                     {"steps", sim.steps},
                                     {"restarts", sim.restarts}});
  out.emplace("spans", written ? json::Value(trace_path) : json::Value());
  out.emplace("metrics", std::move(metrics));
  out.emplace("cases", verdict_rows(traced));
  return finish(std::move(out),
               passive && untraced.failed + traced.failed == 0 && written);
}

int mode_parity(const perfbench::Workload& workload) {
  // explore() shrinking internally must equal the public split path.
  const RunOutcome split = run_workload(workload, false, nullptr, nullptr);
  std::vector<perfbench::Verdict> internal;
  for (const perfbench::Case& c : workload.cases) {
    perfbench::Verdict v;
    v.result = bss::explore::explore(*c.system, c.options);
    internal.push_back(std::move(v));
  }
  const bool same =
      perfbench::digest(split.verdicts) == perfbench::digest(internal);
  json::Object out;
  out.emplace("mode", "parity");
  out.emplace("workload", workload.name);
  out.emplace("identical", same);
  return finish(std::move(out), same);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse(argc, argv, args)) return usage();
  } catch (const std::exception&) {
    return usage();
  }
  try {
    const perfbench::Workload workload =
        perfbench::make_workload(args.workload, args.smoke, args.scratch);
    if (args.mode == "run") return mode_run(args, workload);
    if (args.mode == "setup") return mode_setup(workload);
    if (args.mode == "trace") return mode_trace(args, workload);
    if (args.mode == "parity") return mode_parity(workload);
    return usage();
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
