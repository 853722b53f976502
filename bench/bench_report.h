// Shared `bss-runreport v1` emission for the bench binaries: every bench —
// table-shaped and google-benchmark alike — funnels its rows through a
// BenchReport so one schema covers all benchmark trajectories (the bench
// counterpart of the report explore() emits; see src/obs/runreport.h).
//
// stdout is untouched: the table (or --json rows) prints exactly as before,
// and the report is written only when --out PATH was given.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "bench_flags.h"
#include "obs/runreport.h"

namespace bss::bench {

/// Construct it before the work it reports: the timing channel's wall_ns
/// runs from construction to finalize().
class BenchReport {
 public:
  BenchReport(const BenchFlags& flags, std::string producer)
      : out_(flags.out),
        builder_("bench", std::move(producer)),
        wall_begin_(std::chrono::steady_clock::now()) {
    builder_.environment("jobs", flags.jobs);
  }

  /// Direct access for environment/options/stats the bench wants recorded.
  obs::ReportBuilder& builder() { return builder_; }

  /// One table row as a JSON object (same fields as the --json output).
  void row(obs::json::Object row) { builder_.row(std::move(row)); }

  /// Accumulates schedules executed across the bench's cells; finalize()
  /// turns the total into the timing channel's schedules/second headline.
  void schedules(std::uint64_t count) { schedules_ += count; }

  /// Writes the report to --out (no-op without the flag).  Call once, after
  /// the last row; exits nonzero on I/O failure so CI catches a bad path.
  void finalize() {
    const auto wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - wall_begin_)
                             .count();
    builder_.timing("wall_ns",
                    obs::json::Value(static_cast<std::uint64_t>(wall_ns)));
    if (schedules_ > 0 && wall_ns > 0) {
      builder_.timing("schedules_per_second",
                      obs::json::Value(static_cast<double>(schedules_) * 1e9 /
                                       static_cast<double>(wall_ns)));
    }
    if (out_.empty()) return;
    if (!obs::write_file(out_, builder_.to_json())) {
      std::fprintf(stderr, "FATAL: cannot write runreport to '%s'\n",
                   out_.c_str());
      std::exit(1);
    }
  }

 private:
  std::string out_;
  obs::ReportBuilder builder_;
  std::chrono::steady_clock::time_point wall_begin_;
  std::uint64_t schedules_ = 0;
};

}  // namespace bss::bench
