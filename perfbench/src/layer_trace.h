// Outside-in layer tracing for the benchmark's traced run.
//
// Nothing here reaches into the program: every span brackets a call into a
// layer's public functions, made from the benchmark's own code.
//
//  * SpanLog — spans (name, start, end, parent, verdict id) kept in
//    per-thread buffers and written out once the run ends.
//  * TimedSystem — an ExplorableSystem decorator that times the systems
//    under test (src/core, src/service): make, populate, check and
//    fingerprint.  Thread-safe: the explorer calls make() from every
//    worker, and each instance is driven by one worker at a time.
//  * price_sim — a seeded random walker that drives SimEnv (src/runtime)
//    through start, step_process, restart_process and finish on a
//    workload's own systems, plus a null system whose processes only sync
//    a no-op operation, which isolates the bare handoff.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "explore/system.h"

namespace perfbench {

enum class SpanName : std::uint8_t {
  kVerdict,
  kExplore,
  kMinimize,
  kReplay,
  kMake,
  kPopulate,
  kCheck,
  kFingerprint,
  kSimStart,
  kSimStep,
  kSimRestart,
  kSimFinish,
  kNullStart,
  kNullStep,
  kNullRestart,
  kNullFinish,
  kCount,
};

const char* span_name(SpanName name);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t verdict = 0;
  SpanName name = SpanName::kVerdict;
};

std::int64_t now_ns();

/// An in-memory span log.  Spans nest under the innermost span open on the
/// same thread; a span opened on a thread with none open (an explorer
/// worker calling make()) nests under the current phase span — the
/// explore, minimize or replay span the calling thread opened.
class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Tags every span opened from now on with verdict `id`.
  void set_verdict(std::uint32_t id) { verdict_.store(id); }

  /// Every span recorded so far.  Call only once the traced calls returned.
  std::vector<Span> collect() const;
  /// Writes collect() as tab-separated `id parent verdict name start end`
  /// lines; false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  friend class ScopedSpan;
  struct Buffer {
    std::vector<Span> spans;
    std::vector<std::uint64_t> open;  ///< ids of this thread's open spans
  };
  Buffer& buffer();

  const std::uint64_t serial_;  ///< tells logs apart in the thread cache
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> phase_{0};
  std::atomic<std::uint32_t> verdict_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

/// Records one span for its lifetime; inert when `log` is null.  The span
/// carries the log's current verdict id unless given one.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name);
  ScopedSpan(SpanLog* log, SpanName name, std::uint32_t verdict);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  SpanLog::Buffer* buffer_ = nullptr;
  Span span_;
  std::uint64_t saved_phase_ = 0;
};

/// Times the system under test.  Forwards every call unchanged, so the
/// explorer's results are identical with or without the decorator.
class TimedSystem final : public bss::explore::ExplorableSystem {
 public:
  TimedSystem(const bss::explore::ExplorableSystem& inner, SpanLog& spans)
      : inner_(inner), spans_(spans) {}

  std::string name() const override { return inner_.name(); }
  int process_count() const override { return inner_.process_count(); }
  std::unique_ptr<bss::explore::SystemInstance> make() const override;

 private:
  const bss::explore::ExplorableSystem& inner_;
  SpanLog& spans_;
};

/// Mean SimEnv call times, in microseconds.
struct SimPrices {
  double start_us = 0;
  double step_us = 0;
  double finish_us = 0;
  double restart_us = 0;
};

/// What the walker measured.
struct WalkerReport {
  SimPrices all;  ///< over the walks of every workload system
  /// Per entry of price_sim's `systems`; `all` for an entry not walked.
  std::vector<SimPrices> by_system;
  double step_p99_us = 0;
  double handoff_us = 0;  ///< step_process on the null system
  /// True when no workload system registers restart hooks, so
  /// `all.restart_us` was priced on the null system instead.
  bool restart_on_null = false;
  std::uint64_t walks = 0;
  std::uint64_t steps = 0;
  std::uint64_t restarts = 0;
};

/// Random-walks each non-null entry of `systems` `walks` times (pids, and
/// one optional restart per walk, drawn from `seed`), then the null system
/// as often, split over `threads` concurrent walkers.  Records sim.* spans
/// into `spans`: entry i's walks carry verdict id i + 1, the null system's
/// carry 0.
WalkerReport price_sim(
    const std::vector<const bss::explore::ExplorableSystem*>& systems,
    std::uint64_t seed, int walks, int threads, SpanLog& spans);

/// Sum of durations (ns) and number of spans of each name.
struct SpanTotals {
  std::array<std::int64_t, static_cast<std::size_t>(SpanName::kCount)> ns{};
  std::array<std::uint64_t, static_cast<std::size_t>(SpanName::kCount)> calls{};

  std::int64_t ns_of(SpanName name) const {
    return ns[static_cast<std::size_t>(name)];
  }
  std::uint64_t calls_of(SpanName name) const {
    return calls[static_cast<std::size_t>(name)];
  }
};

/// Totals of the spans whose nearest phase ancestor (explore, minimize or
/// replay) is `phase` and whose verdict id is `verdict`; kCount selects
/// every phase and verdict 0 every verdict.
SpanTotals totals(const std::vector<Span>& spans, SpanName phase,
                  std::uint32_t verdict = 0);

}  // namespace perfbench
