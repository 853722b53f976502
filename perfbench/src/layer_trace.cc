#include "layer_trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "runtime/sim_env.h"
#include "util/rng.h"

namespace perfbench {

namespace {

bool is_phase(SpanName name) {
  return name == SpanName::kExplore || name == SpanName::kMinimize ||
         name == SpanName::kReplay;
}

/// Distinguishes SpanLog instances for the per-thread buffer cache, so a
/// log allocated where a destroyed one lived never inherits its buffers.
std::atomic<std::uint64_t> g_log_serial{0};

struct ThreadCache {
  const SpanLog* owner = nullptr;
  std::uint64_t serial = 0;
  void* buffer = nullptr;
};
thread_local ThreadCache t_cache;

}  // namespace

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kVerdict: return "verdict";
    case SpanName::kExplore: return "explore";
    case SpanName::kMinimize: return "minimize";
    case SpanName::kReplay: return "replay";
    case SpanName::kMake: return "system.make";
    case SpanName::kPopulate: return "system.populate";
    case SpanName::kCheck: return "system.check";
    case SpanName::kFingerprint: return "system.fingerprint";
    case SpanName::kSimStart: return "sim.start";
    case SpanName::kSimStep: return "sim.step";
    case SpanName::kSimRestart: return "sim.restart";
    case SpanName::kSimFinish: return "sim.finish";
    case SpanName::kNullStart: return "sim.null_start";
    case SpanName::kNullStep: return "sim.null_step";
    case SpanName::kNullRestart: return "sim.null_restart";
    case SpanName::kNullFinish: return "sim.null_finish";
    case SpanName::kCount: break;
  }
  return "?";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ SpanLog

SpanLog::SpanLog() : serial_(++g_log_serial) {}

SpanLog::Buffer& SpanLog::buffer() {
  if (t_cache.owner == this && t_cache.serial == serial_) {
    return *static_cast<Buffer*>(t_cache.buffer);
  }
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  t_cache = {this, serial_, buffers_.back().get()};
  return *buffers_.back();
}

std::vector<Span> SpanLog::collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id\tparent\tverdict\tname\tstart_ns\tend_ns\n");
  for (const Span& span : collect()) {
    std::fprintf(out, "%llu\t%llu\t%u\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent), span.verdict,
                 span_name(span.name), static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

// --------------------------------------------------------------- ScopedSpan

ScopedSpan::ScopedSpan(SpanLog* log, SpanName name)
    : ScopedSpan(log, name, log == nullptr ? 0 : log->verdict_.load()) {}

ScopedSpan::ScopedSpan(SpanLog* log, SpanName name, std::uint32_t verdict)
    : log_(log) {
  if (log_ == nullptr) return;
  buffer_ = &log_->buffer();
  span_.id = log_->next_id_.fetch_add(1);
  span_.parent =
      buffer_->open.empty() ? log_->phase_.load() : buffer_->open.back();
  span_.verdict = verdict;
  span_.name = name;
  if (is_phase(name)) saved_phase_ = log_->phase_.exchange(span_.id);
  buffer_->open.push_back(span_.id);
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = now_ns();
  buffer_->open.pop_back();
  if (is_phase(span_.name)) log_->phase_.store(saved_phase_);
  buffer_->spans.push_back(span_);
}

// -------------------------------------------------------------- TimedSystem

namespace {

class TimedInstance final : public bss::explore::SystemInstance {
 public:
  TimedInstance(std::unique_ptr<bss::explore::SystemInstance> inner,
                SpanLog& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  void populate(bss::sim::SimEnv& env) override {
    ScopedSpan span(&spans_, SpanName::kPopulate);
    inner_->populate(env);
  }
  std::optional<std::string> check(const bss::sim::SimEnv& env,
                                   const bss::sim::RunReport& report) override {
    ScopedSpan span(&spans_, SpanName::kCheck);
    return inner_->check(env, report);
  }
  std::string fingerprint(const bss::sim::SimEnv& env) override {
    ScopedSpan span(&spans_, SpanName::kFingerprint);
    return inner_->fingerprint(env);
  }

 private:
  std::unique_ptr<bss::explore::SystemInstance> inner_;
  SpanLog& spans_;
};

}  // namespace

std::unique_ptr<bss::explore::SystemInstance> TimedSystem::make() const {
  ScopedSpan span(&spans_, SpanName::kMake);
  return std::make_unique<TimedInstance>(inner_.make(), spans_);
}

// ---------------------------------------------------------------- price_sim

namespace {

constexpr int kNullProcesses = 3;
constexpr int kNullOps = 8;
/// The walker's depth cap: the explorer's own default max_depth.
constexpr std::uint64_t kWalkDepth = 4096;

/// Processes that only sync a private no-op descriptor: every step is a
/// bare handoff.  Each process restarts through its own body.
class NullInstance final : public bss::explore::SystemInstance {
 public:
  void populate(bss::sim::SimEnv& env) override {
    for (int pid = 0; pid < kNullProcesses; ++pid) {
      const auto body = [pid](bss::sim::Ctx& ctx) {
        for (int op = 0; op < kNullOps; ++op) {
          ctx.sync({"null[" + std::to_string(pid) + "]", "noop", 0, 0});
        }
      };
      env.add_process(body, body);
    }
  }
  std::optional<std::string> check(const bss::sim::SimEnv&,
                                    const bss::sim::RunReport&) override {
    return std::nullopt;
  }
};

/// The span names one walk records its SimEnv calls under.
struct WalkNames {
  SpanName start, step, restart, finish;
};
constexpr WalkNames kSystemWalk{SpanName::kSimStart, SpanName::kSimStep,
                                SpanName::kSimRestart, SpanName::kSimFinish};
constexpr WalkNames kNullWalk{SpanName::kNullStart, SpanName::kNullStep,
                              SpanName::kNullRestart, SpanName::kNullFinish};

struct WalkCounts {
  std::uint64_t walks = 0;
  std::uint64_t steps = 0;
  std::uint64_t restarts = 0;
};

/// One random walk: start, random grants (and at most one restart, of a
/// process with a restart hook), finish.  Spans carry verdict id `verdict`.
void walk(bss::explore::SystemInstance& instance, bss::Rng& rng, SpanLog& spans,
          const WalkNames& names, std::uint32_t verdict, WalkCounts& counts) {
  bss::sim::SimOptions options;
  options.step_limit = kWalkDepth;
  options.record_trace = false;
  bss::sim::SimEnv env(options);
  instance.populate(env);
  {
    ScopedSpan span(&spans, names.start, verdict);
    env.start();
  }
  bool restarted = false;
  for (std::uint64_t depth = 0; depth < kWalkDepth; ++depth) {
    const std::vector<int> parked = env.parked_processes();
    if (parked.empty()) break;
    const int pid = parked[rng.next_below(parked.size())];
    if (!restarted && env.restart_supported(pid) && rng.next_below(4) == 0) {
      restarted = true;
      ScopedSpan span(&spans, names.restart, verdict);
      env.restart_process(pid);
      ++counts.restarts;
      continue;
    }
    ScopedSpan span(&spans, names.step, verdict);
    env.step_process(pid);
    ++counts.steps;
  }
  {
    ScopedSpan span(&spans, names.finish, verdict);
    env.finish();
  }
  ++counts.walks;
}

/// Sum and count of one kind of SimEnv call.
struct Mean {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;

  void add(std::int64_t duration) {
    ns += duration;
    ++calls;
  }
  double us() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(ns) / 1e3 /
                            static_cast<double>(calls);
  }
};

/// Means of the four walked SimEnv calls.
struct CallMeans {
  Mean start, step, restart, finish;

  void add(const Span& span) {
    const std::int64_t duration = span.end_ns - span.start_ns;
    switch (span.name) {
      case SpanName::kSimStart: start.add(duration); break;
      case SpanName::kSimStep: step.add(duration); break;
      case SpanName::kSimRestart: restart.add(duration); break;
      case SpanName::kSimFinish: finish.add(duration); break;
      default: break;
    }
  }
  SimPrices prices() const {
    return {start.us(), step.us(), finish.us(), restart.us()};
  }
};

}  // namespace

WalkerReport price_sim(
    const std::vector<const bss::explore::ExplorableSystem*>& systems,
    std::uint64_t seed, int walks, int threads, SpanLog& spans) {
  // Each walker thread takes an equal share of the walks on its own Rng,
  // so a parallel workload's steps are priced under the same contention.
  std::vector<WalkCounts> counts(static_cast<std::size_t>(threads));
  const auto walker = [&](int t) {
    bss::Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(t));
    WalkCounts& mine = counts[static_cast<std::size_t>(t)];
    const int share = std::max(1, walks / threads);
    for (std::size_t i = 0; i < systems.size(); ++i) {
      if (systems[i] == nullptr) continue;
      const auto verdict = static_cast<std::uint32_t>(i + 1);
      for (int w = 0; w < share; ++w) {
        const auto instance = systems[i]->make();
        walk(*instance, rng, spans, kSystemWalk, verdict, mine);
      }
    }
    WalkCounts null_counts;  // the null walks stay out of the workload counts
    for (int w = 0; w < share; ++w) {
      NullInstance instance;
      walk(instance, rng, spans, kNullWalk, 0, null_counts);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(walker, t);
  walker(0);
  for (std::thread& thread : pool) thread.join();

  WalkerReport report;
  for (const WalkCounts& mine : counts) {
    report.walks += mine.walks;
    report.steps += mine.steps;
    report.restarts += mine.restarts;
  }
  CallMeans all;
  std::vector<CallMeans> by_system(systems.size());
  Mean null_step, null_restart;
  std::vector<std::int64_t> steps;
  for (const Span& span : spans.collect()) {
    if (span.name == SpanName::kNullStep) {
      null_step.add(span.end_ns - span.start_ns);
    } else if (span.name == SpanName::kNullRestart) {
      null_restart.add(span.end_ns - span.start_ns);
    } else if (span.verdict >= 1 && span.verdict <= systems.size()) {
      all.add(span);
      by_system[span.verdict - 1].add(span);
      if (span.name == SpanName::kSimStep) {
        steps.push_back(span.end_ns - span.start_ns);
      }
    }
  }
  report.all = all.prices();
  report.restart_on_null = all.restart.calls == 0;
  if (report.restart_on_null) report.all.restart_us = null_restart.us();
  for (std::size_t i = 0; i < systems.size(); ++i) {
    report.by_system.push_back(systems[i] == nullptr ? report.all
                                                     : by_system[i].prices());
  }
  report.handoff_us = null_step.us();
  if (!steps.empty()) {
    std::sort(steps.begin(), steps.end());
    report.step_p99_us =
        static_cast<double>(steps[steps.size() * 99 / 100]) / 1e3;
  }
  return report;
}

// ------------------------------------------------------------------- totals

SpanTotals totals(const std::vector<Span>& spans, SpanName phase,
                  std::uint32_t verdict) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) by_id.emplace(spans[i].id, i);
  const auto phase_of = [&](const Span& span) {
    std::uint64_t parent = span.parent;
    while (parent != 0) {
      const auto it = by_id.find(parent);
      if (it == by_id.end()) break;
      const Span& ancestor = spans[it->second];
      if (is_phase(ancestor.name)) return ancestor.name;
      parent = ancestor.parent;
    }
    return SpanName::kCount;
  };
  SpanTotals out;
  for (const Span& span : spans) {
    if (verdict != 0 && span.verdict != verdict) continue;
    if (phase != SpanName::kCount && phase_of(span) != phase) continue;
    const auto index = static_cast<std::size_t>(span.name);
    out.ns[index] += span.end_ns - span.start_ns;
    ++out.calls[index];
  }
  return out;
}

}  // namespace perfbench
