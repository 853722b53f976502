#include "explore/snapshot_system.h"

#include <cstdint>
#include <string>
#include <vector>

#include "explore/fingerprint.h"
#include "registers/snapshot.h"
#include "runtime/linearizability.h"
#include "util/checked.h"

namespace bss::explore {

namespace {

class SnapshotInstance final : public SystemInstance {
 public:
  SnapshotInstance(int writers, int rounds)
      : snapshot_("s", writers), writers_(writers), rounds_(rounds) {}

  void populate(sim::SimEnv& env) override {
    for (int w = 0; w < writers_; ++w) {
      env.add_process([this, w](sim::Ctx& ctx) {
        for (int round = 1; round <= rounds_; ++round) {
          const std::uint64_t start = ctx.global_step();
          snapshot_.update(ctx, w, round);
          history_.push_back(
              {ctx.pid(), start, ctx.global_step(), {w, round}, {}});
        }
      });
    }
    env.add_process([this](sim::Ctx& ctx) {
      for (int round = 0; round <= rounds_; ++round) {
        const std::uint64_t start = ctx.global_step();
        const auto view = snapshot_.scan(ctx);
        history_.push_back({ctx.pid(), start, ctx.global_step(), {}, view});
      }
    });
  }

  std::optional<std::string> check(const sim::SimEnv&,
                                   const sim::RunReport& report) override {
    if (!report.clean()) return "run not clean: " + report.summary();
    const auto result =
        sim::check_linearizable(history_, sim::snapshot_spec(writers_));
    if (!result.linearizable) {
      return "scan history not linearizable: " + result.detail;
    }
    return std::nullopt;
  }

  std::string fingerprint(const sim::SimEnv&) override {
    std::string out;
    fp_values(out, "cells", snapshot_.peek());
    fp_field(out, "ops", history_.size());
    return out;
  }

 private:
  sim::AtomicSnapshot snapshot_;
  int writers_;
  int rounds_;
  std::vector<sim::IntervalOp> history_;
};

}  // namespace

SnapshotScanSystem::SnapshotScanSystem(int writers, int rounds)
    : writers_(writers), rounds_(rounds) {
  expects(writers >= 1 && rounds >= 1, "snapshot system needs work to do");
}

std::string SnapshotScanSystem::name() const {
  return "snapshot[w=" + std::to_string(writers_) +
         ",rounds=" + std::to_string(rounds_) + "]";
}

std::unique_ptr<SystemInstance> SnapshotScanSystem::make() const {
  return std::make_unique<SnapshotInstance>(writers_, rounds_);
}

}  // namespace bss::explore
