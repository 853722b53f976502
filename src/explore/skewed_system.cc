#include "explore/skewed_system.h"

#include <cstdint>
#include <string>

#include "explore/fingerprint.h"
#include "registers/mwmr_register.h"
#include "util/checked.h"

namespace bss::explore {

namespace {

class SkewedWriterInstance final : public SystemInstance {
 public:
  SkewedWriterInstance(int n, int long_writes, int short_writes)
      : reg_("skew", 0), n_(n), long_writes_(long_writes),
        short_writes_(short_writes) {}

  void populate(sim::SimEnv& env) override {
    for (int p = 0; p < n_; ++p) {
      const int writes = p == 0 ? long_writes_ : short_writes_;
      env.add_process([this, p, writes](sim::Ctx& ctx) {
        for (int i = 1; i <= writes; ++i) {
          reg_.write(ctx, encode(p, i));
        }
      });
    }
  }

  std::optional<std::string> check(const sim::SimEnv&,
                                   const sim::RunReport& report) override {
    if (!report.clean()) return "run not clean: " + report.summary();
    const std::int64_t last = reg_.peek();
    const int writer = static_cast<int>(last / 1000);
    const int count = static_cast<int>(last % 1000);
    const int expected = writer == 0 ? long_writes_ : short_writes_;
    if (writer < 0 || writer >= n_ || count != expected) {
      return "register holds a non-final value: " + std::to_string(last);
    }
    return std::nullopt;
  }

  std::string fingerprint(const sim::SimEnv&) override {
    std::string out;
    fp_field(out, "skew", reg_.peek());
    return out;
  }

 private:
  static std::int64_t encode(int pid, int i) {
    return static_cast<std::int64_t>(pid) * 1000 + i;
  }

  sim::MwmrRegister<std::int64_t> reg_;
  int n_;
  int long_writes_;
  int short_writes_;
};

}  // namespace

SkewedWriterSystem::SkewedWriterSystem(int n, int long_writes,
                                       int short_writes)
    : n_(n), long_writes_(long_writes), short_writes_(short_writes) {
  expects(n >= 2, "the skewed workload needs a long and a short writer");
  expects(long_writes >= 1 && short_writes >= 1 &&
              long_writes < 1000 && short_writes < 1000,
          "skewed write counts must be in [1, 999]");
}

std::string SkewedWriterSystem::name() const {
  return "skewed[n=" + std::to_string(n_) +
         ",long=" + std::to_string(long_writes_) +
         ",short=" + std::to_string(short_writes_) + "]";
}

std::unique_ptr<SystemInstance> SkewedWriterSystem::make() const {
  return std::make_unique<SkewedWriterInstance>(n_, long_writes_,
                                                short_writes_);
}

}  // namespace bss::explore
