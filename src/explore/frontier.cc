#include "explore/frontier.h"

#include <algorithm>
#include <string>

namespace bss::explore {

using sim::Action;
using sim::ActionKind;
using sim::decode_action;
using sim::encode_action;
using sim::takes_step;

bool ops_commute(const sim::OpDesc& a, const sim::OpDesc& b) {
  if (a.object != b.object) return true;
  // Anything that is not a plain read (write, cas, ll, sc, …) may change the
  // object or its hidden state (LL links), so it conflicts with every other
  // access to the same object.
  return a.op == "read" && b.op == "read";
}

namespace {

constexpr std::uint64_t pid_bit(int pid) {
  return std::uint64_t{1} << static_cast<unsigned>(pid);
}

/// 128-bit state key: two FNV-1a-64 streams over the same bytes, the second
/// perturbed (different offset basis, bytes xor'd) so the pair behaves like
/// independent hashes.  Collision soundness is validated empirically by the
/// mutant sweep (a colliding prune on a mutant would lose its refutation).
struct FpHash {
  std::uint64_t h1 = 14695981039346656037ULL;
  std::uint64_t h2 = 0x6c62272e07bb0142ULL;
  void byte(unsigned char b) {
    h1 = (h1 ^ b) * 1099511628211ULL;
    h2 = (h2 ^ static_cast<unsigned char>(b ^ 0xa5U)) * 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<unsigned char>(v & 0xffU));
      v >>= 8U;
    }
  }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
};

bool contains(const std::vector<int>& values, int value) {
  return std::find(values.begin(), values.end(), value) != values.end();
}

/// Granting away from the most recently granted (still-runnable) process
/// costs one preemption.  Fault actions are not grants: a crash/restart of
/// another process does not preempt the running one.
int choice_cost(const Frame& frame, int grant_pid) {
  if (frame.prev_grant < 0 || grant_pid == frame.prev_grant) return 0;
  return contains(frame.runnable, frame.prev_grant) ? 1 : 0;
}

bool grant_feasible(const Frame& frame, int pid, const PassState& pass) {
  if (contains(frame.done, pid)) return false;
  if (pass.use_por && contains(frame.entry_sleep, pid)) return false;
  if (pass.budget >= 0 &&
      frame.preemptions_before + choice_cost(frame, pid) > pass.budget) {
    return false;
  }
  return true;
}

/// Pulls a recycled frame from the arena (or default-constructs one): all
/// fields reset, vector/string capacities preserved.
Frame take_frame(Scratch& scratch) {
  if (scratch.spare.empty()) return Frame{};
  Frame frame = std::move(scratch.spare.back());
  scratch.spare.pop_back();
  frame.runnable.clear();
  frame.restartable = 0;
  frame.sc_ready = 0;
  frame.sc_failed_before = 0;
  frame.entry_sleep.clear();
  frame.done.clear();
  frame.chosen = kNoChoice;
  frame.prev_grant = -1;
  frame.preemptions_before = 0;
  frame.faults_before = 0;
  frame.fp_lo = 0;
  frame.fp_hi = 0;
  frame.fp_valid = false;
  frame.fp_dirty = false;
  return frame;
}

}  // namespace

int select_choice(const Frame& frame, const PassState& pass) {
  if (contains(frame.runnable, frame.prev_grant) &&
      grant_feasible(frame, frame.prev_grant, pass)) {
    return frame.prev_grant;
  }
  for (const int pid : frame.runnable) {
    if (pid == frame.prev_grant) continue;
    if (grant_feasible(frame, pid, pass)) return pid;
  }
  if (pass.fault_budget > 0 && frame.faults_before < pass.fault_budget) {
    if (pass.explore_sc) {
      for (const int pid : frame.runnable) {
        if ((frame.sc_ready & pid_bit(pid)) == 0) continue;
        if ((frame.sc_failed_before & pid_bit(pid)) != 0) continue;
        const int choice = encode_action(ActionKind::kScFailure, pid);
        if (contains(frame.done, choice)) continue;
        // A spurious SC still performs the (failing) operation, so the
        // preemption cost of granting `pid` applies.
        if (pass.budget >= 0 &&
            frame.preemptions_before + choice_cost(frame, pid) > pass.budget) {
          continue;
        }
        return choice;
      }
    }
    if (pass.explore_crashes) {
      for (const int pid : frame.runnable) {
        const int choice = encode_action(ActionKind::kCrash, pid);
        if (!contains(frame.done, choice)) return choice;
      }
    }
    if (pass.explore_restarts) {
      for (const int pid : frame.runnable) {
        if ((frame.restartable & pid_bit(pid)) == 0) continue;
        const int choice = encode_action(ActionKind::kRestart, pid);
        if (!contains(frame.done, choice)) return choice;
      }
    }
  }
  return kNoChoice;
}

Frame make_frame(const sim::SimEnv& env, Scratch& scratch,
                 const PassState& pass, const Frame* parent) {
  Frame frame = take_frame(scratch);
  frame.runnable.swap(scratch.runnable);
  frame.pending.resize(static_cast<std::size_t>(env.process_count()));
  for (const int pid : frame.runnable) {
    frame.pending[static_cast<std::size_t>(pid)] = env.pending_of(pid);
    if (env.restart_supported(pid)) frame.restartable |= pid_bit(pid);
    if (frame.pending[static_cast<std::size_t>(pid)].op == "sc") {
      frame.sc_ready |= pid_bit(pid);
    }
  }
  if (parent == nullptr) return frame;

  const Action parent_action = decode_action(parent->chosen);
  frame.sc_failed_before = parent->sc_failed_before;
  if (parent_action.kind == ActionKind::kScFailure) {
    frame.sc_failed_before |= pid_bit(parent_action.pid);
  }
  frame.faults_before = parent->faults_before +
                        (parent_action.kind == ActionKind::kGrant ? 0 : 1);
  if (takes_step(parent_action)) {
    frame.prev_grant = parent_action.pid;
    frame.preemptions_before =
        parent->preemptions_before + choice_cost(*parent, parent_action.pid);
    if (pass.use_por) {
      // Sleep-set propagation: everything asleep at the parent (inherited
      // or explored there) stays asleep iff it commutes with the operation
      // the parent's choice just performed.  Only plain grants in the
      // parent's done set count — fault siblings are not operations.
      const auto& parent_op =
          parent->pending[static_cast<std::size_t>(parent_action.pid)];
      const auto inherit = [&](int pid) {
        if (pid == parent_action.pid) return;
        if (ops_commute(parent->pending[static_cast<std::size_t>(pid)],
                        parent_op)) {
          frame.entry_sleep.push_back(pid);
        }
      };
      for (const int pid : parent->entry_sleep) inherit(pid);
      for (const int choice : parent->done) {
        const Action done_action = decode_action(choice);
        if (done_action.kind == ActionKind::kGrant) inherit(done_action.pid);
      }
      std::sort(frame.entry_sleep.begin(), frame.entry_sleep.end());
    }
  } else {
    // Crash/restart: not a shared-memory operation, so the commutation
    // bookkeeping does not extend across it — start this node with an empty
    // sleep set (sound: strictly less pruning).  Continuing the previously
    // granted process after an unrelated fault is still free.
    frame.prev_grant = parent->prev_grant;
    frame.preemptions_before = parent->preemptions_before;
  }
  return frame;
}

bool account_frame(const Frame& frame, const PassState& pass, Tally& tally) {
  bool cut_any = false;
  for (const int pid : frame.runnable) {
    if (pass.use_por && contains(frame.entry_sleep, pid)) {
      ++tally.stats.sleep_set_prunes;
      continue;
    }
    if (pass.budget >= 0 &&
        frame.preemptions_before + choice_cost(frame, pid) > pass.budget) {
      ++tally.stats.preemption_prunes;
      tally.budget_limited = true;
      cut_any = true;
    }
  }
  // Note: this must also count at fault_budget == 0 (where every fault
  // choice is cut) — the iterative sweep keys "deepen the fault budget?"
  // off fault_limited.
  const bool faults_enabled =
      pass.explore_crashes || pass.explore_restarts || pass.explore_sc;
  if (faults_enabled && frame.faults_before >= pass.fault_budget) {
    std::uint64_t cut = 0;
    if (pass.explore_crashes) cut += frame.runnable.size();
    for (const int pid : frame.runnable) {
      if (pass.explore_restarts && (frame.restartable & pid_bit(pid)) != 0) {
        ++cut;
      }
      if (pass.explore_sc && (frame.sc_ready & pid_bit(pid)) != 0 &&
          (frame.sc_failed_before & pid_bit(pid)) == 0) {
        ++cut;
      }
    }
    if (cut > 0) {
      tally.stats.fault_prunes += cut;
      tally.fault_limited = true;
      cut_any = true;
    }
  }
  return cut_any;
}

void mark_path_dirty(PassState& pass) {
  for (Frame& frame : pass.frames) frame.fp_dirty = true;
}


bool compute_fp_key(SystemInstance& instance, const sim::SimEnv& env,
                    Frame& frame) {
  const std::string fp = instance.fingerprint(env);
  if (fp.empty()) return false;
  FpHash hash;
  hash.str(fp);
  hash.u64(static_cast<std::uint64_t>(env.virtual_now()));
  const int n = env.process_count();
  hash.u64(static_cast<std::uint64_t>(n));
  for (int pid = 0; pid < n; ++pid) {
    const bool parked = env.is_parked(pid);
    hash.byte(parked ? 1 : 0);
    hash.u64(env.steps_of(pid));
    if (parked) {
      const sim::OpDesc& op = frame.pending[static_cast<std::size_t>(pid)];
      hash.str(op.object);
      hash.str(op.op);
      hash.u64(static_cast<std::uint64_t>(op.arg0));
      hash.u64(static_cast<std::uint64_t>(op.arg1));
    }
  }
  hash.u64(frame.restartable);
  hash.u64(frame.sc_ready);
  hash.u64(frame.sc_failed_before);
  hash.u64(static_cast<std::uint64_t>(frame.entry_sleep.size()));
  for (const int pid : frame.entry_sleep) {
    hash.u64(static_cast<std::uint64_t>(pid));
  }
  frame.fp_lo = hash.h1;
  frame.fp_hi = hash.h2;
  frame.fp_valid = true;
  return true;
}

bool advance(PassState& pass, UnitResult& unit, Scratch& scratch) {
  auto& frames = pass.frames;
  while (frames.size() > pass.floor) {
    Frame& frame = frames.back();
    frame.done.push_back(frame.chosen);
    frame.chosen = kNoChoice;
    const int next = select_choice(frame, pass);
    if (next != kNoChoice) {
      frame.chosen = next;
      return true;
    }
    if (frame.fp_valid) {
      unit.fp_partials.push_back({frame.fp_lo, frame.fp_hi, frame.fp_dirty});
    }
    scratch.spare.push_back(std::move(frames.back()));
    frames.pop_back();
  }
  return false;
}

void emit_open_frames(const PassState& pass, UnitResult& unit) {
  for (const Frame& frame : pass.frames) {
    if (frame.fp_valid) {
      unit.fp_partials.push_back({frame.fp_lo, frame.fp_hi, frame.fp_dirty});
    }
  }
}

bool try_split(PassState& pass, int steal_depth,
               std::vector<Frame>& thief_frames, std::size_t& thief_floor) {
  const std::size_t base =
      pass.floor + static_cast<std::size_t>(std::max(steal_depth, 0));
  for (std::size_t d = base; d < pass.frames.size(); ++d) {
    Frame probe = pass.frames[d];
    probe.done.push_back(probe.chosen);
    probe.chosen = kNoChoice;
    const int next = select_choice(probe, pass);
    if (next == kNoChoice) continue;
    probe.chosen = next;
    thief_frames.assign(pass.frames.begin(),
                        pass.frames.begin() + static_cast<std::ptrdiff_t>(d));
    thief_frames.push_back(std::move(probe));
    thief_floor = pass.floor;
    pass.floor = d + 1;
    return true;
  }
  return false;
}

}  // namespace bss::explore
