// Closed-form worlds shared by the explorer tests.
//
// ScriptWorld: process i performs writes[i] steps, and every step appends
// the process id to a world-local order log, so a completed execution's
// log *is* its schedule.  Leaf counts are multinomial coefficients and a
// planted violation's DFS index is the lexicographic rank of its schedule,
// which pins down cap-boundary accounting, the lexicographically-smallest
// witness guarantee, and bit-identical results across thread counts,
// worker counts and steal timings.
//
// RegisterWorld: `procs` processes write 1, 2, ..., writes to one shared
// register, through the real memory primitive (mem::TypedRegister) rather
// than ScriptWorld's raw StepAwaiters; it accepts every execution.
//
// LastWriterWorld: processes stamp their id into one shared register.  The
// canonical state collapses to (per-process progress, last writer), so
// schedules that agree on those merge and the transposition win is
// combinatorial.  The verdict reads only shared state, satisfying the
// fingerprint soundness contract with no fingerprint_extra.
//
// HeapTouchingWorld: a registry world (src/check/worlds.h) that takes
// memory the arena does not serve, an OffArena block, so the explorer
// cannot rewind it in place and replays it instead
// (src/check/explore_core.h).  Ordinary heap containers would not do: the
// arena serves those inside a build or step (src/util/pool.h).  With
// at_step == 0 it holds the block from its build on, so a walk replays from
// the start.  With at_step == k the first step after the world has taken k
// steps takes it, and a walk switches to replay in the middle.  The block
// changes no execution, so a wrapped walk must match the bare one bit for
// bit.
//
// StealForcingWorld: forwards to any world and makes a parallel walk steal
// for real however fast it walks.  The first build (the seed job's) waits
// long enough for the other workers to start and turn hungry, so the seed's
// worker donates at its first expansion, and the first verdict waits until
// a second world is built, so a thief claims that donation before the
// donor can finish its own region and claim it back.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/check/model_check.h"
#include "src/check/worlds.h"
#include "src/memory/register.h"
#include "src/runtime/scheduler.h"
#include "src/util/fingerprint.h"
#include "src/util/pool.h"

namespace revisim::test_worlds {

using Schedule = std::vector<runtime::ProcessId>;

// Over-aligned, so the global operator new takes it from the heap even
// inside a capture window (src/util/pool.h): a world holding one cannot be
// rewound in place.
struct alignas(2 * __STDCPP_DEFAULT_NEW_ALIGNMENT__) OffArena {
  std::size_t value = 0;
};

// `steps`, when set, counts the steps taken; it lives outside the world,
// so a restore does not rewind it.
inline runtime::Task<void> count_script(runtime::Scheduler& sched,
                                        std::size_t obj, Schedule& order,
                                        runtime::ProcessId me,
                                        std::size_t writes,
                                        std::size_t* steps) {
  for (std::size_t i = 0; i < writes; ++i) {
    co_await runtime::StepAwaiter<void>(
        sched,
        [&order, me, steps] {
          order.push_back(me);
          if (steps != nullptr) {
            ++*steps;
          }
        },
        obj, runtime::StepKind::kWrite, {});
  }
}

// Flags a violation on any completed execution whose schedule is in
// `planted`.  The order log is a plain std::vector its steps grow, which
// the arena serves, so the explorer walks the world in place.
class ScriptWorld final : public check::ExplorableWorld {
 public:
  explicit ScriptWorld(std::vector<std::size_t> writes,
                       std::vector<Schedule> planted = {},
                       std::size_t* steps = nullptr)
      : planted_(std::move(planted)) {
    const std::size_t shared = sched_.register_object("r");
    for (runtime::ProcessId p = 0; p < writes.size(); ++p) {
      sched_.spawn(count_script(sched_, shared, order_, p, writes[p], steps),
                   "q");
    }
  }

  runtime::Scheduler& scheduler() override { return sched_; }

  std::optional<std::string> verdict(bool complete) override {
    if (complete &&
        std::find(planted_.begin(), planted_.end(), order_) != planted_.end()) {
      return "planted violation";
    }
    return std::nullopt;
  }

  // The verdict reads the order log, so the soundness contract requires
  // folding it in; every state is then unique, and dedupe must prune
  // nothing and reproduce undeduped results bit-for-bit.
  void fingerprint_extra(util::StateSink& sink) override {
    util::feed(sink, order_);
  }

  const Schedule& order() const { return order_; }

 private:
  runtime::Scheduler sched_;
  Schedule order_;
  std::vector<Schedule> planted_;
};

inline auto script_factory(std::vector<std::size_t> writes,
                           std::vector<Schedule> planted = {},
                           std::size_t* steps = nullptr) {
  return [writes = std::move(writes), planted = std::move(planted), steps] {
    return std::make_unique<ScriptWorld>(writes, planted, steps);
  };
}

inline runtime::Task<void> count_up(mem::TypedRegister<int>& reg,
                                    std::size_t writes) {
  for (std::size_t i = 1; i <= writes; ++i) {
    co_await reg.write(static_cast<int>(i));
  }
}

class RegisterWorld final : public check::ExplorableWorld {
 public:
  RegisterWorld(std::size_t procs, std::size_t writes) {
    for (std::size_t p = 0; p < procs; ++p) {
      sched_.spawn(count_up(shared_, writes), "q");
    }
  }

  runtime::Scheduler& scheduler() override { return sched_; }

  std::optional<std::string> verdict(bool /*complete*/) override {
    return std::nullopt;
  }

 private:
  runtime::Scheduler sched_;
  mem::TypedRegister<int> shared_{sched_, "shared", 0};
};

inline auto register_factory(std::size_t procs, std::size_t writes) {
  return [=] { return std::make_unique<RegisterWorld>(procs, writes); };
}

inline runtime::Task<void> tag_script(mem::TypedRegister<Val>& reg, Val me,
                                      std::size_t writes) {
  for (std::size_t i = 0; i < writes; ++i) {
    co_await reg.write(me);
  }
}

// Flags a completed execution whose last writer is `banned`.
class LastWriterWorld final : public check::ExplorableWorld {
 public:
  LastWriterWorld(std::vector<std::size_t> writes, Val banned)
      : reg_(sched_, "R", Val{-1}), banned_(banned) {
    for (runtime::ProcessId p = 0; p < writes.size(); ++p) {
      sched_.spawn(tag_script(reg_, Val(p), writes[p]), "w");
    }
  }

  runtime::Scheduler& scheduler() override { return sched_; }

  std::optional<std::string> verdict(bool complete) override {
    if (complete && reg_.peek() == banned_) {
      return "banned last writer";
    }
    return std::nullopt;
  }

 private:
  runtime::Scheduler sched_;
  mem::TypedRegister<Val> reg_;
  Val banned_;
};

inline auto last_writer_factory(std::vector<std::size_t> writes, Val banned) {
  return [writes = std::move(writes), banned] {
    return std::make_unique<LastWriterWorld>(writes, banned);
  };
}

class HeapTouchingWorld final : public check::ExplorableWorld {
 public:
  HeapTouchingWorld(std::unique_ptr<check::ExplorableWorld> inner,
                    std::size_t at_step)
      : inner_(std::move(inner)), at_step_(at_step) {
    if (at_step_ == 0) {
      held_ = std::make_unique<OffArena>();
    }
  }

  // The explorer asks for the scheduler inside the capture window only to
  // take a step (src/check/explore_core.cpp): the block is taken there.
  runtime::Scheduler& scheduler() override {
    runtime::Scheduler& sched = inner_->scheduler();
    if (held_ == nullptr && util::capturing() &&
        sched.total_steps() >= at_step_) {
      held_ = std::make_unique<OffArena>();
    }
    return sched;
  }
  std::optional<std::string> verdict(bool complete) override {
    return inner_->verdict(complete);
  }
  util::Fingerprint fingerprint() override { return inner_->fingerprint(); }
  void fingerprint_extra(util::StateSink& sink) override {
    inner_->fingerprint_extra(sink);
  }
  std::string canonical_state() override { return inner_->canonical_state(); }

 private:
  std::unique_ptr<check::ExplorableWorld> inner_;
  std::size_t at_step_;
  std::unique_ptr<OffArena> held_;
};

template <std::invocable Factory>
auto heap_touching_factory(Factory bare, std::size_t at_step) {
  return [bare = std::move(bare), at_step] {
    return std::make_unique<HeapTouchingWorld>(bare(), at_step);
  };
}

inline auto heap_touching_factory(const std::string& spec,
                                  std::size_t at_step) {
  return heap_touching_factory(check::make_world_factory(spec), at_step);
}

struct StealGate {
  std::atomic<std::size_t> builds{0};
  std::atomic<bool> verdict_waited{false};
};

class StealForcingWorld final : public check::ExplorableWorld {
 public:
  StealForcingWorld(std::unique_ptr<check::ExplorableWorld> inner,
                    StealGate& gate)
      : inner_(std::move(inner)), gate_(gate) {}

  runtime::Scheduler& scheduler() override { return inner_->scheduler(); }
  std::optional<std::string> verdict(bool complete) override {
    if (!gate_.verdict_waited.exchange(true)) {
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (gate_.builds.load() < 2 &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return inner_->verdict(complete);
  }
  util::Fingerprint fingerprint() override { return inner_->fingerprint(); }
  void fingerprint_extra(util::StateSink& sink) override {
    inner_->fingerprint_extra(sink);
  }
  std::string canonical_state() override { return inner_->canonical_state(); }

 private:
  std::unique_ptr<check::ExplorableWorld> inner_;
  StealGate& gate_;
};

template <std::invocable Factory>
auto steal_forcing_factory(Factory inner, StealGate& gate) {
  return [inner = std::move(inner), &gate] {
    if (gate.builds.fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return std::make_unique<StealForcingWorld>(inner(), gate);
  };
}

}  // namespace revisim::test_worlds
