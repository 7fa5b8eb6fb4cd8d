// Atomic m-component multi-writer snapshot object (§2, "Registers and
// Snapshot objects").  This is the base object of the *simulated* system: an
// update(j, v) sets component j; a scan returns all m components atomically.
//
// The paper counts an m-component snapshot as m registers (the two are
// interimplementable, [2]); src/memory/collect_snapshot.h carries the
// from-registers direction as substrate evidence.
#pragma once

#include <string>

#include "src/runtime/scheduler.h"
#include "src/util/fingerprint.h"
#include "src/util/value.h"

namespace revisim::mem {

class MWSnapshot : public util::Fingerprintable {
 public:
  MWSnapshot(runtime::Scheduler& sched, std::string name, std::size_t m)
      : sched_(sched),
        id_(sched.register_object(std::move(name))),
        comps_(m) {
    sched.register_state_source(this);
  }

  [[nodiscard]] std::size_t components() const noexcept { return comps_.size(); }

  void fingerprint_into(util::StateSink& sink) const override {
    util::feed(sink, comps_);
  }

  runtime::StepAwaiter<View> scan() {
    return {sched_, [this] { return comps_; }, id_, runtime::StepKind::kScan,
            {}};
  }

  runtime::StepAwaiter<void> update(std::size_t j, Val v) {
    return {sched_,
            [this, j, v] { comps_.at(j) = v; },
            id_,
            runtime::StepKind::kUpdate,
            sched_.recording()
                ? "c" + std::to_string(j) + "=" + std::to_string(v)
                : std::string{}};
  }

  [[nodiscard]] const View& peek() const noexcept { return comps_; }

 private:
  runtime::Scheduler& sched_;
  std::size_t id_;
  View comps_;
};

}  // namespace revisim::mem
