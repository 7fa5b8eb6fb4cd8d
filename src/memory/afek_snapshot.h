// Wait-free single-writer snapshot from single-writer registers, after Afek,
// Attiya, Dolev, Gafni, Merritt and Shavit [2] (unbounded-sequence-number
// variant).
//
// The paper's real system takes an atomic single-writer snapshot as a base
// object and cites [2] for its register implementation; this module is that
// substrate, so that every layer of the reproduction bottoms out in plain
// registers - including the augmented snapshot and the whole revisionist
// simulation (see aug::RegisterAugmentedSnapshot).
//
// Each register cell holds (value, sequence number, embedded view).  An
// update performs a scan and publishes it with the new value.  A scan does
// repeated collects: two identical collects give a direct snapshot; a writer
// observed to move twice has embedded a view taken entirely within the
// scan's interval, which is borrowed.
//
// Operations report their *linearization step*: for a clean double collect
// the first read of the confirming collect (no cell changes between the two
// collects, so the returned view is the memory state at that instant); for
// a borrowed view, the linearization step recorded with the embedded scan
// (which lies inside the borrowing scan's interval); for an update, its
// final register write.  Layers built on top (the augmented snapshot's
// §3.3 linearizer) order H-operations by these points, which is exactly
// what linearizability licenses.
//
// AfekSnapshotT<T> is the generic engine (component type T); AfekSnapshot is
// the classic optional<Val> instance used by the memory tests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/memory/register.h"
#include "src/runtime/task.h"
#include "src/util/value.h"

namespace revisim::mem {

template <typename T>
class AfekSnapshotT {
 public:
  struct ScanOutcome {
    std::vector<T> view;
    std::size_t lin_step = 0;  // global step index where the scan took effect
  };

  AfekSnapshotT(runtime::Scheduler& sched, std::string name, std::size_t n)
      : sched_(sched) {
    cells_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      cells_.push_back(std::make_unique<TypedRegister<Cell>>(
          sched, name + ".R" + std::to_string(i)));
    }
  }

  [[nodiscard]] std::size_t components() const noexcept {
    return cells_.size();
  }

  // Wait-free scan; at most 2n+1 collects, i.e. O(n^2) register reads.
  runtime::Task<ScanOutcome> scan(runtime::ProcessId me) {
    (void)me;  // scans are symmetric; kept for interface uniformity
    const std::size_t n = cells_.size();
    std::vector<int> moved(n, 0);
    Collect prev = co_await collect();
    for (;;) {
      Collect cur = co_await collect();
      bool clean = true;
      for (std::size_t j = 0; j < n; ++j) {
        if (cur.cells[j].seq != prev.cells[j].seq) {
          clean = false;
          // A second observed move by j means j's latest update embedded a
          // view obtained entirely inside this scan's interval; borrow it
          // together with its linearization point.
          if (++moved[j] == 2) {
            co_return ScanOutcome{cur.cells[j].view, cur.cells[j].view_lin};
          }
        }
      }
      if (clean) {
        // No cell changed between the collects, so the memory state at the
        // confirming collect's first read equals the returned view.
        ScanOutcome out;
        out.view.reserve(n);
        for (std::size_t j = 0; j < n; ++j) {
          out.view.push_back(cur.cells[j].value);
        }
        out.lin_step = cur.first_step;
        co_return out;
      }
      prev = std::move(cur);
    }
  }

  // Test/debug peek: current component values, outside any execution.
  [[nodiscard]] std::vector<T> peek() const {
    std::vector<T> out;
    out.reserve(cells_.size());
    for (const auto& cell : cells_) {
      out.push_back(cell->peek().value);
    }
    return out;
  }

  // Wait-free update of the caller's own component; linearizes at its final
  // register write (= its last step).
  runtime::Task<void> update(runtime::ProcessId me, T v) {
    ScanOutcome embedded = co_await scan(me);
    Cell old = co_await cells_.at(me)->read();
    Cell next;
    next.value = std::move(v);
    next.seq = old.seq + 1;
    next.view = std::move(embedded.view);
    next.view_lin = embedded.lin_step;
    co_await cells_.at(me)->write(std::move(next));
  }

 private:
  // The cells live in TypedRegisters, which self-register as fingerprint
  // sources; this member encoding is what they feed.  The snapshot object
  // itself holds no other mutable state (scan/update locals live in
  // coroutine frames, covered by the explorer's soundness contract).
  struct Cell {
    T value{};
    std::uint64_t seq = 0;
    std::vector<T> view;        // embedded scan published with this write
    std::size_t view_lin = 0;   // linearization step of that embedded scan

    void fingerprint_into(util::StateSink& sink) const {
      util::feed(sink, value);
      util::feed(sink, seq);
      util::feed(sink, view);
      util::feed(sink, view_lin);
    }
  };

  struct Collect {
    std::vector<Cell> cells;
    std::size_t first_step = 0;  // global step index of the first read
  };

  runtime::Task<Collect> collect() {
    Collect out;
    out.cells.reserve(cells_.size());
    out.first_step = sched_.total_steps();  // the next step is our 1st read
    for (auto& cell : cells_) {
      out.cells.push_back(co_await cell->read());
    }
    co_return out;
  }

  runtime::Scheduler& sched_;
  std::vector<std::unique_ptr<TypedRegister<Cell>>> cells_;
};

// The classic Val-payload instance (component i holds process i's value,
// initially bottom).
class AfekSnapshot {
 public:
  AfekSnapshot(runtime::Scheduler& sched, std::string name, std::size_t n)
      : impl_(sched, std::move(name), n) {}

  [[nodiscard]] std::size_t components() const noexcept {
    return impl_.components();
  }

  runtime::Task<View> scan(runtime::ProcessId me) {
    auto out = co_await impl_.scan(me);
    co_return std::move(out.view);
  }

  runtime::Task<void> update(runtime::ProcessId me, Val v) {
    return impl_.update(me, std::optional<Val>(v));
  }

 private:
  AfekSnapshotT<std::optional<Val>> impl_;
};

}  // namespace revisim::mem
