#include "src/memory/collect_snapshot.h"

namespace revisim::mem {

CollectSnapshot::CollectSnapshot(runtime::Scheduler& sched, std::string name,
                                 std::size_t m, std::size_t num_processes)
    : next_seq_(num_processes, 1) {
  cells_.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    cells_.push_back(std::make_unique<TypedRegister<Cell>>(
        sched, name + ".R" + std::to_string(j)));
  }
  sched.register_state_source(this);  // covers next_seq_; cells cover values
}

runtime::Task<std::vector<CollectSnapshot::Cell>> CollectSnapshot::collect() {
  std::vector<Cell> out;
  out.reserve(cells_.size());
  for (auto& cell : cells_) {
    out.push_back(co_await cell->read());
  }
  co_return out;
}

runtime::Task<View> CollectSnapshot::scan() {
  std::vector<Cell> prev = co_await collect();
  for (;;) {
    std::vector<Cell> cur = co_await collect();
    bool clean = true;
    for (std::size_t j = 0; j < cells_.size(); ++j) {
      if (cur[j].tag != prev[j].tag) {
        clean = false;
        break;
      }
    }
    if (clean) {
      View out(cells_.size());
      for (std::size_t j = 0; j < cells_.size(); ++j) {
        out[j] = cur[j].value;
      }
      co_return out;
    }
    prev = std::move(cur);
  }
}

runtime::Task<void> CollectSnapshot::update(runtime::ProcessId me,
                                            std::size_t j, Val v) {
  Cell cell;
  cell.tag = (next_seq_.at(me)++ << 16) | (static_cast<std::uint64_t>(me) + 1);
  cell.value = v;
  co_await cells_.at(j)->write(std::move(cell));
}

}  // namespace revisim::mem
