#include "src/augmented/linearizer.h"

#include <algorithm>
#include <optional>
#include <sstream>

namespace revisim::aug {
namespace {

std::string fmt_op(const BlockUpdateOpRecord& b) {
  std::ostringstream out;
  out << "BlockUpdate#" << b.op_id << " by q" << b.process + 1;
  return out.str();
}

// A Scan's timestamp in the sort: it orders like an empty one.
const Timestamp kNoTimestamp;

bool is_atomic(const BlockUpdateOpRecord& b) {
  return b.completed && !b.yielded;
}

}  // namespace

LinearizationResult linearize(const OpLog& log, std::size_t m) {
  LinearizationResult res;
  auto violate = [&res](const std::string& msg) {
    res.violations.push_back(msg);
  };

  // Collect the line-4 updates that actually happened; each appended one
  // triple batch (all sharing the Block-Update's timestamp).
  struct Batch {
    const BlockUpdateOpRecord* bu;
  };
  std::vector<Batch> batches;
  for (const auto& b : log.block_updates) {
    if (b.step_x != kNoStep) {
      batches.push_back(Batch{&b});
    }
  }
  std::sort(batches.begin(), batches.end(), [](const Batch& a, const Batch& b) {
    return a.bu->step_x < b.bu->step_x;
  });

  // Linearization point of the Update (component, ts): the first line-4 step
  // whose batch contains a triple for that component with timestamp >= ts.
  auto lin_point = [&batches](std::size_t component,
                              const Timestamp& ts) -> std::size_t {
    for (const Batch& batch : batches) {
      if (batch.bu->ts >= ts) {
        for (std::size_t c : batch.bu->comps) {
          if (c == component) {
            return batch.bu->step_x;
          }
        }
      }
    }
    return kNoStep;  // unreachable: the Update's own batch qualifies
  };

  std::size_t op_count = log.scans.size();
  std::size_t atomic = 0;      // atomic Block-Updates: one window each
  std::size_t update_ids = 0;  // one past the largest linearized op id
  for (const Batch& batch : batches) {
    op_count += batch.bu->comps.size();
    update_ids = std::max(update_ids, batch.bu->op_id + 1);
  }
  for (const auto& b : log.block_updates) {
    atomic += is_atomic(b) ? 1 : 0;
  }
  res.ops.reserve(op_count);
  for (const auto& b : log.block_updates) {
    if (b.step_x == kNoStep) {
      continue;  // crashed before X: its Updates never took effect
    }
    for (std::size_t g = 0; g < b.comps.size(); ++g) {
      LinearizedOp op;
      op.kind = LinearizedOp::Kind::kUpdate;
      op.op_id = b.op_id;
      op.process = b.process;
      op.position = g;
      op.component = b.comps[g];
      op.value = b.vals[g];
      op.ts = &b.ts;
      op.from_atomic = is_atomic(b);
      op.point = lin_point(b.comps[g], b.ts);
      if (op.point == kNoStep) {
        violate(fmt_op(b) + ": no linearization point for component " +
                std::to_string(b.comps[g]));
        op.point = b.step_x;
      }
      // Lemma 12: after the line-2 scan, no later than X.
      if (!(op.point > b.step_h && op.point <= b.step_x)) {
        violate(fmt_op(b) + ": Update to component " +
                std::to_string(b.comps[g]) + " linearized at step " +
                std::to_string(op.point) + " outside (H, X] = (" +
                std::to_string(b.step_h) + ", " + std::to_string(b.step_x) +
                "]");
      }
      res.ops.push_back(op);
    }
  }

  for (const auto& s : log.scans) {
    if (!s.completed) {
      continue;
    }
    LinearizedOp op;
    op.kind = LinearizedOp::Kind::kScan;
    op.op_id = s.op_id;
    op.process = s.process;
    op.point = s.last_step;
    op.returned = &s.returned;
    res.ops.push_back(op);
  }

  // Order: by point; Updates tied at one point by (timestamp, component).
  // A Scan's point is an H.scan step and an Update's point is an H.update
  // step, so Scans never tie with anything.
  std::sort(res.ops.begin(), res.ops.end(),
            [](const LinearizedOp& a, const LinearizedOp& b) {
              if (a.point != b.point) {
                return a.point < b.point;
              }
              const Timestamp& ta = a.ts ? *a.ts : kNoTimestamp;
              const Timestamp& tb = b.ts ? *b.ts : kNoTimestamp;
              if (const auto order = ta <=> tb; order != 0) {
                return order < 0;
              }
              return a.component < b.component;
            });
  const auto& ops = res.ops;

  // Sequence index of each linearized Block-Update's first Update, by op
  // id; only atomic Block-Updates (Lemmas 11 and 19) read it.
  std::vector<std::size_t> first_update(atomic != 0 ? update_ids : 0,
                                        kNoStep);
  if (atomic != 0) {
    for (std::size_t i = ops.size(); i-- > 0;) {
      if (ops[i].kind == LinearizedOp::Kind::kUpdate) {
        first_update[ops[i].op_id] = i;
      }
    }
  }
  auto first_update_of = [&first_update](const BlockUpdateOpRecord& b) {
    return b.op_id < first_update.size() ? first_update[b.op_id] : kNoStep;
  };

  // --- checks -------------------------------------------------------------

  // Lemma 11: atomic Block-Updates are consecutive at X, in component order.
  // All of a Block-Update's Updates lie at or after its first one.
  for (const auto& b : log.block_updates) {
    if (!is_atomic(b)) {
      continue;
    }
    std::size_t prev = kNoStep;
    std::size_t seen = 0;
    for (std::size_t i = first_update_of(b);
         i < ops.size() && seen < b.comps.size(); ++i) {
      const auto& op = ops[i];
      if (op.kind != LinearizedOp::Kind::kUpdate || op.op_id != b.op_id) {
        continue;
      }
      if (op.point != b.step_x) {
        violate(fmt_op(b) + ": atomic but Update to component " +
                std::to_string(op.component) + " linearized at " +
                std::to_string(op.point) + " != X = " +
                std::to_string(b.step_x));
      }
      if (prev != kNoStep && i != prev + 1) {
        violate(fmt_op(b) + ": atomic but Updates not consecutive");
      }
      if (prev != kNoStep && op.component < ops[prev].component) {
        violate(fmt_op(b) + ": atomic Updates not in component order");
      }
      prev = i;
      ++seen;
    }
  }

  // Corollary 15: every Scan returns the fold of the Updates before it.
  // When some Block-Update is atomic, the fold also fills the prefix
  // contents Lemma 19 reads: row t (m entries) is the contents after the
  // first t ops.
  std::vector<std::optional<Val>> prefix(
      atomic != 0 ? (ops.size() + 1) * m : 0);
  {
    View contents(m);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const auto& op = ops[i];
      if (op.kind == LinearizedOp::Kind::kUpdate) {
        contents.at(op.component) = op.value;
      } else if (*op.returned != contents) {
        violate("Scan#" + std::to_string(op.op_id) + " by q" +
                std::to_string(op.process + 1) + " returned " +
                revisim::to_string(*op.returned) + " but contents are " +
                revisim::to_string(contents));
      }
      if (!prefix.empty()) {
        std::copy(contents.begin(), contents.end(),
                  prefix.begin() + static_cast<std::ptrdiff_t>((i + 1) * m));
      }
    }
  }

  // Lemma 19: window property of atomic Block-Updates.  Candidate points T
  // run down from Z, the sequence index of B's first Update (all at X), to
  // Z', the index just past the last atomic Update before Z (0 if none),
  // and stop early at a Scan: T needs no Scan in (T, Z).  The window is the
  // latest T whose contents equal b.returned.
  res.windows.reserve(atomic);
  for (const auto& b : log.block_updates) {
    if (!is_atomic(b)) {
      continue;
    }
    const std::size_t z_index = first_update_of(b);
    if (z_index == kNoStep) {
      violate(fmt_op(b) + ": atomic but has no linearized Updates");
      continue;
    }
    bool found = false;
    for (std::size_t t = z_index;; --t) {
      const auto row = prefix.begin() + static_cast<std::ptrdiff_t>(t * m);
      if (std::equal(row, row + static_cast<std::ptrdiff_t>(m),
                     b.returned.begin(), b.returned.end())) {
        res.windows.push_back(Window{b.op_id, t, z_index});
        found = true;
        break;
      }
      if (t == 0 || ops[t - 1].kind == LinearizedOp::Kind::kScan ||
          ops[t - 1].from_atomic) {
        break;
      }
    }
    if (!found) {
      violate(fmt_op(b) + ": returned view " +
              revisim::to_string(b.returned) +
              " is not the contents at any valid window point");
    }
  }

  // Theorem 20: yields only under smaller-id interference.
  for (const auto& b : log.block_updates) {
    if (!b.completed || !b.yielded) {
      continue;
    }
    bool interfered = false;
    for (const auto& other : log.block_updates) {
      if (other.process < b.process && other.step_x != kNoStep &&
          other.step_x > b.step_h && other.step_x < b.step_h2) {
        interfered = true;
        break;
      }
    }
    if (!interfered) {
      violate(fmt_op(b) +
              ": yielded without a smaller-id update in its interval");
    }
  }

  return res;
}

}  // namespace revisim::aug
