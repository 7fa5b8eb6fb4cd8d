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
  for (const Batch& batch : batches) {
    op_count += batch.bu->comps.size();
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
      op.ts = b.ts;
      op.from_atomic = b.completed && !b.yielded;
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
      res.ops.push_back(std::move(op));
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
    op.returned = s.returned;
    res.ops.push_back(std::move(op));
  }

  // Order: by point; Updates tied at one point by (timestamp, component).
  // A Scan's point is an H.scan step and an Update's point is an H.update
  // step, so Scans never tie with anything.
  std::sort(res.ops.begin(), res.ops.end(),
            [](const LinearizedOp& a, const LinearizedOp& b) {
              if (a.point != b.point) {
                return a.point < b.point;
              }
              if (a.ts != b.ts) {
                return a.ts < b.ts;
              }
              return a.component < b.component;
            });

  // --- checks -------------------------------------------------------------

  // Lemma 11: atomic Block-Updates are consecutive at X, in component order.
  for (const auto& b : log.block_updates) {
    if (!b.completed || b.yielded) {
      continue;
    }
    std::vector<std::size_t> positions;
    for (std::size_t i = 0; i < res.ops.size(); ++i) {
      if (res.ops[i].kind == LinearizedOp::Kind::kUpdate &&
          res.ops[i].op_id == b.op_id) {
        positions.push_back(i);
      }
    }
    for (std::size_t i = 0; i < positions.size(); ++i) {
      const auto& op = res.ops[positions[i]];
      if (op.point != b.step_x) {
        violate(fmt_op(b) + ": atomic but Update to component " +
                std::to_string(op.component) + " linearized at " +
                std::to_string(op.point) + " != X = " +
                std::to_string(b.step_x));
      }
      if (i > 0 && positions[i] != positions[i - 1] + 1) {
        violate(fmt_op(b) + ": atomic but Updates not consecutive");
      }
      if (i > 0 &&
          res.ops[positions[i]].component < res.ops[positions[i - 1]].component) {
        violate(fmt_op(b) + ": atomic Updates not in component order");
      }
    }
  }

  // Corollary 15: every Scan returns the fold of the Updates before it.
  {
    View contents(m);
    std::size_t next = 0;
    for (const auto& op : res.ops) {
      (void)next;
      if (op.kind == LinearizedOp::Kind::kUpdate) {
        contents.at(op.component) = op.value;
      } else if (op.returned != contents) {
        violate("Scan#" + std::to_string(op.op_id) + " by q" +
                std::to_string(op.process + 1) + " returned " +
                revisim::to_string(op.returned) + " but contents are " +
                revisim::to_string(contents));
      }
    }
  }

  // Lemma 19: window property of atomic Block-Updates.
  {
    for (const auto& b : log.block_updates) {
      if (!b.completed || b.yielded) {
        continue;
      }
      // Sequence index of B's first Update (all at X).
      std::size_t z_index = res.ops.size();
      for (std::size_t i = 0; i < res.ops.size(); ++i) {
        if (res.ops[i].kind == LinearizedOp::Kind::kUpdate &&
            res.ops[i].op_id == b.op_id) {
          z_index = i;
          break;
        }
      }
      if (z_index == res.ops.size()) {
        violate(fmt_op(b) + ": atomic but has no linearized Updates");
        continue;
      }
      // Z': sequence index just after the last atomic Update before Z
      // (0 if none): candidate points T live in [z_prime_index, z_index].
      std::size_t z_prime_index = 0;
      for (std::size_t i = z_index; i-- > 0;) {
        if (res.ops[i].kind == LinearizedOp::Kind::kUpdate &&
            res.ops[i].from_atomic) {
          z_prime_index = i + 1;
          break;
        }
      }
      // Replay to find whether some T in [z_prime_index, z_index] has
      // contents == b.returned with no Scan in (T, Z).
      View contents(m);
      std::vector<View> prefix_contents(res.ops.size() + 1);
      prefix_contents[0] = contents;
      for (std::size_t i = 0; i < res.ops.size(); ++i) {
        if (res.ops[i].kind == LinearizedOp::Kind::kUpdate) {
          contents.at(res.ops[i].component) = res.ops[i].value;
        }
        prefix_contents[i + 1] = contents;
      }
      bool found = false;
      for (std::size_t t = z_index + 1; t-- > z_prime_index;) {
        // T = position t: contents after the first t ops.
        bool scan_between = false;
        for (std::size_t i = t; i < z_index; ++i) {
          if (res.ops[i].kind == LinearizedOp::Kind::kScan) {
            scan_between = true;
            break;
          }
        }
        if (scan_between) {
          continue;
        }
        if (prefix_contents[t] == b.returned) {
          res.windows.push_back(Window{b.op_id, t, z_index});
          found = true;
          break;
        }
        // Lemma 19 additionally promises that everything between T and Z is
        // a yielded Update by another process; once we cross a non-yielded
        // Update going backwards we can stop.
      }
      if (!found) {
        violate(fmt_op(b) + ": returned view " +
                revisim::to_string(b.returned) +
                " is not the contents at any valid window point");
      }
    }
  }

  // Lemma 18: windows of atomic Block-Updates are pairwise disjoint.  Our
  // per-block windows are chosen maximal-T, so it suffices that each
  // window's T lies at or past the end of every earlier window.
  {
    std::vector<Window> sorted = res.windows;
    std::sort(sorted.begin(), sorted.end(),
              [](const Window& a, const Window& w) {
                return a.z_index < w.z_index;
              });
    for (std::size_t i = 1; i < sorted.size(); ++i) {
      if (sorted[i].t_index < sorted[i - 1].z_index + 1) {
        // T of the later window strictly inside the earlier (T', Z'].
        if (sorted[i].t_index <= sorted[i - 1].z_index &&
            sorted[i].t_index > sorted[i - 1].t_index) {
          violate("Lemma 18: windows of BlockUpdate#" +
                  std::to_string(sorted[i - 1].op_id) + " and #" +
                  std::to_string(sorted[i].op_id) + " overlap");
        }
      }
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
