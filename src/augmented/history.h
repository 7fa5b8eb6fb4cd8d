// Operation-level history of an augmented snapshot execution.
//
// The object records, for every Scan and Block-Update it executes, the
// global step indices of the constituent H operations together with inputs
// and results.  The linearizer (linearizer.h) consumes this log to compute
// the linearization that Section 3.3 of the paper constructs and to check
// Lemmas 10-19 and Theorem 20 on the actual execution.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "src/augmented/timestamp.h"
#include "src/runtime/trace.h"
#include "src/util/fingerprint.h"
#include "src/util/value.h"

namespace revisim::aug {

inline constexpr std::size_t kNoStep = std::numeric_limits<std::size_t>::max();

// A record is written while its operation runs and never again once
// `completed` is set.  From then on it is a sealed sub-object
// (src/util/fingerprint.h): hashing sinks take its content digest, sealed
// on the first fingerprint that meets it completed, and TextSink still
// renders its content.  An open record feeds its content to every sink.

struct ScanOpRecord {
  std::size_t op_id = 0;
  runtime::ProcessId process = 0;
  std::size_t first_step = kNoStep;  // first H.scan of the double collect
  std::size_t last_step = kNoStep;   // confirming H.scan: the linearization point
  View returned;
  bool completed = false;

  void fingerprint_into(util::StateSink& sink) const {
    if (completed) {
      util::feed_sealed(sink, digest_, *this);
    } else {
      feed_content(sink);
    }
  }

  void feed_content(util::StateSink& sink) const {
    util::feed(sink, op_id);
    util::feed(sink, process);
    util::feed(sink, first_step);
    util::feed(sink, last_step);
    util::feed(sink, returned);
    util::feed(sink, completed);
  }

 private:
  util::LazyDigest digest_;
};

struct BlockUpdateOpRecord {
  std::size_t op_id = 0;
  runtime::ProcessId process = 0;
  std::vector<std::size_t> comps;   // components updated, in call order
  std::vector<Val> vals;
  Timestamp ts;                     // timestamp shared by all its Updates
  std::size_t step_h = kNoStep;     // line 2: scan H
  std::size_t step_x = kNoStep;     // line 4: update X appending the triples
  std::size_t step_g = kNoStep;     // line 5: scan G
  std::size_t step_help = kNoStep;  // lines 6-7: helping update
  std::size_t step_h2 = kNoStep;    // line 8: scan H'
  std::size_t step_read = kNoStep;  // lines 12-15: scan reading L_{j,i}
  bool yielded = false;             // returned the yield symbol
  bool completed = false;
  View returned;  // view returned when atomic (completed && !yielded)

  void fingerprint_into(util::StateSink& sink) const {
    if (completed) {
      util::feed_sealed(sink, digest_, *this);
    } else {
      feed_content(sink);
    }
  }

  void feed_content(util::StateSink& sink) const {
    util::feed(sink, op_id);
    util::feed(sink, process);
    util::feed(sink, comps);
    util::feed(sink, vals);
    util::feed(sink, ts);
    util::feed(sink, step_h);
    util::feed(sink, step_x);
    util::feed(sink, step_g);
    util::feed(sink, step_help);
    util::feed(sink, step_h2);
    util::feed(sink, step_read);
    util::feed(sink, yielded);
    util::feed(sink, completed);
    util::feed(sink, returned);
  }

 private:
  util::LazyDigest digest_;
};

struct OpLog {
  std::vector<ScanOpRecord> scans;
  std::vector<BlockUpdateOpRecord> block_updates;
  std::size_t next_op_id = 0;

  // The log is verdict input (the §3.3 linearizer consumes it), so it is
  // part of the canonical state wherever an explorer verdict reads it.
  // Step indices are included: two interleavings whose logs cite different
  // global steps can linearize differently, so they must not be merged.
  void fingerprint_into(util::StateSink& sink) const {
    util::feed(sink, scans);
    util::feed(sink, block_updates);
    util::feed(sink, next_op_id);
  }

  [[nodiscard]] const BlockUpdateOpRecord* find_block_update(
      std::size_t op_id) const {
    for (const auto& b : block_updates) {
      if (b.op_id == op_id) {
        return &b;
      }
    }
    return nullptr;
  }
};

}  // namespace revisim::aug
