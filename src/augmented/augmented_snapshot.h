// The m-component augmented snapshot object of Section 3, implemented in the
// real system exactly per Algorithms 1-4.
//
// Interface (§3.1): Scan returns the current view of the m components.
// Block-Update(comps, vals) performs one Update per component; the Updates
// are individually atomic but not necessarily consecutive.  A Block-Update
// either returns a view of the object from a recent point of the execution
// (then it is *atomic*: its Updates linearize consecutively at its line-4
// update, and the view satisfies the window property of Lemma 19), or it
// returns the yield symbol, which in this implementation happens only when a
// process with a *smaller* id performed an update inside its execution
// interval (Theorem 20) - in particular q1's Block-Updates are always
// atomic.
//
// Implementation notes:
//  * H is a single-writer snapshot whose component i is process q_{i+1}'s
//    append-only log of update triples and helping records; the paper's
//    auxiliary registers L_{i,j}[b] are fields of H[i] (§3.2).  Each log
//    version is an immutable, digest-carrying HComp (hstate.h): appends
//    build the next version, so scans copy f handles and no published or
//    scanned version ever changes.
//  * Each of the paper's loop bodies that performs several single-writer
//    writes is a single update of H, exactly as the step-complexity proof of
//    Lemma 2 counts: a Block-Update is 6 H-steps (5 when it yields), a Scan
//    is 2k+3 H-steps when k concurrent update batches land on H.
//  * The implementation is generic over the *H provider*: AugmentedSnapshot
//    uses the atomic model single-writer snapshot (the paper's base
//    object); RegisterAugmentedSnapshot uses the Afek-et-al. construction,
//    so the whole object - and everything built on it, including the
//    revisionist simulation - bottoms out in plain registers.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/augmented/history.h"
#include "src/augmented/hstate.h"
#include "src/memory/afek_snapshot.h"
#include "src/memory/sw_snapshot.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/task.h"
#include "src/util/value.h"

namespace revisim::aug {

// Abstract augmented snapshot: what the simulation layer programs against.
class IAugmentedSnapshot {
 public:
  struct ScanResult {
    View view;
    std::size_t op_id = 0;
  };

  struct BlockUpdateResult {
    bool yielded = false;  // true: the yield symbol, no view
    View view;             // valid iff !yielded
    std::size_t op_id = 0;
  };

  virtual ~IAugmentedSnapshot() = default;

  [[nodiscard]] virtual std::size_t components() const noexcept = 0;
  [[nodiscard]] virtual std::size_t processes() const noexcept = 0;

  // Algorithm 3.  Non-blocking: only an infinite stream of concurrent
  // Block-Updates can starve it.
  virtual runtime::Task<ScanResult> Scan(runtime::ProcessId me) = 0;

  // A Block-Update's arguments.
  using Comps = std::vector<std::size_t>;
  using Vals = std::vector<Val>;

  // Algorithm 4.  Wait-free: exactly 6 steps on H (5 when yielding).
  virtual runtime::Task<BlockUpdateResult> BlockUpdate(runtime::ProcessId me,
                                                       Comps comps,
                                                       Vals vals) = 0;

  [[nodiscard]] virtual const OpLog& log() const noexcept = 0;

  // Current view of M (test/debug only; not an atomic model operation).
  [[nodiscard]] virtual View peek_view() const = 0;
};

// What an H provider's scan reports: the view plus the global step index at
// which the scan took effect.  The §3.3 linearizer orders H operations by
// these points, so implementations whose operations do not take effect at
// their last step (the register construction) stay correct.
struct HScan {
  HView view;
  std::size_t lin_step = 0;
};

// H provider over the atomic single-writer snapshot base object: every
// operation takes effect at its own (single) step.
class AtomicHProvider {
 public:
  AtomicHProvider(runtime::Scheduler& sched, std::string name, std::size_t f)
      : sched_(sched), snap_(sched, std::move(name), f) {}

  // The snapshot's scan step, stamped on resumption with the index of the
  // step it took: an awaiter rather than a coroutine, so an H scan costs no
  // frame of its own.
  struct ScanAwaiter {
    runtime::StepAwaiter<HView> step;
    const runtime::Scheduler& sched;

    bool await_ready() const noexcept { return step.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) { step.await_suspend(h); }
    HScan await_resume() {
      return HScan{step.await_resume(), sched.total_steps() - 1};
    }
  };

  ScanAwaiter scan(runtime::ProcessId /*me*/) {
    return {snap_.scan(), sched_};
  }
  auto update(runtime::ProcessId /*me*/, HComp v) {
    return snap_.update(std::move(v));
  }
  [[nodiscard]] HView peek() const { return snap_.peek(); }

 private:
  runtime::Scheduler& sched_;
  mem::SWSnapshot<HComp> snap_;
};

// H provider over the Afek-et-al. snapshot: plain registers all the way;
// scans report the linearization point the construction certifies.
class RegisterHProvider {
 public:
  RegisterHProvider(runtime::Scheduler& sched, std::string name, std::size_t f)
      : snap_(sched, std::move(name), f) {}

  runtime::Task<HScan> scan(runtime::ProcessId me) {
    auto out = co_await snap_.scan(me);
    co_return HScan{std::move(out.view), out.lin_step};
  }
  auto update(runtime::ProcessId me, HComp v) {
    return snap_.update(me, std::move(v));
  }
  [[nodiscard]] HView peek() const { return snap_.peek(); }

 private:
  mem::AfekSnapshotT<HComp> snap_;
};

// Ablation switches (experiments only; see bench_ablation / E12).  Each
// disables one mechanism the §3.3 proof depends on, so the linearizer can
// demonstrate *why* the mechanism exists:
//  * helping: the L_{i,j} records that let a Block-Update return a late
//    enough view (Lemmas 16-19) - without them the returned view predates
//    concurrent Scans and the window property fails;
//  * yield_check: lines 8-10 - without it every Block-Update claims
//    atomicity and Lemma 11 (consecutive Updates at X) fails under
//    smaller-id interference.
struct AugmentedAblation {
  bool helping = true;
  bool yield_check = true;
};

template <typename HProvider>
class BasicAugmentedSnapshot final : public IAugmentedSnapshot,
                                     public util::Fingerprintable {
 public:
  // m components of M shared by f real processes.
  BasicAugmentedSnapshot(runtime::Scheduler& sched, std::string name,
                         std::size_t m, std::size_t f,
                         AugmentedAblation ablation = {})
      : sched_(sched),
        m_(m),
        f_(f),
        h_(sched, name + ".H", f),
        own_(f),
        ablation_(ablation) {
    if (m == 0 || f == 0) {
      throw std::invalid_argument("augmented snapshot needs m >= 1, f >= 1");
    }
    sched.register_state_source(this);
  }

  // H itself is covered by the provider's own registration; this adds the
  // object's history - the local own-component mirrors and the operation
  // log the §3.3 linearizer consumes.  Including the log makes fingerprints
  // of history-dependent verdicts sound: two interleavings merge only when
  // their entire recorded histories coincide.
  void fingerprint_into(util::StateSink& sink) const override {
    util::feed(sink, own_);
    util::feed(sink, log_);
  }

  [[nodiscard]] std::size_t components() const noexcept override {
    return m_;
  }
  [[nodiscard]] std::size_t processes() const noexcept override { return f_; }
  [[nodiscard]] const OpLog& log() const noexcept override { return log_; }
  [[nodiscard]] View peek_view() const override {
    return get_view(h_.peek(), m_);
  }

  runtime::Task<ScanResult> Scan(runtime::ProcessId me) override {
    const std::size_t op_id = log_.next_op_id++;
    const std::size_t idx = log_.scans.size();
    {
      ScanOpRecord rec;
      rec.op_id = op_id;
      rec.process = me;
      reserve_first(log_.scans);
      log_.scans.push_back(std::move(rec));
    }

    HScan first = co_await h_.scan(me);
    log_.scans[idx].first_step = first.lin_step;
    HView hprime = std::move(first.view);
    // The first collect of the double collect, held as the view it is
    // published as.
    LocalRef<const PublishedView> h;
    for (;;) {
      h = make_local<const PublishedView>(std::move(hprime));
      // Lines 5-6: publish h as L_{me,j}[#h_j] for every j != me; the f-1
      // single-writer writes are one update of H[me].
      if (ablation_.helping) {
        HComp::LRecords records;
        records.reserve(f_ - 1);
        for (std::size_t j = 0; j < f_; ++j) {
          if (j != me) {
            records.push_back(LRecord{j, num_bu(h->view, j), h});
          }
        }
        own_[me] = own_[me].with_lrecords(std::move(records));
      }
      co_await h_.update(me, own_[me]);
      HScan confirm = co_await h_.scan(me);
      hprime = std::move(confirm.view);
      log_.scans[idx].last_step = confirm.lin_step;
      // Helping records do not invalidate the double collect; only update
      // triples (the object's actual contents) do.
      if (triples_equal(h->view, hprime)) {
        break;
      }
    }
    View v = get_view(h->view, m_);
    ScanOpRecord& rec = log_.scans[idx];
    rec.returned = v;
    rec.completed = true;
    co_return ScanResult{std::move(v), op_id};
  }

  runtime::Task<BlockUpdateResult> BlockUpdate(runtime::ProcessId me,
                                               Comps comps,
                                               Vals vals) override {
    if (comps.empty() || comps.size() != vals.size()) {
      throw std::invalid_argument("Block-Update needs r >= 1 components");
    }
    // r is a handful, so a pairwise scan beats building a set.
    for (auto it = comps.begin(); it != comps.end(); ++it) {
      if (std::find(comps.begin(), it, *it) != it) {
        throw std::invalid_argument("Block-Update components must be distinct");
      }
    }
    for (std::size_t c : comps) {
      if (c >= m_) {
        throw std::out_of_range("Block-Update component out of range");
      }
    }

    const std::size_t op_id = log_.next_op_id++;
    const std::size_t idx = log_.block_updates.size();
    {
      BlockUpdateOpRecord rec;
      rec.op_id = op_id;
      rec.process = me;
      rec.comps = comps;
      rec.vals = vals;
      reserve_first(log_.block_updates);
      log_.block_updates.push_back(std::move(rec));
    }

    // Line 2: scan H.
    HScan hs = co_await h_.scan(me);
    HView h = std::move(hs.view);
    log_.block_updates[idx].step_h = hs.lin_step;

    // Line 3: generate the timestamp shared by all Updates of this call.
    Timestamp t = new_timestamp(h, me);
    log_.block_updates[idx].ts = t;

    // Line 4: append the r update triples to H[me]; this is the update X at
    // which an atomic Block-Update linearizes.
    {
      HComp::Triples batch;
      batch.reserve(comps.size());
      for (std::size_t g = 0; g < comps.size(); ++g) {
        batch.push_back(UpdateTriple{comps[g], vals[g], t});
      }
      own_[me] = own_[me].with_batch(std::move(batch));
    }
    co_await h_.update(me, own_[me]);
    log_.block_updates[idx].step_x = last_step();

    // Lines 5-7: help smaller ids by publishing a fresh scan.
    HScan gs = co_await h_.scan(me);
    HView g = std::move(gs.view);
    log_.block_updates[idx].step_g = gs.lin_step;
    if (ablation_.helping && me > 0) {
      auto gptr = make_local<const PublishedView>(std::move(g));
      HComp::LRecords records;
      records.reserve(me);
      for (std::size_t j = 0; j < me; ++j) {
        records.push_back(LRecord{j, num_bu(gptr->view, j), gptr});
      }
      own_[me] = own_[me].with_lrecords(std::move(records));
    }
    co_await h_.update(me, own_[me]);
    log_.block_updates[idx].step_help = last_step();

    // Lines 8-10: yield if a smaller-id process appended update triples
    // since line 2 (Lemma 10 / Lemma 13 / Theorem 20).
    HScan h2s = co_await h_.scan(me);
    HView h2 = std::move(h2s.view);
    log_.block_updates[idx].step_h2 = h2s.lin_step;
    if (ablation_.yield_check) {
      for (std::size_t j = 0; j < me; ++j) {
        if (num_bu(h2, j) > num_bu(h, j)) {
          BlockUpdateOpRecord& rec = log_.block_updates[idx];
          rec.yielded = true;
          rec.completed = true;
          co_return BlockUpdateResult{true, {}, op_id};
        }
      }
    }

    // Lines 11-16: the latest scan among h and the helping entries
    // L_{j,me}[b], b = #h_me; all f-1 reads are one scan of H.
    HScan curs = co_await h_.scan(me);
    HView cur = std::move(curs.view);
    log_.block_updates[idx].step_read = curs.lin_step;
    const std::size_t b = num_bu(h, me);
    const HView* last = &h;
    LocalRef<const PublishedView> keepalive;
    for (std::size_t j = 0; j < f_; ++j) {
      if (j == me) {
        continue;
      }
      auto rj = read_lrecord(cur, j, me, b);
      if (rj != nullptr && is_proper_prefix(*last, rj->view)) {
        keepalive = rj;
        last = &keepalive->view;
      }
    }
    View v = get_view(*last, m_);
    BlockUpdateOpRecord& rec = log_.block_updates[idx];
    rec.returned = v;
    rec.completed = true;
    co_return BlockUpdateResult{false, std::move(v), op_id};
  }

 private:
  std::size_t last_step() const { return sched_.total_steps() - 1; }

  // A log of f processes' operations usually holds at least f of each kind,
  // so the first record makes room for f.
  template <typename Record>
  void reserve_first(std::vector<Record>& records) const {
    if (records.empty()) {
      records.reserve(f_);
    }
  }

  runtime::Scheduler& sched_;
  std::size_t m_;
  std::size_t f_;
  HProvider h_;
  // Local mirror of each process's own single-writer component (a process
  // may read its own component without a shared-memory step): the latest
  // version, which the next H update publishes.
  HView own_;
  OpLog log_;
  AugmentedAblation ablation_;
};

// The paper's real system: H is an atomic single-writer snapshot.
using AugmentedSnapshot = BasicAugmentedSnapshot<AtomicHProvider>;

// Everything from plain registers: H is the Afek-et-al. construction, so an
// H-step costs O(f^2) register operations but the object's semantics - and
// every §3.3 property - are unchanged.  Lemma 2's step counts then apply to
// the *H-operation* level, not the register level.
using RegisterAugmentedSnapshot = BasicAugmentedSnapshot<RegisterHProvider>;

}  // namespace revisim::aug
