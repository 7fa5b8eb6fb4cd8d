// Micro-benchmarks (google-benchmark): wall-clock cost of the library's hot
// paths - augmented-snapshot operations, the §3.3 linearizer, protocol
// steps, and a whole reduction run.  These measure the *reproduction*, not
// the paper (the paper's costs are step counts, covered by E1/E4).
#include <benchmark/benchmark.h>

#include <sys/socket.h>

#include <random>

#include "src/augmented/augmented_snapshot.h"
#include "src/augmented/linearizer.h"
#include "src/check/state_table.h"
#include "src/dist/fault_channel.h"
#include "src/dist/wire.h"
#include "src/memory/register.h"
#include "src/protocols/ca_consensus.h"
#include "src/protocols/protocol_runner.h"
#include "src/protocols/racing_agreement.h"
#include "src/runtime/adversary.h"
#include "src/runtime/scheduler.h"
#include "src/sim/driver.h"
#include "src/sim/replay.h"
#include "src/util/fingerprint.h"

namespace {

using namespace revisim;
using runtime::ProcessId;
using runtime::Scheduler;
using runtime::Task;

Task<void> bu_loop(aug::AugmentedSnapshot& m, ProcessId me, std::size_t k) {
  for (std::size_t i = 0; i < k; ++i) {
    std::vector<std::size_t> comps{i % m.components()};
    std::vector<Val> vals{static_cast<Val>(i)};
    co_await m.BlockUpdate(me, comps, vals);
  }
}

void BM_AugmentedBlockUpdates(benchmark::State& state) {
  const std::size_t f = static_cast<std::size_t>(state.range(0));
  const std::size_t ops = 50;
  for (auto _ : state) {
    Scheduler sched;
    aug::AugmentedSnapshot m(sched, "M", 3, f);
    for (ProcessId p = 0; p < f; ++p) {
      sched.spawn(bu_loop(m, p, ops), "q");
    }
    runtime::RandomAdversary adv(7);
    sched.run(adv);
    benchmark::DoNotOptimize(sched.total_steps());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * f *
                          ops);
}
BENCHMARK(BM_AugmentedBlockUpdates)->Arg(1)->Arg(2)->Arg(4);

Task<void> reg_loop(mem::TypedRegister<Val>& reg, std::size_t k) {
  for (std::size_t i = 0; i < k; ++i) {
    co_await reg.write(static_cast<Val>(i));
  }
}

void BM_SchedulerStep(benchmark::State& state) {
  // One process, many single-register writes in fast mode: isolates the
  // per-step post_step + StepAwaiter dispatch, the inner loop of explorer
  // replay.  The scheduler/register construction amortizes over k steps.
  const std::size_t k = 512;
  for (auto _ : state) {
    Scheduler sched;
    sched.set_recording(false);
    mem::TypedRegister<Val> reg(sched, "r", Val{0});
    sched.spawn(reg_loop(reg, k), "q");
    while (!sched.all_done()) {
      sched.run_step(0);
    }
    benchmark::DoNotOptimize(sched.total_steps());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}
BENCHMARK(BM_SchedulerStep);

void BM_ToStringView(benchmark::State& state) {
  View view(static_cast<std::size_t>(state.range(0)));
  for (std::size_t j = 0; j < view.size(); ++j) {
    if (j % 3 != 0) {
      view[j] = static_cast<Val>(j * 1234567);
    }
  }
  for (auto _ : state) {
    auto s = to_string(view);
    benchmark::DoNotOptimize(s.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ToStringView)->Arg(4)->Arg(32);

Task<void> fat_loop(Scheduler& sched, std::size_t obj, std::size_t k) {
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  for (std::size_t i = 0; i < k; ++i) {
    co_await runtime::StepAwaiter<void>(
        sched, [a, b, c, d] { benchmark::DoNotOptimize(a + b + c + d); }, obj,
        runtime::StepKind::kWrite, {});
  }
}

void BM_SchedulerStepFatCapture(benchmark::State& state) {
  // A 32-byte step capture - the size class of real snapshot operations -
  // exceeds std::function's inline buffer but not SmallFn's.
  const std::size_t k = 512;
  for (auto _ : state) {
    Scheduler sched;
    sched.set_recording(false);
    const std::size_t obj = sched.register_object("r");
    sched.spawn(fat_loop(sched, obj, k), "q");
    while (!sched.all_done()) {
      sched.run_step(0);
    }
    benchmark::DoNotOptimize(sched.total_steps());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}
BENCHMARK(BM_SchedulerStepFatCapture);

void BM_Linearize(benchmark::State& state) {
  const std::size_t f = 3;
  Scheduler sched;
  aug::AugmentedSnapshot m(sched, "M", 3, f);
  for (ProcessId p = 0; p < f; ++p) {
    sched.spawn(bu_loop(m, p, static_cast<std::size_t>(state.range(0))), "q");
  }
  runtime::RandomAdversary adv(11);
  sched.run(adv);
  for (auto _ : state) {
    auto lin = aug::linearize(m.log(), 3);
    benchmark::DoNotOptimize(lin.ops.size());
  }
}
BENCHMARK(BM_Linearize)->Arg(20)->Arg(60);

void BM_ProtocolStep(benchmark::State& state) {
  proto::CAConsensus p(6);
  proto::ProtocolRun run(p, {0, 1, 2, 3, 4, 5});
  std::size_t i = 0;
  for (auto _ : state) {
    run.step(i % 6);
    ++i;
    if (run.all_done()) {
      state.PauseTiming();
      run = proto::ProtocolRun(p, {0, 1, 2, 3, 4, 5});
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_ProtocolStep);

void BM_FullReduction(benchmark::State& state) {
  proto::RacingAgreement protocol(4, 2);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Scheduler sched;
    sim::SimulationDriver driver(sched, protocol, {10, 20});
    runtime::RandomAdversary adv(seed++);
    driver.run(adv, 10'000'000);
    benchmark::DoNotOptimize(driver.outputs().size());
  }
}
BENCHMARK(BM_FullReduction);

void BM_ReplayValidation(benchmark::State& state) {
  proto::RacingAgreement protocol(4, 2);
  Scheduler sched;
  sim::SimulationDriver driver(sched, protocol, {10, 20});
  runtime::RandomAdversary adv(3);
  driver.run(adv, 10'000'000);
  for (auto _ : state) {
    auto report = sim::validate_simulation(driver);
    benchmark::DoNotOptimize(report.ok());
  }
}
BENCHMARK(BM_ReplayValidation);

void BM_WireRoundtrip(benchmark::State& state) {
  // Encode + decode of a job frame as the coordinator and worker do it: one
  // writer per connection, cleared per message, so the steady state is
  // byte-shifting into retained capacity - no allocation on the encode
  // side.  The prefix length models a mid-depth donation.
  dist::JobMsg job;
  job.id = 7;
  job.budget = 500'000;
  for (std::size_t i = 0; i < static_cast<std::size_t>(state.range(0)); ++i) {
    job.region.prefix.push_back(static_cast<ProcessId>(i % 3));
  }
  job.region.choices = {0, 1, 2, runtime::make_crash_entry(1)};
  dist::WireWriter w;
  for (auto _ : state) {
    w.clear();
    dist::encode_job(w, job);
    dist::WireReader r(w.data(), w.size());
    dist::JobMsg back = dist::decode_job(r);
    benchmark::DoNotOptimize(back.region.prefix.data());
    benchmark::DoNotOptimize(back.region.choices.data());
  }
}
BENCHMARK(BM_WireRoundtrip)->Arg(16)->Arg(64);

void BM_WireFpBatchRoundtrip(benchmark::State& state) {
  // One fingerprint report, one way: encode + decode a kFpBatch of N first
  // sightings (a worker sends full frames of dist::kFpBatchSize).  Steady
  // state reuses the writer's capacity - the per-state wire cost of keeping
  // the run's distinct-state count exact.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  dist::FpBatchMsg batch;
  for (std::size_t i = 0; i < n; ++i) {
    batch.fps.push_back(
        util::Fingerprint{0x9e3779b97f4a7c15ull * (i + 1), i});
  }
  dist::WireWriter w;
  for (auto _ : state) {
    w.clear();
    dist::encode_fp_batch(w, batch);
    dist::WireReader r(w.data(), w.size());
    dist::FpBatchMsg got = dist::decode_fp_batch(r);
    benchmark::DoNotOptimize(got.fps.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_WireFpBatchRoundtrip)
    ->Arg(1)
    ->Arg(static_cast<std::int64_t>(dist::kFpBatchSize));

void BM_ChannelEnqueueFlush(benchmark::State& state) {
  // The channel's send path end to end: enqueue N frames into the
  // reserve-once tx buffer, flush them with one send, and drain them
  // through buffered_recv on the far side of a socketpair (syscalls per
  // flush, not per frame).
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    state.SkipWithError("socketpair failed");
    return;
  }
  dist::Channel tx;
  dist::Channel rx;
  tx.adopt(sv[0]);
  rx.adopt(sv[1]);
  dist::LiveMsg live{7, 123456};
  dist::WireWriter w;
  dist::Frame frame;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      w.clear();
      dist::encode_live(w, live);
      tx.enqueue(dist::MsgType::kLive, w);
    }
    while (!tx.flush()) {
    }
    std::size_t got = 0;
    while (got < n) {
      const int rc = rx.buffered_recv(frame);
      if (rc > 0) {
        ++got;
      }
    }
    benchmark::DoNotOptimize(got);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ChannelEnqueueFlush)->Arg(1)->Arg(16)->Arg(64);

// Feeds words the way a world's fingerprint_into does: through a
// StateSink reference the compiler cannot see behind.
[[gnu::noinline]] void feed_words(util::StateSink& sink,
                                  const std::vector<std::uint64_t>& words) {
  for (std::uint64_t w : words) {
    sink.word(w);
  }
}

void BM_HashSinkWords(benchmark::State& state) {
  // One node's fingerprint: a 36-word stream (an aug-dedupe node feeds
  // 35.5 words on average) hashed into a 128-bit digest.
  std::mt19937_64 rng(36);
  std::vector<std::uint64_t> words(36);
  for (auto& w : words) {
    w = rng() % 16;  // small counts and ids, like a state stream
  }
  for (auto _ : state) {
    util::HashSink sink;
    feed_words(sink, words);
    benchmark::DoNotOptimize(sink.digest());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(words.size()));
}
BENCHMARK(BM_HashSinkWords);

void BM_StateTableInsert(benchmark::State& state) {
  // Random keys into a fresh 2^20-slot (16 MB) table, filled to half: the
  // probe's first load misses the caches, as in a deduped walk.
  constexpr std::size_t kSlots = std::size_t{1} << 20;
  std::mt19937_64 rng(20);
  std::vector<util::Fingerprint> keys(kSlots / 2);
  for (auto& k : keys) {
    k = {rng(), rng()};
  }
  for (auto _ : state) {
    check::StateTable table(check::StateTable::Options{.capacity = kSlots});
    for (const auto& k : keys) {
      benchmark::DoNotOptimize(table.insert(k));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_StateTableInsert)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
