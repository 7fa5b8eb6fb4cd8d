// Host-speed ruler for the end-to-end benchmark.
//
// Repeats a fixed chunk of work until it is killed, and prints one line
// per chunk, "<end> <duration>", both in seconds of the monotonic clock
// e2e_bench stamps the start and end of an engine run with.
// e2ebench/run.py runs one copy on each vCPU the engine run it is timing
// does not use, and expresses the run's wall time in ruler chunks done
// over the same interval.
//
// The host this benchmark runs on changes speed by more than a factor of
// two over tens of minutes, on every vCPU together, and by several percent
// from one second to the next; a chunk slows with it the way the engines
// do, because it does the same kinds of work: small allocations, virtual
// and std::function calls, coroutine frames, hash and tree maps, and an
// unpredictable switch.  It does not link the revisim library, so a change
// to the library never changes the ruler.
//
//   e2e_ruler
#include <sys/prctl.h>

#include <chrono>
#include <coroutine>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

volatile std::uint64_t g_sink;
std::uint64_t g_rng = 88172645463325252ull;

std::uint64_t rnd() {
  g_rng ^= g_rng << 13;
  g_rng ^= g_rng >> 7;
  g_rng ^= g_rng << 17;
  return g_rng;
}

void interpret(int reps) {
  static std::vector<std::uint8_t> prog = [] {
    std::vector<std::uint8_t> p(4096);
    for (auto& b : p) {
      b = static_cast<std::uint8_t>(rnd() % 8);
    }
    return p;
  }();
  std::uint64_t acc = 0, r1 = 3, r2 = 7;
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t pc = 0; pc < prog.size(); ++pc) {
      switch (prog[pc]) {
        case 0: acc += r1; break;
        case 1: acc ^= r2 << 1; break;
        case 2: if (acc & 1) { r1 += acc; } else { r2 -= 1; } break;
        case 3: r1 = r1 * 3 + 1; break;
        case 4: if ((acc >> 3) & 1) { pc += 1; } break;
        case 5: r2 ^= acc; break;
        case 6: acc = (acc >> 1) | (r1 << 63); break;
        default: acc -= r2; break;
      }
    }
  }
  g_sink = acc + r1 + r2;
}

struct Shape {
  virtual ~Shape() = default;
  virtual std::uint64_t f(std::uint64_t) = 0;
};
struct Num final : Shape {
  explicit Num(std::uint64_t k) : k(k) {}
  std::uint64_t f(std::uint64_t x) override { return x + k; }
  std::uint64_t k;
};
struct Text final : Shape {
  explicit Text(std::uint64_t k) : s(std::to_string(k)) {}
  std::uint64_t f(std::uint64_t x) override { return x ^ s.size(); }
  std::string s;
};
struct Vec final : Shape {
  explicit Vec(std::uint64_t k) : v(k % 7 + 1, k) {}
  std::uint64_t f(std::uint64_t x) override { return x * 3 + v.size(); }
  std::vector<std::uint64_t> v;
};

void allocate(int reps) {
  std::uint64_t acc = 0;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<std::unique_ptr<Shape>> objs;
    for (int j = 0; j < 4; ++j) {
      const std::uint64_t r = rnd();
      switch (r % 3) {
        case 0: objs.push_back(std::make_unique<Num>(r)); break;
        case 1: objs.push_back(std::make_unique<Text>(r)); break;
        default: objs.push_back(std::make_unique<Vec>(r)); break;
      }
    }
    std::function<std::uint64_t(std::uint64_t)> fn =
        [&objs, rep](std::uint64_t x) { return x + objs[rep % 4]->f(x); };
    for (auto& o : objs) {
      acc = o->f(acc);
    }
    acc = fn(acc);
  }
  g_sink = acc;
}

void hash_map(int ops) {
  std::unordered_map<std::uint64_t, std::uint64_t> m;
  std::uint64_t acc = 0;
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t k = rnd() % 130'000;
    auto it = m.find(k);
    if (it == m.end()) {
      m.emplace(k, i);
    } else {
      acc += it->second;
      if (i & 1) {
        m.erase(it);
      }
    }
  }
  g_sink = acc + m.size();
}

struct Gen {
  struct promise_type {
    std::uint64_t v = 0;
    Gen get_return_object() {
      return Gen{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    std::suspend_always yield_value(std::uint64_t x) {
      v = x;
      return {};
    }
    void return_void() {}
    void unhandled_exception() {}
  };
  explicit Gen(std::coroutine_handle<promise_type> h) : h(h) {}
  Gen(const Gen&) = delete;
  Gen& operator=(const Gen&) = delete;
  ~Gen() { h.destroy(); }
  std::coroutine_handle<promise_type> h;
};

Gen count_up(std::uint64_t n, std::uint64_t seed) {
  for (std::uint64_t i = 0; i < n; ++i) {
    seed = seed * 31 + i;
    co_yield seed;
  }
}

void coroutines(int reps) {
  std::uint64_t acc = 0;
  for (int rep = 0; rep < reps; ++rep) {
    Gen g = count_up(rnd() % 16 + 4, rep);
    for (g.h.resume(); !g.h.done(); g.h.resume()) {
      acc += g.h.promise().v;
    }
  }
  g_sink = acc;
}

void tree_map(int reps) {
  std::uint64_t acc = 0;
  for (int rep = 0; rep < reps; ++rep) {
    std::map<std::uint64_t, std::string> m;
    for (int j = 0; j < 40; ++j) {
      m.emplace(rnd() % 1000, "x");
    }
    for (const auto& [k, v] : m) {
      acc += k + v.size();
    }
  }
  g_sink = acc;
}

// One chunk: 19-44 ms on the host the benchmark was tuned on, as its speed
// changed over two hours.
void chunk() {
  interpret(150);
  allocate(38'000);
  hash_map(50'000);
  coroutines(19'000);
  tree_map(320);
}

}  // namespace

int main() {
  // Never outlive the benchmark that started it.
  prctl(PR_SET_PDEATHSIG, SIGTERM);
  for (;;) {
    const auto t0 = Clock::now();
    chunk();
    const auto t1 = Clock::now();
    const double end =
        std::chrono::duration<double>(t1.time_since_epoch()).count();
    const double dur = std::chrono::duration<double>(t1 - t0).count();
    if (std::printf("%.6f %.9f\n", end, dur) < 0 || std::fflush(stdout) != 0) {
      return 0;
    }
  }
}
