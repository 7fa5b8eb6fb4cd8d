#!/usr/bin/env python3
"""End-to-end benchmark on the paper's own exhaustive workloads.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload aug-dedupe --seed 1 --seconds 55 --trace 0

Builds e2ebench/e2e_bench (the revisim library from src/ plus e2e_bench.cpp)
and e2ebench/e2e_ruler (a host-speed ruler that does not link the library)
into $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench), then:

  --trace 0  makes one untimed warm-up run, measures set-up (one-
             execution dist-2 runs, each in a fresh process), then for
             --seconds runs serial, parallel-2 and dist-2 runs one at a
             time, giving each engine an equal share of the time.  Every
             run is a fresh process, pinned to the next one, two or three
             vCPUs in turn, while a ruler copy runs on each vCPU it leaves
             free; its time to verdict is the number of ruler chunks done
             meanwhile, times a fixed reference chunk time.  Reports the median of those per engine, the median
             set-up time and peak resident sets, and the share of engine
             runs that passed their correctness check.
  --trace 1  runs rounds of untraced serial / traced serial / traced
             parallel-2 / dist-2 runs, one at a time, and reports per-layer
             numbers.

The last line of stdout is the result object {correct, attempted, failed,
metrics}; the line before it stamps the host and the search outcome digests.
Progress goes to stderr.  See e2ebench/README.md for the workloads, the
metrics and the steadiness record.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-covering", "aug-plain", "aug-dedupe")
SETUP_REPS = 15
# One engine run never takes longer than this; a hung engine fails the run.
ENGINE_TIMEOUT_S = 150
# serial_s, parallel_s and dist_s are times in ruler chunks times this:
# seconds on a host as fast as one where a ruler chunk takes this long.
RULER_CHUNK_REF_S = 0.025
# How long the rulers run before an engine run starts, and the longest to
# wait for them to finish the chunk under way when it ends.
RULER_WARMUP_S = 0.1
RULER_WAIT_S = 10
# vCPUs each engine's run is pinned to: its threads, or its coordinator
# and workers.
WIDTH = {"serial": 1, "parallel": 2, "dist": 3}


def log(msg):
    print(f"[e2ebench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds e2e_bench and e2e_ruler; returns their paths."""
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target_dir, "e2ebench")
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "e2e_bench", "e2e_ruler"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "e2e_bench"), os.path.join(build_dir, "e2e_ruler")


def pinned(cpus):
    """preexec_fn that pins the child to `cpus` (None: not pinned)."""
    return (lambda: os.sched_setaffinity(0, cpus)) if cpus else None


def engine_run(binary, *args, cpus=None):
    """Runs e2e_bench once, pinned to `cpus`; returns its JSON record.  A
    run that crashes, hangs or prints no record yields a failed record with
    no measurements."""
    proc = subprocess.Popen([binary, *args], stdout=subprocess.PIPE, text=True,
                            preexec_fn=pinned(cpus))
    try:
        out, _ = proc.communicate(timeout=ENGINE_TIMEOUT_S)
        if proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, proc.args)
        return json.loads(out.strip().splitlines()[-1])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            ValueError, IndexError) as e:
        proc.kill()
        proc.wait()
        return {"pass": False, "failure": f"engine run failed: {e}"}


class Rulers:
    """One e2e_ruler copy pinned to each of `cpus`, each keeping the
    (start, end) of every chunk it finishes.  A context manager: every copy
    is stopped and reaped on the way out, whatever happened."""

    def __init__(self, binary, cpus):
        self.copies = []
        try:
            for cpu in cpus:
                proc = subprocess.Popen([binary], stdout=subprocess.PIPE, text=True,
                                        preexec_fn=pinned({cpu}))
                chunks = []
                reader = threading.Thread(target=self._read, args=(proc, chunks),
                                          daemon=True)
                reader.start()
                self.copies.append((proc, chunks, reader))
        except BaseException:
            self.__exit__()
            raise

    @staticmethod
    def _read(proc, chunks):
        for line in proc.stdout:
            fields = line.split()
            if len(fields) == 2:  # a copy stopped mid-line leaves a stub
                end, dur = map(float, fields)
                chunks.append((end - dur, end))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for proc, _, _ in self.copies:
            proc.terminate()
        for proc, _, reader in self.copies:
            proc.wait()
            reader.join()

    def chunks_between(self, t0, t1):
        """Mean over the copies of the chunks each did between monotonic
        times t0 and t1; a chunk that straddles t0 or t1 counts by the
        share of it inside.  A count, not a typical chunk time, so that a
        stretch in which the host stalls every vCPU counts for the ruler as
        it does for the engine."""
        deadline = time.monotonic() + RULER_WAIT_S
        done = []
        for proc, chunks, _ in self.copies:
            while not chunks or chunks[-1][1] < t1:
                if proc.poll() is not None or time.monotonic() > deadline:
                    raise OSError("e2e_ruler stopped reporting chunks")
                time.sleep(0.005)
            done.append(sum(max(0.0, min(end, t1) - max(start, t0)) / (end - start)
                            for start, end in chunks))
        return statistics.fmean(done)


def source_digest():
    """SHA-256 over every file under src/, in path order."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def median(xs):
    return statistics.median(xs) if xs else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


class Tally:
    """Counts engine runs and the ones that failed their correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, rec, what):
        self.attempted += 1
        if not rec.get("pass", False):
            self.failed += 1
            self.failures.append(f"{what}: {rec.get('failure') or 'failed'}")
            log(f"FAIL {what}: {rec.get('failure')}")

    def check(self, ok, what):
        """Records a failed cross-run check without counting a run."""
        if not ok:
            self.failures.append(what)
            log(f"FAIL {what}")


def run_slots(deadline, rng, names, run_slot):
    """Runs slots until the monotonic `deadline`.  Each time it runs the
    slot that has had the least time so far (ties in a seed-shuffled
    order), among the slots that would still end in time, judged by the
    longest each has taken so far; so a quick slot runs more often than a
    slow one.  Every slot runs at least once."""
    order = list(names)
    rng.shuffle(order)
    spent = dict.fromkeys(order, 0.0)
    longest = {}
    while True:
        now = time.monotonic()
        fits = [n for n in order if n not in longest or now + longest[n] <= deadline]
        if not fits:
            return
        name = min(fits, key=lambda n: spent[n])
        run_slot(name)
        took = time.monotonic() - now
        spent[name] += took
        longest[name] = max(longest.get(name, 0.0), took)


def measure(binary, ruler_binary, workload, seconds, rng, tally):
    deadline = time.monotonic() + seconds
    # The first multi-threaded run after the vCPUs have been quiet takes up
    # to twice as long with the same CPU time.  An untimed parallel run
    # removes that for everything after it; a serial run or the ruler, as
    # measured, does not.
    tally.add(engine_run(binary, "--workload", workload, "--engine", "parallel"),
              "warm-up run")
    setup_walls = []
    for i in range(SETUP_REPS):
        rec = engine_run(binary, "--workload", workload, "--engine", "setup")
        tally.add(rec, f"setup rep {i}")
        if "wall_s" in rec:
            setup_walls.append(rec["wall_s"])

    recs = {"serial": [], "parallel": [], "dist": []}
    cpus = sorted(os.sched_getaffinity(0))[:4]
    turn = [0]

    def run_one(name):
        # Each run takes the next vCPUs in turn, so every engine runs on
        # every vCPU; the rulers run on the vCPUs it leaves free (on a host
        # with too few, one shares the engine's first vCPU).
        order = cpus[turn[0] % len(cpus):] + cpus[:turn[0] % len(cpus)]
        turn[0] += 1
        width = min(WIDTH[name], max(1, len(cpus) - 1))
        with Rulers(ruler_binary, order[width:] or order[:1]) as rulers:
            time.sleep(RULER_WARMUP_S)
            rec = engine_run(binary, "--workload", workload, "--engine", name,
                             cpus=set(order[:width]))
            tally.add(rec, f"{name} run {len(recs[name])}")
            if "wall_s" not in rec:
                return
            rec["ruler_chunks"] = rulers.chunks_between(rec["t_start"], rec["t_end"])
        log(f"{workload} {name}: {rec['wall_s']:.3f} s wall, "
            f"{rec['ruler_chunks']:.1f} ruler chunks, {rec['executions']} executions")
        recs[name].append(rec)

    run_slots(deadline, rng, recs, run_one)

    def ruler_s(name):
        return median([r["ruler_chunks"] for r in recs[name]]) * RULER_CHUNK_REF_S

    metrics = {
        "serial_s": metric(ruler_s("serial"), "s"),
        "parallel_s": metric(ruler_s("parallel"), "s"),
        "dist_s": metric(ruler_s("dist"), "s"),
        "setup_s": metric(median(setup_walls), "s"),
        "peak_rss_mb": metric(max(median([r["peak_rss_mb"] for r in recs[name]])
                                  for name in ("serial", "parallel")), "MB"),
        "worker_peak_rss_mb": metric(
            median([r["worker_peak_rss_mb"] for r in recs["dist"]]), "MB"),
    }
    raw = {
        "wall_s": {name: median([r["wall_s"] for r in rs]) for name, rs in recs.items()},
        "ruler_chunk_s": median([r["wall_s"] / r["ruler_chunks"]
                                 for rs in recs.values() for r in rs]),
    }
    return metrics, recs, raw


def measure_traced(binary, workload, seconds, rng, tally):
    deadline = time.monotonic() + seconds
    recs = {"serial": [], "traced": [], "parallel": [], "dist": []}
    args = {
        "serial": ["--engine", "serial"],
        "traced": ["--engine", "serial", "--traced"],
        "parallel": ["--engine", "parallel", "--traced"],
        "dist": ["--engine", "dist"],
    }

    def run_one(name):
        rec = engine_run(binary, "--workload", workload, *args[name])
        tally.add(rec, f"{name} run {len(recs[name])}")
        if "wall_s" in rec:
            log(f"{workload} {name}: {rec['wall_s']:.3f} s")
            recs[name].append(rec)

    run_slots(deadline, rng, args, run_one)

    # The wrapper must be transparent: a traced serial run finds what an
    # untraced one finds.
    for plain, traced in zip(recs["serial"], recs["traced"]):
        for key in ("executions", "states_seen", "subtrees_pruned"):
            tally.check(plain[key] == traced[key],
                        f"traced serial {key} {traced[key]} != untraced {plain[key]}")
    # Its counters must agree with the engine's own: every execution gets
    # exactly one verdict, in both traced engines (the parallel one checks
    # that no count is lost between threads; its discarded serial probe
    # adds its own executions' verdicts), and the timed layers fit inside
    # the wall time.
    for name in ("traced", "parallel"):
        for r in recs[name]:
            expected = r["executions"] + r["probe_executions"]
            tally.check(r["verdict_calls"] == expected,
                        f"{name} verdict calls {r['verdict_calls']} != "
                        f"executions + probe {expected}")
            timed = r["world_build_s"] + r["verdict_s"] + r["fingerprint_s"]
            tally.check(timed <= r["wall_s"] * (2 if name == "parallel" else 1),
                        f"{name} timed layers {timed:.6f} s exceed "
                        f"{'twice ' if name == 'parallel' else ''}the wall "
                        f"{r['wall_s']:.6f} s")
    # Every traced serial run walks the same tree, so it takes the same steps.
    steps = {r["steps"] for r in recs["traced"]}
    tally.check(len(steps) <= 1, f"traced serial steps differ: {sorted(steps)}")

    def med(name, key):
        return median([r[key] for r in recs[name]])

    steps = med("traced", "steps")
    build_s = med("traced", "world_build_s")
    verdict_s = med("traced", "verdict_s")
    fp_s = med("traced", "fingerprint_s")
    fp_calls = med("traced", "fingerprint_calls")
    pruned = med("traced", "subtrees_pruned")
    self_s = median([r["wall_s"] - r["world_build_s"] - r["verdict_s"] - r["fingerprint_s"]
                     for r in recs["traced"]])
    par_busy = median([r["cpu_s"] / (r["wall_s"] * 2) for r in recs["parallel"]])
    dist_busy = median([r["worker_cpu_s"] / (r["wall_s"] * 2) for r in recs["dist"]])
    # Tracing overhead: traced vs untraced serial wall.
    plain_wall = med("serial", "wall_s")
    overhead = med("traced", "wall_s") / plain_wall - 1.0 if plain_wall else 0.0
    wire_bytes = med("dist", "wire_bytes")
    dist_execs = med("dist", "executions")
    metrics = {
        "world.builds": metric(med("traced", "world_builds"), "count"),
        "world.build_s": metric(build_s, "s"),
        "verdict.calls": metric(med("traced", "verdict_calls"), "count"),
        "verdict.s": metric(verdict_s, "s"),
        "fingerprint.calls": metric(fp_calls, "count"),
        "fingerprint.s": metric(fp_s, "s"),
        "table.states_seen": metric(med("traced", "states_seen"), "count"),
        "table.subtrees_pruned": metric(pruned, "count"),
        "table.prune_frac": metric(pruned / fp_calls if fp_calls else 0.0, "frac"),
        "explore.steps": metric(steps, "count"),
        "explore.replay_steps_saved": metric(med("traced", "replay_steps_saved"), "count"),
        "explore.self_s": metric(self_s, "s"),
        "explore.ns_per_step": metric(self_s * 1e9 / steps if steps else 0.0, "ns"),
        "parallel.jobs": metric(med("parallel", "jobs"), "count"),
        "parallel.steals": metric(med("parallel", "steals"), "count"),
        "parallel.steps": metric(med("parallel", "steps"), "count"),
        "parallel.busy_frac": metric(par_busy, "frac"),
        "dist.jobs": metric(med("dist", "jobs"), "count"),
        "dist.steals": metric(med("dist", "steals"), "count"),
        "dist.executions": metric(dist_execs, "count"),
        "dist.worker_cpu_s": metric(med("dist", "worker_cpu_s"), "s"),
        "dist.coord_cpu_s": metric(med("dist", "coord_cpu_s"), "s"),
        "dist.busy_frac": metric(dist_busy, "frac"),
        "wire.bytes": metric(wire_bytes, "bytes"),
        "wire.packets": metric(med("dist", "wire_packets"), "count"),
        "wire.bytes_per_exec": metric(wire_bytes / dist_execs if dist_execs else 0.0, "bytes"),
        "trace.overhead_frac": metric(overhead, "frac"),
    }
    return metrics, recs, {}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary, ruler_binary = build()
    host = engine_run(binary, "--engine", "host")
    if "compiler" not in host:
        raise OSError(host["failure"])
    # The instances are fixed (their exhaustive counts are the correctness
    # gate); the seed decides the order in which the engines take their
    # first turns.
    rng = random.Random(args.seed)
    tally = Tally()
    if args.trace:
        metrics, recs, raw = measure_traced(binary, args.workload, args.seconds, rng, tally)
    else:
        metrics, recs, raw = measure(binary, ruler_binary, args.workload, args.seconds,
                                     rng, tally)

    # Every dedupe-off engine run must report the same search outcome.
    digests = {name: sorted({r["digest"] for r in rs}) for name, rs in recs.items()}
    if args.workload != "aug-dedupe":
        all_digests = {d for ds in digests.values() for d in ds}
        tally.check(len(all_digests) == 1, f"result digests differ: {sorted(all_digests)}")

    if not args.trace:
        metrics["pass_frac"] = metric(
            (tally.attempted - tally.failed) / tally.attempted, "frac")
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": {name: len(rs) for name, rs in recs.items()},
        "raw": raw,
        "host": {
            "nproc": os.cpu_count(),
            "hardware_concurrency": host["hardware_concurrency"],
            "compiler": host["compiler"],
            "build_type": host["build_type"],
            "git_sha": git_sha(),
            "src_sha256": source_digest(),
        },
        "result_digests": digests,
        "failures": tally.failures,
    }
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as e:
        log(f"error: {e}")
        sys.exit(1)
