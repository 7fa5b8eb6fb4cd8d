#!/usr/bin/env python3
"""Scaling, reduction and schema smoke gates for the schedule explorer.

Reads BENCH_modelcheck.json (JSON-lines, written by bench_modelcheck) and
enforces four things:

1. Parallel sanity: on each checked instance, parallel-4 must not run more
   than SLOWDOWN_LIMIT times slower than serial-fast.  The stealing explorer
   clamps its worker count to the hardware concurrency and runs the same
   rebuild-and-replay DFS as the serial engine, so even on a single-core CI
   runner parallel-4 must track the serial fast path - a regression here
   means the coordination machinery started costing real time again (the
   failure mode of the old frontier-split explorer, which ran 5x slower
   than serial on one core).

2. Dedupe-thread sanity: parallel-dedupe-4 must not run more than
   DEDUPE_THREAD_LIMIT times slower than parallel-dedupe-2.  Heavily-deduped
   trees collapse to a few hundred executions, where thread spawn plus
   shared-table synchronization dominates; the serial probe in the parallel
   explorer exists to absorb exactly those, so more threads must never cost
   more wall clock on them.  Because both configurations resolve in the
   probe, their wall clocks sit at the ~1ms scale where throttled CI
   containers jitter by 10x, so the ratio only fails when the absolute gap
   also exceeds DEDUPE_ABS_SLACK_SECONDS - a genuine pool-respawn
   regression costs tens of milliseconds of thread churn and clears both
   bars.

3. POR effectiveness: serial-por on register-script-554 must explore at most
   1/POR_REDUCTION_MIN of the unreduced executions while keeping verdict,
   lex-smallest witness and exhausted flag identical (the bench records that
   as witness_parity).  The instance is three writers on disjoint
   registers - the workload class partial-order reduction exists for - so a
   reduction below 2x means the sleep sets stopped working.

4. Distributed bit parity: every dist-workers-N row on the checked
   instances must be identical_to_baseline - the coordinator/worker engine
   shares the in-process explorer's key-sorted merge, so any drift in
   executions/exhausted/violation/witness means the wire encoding or the
   cap-credit protocol broke serial accounting.

5. Distributed overhead: dist-workers-2 must not run more than DIST_LIMIT
   times slower than parallel-2 on the checked instances.  The distributed
   engine pays fork + TCP serialization where the in-process explorer
   hands a job record to another thread (both rebuild and replay the job's
   prefix); DIST_LIMIT bounds that toll.  Small-tree wall clocks jitter
   heavily on throttled CI containers, so the ratio only fails when the
   absolute gap also exceeds DIST_ABS_SLACK_SECONDS.

6. Heartbeat overhead: dist-workers-2-heartbeat (liveness layer on, at a
   25ms ping interval - 20x tighter than the production default) must not
   run more than HEARTBEAT_LIMIT times slower than dist-workers-2 on
   register-script-554, and must stay bit-identical.  At the default 500ms
   interval the ping traffic is 20x sparser still, so clearing this bar
   puts the production liveness cost well under 2% of wall clock; the
   absolute-gap slack absorbs throttled-container jitter as in gates 2
   and 5.

7. Distributed dedupe overhead: dist-dedupe-workers-2 (every claim crosses
   the socket through the batched kFpBatch/kFpVerdicts pipeline) must not
   run more than DIST_LIMIT times slower than parallel-dedupe-2 on the
   checked instances - the async pipeline exists to keep the shared-table
   toll at in-process scale instead of one RPC round trip per state.  The
   absolute-gap slack absorbs small-tree jitter as in gate 5.  The same
   gate checks the dedupe contract: every dist-dedupe-workers-N row must
   keep verdict parity and report states_seen no larger than
   serial-dedupe's (claims are a subset of the distinct states the serial
   table records).

8. Row schema: every record in the file carries the fields (with the types)
   its record kind promises, so sweeps over commits can diff numbers
   without defensive parsing.

Usage: tools/scaling_smoke.py [path-to-BENCH_modelcheck.json]
"""

import json
import sys

SLOWDOWN_LIMIT = 1.3
DEDUPE_THREAD_LIMIT = 1.25
DEDUPE_ABS_SLACK_SECONDS = 0.05
POR_REDUCTION_MIN = 2.0
DIST_LIMIT = 1.3
DIST_ABS_SLACK_SECONDS = 0.05
HEARTBEAT_LIMIT = 1.25
HEARTBEAT_ABS_SLACK_SECONDS = 0.05
HEARTBEAT_INSTANCE = "register-script-554"
DIST_WORKER_CONFIGS = ("dist-workers-1", "dist-workers-2", "dist-workers-4")
INSTANCES = ("register-script-554", "collect-writers-443")
POR_INSTANCE = "register-script-554"

# Field name -> accepted python types, per record kind.  bool is checked
# before int (bool is an int subclass in python).
NUMBER = (int, float)
SCALING_SCHEMA = {
    "instance": str,
    "config": str,
    "threads": int,
    "dedupe": bool,
    "por": bool,
    "executions": int,
    "exhausted": bool,
    "states_seen": int,
    "subtrees_pruned": int,
    "jobs": int,
    "steals": int,
    "por_skipped": int,
    "dependent_wakeups": int,
    "footprint_bytes": int,
    "dedupe_disabled_adaptively": bool,
    "reduction_vs_undeduped": NUMBER,
    "seconds": NUMBER,
    "execs_per_sec": NUMBER,
    "speedup_vs_traced": NUMBER,
    "verdict_parity": bool,
    "witness_parity": bool,
    "identical_to_baseline": bool,
}
CRASH_SCHEMA = {
    "world": str,
    "config": str,
    "threads": int,
    "max_crashes": int,
    "por": bool,
    "executions": int,
    "exhausted": bool,
    "violation": bool,
    "jobs": int,
    "steals": int,
    "seconds": NUMBER,
    "execs_per_sec": NUMBER,
}
SCHEMAS = {"modelcheck-scaling": SCALING_SCHEMA, "modelcheck-crash": CRASH_SCHEMA}


def check_schema(row, lineno, failures):
    kind = row.get("name")
    schema = SCHEMAS.get(kind)
    if schema is None:
        failures.append(f"line {lineno}: unknown record kind {kind!r}")
        return
    for field, want in schema.items():
        if field not in row:
            failures.append(f"line {lineno} ({kind}): missing field {field!r}")
            continue
        value = row[field]
        if want is int or want is NUMBER:
            # Reject bools masquerading as counts.
            if isinstance(value, bool) or not isinstance(value, want):
                failures.append(
                    f"line {lineno} ({kind}): field {field!r} has type "
                    f"{type(value).__name__}, want {want}"
                )
        elif not isinstance(value, want):
            failures.append(
                f"line {lineno} ({kind}): field {field!r} has type "
                f"{type(value).__name__}, want {want.__name__}"
            )


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_modelcheck.json"
    rows = {}
    failures = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                check_schema(row, lineno, failures)
                if row.get("name") != "modelcheck-scaling":
                    continue
                rows[(row.get("instance"), row.get("config"))] = row
    except OSError as err:
        print(f"scaling-smoke: cannot read {path}: {err}")
        return 1

    # Gate 1: parallel-4 tracks serial-fast.
    for instance in INSTANCES:
        serial = rows.get((instance, "serial-fast"))
        parallel = rows.get((instance, "parallel-4"))
        if serial is None or parallel is None:
            failures.append(f"{instance}: missing serial-fast/parallel-4 rows")
            continue
        if not parallel.get("identical_to_baseline", False):
            failures.append(f"{instance}: parallel-4 result not bit-identical")
        ratio = parallel["seconds"] / max(serial["seconds"], 1e-9)
        verdict = "ok" if ratio <= SLOWDOWN_LIMIT else "FAIL"
        print(
            f"scaling-smoke: {instance}: serial-fast {serial['seconds']:.3f}s,"
            f" parallel-4 {parallel['seconds']:.3f}s -> {ratio:.2f}x"
            f" (limit {SLOWDOWN_LIMIT}x) {verdict}"
            f" [jobs={parallel.get('jobs')} steals={parallel.get('steals')}]"
        )
        if ratio > SLOWDOWN_LIMIT:
            failures.append(
                f"{instance}: parallel-4 is {ratio:.2f}x slower than "
                f"serial-fast (limit {SLOWDOWN_LIMIT}x)"
            )

    # Gate 2: more dedupe threads must not cost wall clock.
    for instance in INSTANCES:
        two = rows.get((instance, "parallel-dedupe-2"))
        four = rows.get((instance, "parallel-dedupe-4"))
        if two is None or four is None:
            failures.append(f"{instance}: missing parallel-dedupe-2/4 rows")
            continue
        ratio = four["seconds"] / max(two["seconds"], 1e-9)
        gap = four["seconds"] - two["seconds"]
        slow = ratio > DEDUPE_THREAD_LIMIT and gap > DEDUPE_ABS_SLACK_SECONDS
        verdict = "FAIL" if slow else "ok"
        print(
            f"scaling-smoke: {instance}: parallel-dedupe-2"
            f" {two['seconds']:.4f}s, parallel-dedupe-4"
            f" {four['seconds']:.4f}s -> {ratio:.2f}x"
            f" (limit {DEDUPE_THREAD_LIMIT}x + {DEDUPE_ABS_SLACK_SECONDS}s"
            f" slack) {verdict}"
        )
        if slow:
            failures.append(
                f"{instance}: parallel-dedupe-4 is {ratio:.2f}x slower than "
                f"parallel-dedupe-2 (limit {DEDUPE_THREAD_LIMIT}x, gap "
                f"{gap:.4f}s > {DEDUPE_ABS_SLACK_SECONDS}s)"
            )

    # Gate 3: POR earns its keep on the disjoint-register instance.
    plain = rows.get((POR_INSTANCE, "serial-fast"))
    por = rows.get((POR_INSTANCE, "serial-por"))
    if plain is None or por is None:
        failures.append(f"{POR_INSTANCE}: missing serial-fast/serial-por rows")
    else:
        reduction = plain["executions"] / max(por["executions"], 1)
        parity = por.get("witness_parity", False)
        verdict = "ok" if reduction >= POR_REDUCTION_MIN and parity else "FAIL"
        print(
            f"scaling-smoke: {POR_INSTANCE}: serial-por explores"
            f" {por['executions']} of {plain['executions']} executions ->"
            f" {reduction:.1f}x reduction (min {POR_REDUCTION_MIN}x),"
            f" witness parity {parity} {verdict}"
        )
        if reduction < POR_REDUCTION_MIN:
            failures.append(
                f"{POR_INSTANCE}: POR reduction {reduction:.2f}x below "
                f"{POR_REDUCTION_MIN}x"
            )
        if not parity:
            failures.append(
                f"{POR_INSTANCE}: serial-por lost verdict/witness parity"
            )

    # Gate 4: distributed runs are bit-identical at every worker count.
    for instance in INSTANCES:
        for config in DIST_WORKER_CONFIGS:
            row = rows.get((instance, config))
            if row is None:
                failures.append(f"{instance}: missing {config} row")
                continue
            if not row.get("identical_to_baseline", False):
                failures.append(
                    f"{instance}: {config} result not bit-identical to serial"
                )
        ok = all(
            rows.get((instance, c), {}).get("identical_to_baseline", False)
            for c in DIST_WORKER_CONFIGS
        )
        print(
            f"scaling-smoke: {instance}: dist-workers-{{1,2,4}} bit parity"
            f" {'ok' if ok else 'FAIL'}"
        )

    # Gate 5: the socket engine's toll over the in-process explorer.
    for instance in INSTANCES:
        par = rows.get((instance, "parallel-2"))
        dist = rows.get((instance, "dist-workers-2"))
        if par is None or dist is None:
            failures.append(f"{instance}: missing parallel-2/dist-workers-2 rows")
            continue
        ratio = dist["seconds"] / max(par["seconds"], 1e-9)
        gap = dist["seconds"] - par["seconds"]
        slow = ratio > DIST_LIMIT and gap > DIST_ABS_SLACK_SECONDS
        verdict = "FAIL" if slow else "ok"
        print(
            f"scaling-smoke: {instance}: parallel-2 {par['seconds']:.3f}s,"
            f" dist-workers-2 {dist['seconds']:.3f}s -> {ratio:.2f}x"
            f" (limit {DIST_LIMIT}x + {DIST_ABS_SLACK_SECONDS}s slack)"
            f" {verdict}"
            f" [jobs={dist.get('jobs')} steals={dist.get('steals')}]"
        )
        if slow:
            failures.append(
                f"{instance}: dist-workers-2 is {ratio:.2f}x slower than "
                f"parallel-2 (limit {DIST_LIMIT}x, gap {gap:.4f}s > "
                f"{DIST_ABS_SLACK_SECONDS}s)"
            )

    # Gate 6: the liveness layer must ride along for (nearly) free.
    plain_dist = rows.get((HEARTBEAT_INSTANCE, "dist-workers-2"))
    hb = rows.get((HEARTBEAT_INSTANCE, "dist-workers-2-heartbeat"))
    if plain_dist is None or hb is None:
        failures.append(
            f"{HEARTBEAT_INSTANCE}: missing dist-workers-2/"
            f"dist-workers-2-heartbeat rows"
        )
    else:
        if not hb.get("identical_to_baseline", False):
            failures.append(
                f"{HEARTBEAT_INSTANCE}: dist-workers-2-heartbeat result not "
                f"bit-identical to serial"
            )
        ratio = hb["seconds"] / max(plain_dist["seconds"], 1e-9)
        gap = hb["seconds"] - plain_dist["seconds"]
        slow = ratio > HEARTBEAT_LIMIT and gap > HEARTBEAT_ABS_SLACK_SECONDS
        verdict = "FAIL" if slow else "ok"
        print(
            f"scaling-smoke: {HEARTBEAT_INSTANCE}: dist-workers-2"
            f" {plain_dist['seconds']:.3f}s, dist-workers-2-heartbeat"
            f" {hb['seconds']:.3f}s -> {ratio:.2f}x"
            f" (limit {HEARTBEAT_LIMIT}x + {HEARTBEAT_ABS_SLACK_SECONDS}s"
            f" slack) {verdict}"
        )
        if slow:
            failures.append(
                f"{HEARTBEAT_INSTANCE}: dist-workers-2-heartbeat is "
                f"{ratio:.2f}x slower than dist-workers-2 (limit "
                f"{HEARTBEAT_LIMIT}x, gap {gap:.4f}s > "
                f"{HEARTBEAT_ABS_SLACK_SECONDS}s)"
            )

    # Gate 7: the batched fingerprint pipeline keeps distributed dedupe at
    # in-process scale, and the dedupe contract holds at every worker count.
    for instance in INSTANCES:
        par = rows.get((instance, "parallel-dedupe-2"))
        dist = rows.get((instance, "dist-dedupe-workers-2"))
        serial = rows.get((instance, "serial-dedupe"))
        if par is None or dist is None or serial is None:
            failures.append(
                f"{instance}: missing parallel-dedupe-2/dist-dedupe-workers-2/"
                f"serial-dedupe rows"
            )
            continue
        ratio = dist["seconds"] / max(par["seconds"], 1e-9)
        gap = dist["seconds"] - par["seconds"]
        slow = ratio > DIST_LIMIT and gap > DIST_ABS_SLACK_SECONDS
        verdict = "FAIL" if slow else "ok"
        print(
            f"scaling-smoke: {instance}: parallel-dedupe-2"
            f" {par['seconds']:.3f}s, dist-dedupe-workers-2"
            f" {dist['seconds']:.3f}s -> {ratio:.2f}x"
            f" (limit {DIST_LIMIT}x + {DIST_ABS_SLACK_SECONDS}s slack)"
            f" {verdict}"
        )
        if slow:
            failures.append(
                f"{instance}: dist-dedupe-workers-2 is {ratio:.2f}x slower "
                f"than parallel-dedupe-2 (limit {DIST_LIMIT}x, gap "
                f"{gap:.4f}s > {DIST_ABS_SLACK_SECONDS}s)"
            )
        for config in (
            "dist-dedupe-workers-1",
            "dist-dedupe-workers-2",
            "dist-dedupe-workers-4",
        ):
            row = rows.get((instance, config))
            if row is None:
                failures.append(f"{instance}: missing {config} row")
                continue
            if not row.get("verdict_parity", False):
                failures.append(f"{instance}: {config} lost verdict parity")
            if row["states_seen"] > serial["states_seen"]:
                failures.append(
                    f"{instance}: {config} states_seen {row['states_seen']} "
                    f"exceeds serial-dedupe's {serial['states_seen']} - a "
                    f"pipeline claim escaped the dedupe contract"
                )

    if failures:
        for failure in failures:
            print(f"scaling-smoke: FAIL: {failure}")
        return 1
    print(
        "scaling-smoke: PASS (scaling, dedupe threads, POR, dist parity, "
        "dist overhead, heartbeat overhead, dist dedupe overhead, schema)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
