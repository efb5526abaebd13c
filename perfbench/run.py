#!/usr/bin/env python3
"""Host-time benchmark of the repro-clustering simulator.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload capacity-sweep --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --sweep-sha     # the 36-point sweep sha256
    python3 perfbench/run.py --pin           # rewrite perfbench/digests.json

It measures how long the simulator takes on the host, never simulated
time.  Simulated statistics are deterministic, so they are a gate
instead of a metric: every point's ``RunResult.to_json()`` must hash to
the digest pinned in ``digests.json`` (pinned seeds) or, for any other
seed, agree with an independent execution of the same point.

Each run happens in a fresh interpreter with throwaway result-cache,
trace-store and native-kernel directories under ``.perfbench-work/`` in
the checkout; the kernel is built there before timing starts, and the
run refuses to measure if it does not load.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` wraps each layer's public functions
(see ``layers.py``) and prints the per-layer metrics instead.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
DIGESTS = HERE / "digests.json"

#: seeds whose per-point digests are pinned in ``digests.json``; the
#: second is held out of tuning so a later gain can be confirmed on it
PINNED_SEEDS = (12345, 424242)
#: fresh-interpreter set-up samples per sweep run (median reported)
SETUP_SAMPLES = 5
#: every sweep pass is repeated at least this often in the window
MIN_PASSES = 2
#: served requests per client between two calibration checkpoints
PLAN_CHUNK = 6
#: host-speed calibration: a fixed pure-python probe timed between the
#: measured units.  Neighbouring tenants slow this host by up to 2x for
#: seconds at a time; dividing each unit's time by the probe's time at
#: that moment cancels most of it.  The probe is interpreter-bound only:
#: a memory-bound one (a numpy gather) slows far more than the simulator
#: under heavy load and over-corrects.  Times are reported in reference
#: seconds: CAL_REFERENCE_S is the probe's duration on an idle host
#: (2-vCPU x86_64 VM, CPython 3.11).
CAL_ITERATIONS = 50_000
CAL_REFERENCE_S = 0.0045

SETUP_PROBE = r"""
import json, sys, time
t0 = time.perf_counter()
import repro.cli
t1 = time.perf_counter()
numpy_loaded = "numpy" in sys.modules
import repro.native
if repro.native.kernel() is None:
    sys.exit(3)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "numpy_loaded": int(numpy_loaded),
                  "native_load_s": t2 - t1}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout as asked."""


def digest(result) -> str:
    return hashlib.sha256(result.to_json().encode("utf-8")).hexdigest()


def calibrate() -> float:
    """Wall time of the host-speed probe, now."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(CAL_ITERATIONS):
        k = i & 255
        table[k] = table.get(k, 0) + i
    return time.perf_counter() - start


def calibrate_on(cpus: set[int] | None) -> float:
    """The probe's time on ``cpus`` (where this thread runs if None)."""
    if not cpus:
        return calibrate()
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        return calibrate()
    finally:
        os.sched_setaffinity(0, own)


def to_reference(wall: float, before: float, after: float) -> float:
    """``wall`` host seconds in reference seconds, given the probe times
    just before and after it."""
    return wall * 2 * CAL_REFERENCE_S / (before + after)


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``q`` a multiple of 10)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


# ----------------------------------------------------------------- set-up
def isolate(work: Path) -> dict[str, str]:
    """Point every cache at ``work`` and force the native kernel on."""
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    os.environ["REPRO_NATIVE_CACHE"] = str(work / "native")
    os.environ["REPRO_NATIVE"] = "1"  # a missing kernel raises, never degrades
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))
    return dict(os.environ)


def prebuild_native() -> None:
    import repro.native as native

    try:
        native.kernel()
    except RuntimeError as exc:
        raise BenchError(f"native kernel did not load: {exc}") from None


def setup_probes(env: dict[str, str], samples: int) -> list[dict]:
    """Fresh interpreter -> ``repro`` imported + kernel loaded, in
    reference seconds."""
    out = []
    for _ in range(samples):
        before = calibrate()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                              cwd=str(ROOT), capture_output=True, text=True,
                              timeout=120)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed ({proc.returncode}): "
                             f"{proc.stderr.strip()[-400:]}")
        setup = to_reference(wall, before, calibrate())
        out.append({"setup_s": setup, **json.loads(proc.stdout)})
    return out


def probe_summary(probes: list[dict]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in probes)
            for k in ("import_s", "numpy_loaded", "native_load_s")}


# --------------------------------------------------------- reference checks
def pinned(workload: str, seed: int) -> dict[str, str] | None:
    if not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text())
    return table.get("seeds", {}).get(str(seed), {}).get(workload)


def direct_digests(requests: list, *, native: bool,
                   use_compiled: bool = True) -> list[str]:
    """Digests of ``requests`` run directly through ``RunSession``."""
    from repro.runtime import RunSession
    from repro.sim.compiled import TraceCache, clear_memory_cache

    previous = os.environ["REPRO_NATIVE"]
    os.environ["REPRO_NATIVE"] = "1" if native else "0"
    try:
        clear_memory_cache()
        session = RunSession(trace_cache=TraceCache(),
                             use_compiled=use_compiled)
        return [digest(session.run(r)) for r in requests]
    finally:
        os.environ["REPRO_NATIVE"] = previous
        clear_memory_cache()


def reference_for(workload: str, seed: int, requests: list,
                  labels: list[str]) -> tuple[dict[int, str], str]:
    """Expected digests by point index, and where they came from.

    Pinned seeds compare every point with ``digests.json``.  Any other
    seed compares with an independent execution: the sweeps run one
    point per app (rotating with the seed) on the python generator path
    with the native kernel off; the served study runs every point
    directly through ``RunSession``, as ``serve`` would.
    """
    table = pinned(workload, seed)
    if table is not None:
        return {i: table.get(lab) for i, lab in enumerate(labels)}, "pinned"
    if workload == "served-study":
        got = direct_digests(requests, native=True)
        return dict(enumerate(got)), "direct RunSession"
    per_app = len(requests) // len({r.app for r in requests})
    picks = [block + (seed + block // per_app) % per_app
             for block in range(0, len(requests), per_app)]
    got = direct_digests([requests[i] for i in picks], native=False,
                         use_compiled=False)
    return dict(zip(picks, got)), "python generator sample"


# ------------------------------------------------------------------ sweeps
def count_native(counts: Counter):
    """Count native replays and declines (no clock reads); returns undo."""
    import repro.sim.nativereplay as nativereplay

    original = nativereplay.try_replay_native

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        counts["native.declines" if result is None else "native.points"] += 1
        return result

    nativereplay.try_replay_native = counted
    return lambda: setattr(nativereplay, "try_replay_native", original)


def run_sweep(requests: list, seconds: float) -> dict:
    """Repeat the whole grid, each pass from a fresh trace cache.

    A pass is every point in order, serially, from a fresh ``TraceCache``
    and an empty process-wide trace LRU, so every pass does identical
    work.  The calibration probe runs between points; a point's time in
    reference seconds uses the mean of the probe times either side of it.
    Passes repeat until the next one would overrun ``seconds`` (at least
    :data:`MIN_PASSES`).
    """
    from repro.runtime import RunSession
    from repro.sim.compiled import TraceCache, clear_memory_cache

    times: list[list[float]] = [[] for _ in requests]
    raw: list[list[float]] = [[] for _ in requests]
    digests: list[set[str]] = [set() for _ in requests]
    errors: list[str] = []
    passes: list[float] = []
    cals: list[float] = []
    start = time.perf_counter()
    while True:
        clear_memory_cache()
        session = RunSession(trace_cache=TraceCache())
        pass_start = time.perf_counter()
        before = calibrate()
        for i, request in enumerate(requests):
            t0 = time.perf_counter()
            try:
                result = session.run(request)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                errors.append(f"{request.describe()}: {exc!r}")
                digests[i].add("error")
                before = calibrate()
                continue
            wall = time.perf_counter() - t0
            after = calibrate()
            cals.append(after)
            raw[i].append(wall)
            times[i].append(to_reference(wall, before, after))
            before = after
            digests[i].add(digest(result))
        passes.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        if (len(passes) >= MIN_PASSES
                and elapsed + statistics.median(passes) > seconds):
            break
    clear_memory_cache()
    return {"times": times, "raw": raw, "digests": digests,
            "errors": errors, "passes": passes, "cals": cals}


def sweep_workload(workload: str, seed: int, seconds: float,
                   tracer) -> dict:
    import workloads

    requests = workloads.requests(workload, seed)
    labels = [workloads.label(r) for r in requests]
    counts: Counter = Counter()
    if tracer is None:
        undo = count_native(counts)
    else:
        tracer.install()
        undo, counts = tracer.uninstall, tracer.counts
    try:
        run = run_sweep(requests, seconds)
    finally:
        undo()
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # min over passes: every pass does identical work, so the fastest
    # sample of a point is its cost with the least left-over contention
    point_s = [min(t) if t else float("nan") for t in run["times"]]
    raw_s = [min(t) if t else float("nan") for t in run["raw"]]
    n_passes = len(run["passes"])
    attempted = n_passes * len(requests)
    failures = list(run["errors"])
    bad = {i for i, d in enumerate(run["digests"]) if len(d) != 1}
    failures += [f"{labels[i]}: results differ between passes" for i in bad]
    expected, source = reference_for(workload, seed, requests, labels)
    for i, want in expected.items():
        if i not in bad and run["digests"][i] != {want}:
            bad.add(i)
            failures.append(f"{labels[i]}: digest differs from {source}")
    if workload == "capacity-sweep":
        if counts["native.declines"]:
            failures.append(f"native kernel declined "
                            f"{counts['native.declines']} capacity points")
        if counts["native.points"] != attempted:
            failures.append(f"native kernel ran {counts['native.points']} "
                            f"of {attempted} capacity points")
    ok_times = [t for i, t in enumerate(point_s) if i not in bad]
    return {
        "attempted": attempted,
        "failed": len(bad) * n_passes,
        "failures": failures,
        "check": source,
        "points_per_s": (len(requests) / sum(point_s)
                         if not bad else 0.0),
        "latencies": ok_times,
        "peak_rss_mb": peak_rss,
        "passes": n_passes,
        "pass_s": run["passes"],
        "raw_points_per_s": len(requests) / sum(raw_s),
        "cal_ms": statistics.median(run["cals"]) * 1e3,
    }


# ----------------------------------------------------------------- served
def served_workload(seed: int, seconds: float, env: dict[str, str],
                    work: Path, tracer) -> dict:
    import served
    import workloads

    requests = workloads.requests("served-study", seed)
    labels = [workloads.label(r) for r in requests]
    clients, passes = workloads.SERVED_CLIENTS, workloads.SERVED_PASSES
    want_stats = served.expected_stats(len(requests), clients, passes)
    plans: list = []
    ready: list[float] = []
    if tracer is not None:
        tracer.install()
    # the daemon gets a CPU of its own, away from the clients, so the
    # checkpoint probe can time the CPU the simulations run on
    own = os.sched_getaffinity(0)
    daemon_cpus = None
    if len(own) >= 2 and tracer is None:
        daemon_cpus = {max(own)}
        os.sched_setaffinity(0, own - daemon_cpus)
    probe = functools.partial(calibrate_on, daemon_cpus)
    start = time.perf_counter()
    try:
        while True:
            cache_dir = work / f"plan-{len(plans)}"
            before = probe()
            daemon = (served.SpawnedDaemon(cache_dir, env, ROOT, daemon_cpus)
                      if tracer is None else served.HostedDaemon(cache_dir))
            ready.append(to_reference(daemon.ready_s, before, probe()))
            try:
                plans.append(served.run_plan(
                    daemon, requests, clients, passes, calibrate=probe,
                    chunk=PLAN_CHUNK))
            finally:
                daemon.stop()
            elapsed = time.perf_counter() - start
            walls = [p.wall_s for p in plans]
            if (len(plans) >= MIN_PASSES
                    and elapsed + statistics.median(walls) > seconds):
                break
    finally:
        os.sched_setaffinity(0, own)
        if tracer is not None:
            tracer.uninstall()

    per_plan = len(requests) * clients * passes
    attempted = per_plan * len(plans)
    failures: list[str] = []
    notes: list[str] = []
    digests: list[set[str]] = [set() for _ in requests]
    ok = 0
    slot_latency: dict[tuple, list[float]] = {}
    for k, plan in enumerate(plans):
        for rec in plan.records:
            if "error" in rec:
                failures.append(f"plan {k} request {rec['slot']}: "
                                f"{rec['error']}")
                continue
            ok += 1
            digests[rec["index"]].add(digest(rec["result"]))
            slot_latency.setdefault(rec["slot"], []).append(
                rec["latency"] * CAL_REFERENCE_S / rec["speed"])
        got = {key: plan.stats.get(key) for key in want_stats}
        if got != want_stats:
            notes.append(f"plan {k} /stats {got} != plan {want_stats}")
        if not served.stats_consistent(got, want_stats):
            failures.append(f"plan {k} /stats {got} != plan {want_stats}")
    expected, source = reference_for("served-study", seed, requests, labels)
    bad = {i for i, d in enumerate(digests) if d != {expected[i]}}
    failures += [f"{labels[i]}: served result differs from {source}"
                 for i in sorted(bad)]
    failed = attempted - ok + sum(
        1 for plan in plans for rec in plan.records
        if "error" not in rec and rec["index"] in bad)
    # min over plans per request slot, as for sweep points; the plan's
    # wall is then its slowest client's summed slot latencies
    slot_s = {slot: min(v) for slot, v in slot_latency.items()}
    client_s = [sum(v for (ci, _p, _i), v in slot_s.items() if ci == c)
                for c in range(clients)]
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "notes": notes,
        "check": source,
        "points_per_s": per_plan / max(client_s) if not failures else 0.0,
        "latencies": list(slot_s.values()),
        "peak_rss_mb": max(p.peak_rss_mb for p in plans),
        "passes": len(plans),
        "pass_s": [p.wall_s for p in plans],
        "raw_points_per_s": per_plan / min(p.wall_s for p in plans),
        "cal_ms": statistics.median(
            rec["speed"] for plan in plans for rec in plan.records
            if "speed" in rec) * 1e3,
        "ready_s": ready,
        "stats": {key: sum(p.stats.get(key, 0) for p in plans)
                  for key in want_stats},
        "requests": [rec for plan in plans for rec in plan.records
                     if "error" not in rec],
    }


# ------------------------------------------------------------------- modes
def measure(args: argparse.Namespace, env: dict[str, str],
            work: Path) -> dict:
    from layers import Tracer, largest_self, layer_metrics

    tracer = Tracer() if args.trace else None
    prebuild_native()
    probes = []
    if args.workload != "served-study" or args.trace:
        probes = setup_probes(env, SETUP_SAMPLES if not args.trace else 3)
    if args.workload == "served-study":
        out = served_workload(args.seed, args.seconds, env, work, tracer)
        setup = statistics.median(out["ready_s"])
    else:
        out = sweep_workload(args.workload, args.seed, args.seconds, tracer)
        setup = statistics.median(p["setup_s"] for p in probes)
    lat = out["latencies"] or [0.0]
    samples = len(out["latencies"])
    print(f"# {args.workload} seed={args.seed} passes={out['passes']} "
          f"pass_s={[round(s, 3) for s in out['pass_s']]} "
          f"latency samples={samples} check={out['check']} "
          f"raw points_per_s={out['raw_points_per_s']:.3f} "
          f"calibration={out['cal_ms']:.2f}ms "
          f"error_rate={out['failed'] / out['attempted']:.4f}")
    for line in out.get("notes", []):
        print(f"# NOTE {line}", file=sys.stderr)
    for line in out["failures"]:
        print(f"# FAIL {line}", file=sys.stderr)
    if not args.trace:
        values = {
            "setup_s": setup,
            "points_per_s": out["points_per_s"],
            "peak_rss_mb": out["peak_rss_mb"],
            "request_p50_ms": quantile(lat, 50) * 1e3,
            "request_p90_ms": quantile(lat, 90) * 1e3,
        }
    else:
        values = layer_metrics(tracer, out["passes"],
                               probe_summary(probes), out.get("stats", {}),
                               out.get("requests", []), out["points_per_s"])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in
             declared["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} are "
                         f"not both measured and declared in BENCHMARK.json")
    metrics = {k: (values[k], units[k]) for k in units}
    if args.trace:
        spans = WORK / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans / f"{args.workload}-seed{args.seed}.jsonl")
        top = largest_self(tracer)[:4]
        print("# largest self time: " + ", ".join(
            f"{name} {s / out['passes']:.3f}s" for name, s in top))
    for name, (value, unit) in metrics.items():
        print(f"{name:>26} {value:14.6f} {unit}")
    return {"correct": not out["failures"] and out["failed"] == 0,
            "attempted": out["attempted"], "failed": out["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def sweep_sha() -> str:
    import workloads

    from repro.runtime import RunSession
    from repro.sim.compiled import TraceCache, clear_memory_cache

    clear_memory_cache()
    session = RunSession(trace_cache=TraceCache())
    blob = "\n".join(session.run(r).to_json()
                     for r in workloads.sweep_sha_requests())
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def pin() -> None:
    """Rewrite ``digests.json`` from direct ``RunSession`` runs."""
    import workloads

    seeds = {}
    for seed in PINNED_SEEDS:
        seeds[str(seed)] = {}
        for workload in workloads.WORKLOADS:
            requests = workloads.requests(workload, seed)
            got = direct_digests(requests, native=True)
            seeds[str(seed)][workload] = {
                workloads.label(r): d for r, d in zip(requests, got)}
            print(f"pinned {workload} seed {seed}: {len(got)} points")
    DIGESTS.write_text(json.dumps(
        {"about": "sha256 of each point's RunResult.to_json(), run "
                  "directly through RunSession",
         "seeds": seeds}, indent=1, sort_keys=True) + "\n")


def parse(argv: list[str] | None) -> argparse.Namespace:
    import workloads

    def seed(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return value

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=seed, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sweep-sha", action="store_true",
                   help="check the 36-point sweep sha256 and exit")
    p.add_argument("--pin", action="store_true",
                   help="rewrite digests.json for the pinned seeds")
    args = p.parse_args(argv)
    if not (args.workload or args.sweep_sha or args.pin):
        p.error("one of --workload, --sweep-sha, --pin is required")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}; run from the root "
              f"of a repro-clustering checkout", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload or 'pin'}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        env = isolate(work)
        if args.sweep_sha or args.pin:
            import workloads

            prebuild_native()
            sha = sweep_sha()
            print(f"36-point sweep sha256 {sha} "
                  f"({'matches' if sha == workloads.SWEEP_SHA256 else 'DIFFERS'})")
            if sha != workloads.SWEEP_SHA256:
                return 1
            if args.pin:
                pin()
            return 0
        result = measure(args, env, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
