"""The served-study plan: a ``serve`` daemon and two closed-loop clients.

Untraced runs spawn ``python -m repro.cli serve`` with throwaway result
and trace directories, exactly as a user would; the traced run hosts the
same classes (``SweepExecutor`` + ``TraceCache(TraceStore)`` +
``SweepService(ResultCache)`` + ``ServiceDaemon``) on a thread of the
benchmark process so the span wrappers see the daemon's layers.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

READY_DEADLINE_S = 60.0


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


class SpawnedDaemon:
    """``repro-clustering serve`` as a subprocess with its own caches."""

    def __init__(self, cache_dir: Path, env: dict[str, str],
                 cwd: Path, cpus: set[int] | None = None) -> None:
        from repro.service.client import ServiceClient

        self.port = _free_port()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "--cache-dir",
             str(cache_dir), "serve", "--port", str(self.port)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, env=env, cwd=str(cwd))
        if cpus:
            # still single-threaded: threads it starts later inherit this
            os.sched_setaffinity(self.proc.pid, cpus)
        try:
            with ServiceClient(port=self.port) as probe:
                probe.wait_ready(READY_DEADLINE_S, interval_s=0.005)
        except BaseException:
            self.stop()
            raise
        #: spawn -> ``/healthz`` answers
        self.ready_s = time.perf_counter() - start

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        from repro.service.client import ServiceClient

        if self.proc.poll() is None:
            try:
                with ServiceClient(port=self.port, timeout=30) as client:
                    client.shutdown()
            except Exception:  # noqa: BLE001 - fall through to terminate
                self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class HostedDaemon:
    """The same daemon stack on a thread of this process (traced run)."""

    def __init__(self, cache_dir: Path) -> None:
        from repro.core.resultcache import TraceStore
        from repro.service.daemon import DaemonThread
        from repro.sim.compiled import TraceCache, clear_memory_cache

        # a fresh daemon process starts with an empty trace LRU
        clear_memory_cache()
        self.thread = DaemonThread(cache_dir=cache_dir)
        # as ``serve`` does: the trace LRU backed by the on-disk store
        self.thread.executor.trace_cache = TraceCache(TraceStore(cache_dir))
        self.thread.start()
        self.port = self.thread.port
        self.ready_s = 0.0

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def stop(self) -> None:
        self.thread.stop()


@dataclass
class PlanResult:
    """One plan: every request's outcome, in (client, pass, index) order."""

    wall_s: float
    records: list[dict[str, Any]] = field(default_factory=list)
    stats: dict[str, Any] = field(default_factory=dict)
    peak_rss_mb: float = 0.0


def run_plan(daemon, requests: list, clients: int, passes: int, *,
             calibrate: Callable[[], float], chunk: int) -> PlanResult:
    """Send ``requests`` ``passes`` times from ``clients`` closed loops.

    Every ``chunk`` requests the clients meet at a checkpoint where the
    daemon is idle, and ``calibrate`` times the host-speed probe there.
    Each record's ``speed`` is the mean probe time of the checkpoints
    either side of its chunk.
    """
    from repro.service.client import ServiceClient

    speeds: list[float] = []

    def checkpoint() -> None:
        speeds.append(calibrate())

    records: list[list[dict[str, Any]]] = [[] for _ in range(clients)]
    gate = threading.Barrier(clients, action=checkpoint)
    per_pass = -(-len(requests) // chunk)

    def loop(ci: int) -> None:
        with ServiceClient(port=daemon.port) as client:
            for p in range(passes):
                for i, request in enumerate(requests):
                    if i % chunk == 0:
                        gate.wait()
                    start = time.perf_counter()
                    try:
                        report = client.run_point(request)
                    except Exception as exc:  # noqa: BLE001 - counted
                        records[ci].append({"slot": (ci, p, i),
                                            "error": repr(exc)})
                        continue
                    latency = time.perf_counter() - start
                    kind = ("cached" if report.cached else
                            "coalesced" if report.coalesced else "executed")
                    records[ci].append({
                        "slot": (ci, p, i), "index": i,
                        "checkpoint": p * per_pass + i // chunk,
                        "latency": latency, "kind": kind,
                        "elapsed": report.elapsed, "result": report.result})
            gate.wait()

    threads = [threading.Thread(target=loop, args=(ci,), name=f"client-{ci}")
               for ci in range(clients)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    for rs in records:
        for rec in rs:
            if "checkpoint" in rec:
                k = rec["checkpoint"]
                rec["speed"] = (speeds[k] + speeds[k + 1]) / 2
    with ServiceClient(port=daemon.port) as client:
        stats = client.stats()
    return PlanResult(wall_s=wall,
                      records=[r for rs in records for r in rs],
                      stats=stats, peak_rss_mb=daemon.peak_rss_mb())


def expected_stats(n_points: int, clients: int, passes: int
                   ) -> dict[str, int]:
    """``/stats`` counters the plan must produce, exactly.

    Each distinct point executes once in pass 1 and its twin request from
    the other client joins that flight; every later request is a cache
    hit.
    """
    return {"points": n_points * clients * passes,
            "executed": n_points,
            "coalesced": n_points * (clients - 1),
            "cache_hits": n_points * clients * (passes - 1),
            "errors": 0}


def stats_consistent(got: dict[str, Any], want: dict[str, int]) -> bool:
    """Whether ``/stats`` shows a correct daemon.

    Every point must execute exactly once and nothing may fail.  Whether
    a twin request coalesces or, arriving after its flight finished,
    hits the cache depends on timing, so only their sum is fixed.
    """
    joined = want["coalesced"] + want["cache_hits"]
    return (all(got[k] == want[k] for k in ("points", "executed", "errors"))
            and got["coalesced"] + got["cache_hits"] == joined)
