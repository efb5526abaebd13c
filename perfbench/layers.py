"""Per-layer spans, recorded from outside the program.

:class:`Tracer` wraps the public functions of each simulator layer at the
names their callers resolve at call time, records one span per call
(name, start, end, parent span, and the point or request id the spans
of one unit of work share) and a few counts at the same boundaries.
Spans stay in memory until :meth:`Tracer.dump`.  A layer's self time is
its span's duration minus the time its child spans cover.

``src/`` is never modified: :meth:`Tracer.install` patches attributes
and :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable

from workloads import label


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent, tag]
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, fn: Callable, name: str,
                 tag: Callable | None, after: Callable | None,
                 when: Callable | None) -> Callable:
        spans, counts, lock = self.spans, self.counts, self._lock
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else None
            own = tag(args, kwargs) if tag is not None else None
            if own is None and parent is not None:
                own = spans[parent][4]
            with lock:
                idx = len(spans)
                spans.append([name, clock(), None, parent, own])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if after is not None:
                with lock:
                    after(counts, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap(self, owner: Any, attr: str, name: str, *,
             tag: Callable | None = None, after: Callable | None = None,
             when: Callable | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrapper(raw.__func__, name, tag, after,
                                            when))
        else:
            new = self._wrapper(raw, name, tag, after, when)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every measured layer at the names callers resolve."""
        import repro.apps.base as base
        import repro.apps.registry as registry
        import repro.sim.nativereplay as nativereplay
        from repro.core.resultcache import ResultCache, TraceStore
        from repro.runtime.session import RunSession
        from repro.service.client import ServiceClient
        from repro.sim.compiled import CompiledProgram, TraceCache
        from repro.sim.stats import StatsAssembler

        def bump(key: str, amount: Callable = lambda r, a, k: 1) -> Callable:
            def after(counts, result, args, kwargs):
                counts[key] += amount(result, args, kwargs)
            return after

        def lookup(counts, result, args, kwargs):
            counts["trace.lookups"] += 1
            counts["trace.hits"] += result is not None

        def native_try(counts, result, args, kwargs):
            counts["native.points" if result is not None
                   else "native.declines"] += 1

        def cache_get(counts, result, args, kwargs):
            counts["resultcache.gets"] += 1
            counts["resultcache.hits"] += result is not None

        def point_tag(args, kwargs):
            return label(args[1].request)

        self.wrap(registry, "build_app", "apps.build")
        self.wrap(base.Application, "ensure_setup", "apps.setup")
        self.wrap(base.Application, "compiled_program", "trace.capture",
                  after=bump("trace.capture_ops",
                             lambda r, a, k: r.total_ops))
        self.wrap(base.Application, "run_recorded", "trace.record",
                  after=bump("trace.record_ops",
                             lambda r, a, k: r[1].total_ops))
        self.wrap(base, "execute_program", "engine.replay",
                  when=lambda a, k: k.get("compiled", False),
                  after=bump("engine.ops", lambda r, a, k: a[2].total_ops))
        self.wrap(TraceCache, "get", "trace.lookup", after=lookup)
        self.wrap(TraceStore, "get_bytes", "trace.store_get")
        self.wrap(CompiledProgram, "from_file", "trace.store_get")
        self.wrap(TraceStore, "put_bytes", "trace.store_put")
        self.wrap(nativereplay, "try_replay_native", "native.try",
                  after=native_try)
        self.wrap(nativereplay, "run_native", "native.run",
                  after=bump("native.ops", lambda r, a, k: a[3].total_ops))
        self.wrap(StatsAssembler, "assemble", "stats.assemble")
        self.wrap(RunSession, "run_plan", "runtime.point", tag=point_tag)
        self.wrap(ResultCache, "get", "resultcache.get", after=cache_get,
                  tag=lambda a, k: a[1][:16])
        self.wrap(ResultCache, "put", "resultcache.put",
                  tag=lambda a, k: a[1][:16])
        self.wrap(ServiceClient, "run_point", "service.request",
                  tag=lambda a, k: label(a[1]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -------------------------------------------------------------- reading
    def totals(self) -> tuple[dict[str, float], dict[str, float],
                              Counter]:
        """Per span name: summed duration, summed self time, call count."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _tag in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, _parent, _tag) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child_time[i]
            calls[name] += 1
        return total, own, calls

    def dump(self, path) -> None:
        """Write every span as one JSON line (written once, at the end)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, tag) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "point": tag}) + "\n")


def _p50_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def layer_metrics(tracer: Tracer, passes: int, probe: dict[str, float],
                  service: dict[str, Any], requests: list[dict[str, Any]],
                  points_per_s: float) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``, per pass.

    ``probe`` carries the fresh-interpreter import/load timings;
    ``service`` the summed ``/stats`` counters and ``requests`` the
    client-side records of served-study (both empty on the sweeps).
    Service latencies are host milliseconds, not normalised.
    """
    total, own, calls = tracer.totals()
    c = tracer.counts
    n = max(1, passes)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def ns_per_op(seconds: float, ops: int) -> float:
        return seconds * 1e9 / ops if ops else 0.0

    m: dict[str, float] = {
        "import.s": probe["import_s"],
        "import.numpy_loaded": probe["numpy_loaded"],
        "native.load_s": probe["native_load_s"],
        "apps.build_s": own["apps.build"] + own["apps.setup"],
        "apps.builds": calls["apps.build"],
        "trace.lookups": c["trace.lookups"],
        "trace.hits": c["trace.hits"],
        "trace.hit_ratio": ratio(c["trace.hits"], c["trace.lookups"]),
        "trace.capture_s": own["trace.capture"],
        "trace.captures": calls["trace.capture"],
        "trace.capture_ops": c["trace.capture_ops"],
        "trace.record_s": own["trace.record"],
        "trace.records": calls["trace.record"],
        "trace.record_ops": c["trace.record_ops"],
        "trace.store_get_s": own["trace.store_get"],
        "trace.store_put_s": own["trace.store_put"],
        "native.points": c["native.points"],
        "native.declines": c["native.declines"],
        "native.decline_ratio": ratio(
            c["native.declines"], c["native.points"] + c["native.declines"]),
        "native.run_s": own["native.run"],
        "native.ops": c["native.ops"],
        "native.ns_per_op": ns_per_op(own["native.run"], c["native.ops"]),
        "engine.replay_s": own["engine.replay"],
        "engine.points": calls["engine.replay"],
        "engine.ops": c["engine.ops"],
        "engine.ns_per_op": ns_per_op(own["engine.replay"], c["engine.ops"]),
        "stats.assemble_s": own["stats.assemble"],
        "stats.calls": calls["stats.assemble"],
        "runtime.point_s": total["runtime.point"],
        "runtime.self_s": own["runtime.point"],
        "resultcache.get_s": own["resultcache.get"],
        "resultcache.gets": c["resultcache.gets"],
        "resultcache.hit_ratio": ratio(c["resultcache.hits"],
                                       c["resultcache.gets"]),
        "resultcache.put_s": own["resultcache.put"],
        "resultcache.puts": calls["resultcache.put"],
    }
    per_pass = {k for k in m if not k.startswith(("import.", "native.load"))
                and not k.endswith(("_ratio", "_per_op"))}
    for key in per_pass:
        m[key] = m[key] / n

    by_kind: dict[str, list[float]] = defaultdict(list)
    overhead: list[float] = []
    for r in requests:
        by_kind[r["kind"]].append(r["latency"])
        if r["kind"] == "executed":
            overhead.append(r["latency"] - r["elapsed"])
    m["service.cached_p50_ms"] = _p50_ms(by_kind["cached"])
    m["service.executed_p50_ms"] = _p50_ms(by_kind["executed"])
    m["service.coalesced_p50_ms"] = _p50_ms(by_kind["coalesced"])
    m["service.overhead_p50_ms"] = _p50_ms(overhead)
    for key in ("executed", "cache_hits", "coalesced", "errors"):
        m[f"service.{key}"] = service.get(key, 0) / n
    m["traced.points_per_s"] = points_per_s
    return m


def largest_self(tracer: Tracer) -> list[tuple[str, float]]:
    """Span names by summed self time, largest first."""
    _total, own, _calls = tracer.totals()
    return sorted(own.items(), key=lambda kv: -kv[1])
