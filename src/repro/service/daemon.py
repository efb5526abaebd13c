"""The sweep service daemon: a long-lived simulation server.

``repro-clustering serve`` turns the repo's warm-state machinery — the
process-wide compiled-trace LRU, the fork-server worker pool, the
content-hash result cache — from per-invocation optimizations into a
shared, persistent service.  Two classes split the work:

:class:`SweepService`
    The transport-free core.  It owns the :class:`~repro.core.executor.
    SweepExecutor`, the optional :class:`~repro.core.resultcache.
    ResultCache`, and the **single-flight table**: a map from content-hash
    point key (:func:`~repro.core.resultcache.point_key` — the exact key
    the result cache uses) to the in-flight :class:`asyncio.Task`
    computing that point.  N concurrent identical requests find the same
    task and await it together — one simulation, N answers — and the
    finished result lands in the result cache so request N+1 is a disk
    hit.  Execution itself goes through
    :meth:`SweepExecutor.submit_one`, whose worker path is the canonical
    :class:`~repro.runtime.session.RunSession` pipeline; the daemon adds
    no second way to run a simulation.

:class:`ServiceDaemon`
    The asyncio HTTP front end (see :mod:`repro.service.http`): routing,
    keep-alive connections, the JSON-lines sweep stream, per-request
    timeouts (``asyncio.wait_for`` around a *shielded* flight, so one
    impatient client never cancels a computation other clients share),
    and graceful shutdown that stops accepting, drains in-flight points
    up to a deadline, then cancels stragglers and closes the pools.

Endpoints (wire format in ``docs/SERVICE.md``):

=========  ======  ====================================================
path       method  behaviour
=========  ======  ====================================================
/healthz   GET     liveness + protocol version + in-flight count
/stats     GET     counters: cache hit rate, coalesced, pool warmth, …
/resolve   POST    validate + resolve a request; returns key & config
/run       POST    evaluate one point; 200 with a PointReport
/sweep     POST    evaluate many; chunked JSON-lines, completion order
/shutdown  POST    graceful drain + stop (also SIGINT/SIGTERM)
=========  ======  ====================================================

Failures are structured: malformed payloads are 400s with an
``{"error": ...}`` body, a point that dies (including a killed worker
process poisoning the pool) is a 500 whose message is the exception
summary — never a traceback — and the daemon itself stays healthy, with
the executor reopening its pool on the next request.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..apps.registry import APP_NAMES
from ..core.config import MachineConfig
from ..core.executor import PointOutcome, SweepExecutor
from ..core.resultcache import ResultCache, point_key
from .http import (HTTPParseError, HTTPRequest, JSONLineWriter, read_request,
                   response_bytes, send_json)
from .protocol import (PROTOCOL_VERSION, PointReport, ProtocolError,
                       decode_point_payload, decode_sweep_payload,
                       encode_run_request, error_body)

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.plan import RunRequest

__all__ = ["DaemonThread", "PointExecutionError", "ServiceDaemon",
           "ServiceStats", "SweepService"]


def _native_status() -> dict[str, Any]:
    """The replay-kernel selection snapshot for ``/stats``.

    :func:`repro.native.status` plus nothing — kept as a seam so the
    daemon never triggers a compile while answering a stats poll.
    """
    import repro.native as native

    return native.status()


def _trace_cache_status() -> dict[str, Any]:
    """The process-wide trace-LRU accounting for ``/stats``.

    Byte-budget occupancy of the in-memory compiled-trace tier
    (:func:`repro.sim.compiled.trace_cache_info`): live entries, how many
    are memory-mapped (charged ≈ 0 resident bytes), resident vs payload
    bytes, and the configured budget — the numbers an operator needs to
    tell "the daemon is holding traces" from "the traces are mapped and
    the page cache is holding them".
    """
    from ..sim.compiled import trace_cache_info

    return trace_cache_info()


class PointExecutionError(RuntimeError):
    """A point failed to execute; carries the client-safe summary.

    ``detail`` is the executor's full error text (which may include a
    worker traceback) for the daemon's own logs; ``message`` is the last
    non-empty line — the exception summary — and is all that ever
    reaches the wire.
    """

    def __init__(self, key: str, detail: str) -> None:
        lines = [ln for ln in (detail or "").strip().splitlines() if ln]
        self.key = key
        self.detail = detail
        self.message = lines[-1] if lines else "point execution failed"
        super().__init__(self.message)


@dataclass
class ServiceStats:
    """Monotonic service counters (reported by ``GET /stats``)."""

    requests: int = 0      # HTTP requests accepted (any endpoint)
    points: int = 0        # point evaluations asked for (run + sweep)
    executed: int = 0      # simulations actually run to completion
    cache_hits: int = 0    # points served from the persistent result cache
    coalesced: int = 0     # points that joined an identical in-flight run
    errors: int = 0        # executions that failed
    timeouts: int = 0      # per-request deadlines that expired


class SweepService:
    """Transport-free service core: single-flight memoized evaluation.

    Parameters
    ----------
    executor:
        The :class:`SweepExecutor` evaluations are dispatched to.  Its
        backend decides the daemon's shape: ``fork``/``process`` for a
        warm worker pool, ``serial`` for in-process (thread) execution.
        The executor's own result cache is ignored — the service owns
        memoization so it composes with single-flight.
    base_config:
        Machine template every request resolves against.
    cache:
        Optional persistent :class:`ResultCache`.  ``None`` disables
        memoization (every distinct request executes).
    """

    def __init__(self, executor: SweepExecutor,
                 base_config: MachineConfig | None = None,
                 cache: ResultCache | None = None) -> None:
        self.executor = executor
        self.base_config = base_config or MachineConfig()
        self.cache = cache
        self.stats = ServiceStats()
        self.started_at = time.monotonic()
        self._inflight: dict[str, asyncio.Task] = {}

    # ------------------------------------------------------------ resolution
    def resolve(self, request: "RunRequest") -> tuple[str, MachineConfig]:
        """Validate + bind a request; returns (point key, concrete config).

        Raises :class:`ProtocolError` for anything the daemon can reject
        before spending a worker on it: unknown applications and
        machine shapes the base config cannot take (e.g. a cluster size
        that does not divide the processor count).
        """
        if request.app not in APP_NAMES:
            raise ProtocolError(
                f"unknown application {request.app!r}; expected one of "
                f"{', '.join(APP_NAMES)}")
        try:
            config = request.config_for(self.base_config)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
        return point_key(request.app, request.kwargs, config), config

    # ------------------------------------------------------------ evaluation
    @property
    def in_flight(self) -> int:
        return len(self._inflight)

    async def evaluate(self, request: "RunRequest",
                       timeout: float | None = None) -> PointReport:
        """Evaluate one point: cache → single-flight → execute.

        The order is the whole contract: an identical in-flight
        execution is joined *before* the cache is consulted (the flight
        will populate the cache anyway), a cached result short-circuits
        execution, and only a genuinely new key starts a simulation.
        Everything between the in-flight lookup and the table insert is
        synchronous, so two coroutines can never both miss and both
        submit the same key.
        """
        self.stats.points += 1
        key, _config = self.resolve(request)

        flight = self._inflight.get(key)
        if flight is not None:
            self.stats.coalesced += 1
            report = await self._await_flight(flight, timeout)
            return report.as_coalesced()

        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                self.stats.cache_hits += 1
                return PointReport(key, hit, cached=True)

        flight = asyncio.get_running_loop().create_task(
            self._execute(key, request))
        self._inflight[key] = flight
        return await self._await_flight(flight, timeout)

    async def _await_flight(self, flight: "asyncio.Task[PointReport]",
                            timeout: float | None) -> PointReport:
        # shield: a per-request timeout or client disconnect abandons
        # *this waiter*, never the shared computation — other coalesced
        # waiters keep their flight, and the result still reaches the
        # cache for the retry
        try:
            return await asyncio.wait_for(asyncio.shield(flight), timeout)
        except asyncio.TimeoutError:
            self.stats.timeouts += 1
            raise

    async def _execute(self, key: str, request: "RunRequest") -> PointReport:
        try:
            outcome: PointOutcome = await asyncio.wrap_future(
                self.executor.submit_one(request, self.base_config))
        finally:
            self._inflight.pop(key, None)
        if outcome.error is not None:
            self.stats.errors += 1
            raise PointExecutionError(key, outcome.error)
        self.stats.executed += 1
        if self.cache is not None:
            self.cache.put(key, outcome.result)
        return PointReport(key, outcome.result, elapsed=outcome.elapsed)

    # --------------------------------------------------------------- reports
    def stats_dict(self) -> dict[str, Any]:
        s = self.stats
        cache = None
        if self.cache is not None:
            cache = {"hits": self.cache.hits, "misses": self.cache.misses,
                     "directory": str(self.cache.directory)}
        return {
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "requests": s.requests,
            "points": s.points,
            "executed": s.executed,
            "cache_hits": s.cache_hits,
            "cache_hit_rate": round(s.cache_hits / s.points, 4)
            if s.points else 0.0,
            "coalesced": s.coalesced,
            "errors": s.errors,
            "timeouts": s.timeouts,
            "in_flight": self.in_flight,
            "result_cache": cache,
            "native": _native_status(),
            "trace_cache": _trace_cache_status(),
            "pool": {
                "backend": self.executor.backend,
                "max_workers": self.executor.max_workers,
                "warm": bool(self.executor.worker_pids()),
                "workers": self.executor.worker_pids(),
            },
        }

    async def drain(self, deadline: float | None) -> int:
        """Wait for in-flight points (up to ``deadline`` seconds).

        Returns how many flights were still pending at the deadline and
        got cancelled — 0 is the graceful outcome.
        """
        pending = [t for t in self._inflight.values() if not t.done()]
        if pending:
            await asyncio.wait(pending, timeout=deadline)
        stragglers = [t for t in self._inflight.values() if not t.done()]
        for task in stragglers:
            task.cancel()
        return len(stragglers)

    def close(self) -> None:
        """Shut the executor's worker pools down (idempotent)."""
        self.executor.close()


class ServiceDaemon:
    """Asyncio HTTP front end around a :class:`SweepService`."""

    def __init__(self, service: SweepService, host: str = "127.0.0.1",
                 port: int = 0, drain_deadline: float = 10.0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.drain_deadline = drain_deadline
        self._server: asyncio.AbstractServer | None = None
        self._stopped: asyncio.Event | None = None
        self._stopping = False
        self._shutdown_task: asyncio.Task | None = None

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns (host, actual port)."""
        self._stopped = asyncio.Event()
        self._stopping = False
        self._server = await asyncio.start_server(self._handle, self.host,
                                                  self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def stop(self, drain_deadline: float | None = None) -> None:
        """Graceful shutdown: stop accepting, drain, cancel, close pools."""
        if self._stopping:
            if self._stopped is not None:
                await self._stopped.wait()
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = (self.drain_deadline if drain_deadline is None
                    else drain_deadline)
        await self.service.drain(deadline)
        self.service.close()
        if self._stopped is not None:
            self._stopped.set()

    async def wait_stopped(self) -> None:
        if self._stopped is not None:
            await self._stopped.wait()

    def run_blocking(self, announce: bool = False) -> int:
        """Serve until SIGINT/SIGTERM or ``POST /shutdown`` (CLI entry)."""
        import contextlib
        import signal
        import sys

        async def _main() -> None:
            host, port = await self.start()
            if announce:
                print(f"repro-clustering serve: listening on "
                      f"http://{host}:{port} "
                      f"(backend={self.service.executor.backend}, "
                      # `is not None`: an empty ResultCache is falsy (len 0)
                      f"cache="
                      f"{'on' if self.service.cache is not None else 'off'})",
                      file=sys.stderr)
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError):
                    loop.add_signal_handler(
                        sig, lambda: loop.create_task(self.stop()))
            await self.wait_stopped()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:  # platforms without signal handlers
            pass
        return 0

    # ------------------------------------------------------------ connection
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HTTPParseError as exc:
                    send_json(writer, 400, error_body("bad-request", str(exc)))
                    await writer.drain()
                    break
                if request is None:
                    break
                self.service.stats.requests += 1
                close_after = await self._dispatch(request, writer)
                await writer.drain()
                if close_after or request.wants_close:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away (or we are shutting down): fine
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    # --------------------------------------------------------------- routing
    async def _dispatch(self, request: HTTPRequest,
                        writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns True when the connection must close."""
        route = (request.method, request.path)
        try:
            if route == ("GET", "/healthz"):
                send_json(writer, 200, {
                    "status": "ok", "protocol": PROTOCOL_VERSION,
                    "in_flight": self.service.in_flight})
            elif route == ("GET", "/stats"):
                send_json(writer, 200, self.service.stats_dict())
            elif route == ("POST", "/resolve"):
                self._handle_resolve(request, writer)
            elif route == ("POST", "/run"):
                await self._handle_run(request, writer)
            elif route == ("POST", "/sweep"):
                return await self._handle_sweep(request, writer)
            elif route == ("POST", "/shutdown"):
                send_json(writer, 200, {
                    "ok": True, "draining": self.service.in_flight})
                # respond first, then stop: the task keeps a reference so
                # the shutdown survives this connection closing
                self._shutdown_task = asyncio.get_running_loop().create_task(
                    self.stop())
                return True
            elif request.path in ("/healthz", "/stats", "/resolve", "/run",
                                  "/sweep", "/shutdown"):
                send_json(writer, 405, error_body(
                    "method-not-allowed",
                    f"{request.method} is not supported on {request.path}"))
            else:
                send_json(writer, 404, error_body(
                    "not-found", f"no such endpoint {request.path!r}"))
        except (HTTPParseError, ProtocolError) as exc:
            send_json(writer, 400, error_body("bad-request", str(exc)))
        except PointExecutionError as exc:
            send_json(writer, 500, error_body("execution-error", exc.message))
        except asyncio.TimeoutError:
            send_json(writer, 504, error_body(
                "timeout", "the point did not finish within the "
                "request's deadline; it keeps running and will be "
                "served from cache when done"))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — last-resort 500, no trace
            send_json(writer, 500, error_body(
                "internal", f"{type(exc).__name__}: {exc}"))
        return False

    # -------------------------------------------------------------- handlers
    def _handle_resolve(self, request: HTTPRequest,
                        writer: asyncio.StreamWriter) -> None:
        spec, _timeout = decode_point_payload(request.json())
        key, config = self.service.resolve(spec)
        send_json(writer, 200, {"key": key,
                                "request": encode_run_request(spec),
                                "config": config.to_dict()})

    async def _handle_run(self, request: HTTPRequest,
                          writer: asyncio.StreamWriter) -> None:
        spec, timeout = decode_point_payload(request.json())
        report = await self.service.evaluate(spec, timeout=timeout)
        send_json(writer, 200, report.to_dict())

    async def _handle_sweep(self, request: HTTPRequest,
                            writer: asyncio.StreamWriter) -> bool:
        specs, timeout = decode_sweep_payload(request.json())
        for spec in specs:  # reject the whole grid before streaming any of it
            self.service.resolve(spec)

        async def one(index: int, spec: "RunRequest") -> dict[str, Any]:
            try:
                report = await self.service.evaluate(spec, timeout=timeout)
            except PointExecutionError as exc:
                return {"index": index,
                        **error_body("execution-error", exc.message)}
            except asyncio.TimeoutError:
                return {"index": index,
                        **error_body("timeout", "point deadline expired")}
            return {"index": index, **report.to_dict()}

        stream = JSONLineWriter(writer)
        stream.start(200)
        tasks = [asyncio.create_task(one(i, s)) for i, s in enumerate(specs)]
        try:
            for next_done in asyncio.as_completed(tasks):
                await stream.send(await next_done)
            await stream.finish()
        except ConnectionError:
            for task in tasks:
                task.cancel()
            raise
        # chunked responses end cleanly, so keep-alive would be legal —
        # but closing keeps client-side framing state trivially simple
        return True


class DaemonThread:
    """A daemon hosted on a background thread (tests, fixtures, embedding).

    Owns the full stack: builds the executor (and, with ``cache_dir``, a
    persistent result cache), runs an event loop on a dedicated thread,
    and tears everything down — drain, pool shutdown, loop close — in
    :meth:`stop`.  The ``serve_daemon`` pytest fixture wraps one of
    these so the whole service suite shares a single warm daemon.
    """

    def __init__(self, *, base_config: MachineConfig | None = None,
                 backend: str = "serial", max_workers: int | None = None,
                 cache_dir: Any = None, host: str = "127.0.0.1",
                 port: int = 0, drain_deadline: float = 10.0,
                 observer: Any = None) -> None:
        cache = None if cache_dir is None else ResultCache(cache_dir)
        self.executor = SweepExecutor(backend=backend,
                                      max_workers=max_workers,
                                      observer=observer)
        self.service = SweepService(self.executor, base_config=base_config,
                                    cache=cache)
        self.daemon = ServiceDaemon(self.service, host=host, port=port,
                                    drain_deadline=drain_deadline)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------- lifecycle
    def start(self, timeout: float = 30.0) -> "DaemonThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service daemon did not start in time")
        if self._startup_error is not None:
            raise RuntimeError("service daemon failed to start") \
                from self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.daemon.start())
        except BaseException as exc:  # noqa: BLE001 — surfaced in start()
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def stop(self, drain_deadline: float | None = None,
             timeout: float = 30.0) -> None:
        if self._loop is None or self._thread is None:
            return
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.daemon.stop(drain_deadline), self._loop)
            future.result(timeout)
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover — hung teardown
            raise RuntimeError("service daemon thread did not stop")
        self._loop = None
        self._thread = None

    # --------------------------------------------------------------- queries
    @property
    def port(self) -> int:
        return self.daemon.port

    @property
    def host(self) -> str:
        return self.daemon.host

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def worker_processes(self) -> list:
        """Live pool worker processes (for leak checks in teardown)."""
        return self.executor.worker_processes()

    def client(self, **kwargs: Any):
        """A blocking :class:`~repro.service.client.ServiceClient`."""
        from .client import ServiceClient  # deferred: keep import cheap

        return ServiceClient(host=self.host, port=self.port, **kwargs)
