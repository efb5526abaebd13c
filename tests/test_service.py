"""End-to-end sweep-service daemon tests against the shared fixture.

The load-bearing guarantee: a result served over the daemon's HTTP API
is **byte-identical** to direct :class:`~repro.runtime.session.RunSession`
execution of the same :class:`~repro.runtime.plan.RunRequest` — the
daemon adds transport, memoization, and coalescing, never a second
execution semantics.
"""

import pytest

from repro.core.config import MachineConfig
from repro.core.resultcache import point_key
from repro.runtime import RunRequest, RunSession
from repro.sim.compiled import TraceCache

#: tiny problem sizes (mirrors the runtime parity suite's scale)
TINY = {
    "lu": dict(n=32, block=8),
    "fft": dict(n_points=256),
    "ocean": dict(n=16, n_vcycles=1),
    "radix": dict(n_keys=512, radix=16, n_digits=1),
    "barnes": dict(n_particles=64, n_steps=1),
}

#: the fixture daemon's machine template (tests/conftest.py)
CFG = MachineConfig(n_processors=8)

#: parity grid: ≥3 apps × 2 cluster sizes, one of them timing-dynamic
PARITY_APPS = ("ocean", "lu", "fft", "barnes")


def tiny_request(app: str, clusters: int = 2,
                 cache_kb: float | None = 4.0) -> RunRequest:
    return RunRequest.make(app, clusters, cache_kb, TINY[app])


class TestHealthAndStats:
    def test_healthz_reports_ok(self, serve_daemon):
        with serve_daemon.client() as client:
            health = client.healthz()
        assert health["status"] == "ok"
        assert health["protocol"] == 1
        assert health["in_flight"] == 0

    def test_stats_shape(self, serve_daemon):
        with serve_daemon.client() as client:
            stats = client.stats()
        for field in ("requests", "points", "executed", "cache_hits",
                      "cache_hit_rate", "coalesced", "errors", "timeouts",
                      "in_flight", "result_cache", "pool", "uptime_s"):
            assert field in stats, f"/stats missing {field}"
        assert stats["pool"]["backend"] == "serial"
        assert stats["result_cache"] is not None  # fixture attaches a cache


class TestPointParity:
    def test_daemon_results_match_direct_session_bytes(self, serve_daemon):
        """Daemon == RunSession for 4 apps × 2 cluster sizes, byte for byte."""
        session = RunSession(base_config=CFG, trace_cache=TraceCache())
        with serve_daemon.client() as client:
            for app in PARITY_APPS:
                for clusters in (1, 2):
                    request = tiny_request(app, clusters)
                    report = client.run_point(request)
                    direct = session.run(request)
                    assert report.result.to_json() == direct.to_json(), \
                        f"{app}/c{clusters}: daemon diverged from RunSession"

    def test_report_key_is_the_result_cache_key(self, serve_daemon):
        request = tiny_request("lu")
        with serve_daemon.client() as client:
            report = client.run_point(request)
        assert report.key == point_key("lu", TINY["lu"],
                                       request.config_for(CFG))

    def test_infinite_cache_point(self, serve_daemon):
        request = tiny_request("fft", clusters=4, cache_kb=None)
        with serve_daemon.client() as client:
            report = client.run_point(request)
        direct = RunSession(base_config=CFG,
                            trace_cache=TraceCache()).run(request)
        assert report.result.to_json() == direct.to_json()


class TestResultCacheServing:
    def test_repeat_request_is_served_from_the_result_cache(
            self, serve_daemon):
        # unique kwargs so no earlier test primed this key
        request = RunRequest.make("radix", 2, 16.0, TINY["radix"])
        with serve_daemon.client() as client:
            before = client.stats()
            first = client.run_point(request)
            second = client.run_point(request)
            after = client.stats()
        assert first.cached is False
        assert second.cached is True
        assert second.result.to_json() == first.result.to_json()
        assert after["cache_hits"] == before["cache_hits"] + 1
        assert after["executed"] == before["executed"] + 1
        assert after["result_cache"]["hits"] >= 1

    def test_stats_expose_coalesced_and_hit_counters(self, serve_daemon):
        """/stats carries the counters the coalescing tests assert on."""
        with serve_daemon.client() as client:
            stats = client.stats()
        assert isinstance(stats["coalesced"], int)
        assert isinstance(stats["cache_hits"], int)
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0


class TestSweepStreaming:
    def test_sweep_streams_every_point(self, serve_daemon):
        grid = [RunRequest.make("lu", clusters, cache_kb, TINY["lu"])
                for clusters in (1, 2) for cache_kb in (4.0, None)]
        with serve_daemon.client() as client:
            lines = list(client.iter_sweep(grid))
        assert sorted(line["index"] for line in lines) == [0, 1, 2, 3]
        assert all("result" in line for line in lines)

    def test_run_sweep_orders_by_submission_and_matches_direct(
            self, serve_daemon):
        grid = [tiny_request("ocean", clusters) for clusters in (1, 2, 4)]
        with serve_daemon.client() as client:
            reports = client.run_sweep(grid)
        session = RunSession(base_config=CFG, trace_cache=TraceCache())
        assert len(reports) == len(grid)
        for request, report in zip(grid, reports):
            assert report.result.to_json() == session.run(request).to_json()

    def test_duplicate_points_in_one_sweep_agree(self, serve_daemon):
        request = tiny_request("fft")
        with serve_daemon.client() as client:
            reports = client.run_sweep([request, request, request])
        blobs = {report.result.to_json() for report in reports}
        assert len(blobs) == 1
        # duplicates never execute twice: they coalesce onto the flight
        # or hit the cache the first completion populated
        assert sum(1 for r in reports
                   if not (r.cached or r.coalesced)) <= 1


class TestServeCLI:
    def test_parser_accepts_serve(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.func.__name__ == "cmd_serve"
        assert args.port == 8642 and args.host == "127.0.0.1"
        assert args.drain == pytest.approx(10.0)

    def test_parser_rejects_bad_drain(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--drain", "-1"])
        assert excinfo.value.code == 2
