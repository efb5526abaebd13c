"""SweepExecutor behaviour: request validation, dedupe, backends, failure
isolation."""

import pytest

from repro.core.config import MachineConfig
from repro.core.executor import (BACKENDS, PointOutcome,
                                 SweepExecutionError, SweepExecutor,
                                 fork_available, raise_failures)
from repro.core.study import ClusteringStudy
from repro.runtime import RunRequest

CFG = MachineConfig(n_processors=8)
OCEAN_KW = {"n": 16, "n_vcycles": 1}


class TestRunRequest:
    def test_make_sorts_kwargs(self):
        a = RunRequest.make("ocean", 2, 4, {"b": 1, "a": 2})
        b = RunRequest.make("ocean", 2, 4, {"a": 2, "b": 1})
        assert a == b
        assert a.kwargs == {"a": 2, "b": 1}

    def test_specs_are_hashable(self):
        assert len({RunRequest.make("lu", 1, None, {"n": 32}),
                    RunRequest.make("lu", 1, None, {"n": 32})}) == 1

    def test_config_for_applies_cluster_and_cache(self):
        spec = RunRequest.make("ocean", 4, 16, {})
        cfg = spec.config_for(CFG)
        assert cfg.cluster_size == 4
        assert cfg.cache_kb_per_processor == 16.0
        spec_inf = RunRequest.make("ocean", 2, None, {})
        assert spec_inf.config_for(CFG).cache_kb_per_processor is None

    def test_requests_pass_through_silently(self):
        import warnings

        spec = RunRequest.make("ocean", 1, None, OCEAN_KW)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = SweepExecutor().run([spec], CFG)[0]
        assert outcome.ok and outcome.spec is spec

    @staticmethod
    def _assert_rejected(*points):
        executor = SweepExecutor()
        for junk in points:
            with pytest.raises(TypeError, match="RunRequest"):
                executor.run([junk], CFG)
            with pytest.raises(TypeError, match="RunRequest"):
                executor.run_one(junk, CFG)
            with pytest.raises(TypeError, match="RunRequest"):
                executor.submit_one(junk, CFG)
        executor.close()

    def test_tuples_are_rejected(self):
        """Loose (app, cluster, cache[, kwargs]) sequences are not points."""
        self._assert_rejected(("ocean", 2, 4),
                              ["ocean", 2, None, {"n": 16}])

    def test_junk_is_rejected(self):
        self._assert_rejected("ocean", ("ocean", 2), None, 42)

    def test_describe_mentions_everything(self):
        text = RunRequest.make("ocean", 4, None, {"n": 16}).describe()
        assert "ocean" in text and "4" in text and "inf" in text \
            and "n=16" in text


class TestConstruction:
    def test_backends_constant(self):
        assert set(BACKENDS) == {"serial", "process", "fork"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            SweepExecutor(backend="threads")

    def test_bad_max_workers_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            SweepExecutor(max_workers=0)

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            SweepExecutor(timeout=-1.0)


class TestDedupe:
    def test_duplicate_specs_execute_once_and_share_the_result(self):
        spec = RunRequest.make("ocean", 2, 4.0, OCEAN_KW)
        other = RunRequest.make("ocean", 1, 4.0, OCEAN_KW)
        out = SweepExecutor().run([spec, other, spec], CFG)
        assert out[2].result is out[0].result
        assert out[2].elapsed == 0.0
        assert out[0].elapsed > 0.0
        assert out[1].result is not out[0].result

    def test_duplicates_of_a_failing_point_share_the_error(self):
        bad = RunRequest.make("notanapp", 1, None, {})
        out = SweepExecutor().run([bad, bad], CFG)
        assert not out[0].ok and not out[1].ok
        assert out[1].error == out[0].error


class TestFailureIsolation:
    """One bad point must not take down the sweep."""

    def test_unknown_app_is_isolated_serial(self):
        specs = [RunRequest.make("ocean", 1, None, OCEAN_KW),
                 RunRequest.make("notanapp", 1, None, {}),
                 RunRequest.make("ocean", 2, None, OCEAN_KW)]
        outcomes = SweepExecutor().run(specs, CFG)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "notanapp" in outcomes[1].error
        assert outcomes[1].result is None

    def test_unknown_app_is_isolated_process(self):
        specs = [RunRequest.make("ocean", 1, None, OCEAN_KW),
                 RunRequest.make("notanapp", 1, None, {})]
        outcomes = SweepExecutor(backend="process", max_workers=2).run(
            specs, CFG)
        assert [o.ok for o in outcomes] == [True, False]
        assert "notanapp" in outcomes[1].error

    def test_bad_kwargs_are_isolated(self):
        outcomes = SweepExecutor().run(
            [RunRequest.make("ocean", 1, None, {"no_such_knob": 3})], CFG)
        assert not outcomes[0].ok

    def test_raise_failures_collects_all(self):
        bad = PointOutcome(RunRequest.make("x", 1, None, {}), error="boom")
        good = PointOutcome(RunRequest.make("y", 1, None, {}),
                            result=object())
        with pytest.raises(SweepExecutionError) as exc:
            raise_failures([good, bad, bad])
        assert len(exc.value.failures) == 2
        assert "boom" in str(exc.value)

    def test_raise_failures_quiet_when_clean(self):
        good = PointOutcome(RunRequest.make("y", 1, None, {}),
                            result=object())
        raise_failures([good])  # no exception

    def test_study_raises_on_failed_point(self):
        study = ClusteringStudy("ocean", CFG, {"no_such_knob": 1})
        with pytest.raises(SweepExecutionError):
            study.run_point(1, None)

    def test_timeout_reports_error_not_crash(self):
        """A point exceeding the per-point budget becomes an error outcome."""
        slow = RunRequest.make("ocean", 1, None, {"n": 32, "n_vcycles": 2})
        executor = SweepExecutor(backend="process", max_workers=1,
                                 timeout=1e-4)
        outcomes = executor.run([slow], CFG)
        assert not outcomes[0].ok
        assert "timed out" in outcomes[0].error


class TestPoolLifecycle:
    def test_pool_is_reused_across_runs(self):
        with SweepExecutor(backend="process", max_workers=2) as executor:
            first = executor.run(
                [RunRequest.make("ocean", 1, None, OCEAN_KW)], CFG)
            pool = executor._pool
            second = executor.run(
                [RunRequest.make("ocean", 2, None, OCEAN_KW)], CFG)
            assert executor._pool is pool
        assert executor._pool is None  # context exit closed it
        assert first[0].ok and second[0].ok

    def test_close_is_idempotent_and_pool_reopens(self):
        executor = SweepExecutor(backend="process", max_workers=1)
        executor.close()
        executor.close()
        outcome = executor.run(
            [RunRequest.make("ocean", 1, None, OCEAN_KW)], CFG)[0]
        assert outcome.ok
        executor.close()
        assert executor._pool is None


class TestResults:
    def test_elapsed_recorded(self):
        outcome = SweepExecutor().run(
            [RunRequest.make("ocean", 1, None, OCEAN_KW)], CFG)[0]
        assert outcome.ok and outcome.elapsed > 0.0 and not outcome.cached

    def test_default_base_config_is_paper_machine(self):
        outcome = SweepExecutor().run_one(
            RunRequest.make("lu", 1, None, {"n": 16, "block": 4}))
        assert outcome.ok
        assert outcome.result.n_processors == 64

    def test_study_sweeps_match_previous_api(self):
        """The executor-backed sweeps keep the historical dict shapes."""
        study = ClusteringStudy("ocean", CFG, dict(OCEAN_KW))
        cluster = study.cluster_sweep(None, (1, 2))
        assert set(cluster) == {1, 2}
        assert cluster[2].cluster_size == 2
        capacity = study.capacity_sweep((1, None), (1, 2))
        assert set(capacity) == {(1, 1), (1, 2), (None, 1), (None, 2)}
        assert capacity[(1, 2)].cache_kb == 1


@pytest.mark.skipif(not fork_available(), reason="no fork start method")
class TestForkBackend:
    """Fork-server mode: preload in the parent, inherit copy-on-write."""

    def test_fork_matches_serial(self, tmp_path):
        from repro.core.resultcache import TraceStore
        from repro.sim.compiled import TraceCache, clear_memory_cache

        specs = [RunRequest.make("ocean", c, None, OCEAN_KW)
                 for c in (1, 2)]
        store = TraceStore(tmp_path)
        clear_memory_cache()
        serial = SweepExecutor(backend="serial",
                               trace_cache=TraceCache(store))
        want = [o.result.to_json() for o in serial.run(specs, CFG)]

        clear_memory_cache()
        with SweepExecutor(backend="fork", max_workers=2,
                           trace_cache=TraceCache(store)) as executor:
            outcomes = executor.run(specs, CFG)
        raise_failures(outcomes)
        assert [o.result.to_json() for o in outcomes] == want

    def test_preload_pulls_disk_traces_into_memory(self, tmp_path):
        from repro.core.resultcache import TraceStore
        from repro.sim.compiled import (TraceCache, clear_memory_cache,
                                        memory_cache_len)

        specs = [RunRequest.make("ocean", c, None, OCEAN_KW)
                 for c in (1, 2)]
        store = TraceStore(tmp_path)
        # populate the disk tier, then forget the in-memory one
        clear_memory_cache()
        SweepExecutor(backend="serial",
                      trace_cache=TraceCache(store)).run(specs, CFG)
        clear_memory_cache()
        assert memory_cache_len() == 0

        executor = SweepExecutor(backend="fork",
                                 trace_cache=TraceCache(store))
        # ocean is stream-invariant: both cluster sizes share one trace
        assert executor.preload_traces(specs, CFG) == 1
        assert memory_cache_len() == 1
        # preload is warmup, not demand traffic: counters untouched
        assert executor.trace_cache.hits == 0
        assert executor.trace_cache.misses == 0

    def test_preload_without_disk_tier_is_a_noop(self):
        from repro.sim.compiled import TraceCache, clear_memory_cache

        clear_memory_cache()
        executor = SweepExecutor(backend="fork", trace_cache=TraceCache())
        assert executor.preload_traces(
            [RunRequest.make("ocean", 1, None, OCEAN_KW)], CFG) == 0


def test_fork_backend_rejected_without_fork(monkeypatch):
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    with pytest.raises(ValueError, match="fork"):
        SweepExecutor(backend="fork")
