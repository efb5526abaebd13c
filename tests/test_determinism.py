"""Determinism guarantees of the sweep executor.

The whole value of a parallel + cached sweep harness rests on one property:
for a given (app, kwargs, machine config) the simulator produces *the same
bytes* every time, in every backend.  These tests pin that down:

* serial vs process backends → byte-identical canonical JSON;
* two consecutive runs of the same point → byte-identical;
* a cache round-trip (store → load) → byte-identical (the ``==`` of the
  dataclasses and the JSON encoding agree).

The sample crosses apps with genuinely different machinery — Ocean
(regular grid SPMD), Radix (all-to-all communication), Barnes (irregular
tree walks with RNG-placed bodies) — and finite/infinite caches.
"""

import pytest

from repro.core.config import MachineConfig, NetworkConfig
from repro.core.executor import SweepExecutor
from repro.core.metrics import RunResult
from repro.runtime import RunRequest

CFG = MachineConfig(n_processors=8)

#: (app, kwargs) sample — small enough for tier-1, diverse enough to catch
#: an accidentally order-dependent or time-dependent code path
SAMPLE = [
    ("ocean", {"n": 16, "n_vcycles": 1}),
    ("radix", {"n_keys": 1024, "radix": 16, "n_digits": 2}),
    ("barnes", {"n_particles": 64, "n_steps": 1}),
]

#: (cluster_size, cache_kb) machine organisations crossed with the apps
ORGS = [(1, None), (2, 1), (4, None)]


def _specs():
    return [RunRequest.make(app, c, kb, kw)
            for app, kw in SAMPLE for c, kb in ORGS]


@pytest.fixture(scope="module")
def serial_outcomes():
    outcomes = SweepExecutor(backend="serial").run(_specs(), CFG)
    assert all(o.ok for o in outcomes)
    return outcomes


@pytest.fixture(scope="module")
def process_outcomes():
    outcomes = SweepExecutor(backend="process", max_workers=2).run(
        _specs(), CFG)
    assert all(o.ok for o in outcomes)
    return outcomes


def test_backends_agree_byte_for_byte(serial_outcomes, process_outcomes):
    """serial and process backends produce byte-identical RunResults."""
    for s, p in zip(serial_outcomes, process_outcomes):
        assert s.spec == p.spec
        assert s.result.to_json() == p.result.to_json(), \
            f"backends disagree on {s.spec.describe()}"


def test_backends_agree_structurally(serial_outcomes, process_outcomes):
    """Same via dataclass equality (counters, per-processor breakdowns)."""
    for s, p in zip(serial_outcomes, process_outcomes):
        assert s.result == p.result


def test_consecutive_runs_identical(serial_outcomes):
    """Re-running the very same points reproduces the same bytes."""
    again = SweepExecutor(backend="serial").run(_specs(), CFG)
    for first, second in zip(serial_outcomes, again):
        assert first.result.to_json() == second.result.to_json(), \
            f"rerun diverged on {first.spec.describe()}"


def test_outcomes_preserve_input_order(serial_outcomes):
    assert [o.spec for o in serial_outcomes] == _specs()


def test_cache_round_trip_is_byte_identical(tmp_path, serial_outcomes):
    """store → load through the persistent cache loses nothing."""
    from repro.core.resultcache import ResultCache

    cache = ResultCache(tmp_path)
    executor = SweepExecutor(cache=cache)
    executor.run(_specs(), CFG)           # populate
    reloaded = executor.run(_specs(), CFG)  # all hits
    assert all(o.cached for o in reloaded)
    for fresh, cached in zip(serial_outcomes, reloaded):
        assert fresh.result.to_json() == cached.result.to_json()
        assert fresh.result == cached.result


def test_process_pool_width_does_not_matter():
    """1-wide and 3-wide pools see the same bytes (no shared state)."""
    specs = [RunRequest.make("ocean", c, None, SAMPLE[0][1]) for c in (1, 2, 4)]
    narrow = SweepExecutor(backend="process", max_workers=1).run(specs, CFG)
    wide = SweepExecutor(backend="process", max_workers=3).run(specs, CFG)
    for a, b in zip(narrow, wide):
        assert a.result.to_json() == b.result.to_json()


def test_run_one_matches_batch(serial_outcomes):
    spec = _specs()[0]
    one = SweepExecutor().run_one(spec, CFG)
    assert one.ok
    assert one.result.to_json() == serial_outcomes[0].result.to_json()


def test_json_round_trip_of_live_results(serial_outcomes):
    for outcome in serial_outcomes:
        r = outcome.result
        assert RunResult.from_json(r.to_json()) == r


def test_mesh_latency_is_deterministic_across_backends(tmp_path):
    """The loaded-mesh provider (float queueing math, rounded into integer
    cycles) must be as deterministic as the flat table: serial, process,
    and cache round-trip all see the same bytes, network counters
    included."""
    from repro.core.resultcache import ResultCache

    net = NetworkConfig(provider="mesh", background_load=0.6)
    specs = [RunRequest.make("ocean", c, None, SAMPLE[0][1], network=net)
             for c in (1, 2, 4)]
    serial = SweepExecutor(backend="serial").run(specs, CFG)
    process = SweepExecutor(backend="process", max_workers=2).run(specs, CFG)
    cache = ResultCache(tmp_path)
    SweepExecutor(cache=cache).run(specs, CFG)
    cached = SweepExecutor(cache=cache).run(specs, CFG)
    assert all(o.cached for o in cached)
    for s, p, c in zip(serial, process, cached):
        assert s.result.network is not None
        assert s.result.network.queue_delay_cycles > 0
        assert s.result.to_json() == p.result.to_json()
        assert s.result.to_json() == c.result.to_json()
