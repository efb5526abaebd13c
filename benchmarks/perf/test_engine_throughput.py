"""Engine-throughput micro-harness: the perf trajectory's first datapoint.

Unlike the paper-artifact benchmarks one directory up, these measure the
*simulator itself*: simulated operations per second along the legacy
(fast-path-off), generator (fast path on) and compiled-replay engine
paths, exactly as ``repro-clustering bench`` does.  The replay numbers
are held to the checked-in floor in ``floor.json`` — the same file the
CI bench smoke step uses — with a wide tolerance so the check trips on
structural regressions (an accidentally disabled fast path, a hot-path
allocation creeping back in), not on machine noise.

Run directly::

    PYTHONPATH=src python -m pytest benchmarks/perf/ -q

``REPRO_BENCH_SCALE=quick`` (the default here) keeps problems small;
``default`` benches the library defaults at 64 processors.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.apps.registry import APP_NAMES, QUICK_PROBLEM_SIZES
from repro.core.bench import bench_engine, check_floor
from repro.core.config import MachineConfig

FLOOR_PATH = Path(__file__).parent / "floor.json"
SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick")

if SCALE == "quick":
    CONFIG = MachineConfig(n_processors=64)
    KWARGS_OF = {a: dict(QUICK_PROBLEM_SIZES.get(a, {})) for a in APP_NAMES}
else:
    CONFIG = MachineConfig(n_processors=64)
    KWARGS_OF = {a: {} for a in APP_NAMES}


@pytest.fixture(scope="module")
def floor() -> dict[str, float]:
    return json.loads(FLOOR_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("app", APP_NAMES)
def test_replay_throughput_floor(app, floor):
    """Compiled replay stays above the checked-in ops/s floor."""
    result = bench_engine(app, CONFIG, KWARGS_OF[app], repeats=2)
    failures = check_floor([result], floor)
    assert not failures, failures[0]


@pytest.mark.parametrize("app", ["lu", "raytrace"])
def test_replay_not_slower_than_legacy(app):
    """Replay must never lose to driving the generators fast-path-off.

    One stream-invariant app and one recorded app; a generous margin
    absorbs timer noise on tiny runs while still catching the compiled
    path regressing below the interpreter it exists to beat.
    """
    result = bench_engine(app, CONFIG, KWARGS_OF[app], repeats=3)
    assert result.replay_s <= result.legacy_s * 1.25


def test_floor_covers_every_app(floor):
    """A new application must ship with a floor entry."""
    apps = {k for k in floor if ":" not in k}  # "x:y" keys are sections
    assert apps == set(APP_NAMES)


def test_floor_covers_memory_streams(floor):
    """The coherence-layer microbench streams are floored too."""
    from repro.core.bench import bench_memory, check_floor

    streams = {k for k in floor if k.startswith("memory:")}
    assert streams == {"memory:hit", "memory:capacity", "memory:sharing"}
    results = bench_memory(n_ops=50_000, repeats=2)
    failures = check_floor([], floor, memory=results)
    assert not failures, failures[0]


def test_floor_covers_kernel_sections(floor):
    """The native-kernel and trace-streaming A/B floors are pinned."""
    sections = {k for k in floor if ":" in k and not k.startswith("memory:")}
    assert sections == {"native:points_per_s", "native:warm_speedup",
                        "trace:first_point_speedup", "trace:maxrss_ratio"}
