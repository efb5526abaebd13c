"""Property suite for the native C replay kernel.

Adversarial random programs (``programgen``) replayed by the C kernel
and by the canonical engine (``execute_program(..., compiled=True)``)
must agree byte-for-byte — the RunResult JSON *and* the full
memory-system end state (slot maps in dict order, free lists, histories,
counters, allocator placement), so a kernel that computed the right
numbers by a different path still fails.

Every test that needs the compiled kernel skips cleanly when no C
compiler is available (or the kernel is disabled in the environment);
the selection-semantics tests run everywhere, compiler or not.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.native as native
from repro.core.config import MachineConfig
from repro.memory.coherence import CoherentMemorySystem
from repro.runtime import RunRequest, RunSession
from repro.sim.compiled import TraceCache, clear_memory_cache, compile_program
from repro.sim.engine import SimulationDeadlock, execute_program
from repro.sim.nativereplay import (native_fusible, replay_native,
                                    try_replay_native)
from repro.sim.program import Barrier, Lock, Unlock, Work

from programgen import CACHE_KB, factory_of, machine, programs
from test_runtime import CFG, TINY, golden_payload
from test_taskqueue import task_program, task_programs

try:
    _LIB = native.kernel()  # auto mode: None when no compiler/artifact
except RuntimeError:  # forced on but unbuildable — treat as unavailable
    _LIB = None

needs_kernel = pytest.mark.skipif(
    _LIB is None, reason="native kernel unavailable (no C compiler)")


@pytest.fixture
def force_native():
    """Force native selection for the test, restoring the env after."""
    prev = os.environ.get("REPRO_NATIVE")
    native.set_native(True)
    yield
    if prev is None:
        os.environ.pop("REPRO_NATIVE", None)
    else:
        os.environ["REPRO_NATIVE"] = prev


def _snapshot(memory):
    """The complete observable end state of a memory system.

    Includes iteration order everywhere order is observable (dict
    insertion order of slot maps and histories, free-list order), so the
    native writeback must leave the objects *indistinguishable* from the
    canonical engine's, not merely equal as sets.
    """
    alloc = memory.allocator
    return {
        "dtable": list(memory._dtable.items()),
        "dir": (memory.directory.invalidations_sent,
                memory.directory.replacement_hints,
                memory.directory.writebacks),
        "caches": [
            (list(c.slot_of.items()), list(c.free), c.inserts, c.evictions,
             len(c.state),
             [(c.state[s], c.pending[s], c.fetcher[s], c.tag[s])
              for s in c.slot_of.values()])
            for c in memory.caches],
        "histories": [list(h.items()) for h in memory._history],
        "counters": [(ctr.reads, ctr.writes, ctr.read_misses,
                      ctr.write_misses, ctr.upgrade_misses, ctr.merges,
                      ctr.merge_refetches, ctr.prefetch_hits,
                      dict(ctr.by_cause))
                     for ctr in memory.counters],
        "alloc": (list(alloc._page_home.items()), alloc._rr_next,
                  alloc.first_touch_pages),
    }


# ------------------------------------------------- native == canonical

@needs_kernel
@settings(max_examples=50, deadline=None)
@given(data=programs(), cluster_pick=st.integers(min_value=0, max_value=2),
       cache_kb=CACHE_KB)
def test_native_matches_python_kernels(data, cluster_pick, cache_kb):
    n, phases, table = data
    cluster = [1, 2, n][cluster_pick]
    config = machine(n, cluster, cache_kb)
    program = compile_program(factory_of(phases, table), n,
                              config.line_size)

    mem_python = CoherentMemorySystem(config)
    reference = execute_program(config, mem_python, program, compiled=True)
    mem_native = CoherentMemorySystem(config)
    assert native_fusible(mem_native)
    got = replay_native(config, mem_native, program, lib=_LIB)

    assert got.to_json() == reference.to_json()
    assert _snapshot(mem_native) == _snapshot(mem_python)


@needs_kernel
@settings(max_examples=50, deadline=None)
@given(data=task_programs(),
       cluster_pick=st.integers(min_value=0, max_value=2), cache_kb=CACHE_KB)
def test_native_task_tables_match_python_replay(data, cluster_pick,
                                                cache_kb):
    """GRAB in the C kernel: same grab order, same end state as python."""
    n, tasks, pre, post = data
    config = machine(n, [1, 2, n][cluster_pick], cache_kb)
    program = task_program(n, tasks, pre, post, config.line_size)

    mem_python = CoherentMemorySystem(config)
    reference = execute_program(config, mem_python, program, compiled=True)
    mem_native = CoherentMemorySystem(config)
    got = replay_native(config, mem_native, program, lib=_LIB)

    assert got.to_json() == reference.to_json()
    assert _snapshot(mem_native) == _snapshot(mem_python)


# ------------------------------------------------ error-path parity

@needs_kernel
def test_deadlock_message_matches_canonical(force_native):
    def factory(pid):
        if pid == 0:
            yield Barrier(0)
        else:
            yield Work(1)

    config = machine(2, 1, None)
    program = compile_program(factory, 2, config.line_size)
    with pytest.raises(SimulationDeadlock) as ref:
        execute_program(config, CoherentMemorySystem(config), program,
                        compiled=True)
    with pytest.raises(SimulationDeadlock) as got:
        replay_native(config, CoherentMemorySystem(config), program,
                      lib=_LIB)
    assert str(got.value) == str(ref.value)


@needs_kernel
@pytest.mark.parametrize("factory,exc", [
    (lambda pid: iter([Unlock(0)]), RuntimeError),          # bad release
    (lambda pid: iter([Lock(0), Lock(0)]), RuntimeError),   # re-acquire
])
def test_lock_errors_match_canonical(factory, exc):
    config = machine(2, 1, None)
    program = compile_program(factory, 2, config.line_size)
    with pytest.raises(exc) as ref:
        execute_program(config, CoherentMemorySystem(config), program,
                        compiled=True)
    with pytest.raises(exc) as got:
        replay_native(config, CoherentMemorySystem(config), program,
                      lib=_LIB)
    assert str(got.value) == str(ref.value)


# ------------------------------------------- runtime golden, native on

@needs_kernel
class TestGoldenNative:
    def test_runtime_golden_with_native_forced(self, force_native):
        """The 18-point pre-refactor golden grid, served by the C kernel."""
        golden = golden_payload()
        clear_memory_cache()
        session = RunSession(base_config=CFG, trace_cache=TraceCache())
        for app, kw in TINY.items():
            for c in (1, 2):
                result = session.run(RunRequest.make(app, c, 4.0, kw))
                assert result.to_json() == golden[f"{app}/c{c}/4k"], \
                    f"{app}/c{c}: native kernel diverged from golden"

    def test_per_point_seam_serves_eligible_points(self, force_native):
        from repro.apps.registry import build_app

        request = RunRequest.make("ocean", 2, 4.0, TINY["ocean"])
        config = request.config_for(CFG)
        app = build_app("ocean", config, **TINY["ocean"])
        program = app.compiled_program()
        fresh = build_app("ocean", config, **TINY["ocean"])
        result = try_replay_native(config, fresh, program)
        assert result is not None
        # canonical reference: the same app-owned allocator (setup has
        # already placed pages), driven by the python engine
        reference = build_app("ocean", config, **TINY["ocean"]).run(
            program=program)
        assert result.to_json() == reference.to_json()


# ------------------------------------------------ selection semantics
# (no compiler required: these pin the escape hatch and the fallback)

class TestSelection:
    def test_env_off_forces_python(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert native.enabled_mode() == "off"
        assert native.kernel() is None
        assert not native.selected()
        assert native.kernel_name() == "python"

    def test_set_native_round_trip(self):
        prev = os.environ.get("REPRO_NATIVE")
        try:
            native.set_native(True)
            assert os.environ["REPRO_NATIVE"] == "1"
            assert native.enabled_mode() == "on"
            native.set_native(False)
            assert os.environ["REPRO_NATIVE"] == "0"
            assert native.enabled_mode() == "off"
            native.set_native(None)
            assert "REPRO_NATIVE" not in os.environ
            assert native.enabled_mode() == "auto"
        finally:
            if prev is None:
                os.environ.pop("REPRO_NATIVE", None)
            else:
                os.environ["REPRO_NATIVE"] = prev

    def test_masked_compiler_means_unavailable(self, monkeypatch, tmp_path):
        """The CI no-compiler job's mechanism: REPRO_NATIVE_CC to nowhere."""
        monkeypatch.setenv("REPRO_NATIVE_CC", str(tmp_path / "no-such-cc"))
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        assert not native.available()
        assert native.kernel() is None  # auto mode degrades silently
        assert native.kernel_name() == "python"
        assert native.status()["kernel"] == "python"

    def test_forced_on_without_a_kernel_raises(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NATIVE_CC", str(tmp_path / "no-such-cc"))
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_NATIVE", "1")
        with pytest.raises(RuntimeError, match="REPRO_NATIVE=1"):
            native.kernel()

    def test_status_shape(self):
        status = native.status()
        assert set(status) == {"mode", "available", "loaded", "build_error",
                               "compiler", "abi", "kernel"}
        assert status["mode"] in ("on", "off", "auto")
        assert status["kernel"] in ("native", "python")
        assert status["abi"] == native.ABI_VERSION
