"""Property suite for the native C replay kernel.

Adversarial random programs (``programgen``) replayed by the C kernel
and by the canonical engine (``execute_program(..., compiled=True)``)
must agree byte-for-byte — the RunResult JSON *and* the full
memory-system end state (slot maps in dict order, free lists, histories,
counters, allocator placement), so a kernel that computed the right
numbers by a different path still fails.

The sweep seam (``try_replay_native``) asks the kernel for the visible
state only — counters and allocator first touches — since it discards
its memory system; its results, errors and allocator end state are
pinned to both the full-export path and the canonical engine.

Every test that needs the compiled kernel skips cleanly when no C
compiler is available (or the kernel is disabled in the environment);
the selection-semantics tests run everywhere, compiler or not.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.native as native
from repro.apps.registry import build_app
from repro.core.config import MachineConfig
from repro.memory.allocation import PageAllocator
from repro.memory.coherence import CoherentMemorySystem
from repro.runtime import RunRequest, RunSession
from repro.sim.compiled import TraceCache, clear_memory_cache, compile_program
from repro.sim.engine import SimulationDeadlock, execute_program
from repro.sim.nativereplay import (native_fusible, replay_native,
                                    try_replay_native)
from repro.sim.program import Barrier, Lock, Read, Unlock, Work

from programgen import CACHE_KB, FAR_ATOM, factory_of, machine, programs
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


# ------------------------------------ scheduler: far events and ties
# The kernel queues events less than 4096 cycles ahead in a time ring and
# later ones in an overflow heap; an overflow event must pop before a
# ring event of the same time (it was queued first).

def _assert_full_state_agrees(config, program):
    mem_python = CoherentMemorySystem(config)
    reference = execute_program(config, mem_python, program, compiled=True)
    mem_native = CoherentMemorySystem(config)
    got = replay_native(config, mem_native, program, lib=_LIB)
    assert got.to_json() == reference.to_json()
    assert _snapshot(mem_native) == _snapshot(mem_python)


@needs_kernel
@settings(max_examples=100, deadline=None)
@given(data=programs(FAR_ATOM, sizes=(8,)),
       cluster_pick=st.integers(min_value=0, max_value=2),
       cache_kb=CACHE_KB, fuse_work=st.booleans())
def test_far_work_matches_python_kernels(data, cluster_pick, cache_kb,
                                         fuse_work):
    n, phases, table = data
    config = machine(n, [1, 2, n][cluster_pick], cache_kb)
    program = compile_program(factory_of(phases, table), n,
                              config.line_size, fuse_work=fuse_work)
    _assert_full_state_agrees(config, program)


@needs_kernel
@pytest.mark.parametrize("cache_kb", [None, 0.0625])
def test_overflow_event_wins_time_tie(cache_kb):
    """p0 queues t=4096 from cur=0 (overflow); p1 queues t=4096 from
    cur=1 (ring).  p0 was first, so it must take the lock first."""
    def factory(pid):
        if pid == 0:
            yield Work(4096)
        elif pid == 1:
            yield Work(1)
            yield Work(4095)
        else:
            yield Work(1)
        yield Lock(0)
        yield Read(64 * pid)
        yield Unlock(0)

    config = machine(3, 1, cache_kb)
    program = compile_program(factory, 3, config.line_size, fuse_work=False)
    _assert_full_state_agrees(config, program)


@needs_kernel
@pytest.mark.parametrize("far", [4095, 4096, 10 ** 9])
@pytest.mark.parametrize("on_lock", [True, False])
def test_deadlock_with_far_events_queued(far, on_lock):
    """The others block -- on a lock processor 0 holds, or on a barrier
    it never reaches -- while its far-future event is queued; it then
    finishes and leaves them stuck."""
    def factory(pid):
        if pid == 0:
            if on_lock:
                yield Lock(7)
            yield Work(far)
        elif on_lock:
            yield Work(pid)
            yield Lock(7)
            yield Work(far)
            yield Unlock(7)
        else:
            yield Work(pid)
            yield Barrier(0)

    config = machine(4, 2, None)
    program = compile_program(factory, 4, config.line_size)
    outcomes = _assert_three_paths_agree(config, program)
    assert all(kind is SimulationDeadlock for kind, *_ in outcomes)


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


# ------------------------------------------ result-only sweep seam

def _allocator(config):
    return PageAllocator(config.n_clusters, config.page_size,
                         config.line_size)


class _Owner:
    """The part of an application ``try_replay_native`` uses."""

    def __init__(self, config):
        self.allocator = _allocator(config)

    def ensure_setup(self):
        pass


def _allocation(alloc):
    return (list(alloc._page_home.items()), alloc._rr_next,
            alloc.first_touch_pages)


def _outcome(run, alloc):
    """A replay's result JSON, or its error; the allocator it leaves."""
    try:
        result = run()
    except RuntimeError as exc:  # deadlock and lock errors
        return type(exc), str(exc), _allocation(alloc)
    assert result is not None, "native seam declined an eligible point"
    return "ok", result.to_json(), _allocation(alloc)


def _assert_three_paths_agree(config, program, rounds=2):
    """Canonical, full-export and result-only replays agree, run after
    run on one allocator each (the allocator outlives every replay)."""
    canonical, full, owner = (_allocator(config), _allocator(config),
                              _Owner(config))
    outcomes = []
    for _ in range(rounds):
        want = _outcome(lambda: execute_program(
            config, CoherentMemorySystem(config, canonical), program,
            compiled=True), canonical)
        got_full = _outcome(lambda: replay_native(
            config, CoherentMemorySystem(config, full), program, lib=_LIB),
            full)
        got = _outcome(lambda: try_replay_native(config, owner, program),
                       owner.allocator)
        if want[0] is SimulationDeadlock or want[0] == "ok":
            assert got == got_full == want
        else:  # python stopped mid-run; the kernel exports nothing
            assert got[:2] == got_full[:2] == want[:2]
        outcomes.append(want)
    return outcomes


@needs_kernel
@settings(max_examples=50, deadline=None)
@given(data=programs(), cluster_pick=st.integers(min_value=0, max_value=2),
       cache_kb=CACHE_KB)
def test_result_only_matches_full_export_and_canonical(data, cluster_pick,
                                                       cache_kb):
    n, phases, table = data
    config = machine(n, [1, 2, n][cluster_pick], cache_kb)
    program = compile_program(factory_of(phases, table), n,
                              config.line_size)
    for kind, *_ in _assert_three_paths_agree(config, program):
        assert kind == "ok"


@needs_kernel
@settings(max_examples=50, deadline=None)
@given(data=task_programs(),
       cluster_pick=st.integers(min_value=0, max_value=2), cache_kb=CACHE_KB)
def test_result_only_task_tables_match(data, cluster_pick, cache_kb):
    n, tasks, pre, post = data
    config = machine(n, [1, 2, n][cluster_pick], cache_kb)
    program = task_program(n, tasks, pre, post, config.line_size)
    _assert_three_paths_agree(config, program)


@needs_kernel
@settings(max_examples=40, deadline=None)
@given(data=programs(), victim_pick=st.integers(min_value=0, max_value=3),
       hold_lock=st.booleans(), cache_kb=CACHE_KB)
def test_result_only_deadlocks_match(data, victim_pick, hold_lock, cache_kb):
    """A processor that skips the last barrier always deadlocks the rest;
    one that finishes holding a lock the others take later may."""
    n, phases, table = data
    victim = victim_pick % n
    base = factory_of(phases, table)

    def factory(pid):
        ops = list(base(pid))
        if hold_lock:
            ops += [Lock(7)] if pid == victim else [Lock(7), Unlock(7)]
        elif pid == victim:
            ops.pop()  # its final Barrier
        yield from ops

    config = machine(n, 2, cache_kb)
    program = compile_program(factory, n, config.line_size)
    outcomes = _assert_three_paths_agree(config, program)
    if not hold_lock:
        assert all(kind is SimulationDeadlock for kind, *_ in outcomes)


@needs_kernel
@pytest.mark.parametrize("factory", [
    lambda pid: iter([Unlock(0)]),          # bad release
    lambda pid: iter([Lock(0), Lock(0)]),   # re-acquire
])
def test_result_only_lock_errors_match(factory):
    config = machine(2, 1, None)
    program = compile_program(factory, 2, config.line_size)
    for kind, *_ in _assert_three_paths_agree(config, program, rounds=1):
        assert kind is RuntimeError


@needs_kernel
@pytest.mark.parametrize("app_name", ["mp3d", "radix", "raytrace"])
def test_result_only_writes_visible_state_back(app_name, force_native):
    """These apps first-touch pages during replay: the seam must bind
    them on the app's own allocator, so a second run on the same app
    sees the same placement as the canonical second run."""
    kw = TINY[app_name]
    config = RunRequest.make(app_name, 2, 4.0, kw).config_for(CFG)
    program = build_app(app_name, config, **kw).compiled_program()
    native_app = build_app(app_name, config, **kw)
    python_app = build_app(app_name, config, **kw)
    for _ in range(2):
        got = try_replay_native(config, native_app, program)
        want = python_app.run(program=program)
        assert got is not None
        assert got.to_json() == want.to_json()
        assert (_allocation(native_app.allocator)
                == _allocation(python_app.allocator))
    assert python_app.allocator.first_touch_pages > 0


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
