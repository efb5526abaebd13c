"""Task tables: Raytrace and Volrend captured once, replayed everywhere.

A task-queue program is captured as per-processor own columns plus a
shared table of task blocks joined by the compiled-only GRAB op.  The
contract pinned here is that replaying such a capture is byte-identical
to driving the generators, whose Python-side task counter is the oracle:

* on random task tables, against a generator with the same queue;
* for the two real apps, across cluster sizes, cache sizes and all three
  protocols, through the python engine (heap fast path on and off), the
  native kernel, and memory-mapped programs.

The random-table strategy and the factories built from it are shared
with ``test_native_properties``.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.native as native
from repro.apps.registry import build_app
from repro.core.config import PROTOCOLS, MachineConfig
from repro.memory.coherence import CoherentMemorySystem
from repro.runtime import RunRequest, RunSession
from repro.sim.compiled import (CompiledProgram, TraceCache,
                                clear_memory_cache, compile_program,
                                compile_task_program, trace_key)
from repro.sim.engine import Engine, execute_program
from repro.sim.nativereplay import native_fusible, replay_native
from repro.sim.program import OP_GRAB, Lock, Read, Unlock, Work, Write

from test_batch_properties import _ATOM, _CACHES, _config

# ------------------------------------------------------ random task tables
#
# A generated task program: per-processor atoms before and after the
# queue loop, and one atom list per task.  The queue protocol is the
# apps' own (lock, read the queue word, bump, write, unlock); bodies may
# take other locks but never a barrier, so every table is deadlock-free.

QUEUE_LOCK = 3
QUEUE_ADDR = 2048


@st.composite
def task_programs(draw):
    n = draw(st.sampled_from([2, 4]))
    n_tasks = draw(st.integers(min_value=0, max_value=9))
    tasks = [draw(st.lists(_ATOM, max_size=6)) for _ in range(n_tasks)]
    pre = [draw(st.lists(_ATOM, max_size=4)) for _ in range(n)]
    post = [draw(st.lists(_ATOM, max_size=4)) for _ in range(n)]
    return n, tasks, pre, post


def _emit(atoms):
    """The ops of an atom list (the batch suite's atom vocabulary)."""
    for atom in atoms:
        kind, arg = atom[0], atom[1]
        if kind == "work":
            yield Work(arg)
        elif kind == "read":
            yield Read(arg)
        elif kind == "write":
            yield Write(arg)
        else:  # critical section
            yield Lock(arg)
            yield from _emit(atom[2])
            yield Unlock(arg)


def _take():
    yield Lock(QUEUE_LOCK)
    yield Read(QUEUE_ADDR)


def _give():
    yield Write(QUEUE_ADDR)
    yield Unlock(QUEUE_LOCK)


def oracle_factory(tasks, pre, post):
    """Generator-path program: a Python-side counter hands out tasks."""
    state = {"next": 0}

    def factory(pid):
        yield from _emit(pre[pid])
        while True:
            yield from _take()
            task = state["next"]
            state["next"] += 1
            yield from _give()
            if task >= len(tasks):
                break
            yield from _emit(tasks[task])
        yield from _emit(post[pid])

    return factory


def task_program(n, tasks, pre, post, line_size, fuse_work=True):
    """The same program captured as own columns plus a task table."""
    def own(pid):
        yield from _emit(pre[pid])
        yield from _take()
        yield OP_GRAB, 0
        yield from _give()
        yield from _emit(post[pid])

    def block(k):
        yield from _give()
        yield from _emit(tasks[k])
        yield from _take()
        yield OP_GRAB, 0

    return compile_task_program(own, block, len(tasks), n, line_size,
                                fuse_work=fuse_work)


@settings(max_examples=60, deadline=None)
@given(data=task_programs(),
       cluster_pick=st.integers(min_value=0, max_value=2), cache_kb=_CACHES)
def test_grab_replay_matches_generator_oracle(data, cluster_pick, cache_kb):
    n, tasks, pre, post = data
    config = _config(n, [1, 2, n][cluster_pick], cache_kb)
    want = Engine(config, CoherentMemorySystem(config)).run(
        oracle_factory(tasks, pre, post)).to_json()
    # unfused, the capture is the generator's stream op for op plus the
    # GRABs, so any difference is GRAB's.  (Fusing a run of WORK ops
    # can move equal-time tie-breaks on adversarial streams like these
    # — e.g. two zero-cycle WORKs — which holds for every capture, with
    # or without a task table.)
    program = task_program(n, tasks, pre, post, config.line_size,
                           fuse_work=False)
    for fast in (True, False):
        got = Engine(config, CoherentMemorySystem(config),
                     heap_fast_path=fast).run_compiled(program)
        assert got.to_json() == want


# ----------------------------------------------------------- GRAB semantics

def _queue_config(n=2):
    return _config(n, 1, None)


def test_grab_costs_zero_cycles_and_is_no_scheduling_point():
    """Without a table a GRAB falls through: timing is unchanged."""
    def plain(pid):
        yield Work(5)
        yield Read(64 * pid)
        yield Work(3)

    def grabbing(pid):
        yield Work(5)
        yield OP_GRAB, 0
        yield Read(64 * pid)
        yield OP_GRAB, 0
        yield Work(3)

    config = _queue_config()
    want = execute_program(config, CoherentMemorySystem(config),
                           compile_program(plain, 2, config.line_size),
                           compiled=True)
    program = compile_program(grabbing, 2, config.line_size)
    assert program.source_ops == 6  # GRAB is not a generator op
    got = execute_program(config, CoherentMemorySystem(config), program,
                          compiled=True)
    assert got.to_json() == want.to_json()


def test_counter_is_replay_state():
    """Each replay starts its counter at 0; the program is not mutated."""
    config = _queue_config()
    program = task_program(2, [[("work", 4)], [("read", 8)]],
                           [[], []], [[], []], config.line_size)
    before = program.to_bytes()
    runs = {execute_program(config, CoherentMemorySystem(config), program,
                            compiled=True).to_json() for _ in range(3)}
    assert len(runs) == 1
    assert program.to_bytes() == before


def test_fused_batch_kernel_leaves_task_tables_to_other_replays(
        python_kernels):
    """The fused kernel refuses a task table; BatchedReplay routes it on."""
    from repro.sim.batch import BatchedReplay, replay_fused

    config = _queue_config()
    program = task_program(2, [[("work", 4)], [("write", 8)]],
                           [[], []], [[], []], config.line_size)
    with pytest.raises(ValueError, match="task tables"):
        replay_fused(config, CoherentMemorySystem(config), program)
    want = execute_program(config, CoherentMemorySystem(config), program,
                           compiled=True).to_json()
    batch = BatchedReplay(program)
    assert batch.run(config, CoherentMemorySystem(config)).to_json() == want
    assert batch.points_fused == 0 and batch.points_fallback == 1


# ---------------------------------------------------- the two real apps

#: small instances with more tasks (16) than processors (8)
TINY = {
    "raytrace": dict(width=16, height=16, n_spheres=8, queue_tile=4),
    "volrend": dict(volume_side=8, width=16, height=16, block=2,
                    queue_tile=4),
}
BASE = MachineConfig(n_processors=8)
CLUSTERS = (1, 2, 4, 8)
CACHES = (4.0, None)


@pytest.fixture
def python_kernels():
    prev = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "0"
    yield
    if prev is None:
        os.environ.pop("REPRO_NATIVE", None)
    else:
        os.environ["REPRO_NATIVE"] = prev


def _request(app, cluster, cache, protocol):
    return RunRequest.make(app, cluster, cache, TINY[app], protocol=protocol)


def _generator_json(request):
    return RunSession(base_config=BASE, use_compiled=False).run(
        request).to_json()


def _capture(app):
    built = build_app(app, BASE, **TINY[app])
    return built.compiled_program()


@pytest.mark.parametrize("app", sorted(TINY))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_replay_matches_generator_grid(app, protocol, python_kernels):
    """One capture replays byte-identically at every grid point."""
    program = _capture(app)
    assert program.n_tasks == 16
    session = RunSession(base_config=BASE)
    for cache in CACHES:
        for cluster in CLUSTERS:
            request = _request(app, cluster, cache, protocol)
            want = _generator_json(request)
            for fast in (True, False):
                got = session.run_detailed(request, program=program,
                                           heap_fast_path=fast).result
                assert got.to_json() == want, (cluster, cache, fast)


@pytest.mark.parametrize("app", sorted(TINY))
def test_one_trace_key_serves_the_grid(app, python_kernels):
    clear_memory_cache()
    cache = TraceCache()
    session = RunSession(base_config=BASE, trace_cache=cache)
    keys = set()
    for protocol in PROTOCOLS:
        for cluster in (1, 4):
            request = _request(app, cluster, 4.0, protocol)
            config = request.config_for(BASE)
            keys.add(trace_key(app, request.kwargs, config, 12345))
            assert session.run(request).to_json() == \
                _generator_json(request)
    assert len(keys) == 1
    assert cache.misses == 1 and cache.memory_hits == 5
    clear_memory_cache()


try:
    _LIB = native.kernel()  # auto mode: None when no compiler/artifact
except RuntimeError:  # forced on but unbuildable
    _LIB = None

needs_kernel = pytest.mark.skipif(
    _LIB is None, reason="native kernel unavailable (no C compiler)")


def _native_json(request, program):
    config = request.config_for(BASE)
    app = build_app(request.app, config, **request.kwargs)
    app.ensure_setup()
    memory = CoherentMemorySystem(config, app.allocator)
    assert native_fusible(memory)
    return replay_native(config, memory, program, lib=_LIB).to_json()


@needs_kernel
@pytest.mark.parametrize("app", sorted(TINY))
def test_native_replay_matches_generator(app):
    program = _capture(app)
    for cache in CACHES:
        for cluster in CLUSTERS:
            request = _request(app, cluster, cache, "directory")
            assert _native_json(request, program) == \
                _generator_json(request), (cluster, cache)


@pytest.mark.parametrize("app", sorted(TINY))
def test_mapped_program_replays_identically(app, tmp_path, python_kernels):
    program = _capture(app)
    path = tmp_path / "t.trace"
    path.write_bytes(program.to_bytes())
    mapped = CompiledProgram.from_file(path)
    assert mapped.mapped and mapped.n_tasks == program.n_tasks
    session = RunSession(base_config=BASE)
    for protocol in PROTOCOLS:
        request = _request(app, 2, 4.0, protocol)
        want = _generator_json(request)
        got = session.run_detailed(request, program=mapped).result
        assert got.to_json() == want, protocol
        if protocol == "directory" and _LIB is not None:
            assert _native_json(request, mapped) == want

