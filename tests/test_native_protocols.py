"""Native DLS and snoopy replay against their python twins.

The C kernel serves the snoopy shared-main-memory cluster and the
directoryless shared LLC through the same seam as the directory
(``try_replay_native``, visible state only).  Adversarial random
programs -- locks, barriers, task tables with GRAB, WORK on both sides
of the scheduler's time ring -- on 2 to 8 processors, cluster sizes 1
to 8, finite and infinite caches and explicitly placed pages must give
the canonical python engine's result byte for byte: ``to_json()`` and
the allocator the replay leaves behind (page homes in binding order,
round-robin cursor, first-touch count).  DLS is pinned a second time
against an engine driven by the object-per-line oracle
:class:`~repro.memory.refmodel.RefDLSMemorySystem`.

``test_tie_order_digest`` hashes a fixed-seed set of far-WORK programs
replayed natively under all three protocols against the canonical
replays: unlike the sweep sha, it changes when the kernel scheduler's
tie order does.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.native as native
from repro.core.config import MachineConfig
from repro.core.metrics import MissCause, MissCounters
from repro.memory import make_memory_system
from repro.memory.allocation import PageAllocator
from repro.memory.refmodel import RefDLSMemorySystem
from repro.sim.compiled import compile_program
from repro.sim.engine import SimulationDeadlock, execute_program
from repro.sim.nativereplay import replay_native, try_replay_native
from repro.sim.program import Barrier

from programgen import (CACHE_KB, FAR_ATOM, factory_of, programs,
                        seeded_programs)
from test_taskqueue import task_program, task_programs

try:
    _LIB = native.kernel()  # auto mode: None when no compiler/artifact
except RuntimeError:  # forced on but unbuildable -- treat as unavailable
    _LIB = None

pytestmark = pytest.mark.skipif(
    _LIB is None, reason="native kernel unavailable (no C compiler)")

PROTOCOLS = ("dls", "snoopy")

#: bytes per page: 2 lines, so the programs' 1 KB window spans 8 pages
#: (homes on every cluster), or one 4 KB page (a single home)
PAGE_SIZES = st.sampled_from([128, 4096])


@st.composite
def machines(draw, n):
    """Cluster size (a divisor of n), cache size, page size, placements."""
    cluster = draw(st.sampled_from([c for c in (1, 2, 4, 8) if c <= n]))
    cache_kb = draw(CACHE_KB)
    page_size = draw(PAGE_SIZES)
    placed = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=7),
                  st.integers(min_value=0, max_value=7)), max_size=4))
    return cluster, cache_kb, page_size, placed


def _config(protocol, n, machine):
    cluster, cache_kb, page_size, _ = machine
    return MachineConfig(n_processors=n, cluster_size=cluster,
                         cache_kb_per_processor=cache_kb,
                         page_size=page_size, protocol=protocol)


def _allocator(config, placed):
    alloc = PageAllocator(config.n_clusters, config.page_size,
                          config.line_size)
    for page, cluster in placed:
        if page * config.page_size < 1024 and alloc.bound_home(page) is None:
            alloc.place_page(page, cluster % config.n_clusters)
    return alloc


class _Owner:
    """The part of an application ``try_replay_native`` uses."""

    def __init__(self, allocator):
        self.allocator = allocator

    def ensure_setup(self):
        pass


class _RefDLSMemory:
    """:class:`RefDLSMemorySystem` behind the engine's memory interface."""

    _CAUSES = {"cold": MissCause.COLD, "capacity": MissCause.CAPACITY,
               "coherence": MissCause.COHERENCE}

    def __init__(self, config, allocator):
        self.ref = RefDLSMemorySystem(config, allocator)
        self.read = self.ref.read
        self.write = self.ref.write

    @property
    def counters(self):
        out = []
        for raw in self.ref.counters:
            ctr = MissCounters(
                reads=raw["reads"], writes=raw["writes"],
                read_misses=raw["read_misses"],
                write_misses=raw["write_misses"], merges=raw["merges"],
                merge_refetches=raw["merge_refetches"],
                prefetch_hits=raw["prefetch_hits"])
            for name, cause in self._CAUSES.items():
                ctr.by_cause[cause] += raw[name]
            out.append(ctr)
        return out

    def aggregate_counters(self):
        total = MissCounters()
        for ctr in self.counters:
            ctr.merged_into(total)
        return total

    def network_stats(self):
        return None


def _allocation(alloc):
    return (list(alloc._page_home.items()), alloc._rr_next,
            alloc.first_touch_pages)


def _outcome(run, alloc):
    try:
        result = run()
    except RuntimeError as exc:  # deadlock and lock errors
        return type(exc), str(exc), _allocation(alloc)
    assert result is not None, "native seam declined an eligible point"
    return "ok", result.to_json(), _allocation(alloc)


def _assert_native_matches(config, program, placed, rounds=2):
    """Native, canonical (and for DLS the oracle engine) agree, run
    after run on one allocator each -- the allocator outlives a replay."""
    owner = _Owner(_allocator(config, placed))
    canonical = _allocator(config, placed)
    oracle = _allocator(config, placed) if config.protocol == "dls" else None
    outcomes = []
    for _ in range(rounds):
        got = _outcome(lambda: try_replay_native(config, owner, program),
                       owner.allocator)
        want = _outcome(lambda: execute_program(
            config, make_memory_system(config, canonical), program,
            compiled=True), canonical)
        assert got == want
        if oracle is not None:
            ref = _outcome(lambda: execute_program(
                config, _RefDLSMemory(config, oracle), program,
                compiled=True), oracle)
            assert ref == want
        outcomes.append(want[0])
    return outcomes


@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), prog=programs(sizes=(2, 4, 8)))
def test_random_programs_match(protocol, data, prog):
    n, phases, table = prog
    machine = data.draw(machines(n))
    config = _config(protocol, n, machine)
    program = compile_program(factory_of(phases, table), n,
                              config.line_size)
    assert _assert_native_matches(config, program, machine[3]) == ["ok"] * 2


@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), prog=programs(FAR_ATOM, sizes=(4, 8)),
       fuse_work=st.booleans())
def test_far_work_programs_match(protocol, data, prog, fuse_work):
    n, phases, table = prog
    machine = data.draw(machines(n))
    config = _config(protocol, n, machine)
    program = compile_program(factory_of(phases, table), n,
                              config.line_size, fuse_work=fuse_work)
    _assert_native_matches(config, program, machine[3])


@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), prog=task_programs())
def test_task_tables_match(protocol, data, prog):
    n, tasks, pre, post = prog
    machine = data.draw(machines(n))
    config = _config(protocol, n, machine)
    program = task_program(n, tasks, pre, post, config.line_size)
    _assert_native_matches(config, program, machine[3])


@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(max_examples=20, deadline=None)
@given(data=st.data(), prog=programs(sizes=(2, 4)),
       victim_pick=st.integers(min_value=0, max_value=3))
def test_deadlocks_match(protocol, data, prog, victim_pick):
    """A processor that skips the last barrier deadlocks the rest: the
    kernel's registry export rebuilds the canonical message."""
    n, phases, table = prog
    victim = victim_pick % n
    base = factory_of(phases, table)

    def factory(pid):
        ops = list(base(pid))
        if pid == victim:
            ops.pop()  # its final Barrier
        yield from ops

    machine = data.draw(machines(n))
    config = _config(protocol, n, machine)
    program = compile_program(factory, n, config.line_size)
    outcomes = _assert_native_matches(config, program, machine[3])
    assert outcomes == [SimulationDeadlock] * 2


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_full_export_is_directory_only(protocol):
    config = _config(protocol, 2, (1, None, 4096, []))
    program = compile_program(lambda pid: iter([Barrier(0)]), 2,
                              config.line_size)
    with pytest.raises(ValueError, match="directory"):
        replay_native(config, make_memory_system(config), program, lib=_LIB)


# ------------------------------------------------------ tie-order digest

#: far-WORK programs per protocol; the set changes results when the
#: kernel's overflow-vs-ring tie rule flips (checked by mutation)
DIGEST_PROGRAMS = 400
DIGEST_SEED = 20261018


def _digest(results):
    h = hashlib.sha256()
    for text in results:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("protocol", ("directory", "snoopy", "dls"))
def test_tie_order_digest(protocol):
    got, want = [], []
    for k, (n, phases, table) in enumerate(
            seeded_programs(DIGEST_SEED, DIGEST_PROGRAMS)):
        config = MachineConfig(
            n_processors=n, cluster_size=(1, 2, 8)[k % 3],
            cache_kb_per_processor=(None, 0.0625, 0.25)[k // 3 % 3],
            page_size=128, protocol=protocol)
        program = compile_program(factory_of(phases, table), n,
                                  config.line_size, fuse_work=k % 2 == 0)
        result = try_replay_native(config, _Owner(_allocator(config, [])),
                                   program)
        assert result is not None
        got.append(result.to_json())
        want.append(execute_program(
            config, make_memory_system(config), program,
            compiled=True).to_json())
    assert _digest(got) == _digest(want), next(
        k for k, (a, b) in enumerate(zip(got, want)) if a != b)


# ------------------------------------------------- nine apps, quick size

@pytest.mark.medium
@pytest.mark.parametrize("app_name", ["lu", "fft", "ocean", "barnes", "fmm",
                                      "radix", "raytrace", "volrend",
                                      "mp3d"])
def test_quick_apps_match(app_name):
    """Each app's quick-size capture (a recording for the timing-dynamic
    ones), replayed natively and in python at 64 processors for
    {dls, snoopy} x cluster sizes {1, 4} x {4 KB, infinite}: identical
    results and identical allocator end states."""
    from repro.apps.registry import QUICK_PROBLEM_SIZES, build_app

    kw = QUICK_PROBLEM_SIZES[app_name]
    for protocol in PROTOCOLS:
        for cluster in (1, 4):
            for cache_kb in (4.0, None):
                config = MachineConfig(cluster_size=cluster,
                                       cache_kb_per_processor=cache_kb,
                                       protocol=protocol)
                app = build_app(app_name, config, **kw)
                program = (app.compiled_program() if app.stream_invariant
                           else app.run_recorded()[1])
                native_app = build_app(app_name, config, **kw)
                python_app = build_app(app_name, config, **kw)
                got = try_replay_native(config, native_app, program)
                want = python_app.run(program=program)
                assert got is not None
                assert got.to_json() == want.to_json(), (protocol, cluster,
                                                          cache_kb)
                assert (_allocation(native_app.allocator)
                        == _allocation(python_app.allocator))
