"""Random-program strategies shared by the replay property suites.

A generated program is a phase table: ``table[pid][phase]`` is a list of
atoms, and every processor ends every phase with the same barrier, so
any table is deadlock-free by construction.  Atoms are private work,
shared reads/writes over a small address window (to force sharing and
invalidation traffic), or a lock-protected critical section (locks are
always released by the acquirer, in order).
"""

import random

from hypothesis import strategies as st

from repro.core.config import MachineConfig
from repro.sim.program import Barrier, Lock, Read, Unlock, Work, Write

_ADDR = st.integers(min_value=0, max_value=1023)


def atoms(work):
    """The atom strategy with WORK cycles drawn from ``work``."""
    basic = st.one_of(
        st.tuples(st.just("work"), work),
        st.tuples(st.just("read"), _ADDR),
        st.tuples(st.just("write"), _ADDR),
    )
    return st.one_of(
        basic,
        st.tuples(st.just("cs"), st.integers(min_value=0, max_value=2),
                  st.lists(basic, max_size=4)),
    )


ATOM = atoms(st.integers(min_value=0, max_value=20))

#: WORK cycles on both sides of the native scheduler's 4096-slot time
#: ring and far beyond it, mixed with very short ones so that event
#: times collide
FAR_WORK = st.one_of(
    st.integers(min_value=0, max_value=2),
    st.sampled_from([2 ** k + d for k in range(10, 21) for d in (-1, 0, 1)]
                    + [10 ** 6, 10 ** 9]),
)
FAR_ATOM = atoms(FAR_WORK)

#: per-processor cache sizes in KB: infinite / 4 lines / 16 lines
CACHE_KB = st.sampled_from([None, 0.0625, 0.25])


@st.composite
def programs(draw, atom=ATOM, sizes=(2, 4)):
    """``(n_processors, phases, table)`` for :func:`factory_of`."""
    n = draw(st.sampled_from(sizes))
    phases = draw(st.integers(min_value=1, max_value=3))
    table = [[draw(st.lists(atom, max_size=10)) for _ in range(phases)]
             for _ in range(n)]
    return n, phases, table


def emit(atom):
    """The ops of one atom."""
    kind, arg = atom[0], atom[1]
    if kind == "work":
        yield Work(arg)
    elif kind == "read":
        yield Read(arg)
    elif kind == "write":
        yield Write(arg)
    else:  # critical section
        yield Lock(arg)
        for basic in atom[2]:
            yield from emit(basic)
        yield Unlock(arg)


def factory_of(phases, table):
    """The program factory of a phase table."""
    def factory(pid):
        for phase in range(phases):
            for atom in table[pid][phase]:
                yield from emit(atom)
            yield Barrier(phase)

    return factory


def machine(n, cluster, cache_kb):
    return MachineConfig(n_processors=n, cluster_size=cluster,
                         cache_kb_per_processor=cache_kb)


def seeded_programs(seed, count, n=8):
    """``count`` far-WORK programs for ``n`` processors, fixed by ``seed``.

    The shapes :func:`programs` draws from ``FAR_ATOM`` -- phases of
    work/read/write atoms and critical sections, WORK either 0..2 cycles
    or on both sides of the native scheduler's time ring -- but from a
    seeded ``random.Random``, so a digest over them names one fixed set
    of programs on every run.
    """
    rng = random.Random(seed)
    far = [2 ** k + d for k in range(10, 21) for d in (-1, 0, 1)]
    far += [10 ** 6, 10 ** 9]

    def basic():
        kind = rng.choice(("work", "read", "write"))
        if kind != "work":
            return kind, rng.randint(0, 1023)
        near = rng.random() < 0.5
        return kind, rng.randint(0, 2) if near else rng.choice(far)

    def atom():
        if rng.random() < 0.25:
            return ("cs", rng.randint(0, 2),
                    [basic() for _ in range(rng.randint(0, 4))])
        return basic()

    out = []
    for _ in range(count):
        phases = rng.randint(1, 3)
        table = [[[atom() for _ in range(rng.randint(0, 10))]
                  for _ in range(phases)] for _ in range(n)]
        out.append((n, phases, table))
    return out
