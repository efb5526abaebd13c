"""Fused lockstep replay: engine loop and memory protocol in one kernel.

One batched sweep point costs one pass over the shared packed columns
(:mod:`.columns`) driven by :func:`replay_fused` — the
:meth:`~repro.sim.engine.Engine.run_compiled` event loop with the
*entire* :class:`~repro.memory.coherence.CoherentMemorySystem` hot path
(hits, misses, upgrades, invalidations, victim retirement) folded
directly into the opcode dispatch.  Per-config event scheduling stays
fully independent (each point keeps its own event queue, clocks, and
memory state), which is what keeps batched results exact: the fusion
removes interpreter overhead, never reorders a single transition.

What the fusion removes, relative to per-point replay:

* **memory-system calls** — ``memory.read`` / ``memory.write`` cost two
  Python frames plus per-call re-derivation of the cluster id, counter
  object, and kernel tuple on *every* reference.  The kernel binds each
  processor's cluster state once per processor switch (hot columns) or
  once per miss (directory/latency bindings) and performs the identical
  state transitions in-line, in the same order.
* **static counter updates** — per-processor busy cycles and the
  ``reads``/``writes`` reference counters are configuration-independent
  totals of the instruction stream (each READ ultimately adds exactly
  one hit cycle; a blocked LOCK receives its acquisition cycle through
  the unlock handoff).  They are seeded up front from the shared
  :class:`~repro.sim.batch.columns.BatchAux` and dropped from the loop.
* **fetch/dispatch overhead** — the packed ``arg << 3 | opcode`` column
  turns the per-op fetch into one bare ``for`` step over a list
  iterator, a processor switch into one iterator swap, and an LRU-touch
  probe into a single ``dict.pop``.
* **heap tuples** — the canonical ``(time, seq, pid)`` heap is replaced
  by a *bucket queue*: a dict ``time -> [pid, ...]`` plus an int-heap of
  distinct times.  Events at one time drain FIFO, and because the
  canonical ``seq`` counter increases monotonically, FIFO-per-time *is*
  seq order — same events, same tie-breaks, no tuple allocation and no
  sequence counter.  The cached horizon ``hz`` always equals the
  earliest pending event time, so the fast-path test is one comparison
  on exactly the canonical condition.

The final :class:`~repro.core.metrics.RunResult` is therefore
byte-identical — pinned by the batch parity and property suites against
per-point :class:`~repro.runtime.session.RunSession` execution.

:func:`fusible` is deliberately conservative: exact type match on
``CoherentMemorySystem`` (a subclass could override the hot methods) with
the fully-associative kernel tuples exposed.  Anything else — snoopy
clusters, set-associative caches, perfect memory — reports unfusible and
the caller falls back to the canonical per-point path.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING

from ...core.metrics import MissCause, RunResult, TimeBreakdown
from ...memory.cache import EXCLUSIVE, SHARED
from ...memory.coherence import CoherentMemorySystem
from ..engine import SimulationDeadlock, execute_program
from ..nativereplay import native_fusible, native_kernel, replay_native
from ..stats import DEFAULT_ASSEMBLER
from ..sync import SyncRegistry
from .columns import prepare_batch

if TYPE_CHECKING:  # pragma: no cover
    from ...core.config import MachineConfig
    from ..compiled import CompiledProgram

__all__ = ["BatchedReplay", "fusible", "replay_fused"]

#: horizon sentinel for an empty event queue (matches the canonical
#: fast-path condition ``not heap or tn < heap[0][0]``)
_INF = 1 << 62

_COLD = MissCause.COLD
_CAPACITY = MissCause.CAPACITY
_COHERENCE = MissCause.COHERENCE


def fusible(memory) -> bool:
    """Whether :func:`replay_fused` can drive this memory system.

    True only for a plain :class:`CoherentMemorySystem` (exact type — a
    subclass may override the hot paths the kernel inlines) whose caches
    expose the fully-associative kernel tuples.
    """
    return (type(memory) is CoherentMemorySystem
            and memory._kernels is not None)


def replay_fused(config: "MachineConfig", memory: CoherentMemorySystem,
                 program: "CompiledProgram") -> RunResult:
    """Replay ``program`` against ``memory`` with the fused kernel.

    Byte-identical to ``execute_program(config, memory, program,
    compiled=True)`` whenever :func:`fusible(memory)` holds; raises
    ``ValueError`` when it does not (callers gate on :func:`fusible`) or
    when the program carries a task table, which this kernel does not
    replay.
    """
    if not fusible(memory):
        raise ValueError("memory system is not fusible; use execute_program")
    if program.n_tasks:
        raise ValueError("the fused kernel does not replay task tables; "
                         "use execute_program")
    n = config.n_processors
    if program.n_processors != n:
        raise ValueError(
            f"compiled program has {program.n_processors} processors, "
            f"machine has {n}")
    if program.line_size != config.line_size:
        raise ValueError(
            f"compiled program captured at line size "
            f"{program.line_size}, machine uses {config.line_size}")

    packed_of, cpu_of, reads_of, writes_of = prepare_batch(program)
    sync = SyncRegistry(n)

    # ---- memory-system state, bound once per replay
    kernels = memory._kernels
    counters = memory.counters
    histories = memory._history
    caches = memory.caches
    directory = memory.directory
    shift = memory._cluster_shift
    csize = config.cluster_size
    touch = memory._capacity_lines is not None
    cap = memory._capacity_lines
    dtable = memory._dtable
    dtable_get = dtable.get
    page_home_get = memory._page_home.get
    lpp = memory._lines_per_page
    home_of_line = memory.allocator.home_of_line
    flat = memory._flat
    l_lc = memory._local_clean
    l_rc = memory._remote_clean
    l_ldr = memory._local_dirty_remote
    l_rd3 = memory._remote_dirty_3p
    miss_cycles = getattr(memory.latency, "miss_cycles", None)
    locks_get = sync._locks.get
    sync_lock = sync.lock
    barriers_get = sync._barriers.get
    sync_barrier = sync.barrier
    # Per-line home memo.  A line's home is stable once computed: the
    # first miss either finds the page bound or binds it right there
    # (``home_of_line`` first touch), so the canonical sequence runs
    # exactly once per line and later misses reuse its result.
    home_cache: dict[int, int] = {}
    home_cache_get = home_cache.get

    # ---- static seeding: configuration-independent counter totals
    breakdowns = [TimeBreakdown() for _ in range(n)]
    cl_of = [(p >> shift) if shift is not None else p // csize
             for p in range(n)]
    for p in range(n):
        breakdowns[p].cpu = cpu_of[p]
        c = counters[cl_of[p]]
        c.reads += reads_of[p]
        c.writes += writes_of[p]

    # ---- per-processor binds: hot columns, and the (rarer) miss-path
    # constants.  Processors of one cluster share the same kernel objects,
    # exactly as in the memory system.
    binds = []
    mbinds = []
    for p in range(n):
        cl = cl_of[p]
        slot_of, state_col, pending_col, fetcher_col, free = kernels[cl]
        binds.append((iter(packed_of[p]), counters[cl], slot_of, slot_of.get,
                      state_col, pending_col, fetcher_col))
        cache = caches[cl]
        bit4 = 4 << cl
        mbinds.append((cl, bit4, bit4 | 2, bit4 | 1, ~bit4, ~(1 << cl),
                       histories[cl], cache, free, cache.tag))

    retry_line: list[int | None] = [None] * n
    finish: list[int | None] = [None] * n
    n_running = n

    # Bucket queue: events of one time drain FIFO = canonical seq order.
    buckets: dict[int, list[int]] = {0: list(range(n))}
    times: list[int] = [0]

    t = 0
    bkt = buckets[0]
    pid = bkt.pop(0)
    if not bkt:
        del buckets[0]
        heappop(times)
        hz = _INF
    else:
        hz = 0
    it, ctr, slot_of, slot_get, state_col, pending_col, fetcher_col = \
        binds[pid]
    pending = retry_line[pid]
    while True:
        if pending is not None:
            # ---- retry of a merged read at its fill time
            if touch:
                slot = slot_of.pop(pending, -1)
                if slot >= 0:
                    slot_of[pending] = slot
            else:
                slot = slot_get(pending, -1)
            if slot >= 0:
                pu = pending_col[slot]
                if pu > t:
                    ctr.merges += 1
                    breakdowns[pid].merge += pu - t
                    tn = pu
                else:
                    f = fetcher_col[slot]
                    if f != -1 and f != pid:
                        ctr.prefetch_hits += 1
                        fetcher_col[slot] = -1
                    pending = None
                    retry_line[pid] = None
                    tn = t + 1
            else:
                # invalidated while pending: refetch (a fresh read miss)
                ctr.merge_refetches += 1
                arg = pending
                (cl, bit4, bit4_ex, bit4_sh, nbit4, nbit1, history, cache,
                 free, tag_col) = mbinds[pid]
                cause = history.get(arg, _COLD)
                home = home_cache_get(arg)
                if home is None:
                    ph = page_home_get(arg // lpp)
                    home = ph if ph is not None else home_of_line(arg)
                    home_cache[arg] = home
                packed = dtable_get(arg, 0)
                if packed & 3 == 2:  # DIR_EXCLUSIVE: dirty remote owner
                    owner = packed.bit_length() - 3
                    if flat:
                        if owner == cl:
                            raise ValueError(
                                "requesting cluster cannot be the dirty "
                                "owner on a miss")
                        if cl == home:
                            stall = l_ldr
                        elif owner == home:
                            stall = l_rc
                        else:
                            stall = l_rd3
                    else:
                        stall = miss_cycles(cl, home, owner, t)
                    ok = kernels[owner]
                    ok[1][ok[0][arg]] = SHARED
                    dtable[arg] = (packed & -4) | bit4_sh
                else:
                    if flat:
                        stall = l_lc if cl == home else l_rc
                    else:
                        stall = miss_cycles(cl, home, None, t)
                    dtable[arg] = (packed & -4) | bit4_sh
                if touch and len(slot_of) >= cap:
                    vline = next(iter(slot_of))
                    slot = slot_of.pop(vline)
                    vstate = state_col[slot]
                    cache.evictions += 1
                    state_col[slot] = SHARED
                    pending_col[slot] = t + stall
                    fetcher_col[slot] = pid
                    tag_col[slot] = arg
                    slot_of[arg] = slot
                    cache.inserts += 1
                    history[vline] = _CAPACITY
                    if vstate == EXCLUSIVE:
                        if dtable_get(vline, 0) == bit4_ex:
                            del dtable[vline]
                            directory.writebacks += 1
                    else:
                        vpacked = dtable_get(vline)
                        if vpacked is not None:
                            vpacked &= nbit4
                            directory.replacement_hints += 1
                            if vpacked >> 2:
                                dtable[vline] = vpacked
                            else:
                                del dtable[vline]
                else:
                    slot = free.pop() if free else cache._grow()
                    state_col[slot] = SHARED
                    pending_col[slot] = t + stall
                    fetcher_col[slot] = pid
                    tag_col[slot] = arg
                    slot_of[arg] = slot
                    cache.inserts += 1
                ctr.read_misses += 1
                ctr.by_cause[cause] += 1
                breakdowns[pid].load += stall
                pending = None
                retry_line[pid] = None
                tn = t + stall + 1
        else:
            # ---- run this processor's ops while it is strictly ahead of
            # every scheduled event (the canonical heap fast path, with
            # the horizon cached so the test is one comparison); the
            # ``for``/``else`` exhausts into the finish arm
            for code in it:
                op = code & 7
                arg = code >> 3
                if op == 1:  # READ
                    if touch:
                        # LRU touch fused into the probe: pop + reinsert
                        # keeps dict order = LRU order
                        slot = slot_of.pop(arg, -1)
                        if slot >= 0:
                            slot_of[arg] = slot
                    else:
                        slot = slot_get(arg, -1)
                    if slot >= 0:
                        pu = pending_col[slot]
                        if pu > t:
                            ctr.merges += 1
                            breakdowns[pid].merge += pu - t
                            pending = arg
                            retry_line[pid] = arg
                            tn = pu
                            break
                        f = fetcher_col[slot]
                        if f != -1 and f != pid:
                            ctr.prefetch_hits += 1
                            fetcher_col[slot] = -1
                        tn = t + 1
                    else:
                        # ---- fresh read miss: classify, directory
                        # transaction, SHARED install (an absent line
                        # cannot be pending)
                        (cl, bit4, bit4_ex, bit4_sh, nbit4, nbit1, history,
                         cache, free, tag_col) = mbinds[pid]
                        cause = history.get(arg, _COLD)
                        home = home_cache_get(arg)
                        if home is None:
                            ph = page_home_get(arg // lpp)
                            home = (ph if ph is not None
                                    else home_of_line(arg))
                            home_cache[arg] = home
                        packed = dtable_get(arg, 0)
                        if packed & 3 == 2:  # dirty remote owner
                            owner = packed.bit_length() - 3
                            if flat:
                                if owner == cl:
                                    raise ValueError(
                                        "requesting cluster cannot be the "
                                        "dirty owner on a miss")
                                if cl == home:
                                    stall = l_ldr
                                elif owner == home:
                                    stall = l_rc
                                else:
                                    stall = l_rd3
                            else:
                                stall = miss_cycles(cl, home, owner, t)
                            # owner keeps the data but downgrades; the
                            # reader joins the sharers
                            ok = kernels[owner]
                            ok[1][ok[0][arg]] = SHARED
                            dtable[arg] = (packed & -4) | bit4_sh
                        else:
                            if flat:
                                stall = l_lc if cl == home else l_rc
                            else:
                                stall = miss_cycles(cl, home, None, t)
                            dtable[arg] = (packed & -4) | bit4_sh
                        if touch and len(slot_of) >= cap:
                            vline = next(iter(slot_of))
                            slot = slot_of.pop(vline)
                            vstate = state_col[slot]
                            cache.evictions += 1
                            # recycle the victim's slot for the new line
                            state_col[slot] = SHARED
                            pending_col[slot] = t + stall
                            fetcher_col[slot] = pid
                            tag_col[slot] = arg
                            slot_of[arg] = slot
                            cache.inserts += 1
                            history[vline] = _CAPACITY
                            if vstate == EXCLUSIVE:
                                if dtable_get(vline, 0) == bit4_ex:
                                    del dtable[vline]
                                    directory.writebacks += 1
                            else:
                                vpacked = dtable_get(vline)
                                if vpacked is not None:
                                    vpacked &= nbit4
                                    directory.replacement_hints += 1
                                    if vpacked >> 2:
                                        dtable[vline] = vpacked
                                    else:
                                        del dtable[vline]
                        else:
                            slot = free.pop() if free else cache._grow()
                            state_col[slot] = SHARED
                            pending_col[slot] = t + stall
                            fetcher_col[slot] = pid
                            tag_col[slot] = arg
                            slot_of[arg] = slot
                            cache.inserts += 1
                        ctr.read_misses += 1
                        ctr.by_cause[cause] += 1
                        breakdowns[pid].load += stall
                        tn = t + stall + 1
                elif op == 0:  # WORK
                    tn = t + arg
                elif op == 2:  # WRITE (never stalls: store buffers +
                    # relaxed consistency; protocol state still updates)
                    if touch:
                        slot = slot_of.pop(arg, -1)
                        if slot >= 0:
                            slot_of[arg] = slot
                    else:
                        slot = slot_get(arg, -1)
                    if slot >= 0:
                        if state_col[slot] != EXCLUSIVE:
                            # upgrade: invalidate the other sharers
                            ctr.upgrade_misses += 1
                            mb = mbinds[pid]
                            others = (dtable_get(arg, 0) >> 2) & mb[5]
                            if others:
                                bits = others
                                while bits:
                                    low = bits & -bits
                                    bits ^= low
                                    vcl = low.bit_length() - 1
                                    k2 = kernels[vcl]
                                    s2 = k2[0].pop(arg, -1)
                                    if s2 >= 0:
                                        k2[4].append(s2)
                                        histories[vcl][arg] = _COHERENCE
                                directory.invalidations_sent += \
                                    others.bit_count()
                            dtable[arg] = mb[2]  # bit4 | DIR_EXCLUSIVE
                            state_col[slot] = EXCLUSIVE
                        tn = t + 1
                    else:
                        # ---- write miss: fetch exclusive; latency
                        # hidden, line left pending
                        (cl, bit4, bit4_ex, bit4_sh, nbit4, nbit1, history,
                         cache, free, tag_col) = mbinds[pid]
                        cause = history.get(arg, _COLD)
                        home = home_cache_get(arg)
                        if home is None:
                            ph = page_home_get(arg // lpp)
                            home = (ph if ph is not None
                                    else home_of_line(arg))
                            home_cache[arg] = home
                        packed = dtable_get(arg, 0)
                        if packed & 3 == 2:  # dirty remote owner
                            owner = packed.bit_length() - 3
                            if flat:
                                if owner == cl:
                                    raise ValueError(
                                        "requesting cluster cannot be the "
                                        "dirty owner on a miss")
                                if cl == home:
                                    latency = l_ldr
                                elif owner == home:
                                    latency = l_rc
                                else:
                                    latency = l_rd3
                            else:
                                latency = miss_cycles(cl, home, owner, t)
                        else:
                            if flat:
                                latency = l_lc if cl == home else l_rc
                            else:
                                latency = miss_cycles(cl, home, None, t)
                        others = (packed >> 2) & nbit1
                        if others:
                            bits = others
                            while bits:
                                low = bits & -bits
                                bits ^= low
                                vcl = low.bit_length() - 1
                                k2 = kernels[vcl]
                                s2 = k2[0].pop(arg, -1)
                                if s2 >= 0:
                                    k2[4].append(s2)
                                    histories[vcl][arg] = _COHERENCE
                        directory.invalidations_sent += others.bit_count()
                        dtable[arg] = bit4_ex
                        if touch and len(slot_of) >= cap:
                            vline = next(iter(slot_of))
                            slot = slot_of.pop(vline)
                            vstate = state_col[slot]
                            cache.evictions += 1
                            state_col[slot] = EXCLUSIVE
                            pending_col[slot] = t + latency
                            fetcher_col[slot] = pid
                            tag_col[slot] = arg
                            slot_of[arg] = slot
                            cache.inserts += 1
                            history[vline] = _CAPACITY
                            if vstate == EXCLUSIVE:
                                if dtable_get(vline, 0) == bit4_ex:
                                    del dtable[vline]
                                    directory.writebacks += 1
                            else:
                                vpacked = dtable_get(vline)
                                if vpacked is not None:
                                    vpacked &= nbit4
                                    directory.replacement_hints += 1
                                    if vpacked >> 2:
                                        dtable[vline] = vpacked
                                    else:
                                        del dtable[vline]
                        else:
                            slot = free.pop() if free else cache._grow()
                            state_col[slot] = EXCLUSIVE
                            pending_col[slot] = t + latency
                            fetcher_col[slot] = pid
                            tag_col[slot] = arg
                            slot_of[arg] = slot
                            cache.inserts += 1
                        ctr.write_misses += 1
                        ctr.by_cause[cause] += 1
                        tn = t + 1
                elif op == 3:  # BARRIER (BarrierState.arrive, inlined)
                    bar = barriers_get(arg)
                    if bar is None:
                        bar = sync_barrier(arg)
                    w = bar._waiting
                    w.append((pid, t))
                    if len(w) == bar.n_participants:
                        bar.episodes += 1
                        try:
                            bkt = buckets[t]
                        except KeyError:
                            bkt = buckets[t] = []
                            heappush(times, t)
                        for rpid, arrived in w:
                            breakdowns[rpid].sync += t - arrived
                            bkt.append(rpid)
                        w.clear()
                    tn = None
                    break
                elif op == 4:  # LOCK (LockState.acquire, inlined)
                    lk = locks_get(arg)
                    if lk is None:
                        lk = sync_lock(arg)
                    holder = lk.holder
                    if holder is None:
                        lk.holder = pid
                        lk.acquisitions += 1
                        tn = t + 1
                    elif holder == pid:
                        raise RuntimeError(
                            f"processor {pid} re-acquiring held lock")
                    else:
                        lk._queue.append((pid, t))
                        tn = None
                        break
                else:  # OP_UNLOCK (LockState.release, inlined; the
                    # compile validated every opcode)
                    lk = locks_get(arg)
                    if lk is None:
                        lk = sync_lock(arg)
                    if lk.holder != pid:
                        raise RuntimeError(
                            f"processor {pid} releasing lock held by "
                            f"{lk.holder}")
                    q = lk._queue
                    if q:
                        next_pid, arrived = q.popleft()
                        lk.holder = next_pid
                        lk.acquisitions += 1
                        lk.contended_acquisitions += 1
                        # enqueue order (self, then next holder) fixes
                        # the tie-break at t+1 exactly as it always did
                        t1 = t + 1
                        try:
                            bkt = buckets[t1]
                        except KeyError:
                            bkt = buckets[t1] = []
                            heappush(times, t1)
                        bkt.append(pid)
                        breakdowns[next_pid].sync += t - arrived
                        bkt.append(next_pid)
                        tn = None
                        break
                    lk.holder = None
                    tn = t + 1
                # ---- fast path: strictly next, stay on this processor
                if tn < hz:
                    t = tn
                    continue
                break
            else:
                finish[pid] = t
                n_running -= 1
                tn = None

        # ---- scheduling tail
        if tn is None:  # blocked or finished
            if not times:
                break
        elif tn < hz:  # reachable from the retry arm / a fresh merge only
            t = tn
            continue
        else:
            # enqueue; tn >= hz guarantees an already-queued event runs
            # first, so the canonical ``npid == pid`` shortcut of the
            # heappushpop tail can never fire here
            try:
                buckets[tn].append(pid)
            except KeyError:
                buckets[tn] = [pid]
                heappush(times, tn)
        t = times[0]
        bkt = buckets[t]
        pid = bkt.pop(0)
        if not bkt:
            del buckets[t]
            heappop(times)
            hz = times[0] if times else _INF
        else:
            hz = t
        (it, ctr, slot_of, slot_get, state_col, pending_col,
         fetcher_col) = binds[pid]
        pending = retry_line[pid]

    # ---- wrap-up (Engine._finalize, verbatim semantics)
    if n_running > 0:
        detail = sync.idle_check() or "processors blocked forever"
        stuck = [p for p in range(n) if finish[p] is None]
        raise SimulationDeadlock(
            f"{len(stuck)} processors never finished ({detail}); "
            f"first stuck: {stuck[:8]}")
    execution_time = max(f for f in finish if f is not None) if n else 0
    for p in range(n):
        fin = finish[p]
        assert fin is not None
        breakdowns[p].sync += execution_time - fin
    return DEFAULT_ASSEMBLER.assemble(execution_time, breakdowns, memory)


class BatchedReplay:
    """Replay one compiled trace across N memory-system configurations.

    The single column decode (:func:`prepare_batch`, numpy-accelerated
    when available) is paid **lazily**, on the first point the pure-python
    fused kernel actually serves: when the native C kernel handles every
    point of a group — the common case with ``--native`` — the packed
    instruction streams are never built at all, which matters for mapped
    paper-scale traces (the native kernel reads the file mapping in
    place; packing would materialise the whole trace as boxed ints).
    Each :meth:`run` advances one configuration over the shared columns —
    with the native kernel when it is selected and the point qualifies
    (:func:`~repro.sim.nativereplay.native_fusible`), the pure-python
    fused kernel when the memory system qualifies and the program has no
    task table, and the canonical ``execute_program`` replay otherwise.
    All three are byte-identical;
    ``points_native`` / ``points_fused`` / ``points_fallback`` record
    which kernel served each point for the batch counters.
    """

    __slots__ = ("program", "use_numpy", "points_native", "points_fused",
                 "points_fallback")

    def __init__(self, program: "CompiledProgram",
                 use_numpy: bool | None = None) -> None:
        self.program = program
        self.use_numpy = use_numpy
        self.points_native = 0
        self.points_fused = 0
        self.points_fallback = 0

    def run(self, config: "MachineConfig", memory) -> RunResult:
        """Advance one configuration; exact regardless of the path taken."""
        if fusible(memory):
            lib = native_kernel()
            if lib is not None and native_fusible(memory):
                self.points_native += 1
                return replay_native(config, memory, self.program, lib=lib)
            if not self.program.n_tasks:
                self.points_fused += 1
                prepare_batch(self.program, use_numpy=self.use_numpy)
                return replay_fused(config, memory, self.program)
        self.points_fallback += 1
        return execute_program(config, memory, self.program, compiled=True)
