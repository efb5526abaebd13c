"""Compiled-trace execution: flat-array program capture and reuse.

The execution engine historically pulled one ``(opcode, arg)`` tuple per
simulated operation out of a per-processor Python generator.  Each pull is a
generator resumption plus a tuple allocation plus a tuple unpack — pure
interpreter overhead that dwarfs the simulated work for memory-light ops.
Worse, every sweep point regenerated the *identical* stream from scratch:
the reference stream of an application depends only on the problem
(app + kwargs + seed) and the stream-relevant machine fields
(:meth:`~repro.core.config.MachineConfig.trace_signature` — processor
count, line size, page size), **not** on cluster size, cache capacity,
latency table, or network model.  A cluster-size × cache-size grid can
therefore capture each app's program once and replay it everywhere.

This module provides that capture/replay layer:

* :class:`CompiledProgram` — per-processor flat parallel ``array('q')``
  opcode/arg arrays.  READ/WRITE operands are pre-divided by the line size
  (the engine's per-op ``arg // line_size`` disappears) and consecutive
  WORK ops are fused at compile time, so replay is index bumping with zero
  per-op allocation;
* :func:`compile_program` — drain a generator-based program factory once
  into a :class:`CompiledProgram`;
* :func:`trace_key` — content hash identifying one compiled trace
  (version, app, kwargs, seed, stream-relevant machine fields);
* :class:`TraceCache` — process-wide in-memory LRU of compiled programs
  plus an optional persistent tier
  (:class:`~repro.core.resultcache.TraceStore`), so a sweep compiles each
  app once per process and ``--jobs`` worker processes share traces via
  disk.

**Streaming traces.**  The ``RPROTRC2`` wire format is *mmappable*: an aligned, uncompressed
little-endian int64 section per column behind a JSON header/TOC, so
:meth:`CompiledProgram.from_file` can map a
:class:`~repro.core.resultcache.TraceStore` blob copy-on-write
(``mmap.ACCESS_COPY``) and expose the columns as zero-copy ``memoryview``
slices over the page cache.  A mapped program costs ~0 resident bytes
until touched, its pages are shared between every process mapping the
same blob (fork-server workers, the sweep daemon, parallel CLI runs), and
the native kernel (:mod:`repro.native`) replays it by passing the mapped
column addresses straight into C — no decode, no packing copy.  The pure
python replay loop reads mapped programs through a chunked window
(:class:`_ChunkedColumn`) so it never holds more than a few thousand
boxed ints per column; paper-scale traces (512² LU ≈ 45 MB) stream
through a bounded footprint instead of materialising everywhere.

The in-memory LRU is governed by a **byte budget**
(``REPRO_TRACE_LRU_BYTES``, default 256 MiB) that charges mapped programs
a token constant — so any number of paper-scale mapped traces stay
resident while materialised ones are evicted by size.
``REPRO_TRACE_MMAP=0`` disables mapping (every disk
load decodes eagerly to arrays).

**Task tables.**  Raytrace and Volrend load-balance through a
lock-protected tile queue (paper §3): *which* processor renders a tile
depends on simulated lock order, but each tile's reference stream does
not.  Such programs are captured as per-processor own columns plus a
shared **task table** of op blocks (:func:`compile_task_program`), tied
together by the compiled-only :data:`~repro.sim.program.OP_GRAB` op.  A
GRAB takes ``k = counter++`` from a replay-local counter that starts at
0 and jumps to task block ``k``; once ``k >= n_tasks`` it returns to the
processor's own column just after the GRAB that entered the table (or
falls through, when executed there).  Every task block ends with a GRAB,
so a block never runs off its end.  GRAB costs zero cycles and is never
a scheduling point: replay resolves it at op fetch, in the same engine
event in which the generator path reads its Python-side task counter.
The counter is replay state, never program state, so one capture stays
immutable and serves every configuration and every concurrent replay.

Replay is **bit-identical** to generator execution: the engine's golden
and equivalence suites (``tests/test_golden_regression.py``,
``tests/test_compiled.py``, ``tests/test_tracestream.py``) compare
canonical ``RunResult`` JSON byte-for-byte.  A corrupted or stale disk
trace is never fatal — it decodes to a miss (with a warning) and the
program is regenerated.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import sys
import warnings
import zlib
from array import array
from collections import OrderedDict
from typing import Any, Mapping

from ..core.resultcache import TraceStore
from .program import (OP_BARRIER, OP_GRAB, OP_READ, OP_WORK, OP_WRITE,
                      ProgramFactory)

__all__ = ["CompiledProgram", "TraceCache", "TraceDecodeError",
           "compile_program", "compile_task_program", "trace_key",
           "clear_memory_cache", "memory_cache_len", "memory_cache_bytes",
           "trace_cache_info", "ENV_TRACE_LRU_BYTES", "ENV_TRACE_MMAP"]

#: environment variable overriding the in-memory LRU byte budget
ENV_TRACE_LRU_BYTES = "REPRO_TRACE_LRU_BYTES"

#: set to ``0`` to disable memory-mapped trace loads (eager array decode)
ENV_TRACE_MMAP = "REPRO_TRACE_MMAP"

# Sized so a full 9-app quick sweep (a few MB per materialised trace)
# never evicts, while a single paper-scale materialised trace (512² LU is
# ~45 MB of columns) still fits several times over.  Mapped traces are
# charged _MAPPED_RESIDENT_BYTES each, so at paper scale the budget is
# effectively an entry bound of ~64k mapped traces — i.e. unlimited.
_DEFAULT_LRU_BYTES = 256 * 1024 * 1024

#: accounting charge for a mapped program: its python-side footprint is a
#: handful of memoryview objects plus one chunked-window cache; the column
#: payload lives in the (evictable, shared) page cache, not the heap
_MAPPED_RESIDENT_BYTES = 4096

#: serialization magics: bump the trailing digit on any format change so
#: stale cache entries from older versions decode as misses, not garbage
_MAGIC = b"RPROTRC2"

_ITEMSIZE = 8  # int64 columns


def _align8(n: int) -> int:
    return (n + 7) & ~7


class TraceDecodeError(ValueError):
    """A serialized compiled trace is corrupt, truncated, or incompatible."""


class _ChunkedColumn:
    """A lazy plain-int window over one mapped int64 column.

    The per-point replay loop indexes each processor's column with a
    monotonically non-decreasing cursor and calls ``len()`` once — nothing
    else — so a single cached chunk of boxed ints per column is enough to
    serve it.  Out-of-window accesses re-box the surrounding aligned chunk
    (``tolist`` on a memoryview slice, one C pass), keeping the python
    replay of a mapped program at a bounded footprint:
    ``2 columns × n_processors × _CHUNK`` boxed ints, independent of trace
    size.
    """

    __slots__ = ("_mv", "_n", "_chunk", "_base")

    #: window size in entries; 4096 keeps a 64-processor replay under
    #: ~0.5M resident boxed ints while re-boxing rarely enough to stay
    #: within a few percent of full-list replay throughput
    _CHUNK = 4096

    def __init__(self, mv: memoryview) -> None:
        self._mv = mv
        self._n = len(mv)
        self._chunk: list[int] = []
        self._base = 0

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> int:
        off = i - self._base
        chunk = self._chunk
        if 0 <= off < len(chunk):
            return chunk[off]
        if not 0 <= i < self._n:
            raise IndexError("column index out of range")
        base = i - (i % self._CHUNK)
        self._base = base
        chunk = self._chunk = self._mv[base:base + self._CHUNK].tolist()
        return chunk[i - base]

    def __iter__(self):
        mv = self._mv
        step = self._CHUNK
        for base in range(0, self._n, step):
            yield from mv[base:base + step].tolist()


def _le_bytes(col) -> bytes:
    """Column payload as little-endian int64 bytes (host-order aware)."""
    if sys.byteorder == "little":
        return col.tobytes()
    swapped = array("q", col)
    swapped.byteswap()
    return swapped.tobytes()


class CompiledProgram:
    """The flat-array form of one program across all processors.

    ``ops[pid]`` / ``args[pid]`` are parallel int64 columns: entry ``i``
    is the ``i``-th operation of processor ``pid``.  Opcodes are the
    :mod:`repro.sim.program` constants; READ/WRITE args are **line
    numbers** (already divided by ``line_size``), all other args are
    verbatim.  Columns are ``array('q')`` for compiled/decoded programs
    and ``memoryview`` slices over a copy-on-write file mapping for
    programs loaded via :meth:`from_file` (``mapped`` is then true); both
    spellings expose identical indexing, length, and buffer protocols, so
    every replay path (the canonical python engine and the native C
    kernel) works on either.

    ``task_ops[k]`` / ``task_args[k]`` hold block ``k`` of the optional
    task table (empty lists for programs without one), in the same
    column spelling; :data:`~repro.sim.program.OP_GRAB` ops in the
    processor columns enter it (module docstring, "Task tables").
    Every block must end with a GRAB.

    Instances are immutable by convention (the engine only reads them, and
    the native kernel takes ``const`` views), so one compiled program can
    be replayed concurrently by any number of engines and shared through
    :class:`TraceCache`.
    """

    __slots__ = ("ops", "args", "task_ops", "task_args", "n_processors",
                 "line_size", "source_ops", "fused_work", "mapped", "_mm",
                 "_runtime", "_tasks", "_native")

    def __init__(self, ops: list, args: list, line_size: int,
                 source_ops: int, fused_work: bool, *,
                 task_ops: list | None = None, task_args: list | None = None,
                 mapped: bool = False, mapping=None) -> None:
        task_ops = [] if task_ops is None else task_ops
        task_args = [] if task_args is None else task_args
        if len(ops) != len(args) or len(task_ops) != len(task_args):
            raise ValueError("ops/args column counts differ")
        for o, a in zip(ops + task_ops, args + task_args):
            if len(o) != len(a):
                raise ValueError("ops/args columns have unequal lengths")
        for k, o in enumerate(task_ops):
            if not len(o) or o[-1] != OP_GRAB:
                raise ValueError(f"task block {k} does not end with GRAB")
        self.ops = ops
        self.args = args
        self.task_ops = task_ops
        self.task_args = task_args
        self.n_processors = len(ops)
        self.line_size = line_size
        #: operation count before WORK fusion (what a generator would yield)
        self.source_ops = source_ops
        self.fused_work = fused_work
        #: columns are memoryview slices over a file mapping (zero-copy)
        self.mapped = mapped
        #: the mmap object keeping mapped columns alive (``None`` otherwise)
        self._mm = mapping
        self._runtime = None
        self._tasks = None
        #: the native driver's ctypes pointer arrays over the columns,
        #: built on the first native replay (repro.native.driver)
        self._native = None

    def runtime_columns(self):
        """Indexable ``(ops, args)`` views for the per-point replay loop.

        ``array('q')`` is the compact storage/wire format, but indexing it
        boxes a fresh int per access; replay indexes every operand once per
        replay, so the engine uses list columns where each int is boxed
        once.  Built lazily on first replay and cached — the arrays remain
        the canonical (serialized, hashed) representation.

        For **mapped** programs the views are :class:`_ChunkedColumn`
        windows instead of full lists: same indexing contract, bounded
        boxed-int footprint regardless of trace size.
        """
        rt = self._runtime
        if rt is None:
            if self.mapped:
                rt = ([_ChunkedColumn(o) for o in self.ops],
                      [_ChunkedColumn(a) for a in self.args])
            else:
                rt = ([list(o) for o in self.ops],
                      [list(a) for a in self.args])
            self._runtime = rt
        return rt

    def runtime_task_columns(self):
        """:meth:`runtime_columns` for the task table's blocks."""
        rt = self._tasks
        if rt is None:
            box = _ChunkedColumn if self.mapped else list
            rt = self._tasks = ([box(o) for o in self.task_ops],
                                [box(a) for a in self.task_args])
        return rt

    # ----------------------------------------------------------------- size
    @property
    def n_tasks(self) -> int:
        """Blocks in the task table (0 for programs without one)."""
        return len(self.task_ops)

    def _columns(self):
        return zip(self.ops + self.task_ops, self.args + self.task_args)

    @property
    def total_ops(self) -> int:
        """Stored (post-fusion) operations, task table included."""
        return sum(len(o) for o in self.ops + self.task_ops)

    @property
    def nbytes(self) -> int:
        """Payload size of the flat columns (mapped or materialised)."""
        return sum(o.itemsize * len(o) + a.itemsize * len(a)
                   for o, a in self._columns())

    @property
    def resident_nbytes(self) -> int:
        """What this program charges against the in-memory LRU budget.

        Materialised columns live on the heap and cost their full payload;
        mapped columns live in the shared, evictable page cache and cost a
        token constant.
        """
        return _MAPPED_RESIDENT_BYTES if self.mapped else self.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "mapped" if self.mapped else "materialised"
        return (f"CompiledProgram({self.n_processors} processors, "
                f"{self.total_ops:,} ops, line_size={self.line_size}, "
                f"{kind})")

    # -------------------------------------------------------- serialization
    def _header(self, crc: int, payload_offset: int) -> bytes:
        fields = {
            "n_processors": self.n_processors,
            "line_size": self.line_size,
            "source_ops": self.source_ops,
            "fused_work": self.fused_work,
            "counts": [len(o) for o in self.ops],
            "itemsize": _ITEMSIZE,
            "byteorder": "little",
            "crc32": crc,
            "payload_offset": payload_offset,
        }
        if self.task_ops:  # absent key: task-less blobs stay unchanged
            fields["task_counts"] = [len(o) for o in self.task_ops]
        return json.dumps(fields, sort_keys=True).encode("utf-8")

    def to_bytes(self) -> bytes:
        """Binary encoding: the mmappable ``RPROTRC2`` form.

        Magic, uint32-LE header length, JSON header, zero pad to an
        8-byte boundary, then the raw little-endian int64 columns (per
        processor: ops then args).  Uncompressed and aligned so
        :meth:`from_file` can map it and hand slices to the native kernel
        without a copy.  A task table adds a ``task_counts`` header field
        and follows the processor columns in the payload (per block: ops
        then args).
        """
        payload = b"".join(_le_bytes(col)
                           for pair in self._columns() for col in pair)
        crc = zlib.crc32(payload)
        # the header records its own payload offset; offset depends on
        # header length, so fix-point the (rarely iterating) computation
        offset = 0
        for _ in range(4):
            header = self._header(crc, offset)
            want = _align8(12 + len(header))
            if want == offset:
                break
            offset = want
        pad = b"\0" * (offset - 12 - len(header))
        return (_MAGIC + len(header).to_bytes(4, "little") + header + pad
                + payload)

    @classmethod
    def _decode_header(cls, blob, lo: int = 0):
        """Parse ``(header, payload_start)`` from the blob's framing."""
        hlen = int.from_bytes(bytes(blob[lo + 8:lo + 12]), "little")
        if hlen <= 0 or lo + 12 + hlen > len(blob):
            raise TraceDecodeError("truncated header")
        header = json.loads(bytes(blob[lo + 12:lo + 12 + hlen])
                            .decode("utf-8"))
        if header["itemsize"] != _ITEMSIZE:
            raise TraceDecodeError(
                f"item size {header['itemsize']} != native")
        return header, lo + 12 + hlen

    @classmethod
    def _from_columns(cls, header, cols: list,
                      mapping=None) -> "CompiledProgram":
        """Build a program from decoded columns in payload order."""
        n = 2 * len(header["counts"])
        return cls(cols[0:n:2], cols[1:n:2], header["line_size"],
                   header["source_ops"], header["fused_work"],
                   task_ops=cols[n::2], task_args=cols[n + 1::2],
                   mapped=mapping is not None, mapping=mapping)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CompiledProgram":
        """Inverse of :meth:`to_bytes` — eager decode.

        Raises :class:`TraceDecodeError` on any corruption: bad magic
        (including blobs of a retired format), truncation, malformed
        header, CRC mismatch, or an encoding written by an incompatible
        platform (item size).
        """
        try:
            if bytes(blob[:8]) != _MAGIC:
                raise TraceDecodeError("bad magic")
            header, pos = cls._decode_header(blob)
            offset = header["payload_offset"]
            if offset < pos:
                raise TraceDecodeError("payload overlaps header")
            payload = bytes(blob[offset:])
            swap = sys.byteorder != "little"
            counts = header["counts"]
            task_counts = header.get("task_counts", [])
            if zlib.crc32(payload) != header["crc32"]:
                raise TraceDecodeError("payload CRC mismatch")
            if len(payload) != 2 * _ITEMSIZE * (sum(counts)
                                                + sum(task_counts)):
                raise TraceDecodeError("payload length mismatch")
            cols: list[array] = []
            offset = 0
            for count in counts + task_counts:
                nb = count * _ITEMSIZE
                for _ in range(2):
                    col = array("q")
                    col.frombytes(payload[offset:offset + nb])
                    if swap:
                        col.byteswap()
                    cols.append(col)
                    offset += nb
            return cls._from_columns(header, cols)
        except TraceDecodeError:
            raise
        except Exception as exc:  # truncated/garbled in any other way
            raise TraceDecodeError(f"undecodable trace: {exc!r}") from exc

    @classmethod
    def from_file(cls, path, *, mmap_ok: bool = True) -> "CompiledProgram":
        """Load a stored trace, memory-mapping v2 blobs when possible.

        The mapping is ``ACCESS_COPY`` (private copy-on-write): writable
        from Python's side — which ``ctypes.from_buffer`` requires for the
        zero-copy native hand-off — while the file itself is never
        modified and clean pages remain shared page-cache memory.  Map
        validation is **structural only** (magic, header, section bounds
        against the file size): a truncated blob fails here and degrades
        to a cache miss, while reading every payload byte to CRC it would
        defeat lazy paging — v2 relies on the store's atomic writes, like
        every other consumer.  Blobs with any other magic, big-endian
        hosts, and ``mmap_ok=False`` fall back to an eager
        :meth:`from_bytes` decode (which rejects a foreign magic).

        Raises ``OSError`` if the file cannot be opened (a plain store
        miss) and :class:`TraceDecodeError` for anything wrong past that.
        """
        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != _MAGIC or not mmap_ok or sys.byteorder != "little":
                try:
                    return cls.from_bytes(magic + fh.read())
                except TraceDecodeError:
                    raise
                except Exception as exc:
                    raise TraceDecodeError(
                        f"unreadable trace file: {exc!r}") from exc
            try:
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
            except (OSError, ValueError) as exc:  # empty or unmappable
                raise TraceDecodeError(f"unmappable trace: {exc!r}") from exc
        try:
            header, pos = cls._decode_header(mm)
            counts = header["counts"] + header.get("task_counts", [])
            if header["byteorder"] != "little":
                raise TraceDecodeError("foreign byte order")
            offset = header["payload_offset"]
            need = offset + 2 * _ITEMSIZE * sum(counts)
            if offset < pos or offset % _ITEMSIZE or need != len(mm):
                raise TraceDecodeError("payload length mismatch")
            if hasattr(mm, "madvise"):  # replay touches columns in order
                mm.madvise(mmap.MADV_SEQUENTIAL)
            view = memoryview(mm)
            cols: list[memoryview] = []
            for count in counts:
                nb = count * _ITEMSIZE
                for _ in range(2):
                    cols.append(view[offset:offset + nb].cast("q"))
                    offset += nb
            return cls._from_columns(header, cols, mapping=mm)
        except TraceDecodeError:
            raise
        except Exception as exc:
            raise TraceDecodeError(f"undecodable trace: {exc!r}") from exc


def compile_program(program_factory: ProgramFactory, n_processors: int,
                    line_size: int, fuse_work: bool = True,
                    ) -> CompiledProgram:
    """Drain every processor's generator once into a :class:`CompiledProgram`.

    * READ/WRITE byte addresses become line numbers (``arg // line_size``),
      hoisting the division out of the replay loop entirely;
    * with ``fuse_work`` (the default), a run of consecutive WORK ops
      collapses into one WORK carrying the summed cycles — SPMD emission
      helpers pad spans with WORK, so fusion typically removes 10-30% of
      stored ops;
    * operand validation (negative WORK, unknown opcode) happens here, at
      compile time, so the replay loop never re-checks it.

    The drain is **barrier-phased**, mirroring the engine's interleaving at
    the granularity that matters: several applications (Radix's parallel
    prefix, Barnes' tree phases, the task-grid codes) compute shared Python
    state in one barrier phase that the next phase's streams read, so no
    generator may run ahead of a barrier until every generator has reached
    it.  Within a phase, generators advance in processor order — safe
    because SPMD phases are race-free between barriers (that is what the
    barrier is *for*; an app whose stream content depended on intra-phase
    timing would not be deterministic across machine organisations in the
    first place, and the equivalence suite would catch it).

    Raytrace and Volrend, whose tile→processor assignment *does* depend
    on simulated lock order, still drain here: :func:`compile_task_program`
    runs this drain once over their own columns and once over their task
    blocks, and GRAB (accepted here, not counted in ``source_ops``)
    resolves the assignment at replay time.
    """
    if n_processors <= 0:
        raise ValueError("n_processors must be positive")
    if line_size <= 0:
        raise ValueError("line_size must be positive")
    all_ops = [array("q") for _ in range(n_processors)]
    all_args = [array("q") for _ in range(n_processors)]
    gens = [iter(program_factory(pid)) for pid in range(n_processors)]
    prev_was_work = [False] * n_processors
    source_ops = 0
    running = list(range(n_processors))
    while running:
        still_running = []
        for pid in running:
            ops = all_ops[pid]
            args = all_args[pid]
            append_op = ops.append
            append_arg = args.append
            was_work = prev_was_work[pid]
            for opcode, arg in gens[pid]:
                source_ops += 1
                if opcode == OP_WORK:
                    if arg < 0:
                        raise ValueError(f"negative WORK cycles: {arg}")
                    if fuse_work and was_work:
                        args[-1] += arg
                        continue
                    was_work = True
                else:
                    was_work = False
                    if opcode == OP_READ or opcode == OP_WRITE:
                        arg //= line_size
                    elif opcode == OP_GRAB:
                        source_ops -= 1  # compiled-only: no generator op
                    elif not 0 <= opcode < OP_GRAB:
                        raise ValueError(f"unknown opcode {opcode}")
                append_op(opcode)
                append_arg(arg)
                if opcode == OP_BARRIER:
                    still_running.append(pid)
                    break
            prev_was_work[pid] = was_work
        running = still_running
    return CompiledProgram(all_ops, all_args, line_size, source_ops,
                           fuse_work)


def compile_task_program(program_factory: ProgramFactory,
                         task_factory: ProgramFactory, n_tasks: int,
                         n_processors: int, line_size: int,
                         fuse_work: bool = True) -> CompiledProgram:
    """Capture a task-queue program: own columns plus a task table.

    ``program_factory(pid)`` yields processor ``pid``'s own column, with
    :data:`~repro.sim.program.OP_GRAB` where the generator path would
    read its task counter; ``task_factory(k)`` yields block ``k``, which
    must end with a GRAB.  Both drain through :func:`compile_program`
    (same line division, WORK fusion and validation), so one capture
    needs no memory model and no engine run.  ``source_ops`` counts the
    ops a generator run would yield, GRABs excluded.
    """
    own = compile_program(program_factory, n_processors, line_size,
                          fuse_work)
    if n_tasks <= 0:
        return own
    table = compile_program(task_factory, n_tasks, line_size, fuse_work)
    return CompiledProgram(own.ops, own.args, line_size,
                           own.source_ops + table.source_ops, fuse_work,
                           task_ops=table.ops, task_args=table.args)


class ProgramRecorder:
    """Capture a program's streams *while* an engine executes them.

    The barrier-phased drain of :func:`compile_program` is correct only for
    applications whose streams are independent of intra-phase timing.
    Barnes violates that: its tree build inserts bodies under locks, and
    the addresses of the cells it creates depend on the simulated
    insertion order — something only a real engine run knows.
    (Raytrace and Volrend grab tiles the same way, but a tile's stream
    does not depend on who grabs it; they capture a task table with
    :func:`compile_task_program` instead.)  For Barnes, wrap the
    factory::

        recorder = ProgramRecorder(app.program, n, line_size)
        result = engine.run(recorder.factory)
        program = recorder.finish()

    ``factory`` is a drop-in :data:`~repro.sim.program.ProgramFactory` that
    transparently appends every yielded op (with the same line-division and
    WORK fusion as :func:`compile_program`) before handing it to the
    engine, so the capture is the *executed* interleaving by construction
    and replaying it on an identically-configured machine is bit-identical.
    """

    def __init__(self, program_factory: ProgramFactory, n_processors: int,
                 line_size: int, fuse_work: bool = True) -> None:
        if n_processors <= 0:
            raise ValueError("n_processors must be positive")
        if line_size <= 0:
            raise ValueError("line_size must be positive")
        self._factory = program_factory
        self.n_processors = n_processors
        self.line_size = line_size
        self.fuse_work = fuse_work
        self._ops = [array("q") for _ in range(n_processors)]
        self._args = [array("q") for _ in range(n_processors)]
        self._source_ops = 0

    def factory(self, pid: int):
        """The recording wrapper around ``program_factory(pid)``."""
        ops = self._ops[pid]
        args = self._args[pid]
        fuse = self.fuse_work
        line_size = self.line_size
        was_work = False
        for op in self._factory(pid):
            opcode, arg = op
            self._source_ops += 1
            if opcode == OP_WORK:
                if fuse and was_work:
                    args[-1] += arg
                    yield op
                    continue
                was_work = True
                ops.append(opcode)
                args.append(arg)
            else:
                was_work = False
                ops.append(opcode)
                args.append(arg // line_size
                            if opcode == OP_READ or opcode == OP_WRITE
                            else arg)
            yield op

    def finish(self) -> CompiledProgram:
        """The capture as a :class:`CompiledProgram` (call after the run)."""
        return CompiledProgram(self._ops, self._args, self.line_size,
                               self._source_ops, self.fuse_work)


# --------------------------------------------------------------------- keys

def trace_key(app: str, app_kwargs: Mapping[str, Any], config: Any,
              seed: int, version: str | None = None,
              stream_invariant: bool = True) -> str:
    """Content hash identifying one compiled trace.

    Covers the package version, the application and its problem kwargs, the
    application seed, and the machine fields the reference stream actually
    depends on (:meth:`MachineConfig.trace_signature`).  Cluster size,
    cache capacity, associativity, latency table, and network model are
    deliberately **absent** — that is what lets a clustering sweep reuse
    one trace across its whole grid.

    With ``stream_invariant=False`` (Barnes, whose executed streams
    depend on simulated timing) the key instead covers the **complete**
    machine configuration: such a capture is only replayable at the exact
    configuration that recorded it.  Task-table captures (Raytrace,
    Volrend) are stream-invariant and key on the trace signature, so one
    capture serves a whole cluster × cache grid and every protocol.
    """
    if version is None:
        from .._version import __version__ as version
    payload = {
        "version": version,
        "app": app,
        "app_kwargs": dict(app_kwargs),
        "seed": seed,
        "stream": (config.trace_signature() if stream_invariant
                   else config.to_dict()),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -------------------------------------------------------- process-wide LRU

_memory_lru: OrderedDict[str, CompiledProgram] = OrderedDict()
_memory_lru_bytes = 0


def _byte_budget() -> int:
    try:
        return max(1, int(os.environ.get(ENV_TRACE_LRU_BYTES,
                                         _DEFAULT_LRU_BYTES)))
    except ValueError:
        return _DEFAULT_LRU_BYTES


def _mmap_enabled() -> bool:
    return os.environ.get(ENV_TRACE_MMAP, "1") != "0"


def clear_memory_cache() -> None:
    """Drop every in-memory trace (tests and cold benchmarks use this)."""
    global _memory_lru_bytes
    _memory_lru.clear()
    _memory_lru_bytes = 0


def memory_cache_len() -> int:
    """Number of traces currently held by the in-memory LRU."""
    return len(_memory_lru)


def memory_cache_bytes() -> int:
    """Resident bytes charged against the LRU budget (mapped ≈ 0)."""
    return _memory_lru_bytes


def trace_cache_info() -> dict[str, Any]:
    """Process-wide trace-LRU accounting (daemon ``/stats``, diagnostics)."""
    return {
        "entries": len(_memory_lru),
        "mapped_entries": sum(1 for p in _memory_lru.values() if p.mapped),
        "resident_bytes": _memory_lru_bytes,
        "payload_bytes": sum(p.nbytes for p in _memory_lru.values()),
        "budget_bytes": _byte_budget(),
    }


class TraceCache:
    """Two-tier cache of compiled programs.

    Tier 1 is a **process-wide** LRU of live :class:`CompiledProgram`
    objects — shared by every ``TraceCache`` instance in the process, so a
    study, its executor, and a process-pool worker all see each other's
    compilations.  It is bounded by a **byte budget**
    (:data:`ENV_TRACE_LRU_BYTES`, default 256 MiB of
    :attr:`~CompiledProgram.resident_nbytes`).  Tier 2 is
    an optional :class:`~repro.core.resultcache.TraceStore` on disk, which
    is what lets separate ``--jobs`` worker processes and separate CLI
    invocations reuse traces.  Disk loads of current-format blobs are
    **memory-mapped** (zero-copy, ~0 resident cost; disable with
    ``REPRO_TRACE_MMAP=0``).

    Instances are cheap and picklable (the LRU is module state, the store
    carries only a path), so executors ship them to pool workers as-is.
    """

    def __init__(self, store: TraceStore | None = None) -> None:
        self.store = store
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0

    def _load_disk(self, key: str, warn: bool) -> CompiledProgram | None:
        """Map or decode the store's blob for ``key`` (``None`` on miss).

        Maintains the store's hit/miss counters exactly like
        ``store.get_bytes``: unreadable file ⇒ store miss; readable but
        undecodable ⇒ store hit that this cache degrades to a miss.
        """
        store = self.store
        if not _mmap_enabled():
            blob = store.get_bytes(key)
            if blob is None:
                return None
            try:
                return CompiledProgram.from_bytes(blob)
            except TraceDecodeError as exc:
                if warn:
                    self._warn_corrupt(key, exc)
                return None
        try:
            program = CompiledProgram.from_file(store.path_for(key))
        except OSError:
            store.misses += 1
            return None
        except TraceDecodeError as exc:
            store.hits += 1
            if warn:
                self._warn_corrupt(key, exc)
            return None
        store.hits += 1
        return program

    @staticmethod
    def _warn_corrupt(key: str, exc: Exception) -> None:
        warnings.warn(f"discarding corrupt compiled trace {key[:12]}… "
                      f"({exc}); regenerating", stacklevel=4)

    def get(self, key: str) -> CompiledProgram | None:
        """The cached program for ``key``, or ``None`` (counted as a miss).

        A corrupt disk entry degrades to a miss with a ``UserWarning``; the
        caller recompiles and :meth:`put` overwrites the bad entry.
        """
        program = _memory_lru.get(key)
        if program is not None:
            _memory_lru.move_to_end(key)
            self.memory_hits += 1
            return program
        if self.store is not None:
            program = self._load_disk(key, warn=True)
            if program is not None:
                self._remember(key, program)
                self.disk_hits += 1
                return program
        self.misses += 1
        return None

    def preload(self, key: str) -> CompiledProgram | None:
        """Make ``key`` resident in the in-memory LRU, without stats.

        Fork-server warmup: the sweep parent calls this for every disk-
        resident trace *before* the worker pool forks, so workers inherit
        the programs copy-on-write instead of each re-reading the
        :class:`~repro.core.resultcache.TraceStore` per point (mapped
        programs share their column pages outright — parent and every
        worker map the same page-cache pages).  Unlike :meth:`get` it
        never touches this cache's hit/miss counters (warmup is not
        demand traffic) and a corrupt disk entry is silently left for the
        demand path to report.  Returns the resident program, or ``None``
        when the trace is neither in memory nor on disk.
        """
        program = _memory_lru.get(key)
        if program is not None:
            _memory_lru.move_to_end(key)
            return program
        if self.store is None:
            return None
        program = self._load_disk(key, warn=False)
        if program is None:
            return None
        self._remember(key, program)
        return program

    def put(self, key: str, program: CompiledProgram) -> None:
        """Install ``program`` in both tiers (disk failures are swallowed)."""
        self._remember(key, program)
        if self.store is not None:
            self.store.put_bytes(key, program.to_bytes())

    @staticmethod
    def _remember(key: str, program: CompiledProgram) -> None:
        global _memory_lru_bytes
        old = _memory_lru.pop(key, None)
        if old is not None:
            _memory_lru_bytes -= old.resident_nbytes
        _memory_lru[key] = program
        _memory_lru_bytes += program.resident_nbytes
        budget = _byte_budget()
        while len(_memory_lru) > 1 and _memory_lru_bytes > budget:
            _, evicted = _memory_lru.popitem(last=False)
            _memory_lru_bytes -= evicted.resident_nbytes

    # ------------------------------------------------------------- plumbing
    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def stats(self) -> str:
        """``'N memory + M disk hits, K misses'`` summary for logs."""
        return (f"{self.memory_hits} memory + {self.disk_hits} disk hits, "
                f"{self.misses} misses")

    def __repr__(self) -> str:  # pragma: no cover
        return f"TraceCache(store={self.store!r}, {self.stats()})"
