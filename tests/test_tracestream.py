"""Streaming traces: the mmappable v2 format, chunked replay, byte budget.

The contract of the out-of-core trace layer is that *where the columns
live is unobservable*: a program decoded eagerly from v2 bytes or
memory-mapped and consumed through chunked windows must replay to
byte-identical results.  These
tests pin that contract, the corruption-degrades-to-miss behaviour the
cache relies on, and the byte-budget LRU accounting that makes mapped
traces ~free to keep resident.
"""

import array
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MachineConfig
from repro.core.executor import evaluate_point
from repro.core.resultcache import TraceStore
from repro.runtime import RunRequest
from repro.sim.compiled import (ENV_TRACE_LRU_BYTES, ENV_TRACE_MMAP,
                                CompiledProgram, TraceCache,
                                TraceDecodeError, clear_memory_cache,
                                memory_cache_bytes, trace_cache_info,
                                trace_key)
from repro.sim.program import OP_GRAB

from test_compiled import TINY_SIZES, capture

INT64 = st.integers(-(2 ** 63), 2 ** 63 - 1)


def make_program(columns, line_size=32, tasks=()):
    """A CompiledProgram over explicit per-processor (ops, args) columns
    and, optionally, task blocks in the same spelling."""
    def q(cols, i):
        return [array.array("q", c[i]) for c in cols]

    total = sum(len(c[0]) for c in columns)
    return CompiledProgram(q(columns, 0), q(columns, 1), line_size,
                           source_ops=total, fused_work=False,
                           task_ops=q(tasks, 0), task_args=q(tasks, 1))


def columns_of(program):
    """Fully boxed (ops, args) per processor, whatever the backing."""
    return [([int(v) for v in o], [int(v) for v in a])
            for o, a in zip(*program.runtime_columns())]


def tasks_of(program):
    """Fully boxed (ops, args) per task block, whatever the backing."""
    return [([int(v) for v in o], [int(v) for v in a])
            for o, a in zip(*program.runtime_task_columns())]


@st.composite
def column_sets(draw):
    n_proc = draw(st.integers(1, 4))
    cols = []
    for _ in range(n_proc):
        n = draw(st.integers(0, 40))
        cols.append((draw(st.lists(INT64, min_size=n, max_size=n)),
                     draw(st.lists(INT64, min_size=n, max_size=n))))
    return cols


class TestFormatRoundTrip:
    """Eager and mapped decodes of the mmappable encoding."""

    @given(columns=column_sets())
    @settings(max_examples=40, deadline=None)
    def test_eager_decode_equal(self, columns):
        program = make_program(columns)
        decoded = CompiledProgram.from_bytes(program.to_bytes())
        assert columns_of(decoded) == columns
        assert decoded.n_processors == program.n_processors
        assert decoded.line_size == program.line_size
        assert decoded.source_ops == program.source_ops
        assert decoded.fused_work == program.fused_work
        assert not decoded.mapped

    @given(columns=column_sets())
    @settings(max_examples=20, deadline=None)
    def test_mapped_file_decode_equal(self, columns, tmp_path_factory):
        program = make_program(columns)
        path = tmp_path_factory.mktemp("blob") / "t.trace"
        path.write_bytes(program.to_bytes())
        mapped = CompiledProgram.from_file(path)
        assert mapped.mapped
        assert columns_of(mapped) == columns
        eager = CompiledProgram.from_file(path, mmap_ok=False)
        assert not eager.mapped
        assert columns_of(eager) == columns

    def test_v2_blob_is_uncompressed_and_aligned(self):
        program = make_program([([1, 2, 3], [4, 5, 6])])
        blob = program.to_bytes()
        assert blob[:8] == b"RPROTRC2"
        # payload: 2 columns x 3 int64 at an 8-aligned offset
        payload = array.array("q", [1, 2, 3, 4, 5, 6])
        if sys.byteorder == "big":
            payload.byteswap()
        assert blob.endswith(payload.tobytes())
        assert (len(blob) - 6 * 8) % 8 == 0

    def test_chunked_windows_match_boxed(self, tmp_path):
        n = 10_000  # several 4096-entry chunks per column
        vals = list(range(n))
        program = make_program([(vals, vals[::-1])])
        path = tmp_path / "t.trace"
        path.write_bytes(program.to_bytes())
        mapped = CompiledProgram.from_file(path)
        ops_cols, args_cols = mapped.runtime_columns()
        assert len(ops_cols[0]) == n
        assert list(ops_cols[0]) == vals
        assert list(args_cols[0]) == vals[::-1]
        assert [ops_cols[0][i] for i in (0, 4095, 4096, n - 1)] == \
            [0, 4095, 4096, n - 1]


@st.composite
def task_blocks(draw):
    """Random task blocks; each ends with a GRAB, as the format requires."""
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 20))
        ops = draw(st.lists(INT64, min_size=n, max_size=n)) + [OP_GRAB]
        blocks.append((ops, draw(st.lists(INT64, min_size=n + 1,
                                          max_size=n + 1))))
    return blocks


#: a pre-task-table v2 blob: task-less programs must keep encoding to it
TASKLESS_SHA256 = ("7f03c5e55f15e354999ff866a466dda2"
                   "85126f5788b3da9e52d2dbfddd3858dd")


class TestTaskTables:
    """The task section of RPROTRC2: round trip, mapping, corruption."""

    @given(columns=column_sets(), tasks=task_blocks())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_eager_and_mapped(self, columns, tasks,
                                         tmp_path_factory):
        program = make_program(columns, tasks=tasks)
        blob = program.to_bytes()
        decoded = CompiledProgram.from_bytes(blob)
        path = tmp_path_factory.mktemp("blob") / "t.trace"
        path.write_bytes(blob)
        mapped = CompiledProgram.from_file(path)
        assert mapped.mapped and not decoded.mapped
        for got in (decoded, mapped):
            assert columns_of(got) == columns
            assert tasks_of(got) == tasks
            assert got.n_tasks == len(tasks)
            assert got.total_ops == program.total_ops
            assert got.nbytes == program.nbytes

    def test_taskless_blobs_are_unchanged(self):
        program = CompiledProgram(
            [array.array("q", [0, 1, 3]), array.array("q", [2])],
            [array.array("q", [5, 7, 0]), array.array("q", [9])],
            64, source_ops=5, fused_work=True)
        blob = program.to_bytes()
        assert b"task_counts" not in blob
        assert hashlib.sha256(blob).hexdigest() == TASKLESS_SHA256

    def _blob(self):
        return make_program([([1, OP_GRAB], [2, 0])],
                            tasks=[([2, OP_GRAB], [5, 0]),
                                   ([0, 1, OP_GRAB], [3, 4, 0])]).to_bytes()

    def test_every_truncation_of_the_task_section_fails(self, tmp_path):
        blob = self._blob()
        task_bytes = 2 * 8 * 5
        path = tmp_path / "t.trace"
        for cut in range(len(blob) - task_bytes, len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(TraceDecodeError):
                CompiledProgram.from_file(path)
            with pytest.raises(TraceDecodeError):
                CompiledProgram.from_bytes(blob[:cut])

    def test_flipped_task_bit_caught_eagerly(self):
        blob = bytearray(self._blob())
        blob[-3] ^= 0x10  # inside the last block's args
        with pytest.raises(TraceDecodeError, match="CRC"):
            CompiledProgram.from_bytes(bytes(blob))

    def test_block_without_trailing_grab_is_rejected(self, tmp_path):
        # a well-framed blob (CRC intact) whose last block ends in WORK:
        # the structural check on load refuses it, mapped or eager
        blob = bytearray(self._blob())
        header_len = int.from_bytes(blob[8:12], "little")
        header = json.loads(blob[12:12 + header_len])
        last_op = header["payload_offset"] + 8 * (2 + 2 + 2 + 2 + 2)
        blob[last_op:last_op + 8] = (0).to_bytes(8, "little")
        path = tmp_path / "t.trace"
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceDecodeError, match="GRAB"):
            CompiledProgram.from_file(path)

    def test_corrupt_task_section_is_a_cache_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put_bytes("deadbeef", self._blob()[:-8])
        cache = TraceCache(store)
        with pytest.warns(UserWarning, match="corrupt compiled trace"):
            assert cache.get("deadbeef") is None
        assert cache.misses == 1


class TestCorruption:
    """Damaged blobs degrade to cache misses, never wrong results."""

    def _store_with_blob(self, tmp_path, blob):
        store = TraceStore(tmp_path)
        store.put_bytes("deadbeef", blob)
        return store

    @pytest.mark.parametrize("mutilate", [
        lambda b: b[: len(b) // 2],          # truncated payload
        lambda b: b[:11],                    # truncated header
        lambda b: b"RPROTRC9" + b[8:],       # wrong magic
        lambda b: b + b"\0" * 8,             # trailing garbage
        lambda b: b"",                       # empty file
    ])
    def test_mapped_corruption_is_a_miss_with_warning(self, tmp_path,
                                                      mutilate):
        good = make_program([([1, 2], [3, 4])]).to_bytes()
        store = self._store_with_blob(tmp_path, mutilate(good))
        cache = TraceCache(store)
        with pytest.warns(UserWarning, match="corrupt compiled trace"):
            assert cache.get("deadbeef") is None
        assert cache.misses == 1

    def test_every_truncation_fails_structurally(self, tmp_path):
        blob = make_program([([7, 8, 9], [1, 2, 3])]).to_bytes()
        path = tmp_path / "t.trace"
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises((TraceDecodeError, OSError)):
                CompiledProgram.from_file(path)

    def test_flipped_payload_bit_caught_eagerly(self):
        blob = bytearray(make_program([([1, 2], [3, 4])]).to_bytes())
        blob[-1] ^= 0x40
        # the eager decoder reads every byte, so the CRC must catch it
        with pytest.raises(TraceDecodeError):
            CompiledProgram.from_bytes(bytes(blob))


class TestReplayIdentity:
    """Mapped replay is byte-identical to materialized, all nine apps."""

    @pytest.mark.parametrize("name", sorted(TINY_SIZES))
    def test_mapped_vs_materialized(self, name, tmp_path, monkeypatch):
        cfg = MachineConfig(n_processors=4, cluster_size=2,
                            cache_kb_per_processor=4)
        spec = RunRequest.make(name, 2, 4.0, dict(TINY_SIZES[name]))
        store = TraceStore(tmp_path)

        monkeypatch.setenv(ENV_TRACE_MMAP, "0")
        clear_memory_cache()
        captured = evaluate_point(spec, cfg,
                                  trace_cache=TraceCache(store)).to_json()
        clear_memory_cache()
        materialized = evaluate_point(spec, cfg,
                                      trace_cache=TraceCache(store))

        monkeypatch.setenv(ENV_TRACE_MMAP, "1")
        clear_memory_cache()
        cache = TraceCache(store)
        mapped = evaluate_point(spec, cfg, trace_cache=cache)
        assert cache.disk_hits == 1  # really served from the v2 blob
        info = trace_cache_info()
        assert info["mapped_entries"] == 1

        assert mapped.to_json() == materialized.to_json() == captured
        clear_memory_cache()

    def test_capture_pass_equals_mapped_disk_pass(self, tmp_path,
                                                  monkeypatch):
        """The first (capture) pass and a later mapped pass agree."""
        monkeypatch.setenv(ENV_TRACE_MMAP, "1")
        cfg = MachineConfig(n_processors=4, cluster_size=2)
        spec = RunRequest.make("lu", 2, None, dict(TINY_SIZES["lu"]))
        store = TraceStore(tmp_path)
        clear_memory_cache()
        first = evaluate_point(spec, cfg, trace_cache=TraceCache(store))
        clear_memory_cache()
        second = evaluate_point(spec, cfg, trace_cache=TraceCache(store))
        assert first.to_json() == second.to_json()
        clear_memory_cache()


class TestByteBudget:
    """The in-memory LRU charges resident bytes, not entries."""

    def _programs(self, cfg, names=("lu", "fft")):
        return {n: capture(n, cfg) for n in names}

    def test_materialized_bytes_counted_and_evicted(self, cfg4,
                                                    monkeypatch):
        programs = self._programs(cfg4)
        nbytes = {n: p.resident_nbytes for n, p in programs.items()}
        assert all(v > 0 for v in nbytes.values())
        # a budget that fits exactly one of the two programs
        budget = max(nbytes.values())
        monkeypatch.setenv(ENV_TRACE_LRU_BYTES, str(budget))
        clear_memory_cache()
        cache = TraceCache()
        for name, program in programs.items():
            cache.put(trace_key(name, TINY_SIZES[name], cfg4, 12345),
                      program)
        info = trace_cache_info()
        assert info["entries"] == 1  # the first program was evicted
        assert info["budget_bytes"] == budget
        assert memory_cache_bytes() <= budget
        clear_memory_cache()

    def test_overbudget_single_entry_survives(self, cfg4, monkeypatch):
        monkeypatch.setenv(ENV_TRACE_LRU_BYTES, "1")
        clear_memory_cache()
        cache = TraceCache()
        program = capture("lu", cfg4)
        cache.put(trace_key("lu", TINY_SIZES["lu"], cfg4, 12345), program)
        # eviction never empties the cache below one live entry
        assert trace_cache_info()["entries"] == 1
        clear_memory_cache()

    def test_mapped_entry_is_nearly_free(self, cfg4, tmp_path,
                                         monkeypatch):
        monkeypatch.setenv(ENV_TRACE_MMAP, "1")
        program = capture("lu", cfg4)
        store = TraceStore(tmp_path)
        key = trace_key("lu", TINY_SIZES["lu"], cfg4, 12345)
        store.put_bytes(key, program.to_bytes())
        clear_memory_cache()
        cache = TraceCache(store)
        mapped = cache.get(key)
        assert mapped is not None and mapped.mapped
        info = trace_cache_info()
        assert info["mapped_entries"] == 1
        assert info["resident_bytes"] < 64 * 1024
        assert info["payload_bytes"] >= program.resident_nbytes
        clear_memory_cache()


@pytest.mark.medium
class TestPaperScale:
    """Paper-scale smoke: the workload the streaming layer exists for."""

    def test_lu_512_mapped_replay_bounded_rss(self, tmp_path):
        """512x512 LU replays through the mapping under a firm RSS lid.

        Capture and measurement run in fresh child processes because
        ``ru_maxrss`` is a process-lifetime high-water mark; the mapped
        child must stay under an absolute ceiling *and* under the
        materialized child's peak.
        """
        payload = {"app": "lu", "cluster_size": 4, "cache_kb": 4.0,
                   "kwargs": {"n": 512, "block": 16}, "n_processors": 64,
                   "store_dir": str(tmp_path), "mode": "capture"}

        def child(payload, mmap_flag):
            env = os.environ.copy()
            env["PYTHONPATH"] = str(
                Path(__file__).resolve().parent.parent / "src")
            env["REPRO_TRACE_MMAP"] = mmap_flag
            env["REPRO_NATIVE"] = "0"
            proc = subprocess.run(
                [sys.executable, "-m", "repro.core.bench", "--trace-child",
                 json.dumps(payload)],
                capture_output=True, text=True, env=env, check=True)
            return json.loads(proc.stdout)

        captured = child(payload, "1")
        blob = next(Path(tmp_path, "traces").glob("*.trace"))
        assert blob.stat().st_size > 20e6  # genuinely paper-scale

        payload = dict(payload, mode="measure", blob=str(blob))
        mapped = child(payload, "1")
        materialized = child(payload, "0")

        assert mapped["result"] == materialized["result"] \
            == captured["result"]
        # the mapped child never boxes the whole trace: firm absolute
        # ceiling (the trace alone is ~46 MB; boxing it costs hundreds)
        assert mapped["maxrss_kb"] < 250 * 1024
        assert mapped["maxrss_kb"] < materialized["maxrss_kb"]


def test_module_hygiene():
    """No test above leaks LRU state into the rest of the suite."""
    clear_memory_cache()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert trace_cache_info()["entries"] == 0
