"""The traced run: spans around calls into each layer's public functions.

Nothing inside ``src/`` is instrumented. :func:`install` replaces, for
the length of one traced round, each public function listed in
:func:`_targets` with a wrapper, patched where the caller looks the
name up: a method on its class, or a function in the namespace of the
module that calls it (``repro.lsm.sstable.compress_block``, not
``repro.lsm.block.compress_block``). :func:`uninstall` puts every
original back, so untraced rounds in the same process run clean code.

A span is (name, start, end, parent); spans nest on the main thread's
call stack. A span's *self time* is its duration minus the time its
child spans cover, so the self times of all spans under a root add up
to the root's duration. Each traced round opens two roots, ``setup``
and ``measured``, and the per-layer figures come from the spans under
``measured``. Calls made on other threads (the ``thread`` background
executor) are timed but not nested; their total is reported apart.
"""

from __future__ import annotations

import json
import threading
import time
from array import array
from pathlib import Path

from repro.lsm.statistics import Ticker

#: Whose per-call durations are kept for host latency percentiles.
LATENCY_SPAN = "lsm.get"


class SpanRecorder:
    """Records spans in memory; :meth:`flush` appends them to a file."""

    def __init__(self, out_path: Path | None = None) -> None:
        self.out_path = out_path
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._stack: list[list] = []  # [span index, child seconds]
        self.run_id = 0
        self._reset_arrays()
        self.phase = "idle"
        #: phase -> name id -> [calls, self seconds, total seconds]
        self.agg: dict[str, dict[int, list]] = {}
        self._agg_phase = self.agg.setdefault("idle", {})
        self.get_durations = array("d")
        #: Seconds spent in wrapped calls on non-main threads, by name.
        self.off_thread_s: dict[str, float] = {}
        #: Engine tickers and gauges summed over DBs closed while measured.
        self.db_totals: dict[str, float] = {}
        self._latency_id = self.name_id(LATENCY_SPAN)

    def _reset_arrays(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans -------------------------------------------------------------

    def _open(self, nid: int) -> list:
        stack = self._stack
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0.0)
        entry = [idx, 0.0]
        stack.append(entry)
        self.span_start.append(time.perf_counter())
        return entry

    def _close(self, nid: int, entry: list) -> None:
        t1 = time.perf_counter()
        stack = self._stack
        stack.pop()
        idx = entry[0]
        self.span_end[idx] = t1
        dur = t1 - self.span_start[idx]
        row = self._agg_phase.get(nid)
        if row is None:
            row = self._agg_phase[nid] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += dur - entry[1]
        row[2] += dur
        if nid == self._latency_id and self.phase == "measured":
            self.get_durations.append(dur)
        if stack:
            stack[-1][1] += dur

    def call(self, nid: int, fn, args, kwargs):
        if threading.get_ident() != self._main:
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                with self._lock:
                    name = self.names[nid]
                    self.off_thread_s[name] = (
                        self.off_thread_s.get(name, 0.0)
                        + time.perf_counter() - t0
                    )
        entry = self._open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(nid, entry)

    def begin_root(self, phase: str) -> None:
        """Open a root span; spans until :meth:`end_root` belong to it."""
        if self._stack:
            raise RuntimeError(f"root {phase!r} opened inside another span")
        self.phase = phase
        self._agg_phase = self.agg.setdefault(phase, {})
        self._root_nid = self.name_id(phase)
        self._root_entry = self._open(self._root_nid)

    def end_root(self) -> None:
        if len(self._stack) != 1:
            raise RuntimeError("root closed with spans still open")
        self._close(self._root_nid, self._root_entry)
        self.phase = "idle"
        self._agg_phase = self.agg.setdefault("idle", {})

    def begin(self, name: str, phase: str | None = None) -> list:
        """Open a span by hand; with ``phase``, its whole subtree is
        aggregated under that phase instead of the current one."""
        nid = self.name_id(name)
        token = [nid, self._open(nid), self.phase]
        if phase is not None:
            self.phase = phase
            self._agg_phase = self.agg.setdefault(phase, {})
        return token

    def end(self, token: list) -> None:
        nid, entry, phase = token
        self._close(nid, entry)
        self.phase = phase
        self._agg_phase = self.agg.setdefault(phase, {})

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        call = self.call

        def wrapper(*args, **kwargs):
            return call(nid, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- output ------------------------------------------------------------

    def flush(self) -> None:
        """Append this round's spans to :attr:`out_path` and drop them.

        Format: one JSON header line (run id, name table, span count),
        then the name, parent, start and end arrays in native byte
        order, each ``count`` items long.
        """
        count = len(self.span_start)
        if self.out_path is not None and count:
            self.out_path.parent.mkdir(parents=True, exist_ok=True)
            header = {
                "run_id": self.run_id, "names": self.names, "count": count,
                "arrays": ["name:i", "parent:i", "start:d", "end:d"],
            }
            with open(self.out_path, "ab") as f:
                f.write(json.dumps(header).encode() + b"\n")
                for arr in (self.span_name, self.span_parent,
                            self.span_start, self.span_end):
                    arr.tofile(f)
        self._reset_arrays()
        self.run_id += 1

    def phase_self(self, phase: str) -> dict[str, list]:
        """name -> [calls, self s, total s] for one phase."""
        return {
            self.names[nid]: row for nid, row in self.agg.get(phase, {}).items()
        }


class NullSpans:
    """Stand-in for untraced rounds: every hook is a no-op."""

    def begin_root(self, phase: str) -> None:
        pass

    def end_root(self) -> None:
        pass

    def begin(self, name: str, phase: str | None = None) -> None:
        return None

    def end(self, token) -> None:
        pass


NULL_SPANS = NullSpans()


# -- patching -----------------------------------------------------------------


def _targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped public function."""
    import repro.bench.keygen as keygen
    import repro.bench.runner as runner
    import repro.core.prompt as prompt
    import repro.core.safeguard as safeguard
    import repro.core.tuner as tuner
    import repro.llm.simulated as simulated
    import repro.lsm.db as db
    import repro.lsm.perf_model as perf_model
    import repro.lsm.sstable as sstable
    import repro.obs.tracer as tracer

    targets = [
        (keygen.UniformKeys, "next_key", "bench.keygen"),
        (keygen.ValueGenerator, "next_value", "bench.keygen"),
        (runner.DbBench, "run", "bench.dbbench"),
        (tuner, "render_report", "bench.report"),
        (tuner, "parse_report", "bench.report"),
        (db.DB, "open", "lsm.open"),
        (db.DB, "put", "lsm.put"),
        (db.DB, "get", "lsm.get"),
        (db.DB, "write", "lsm.write"),
        (db.DB, "flush", "lsm.flush_call"),
        (db, "execute_flush_job", "lsm.flush_job"),
        (db, "execute_compaction_job", "lsm.compaction_job"),
        (sstable, "compress_block", "lsm.compress"),
        (sstable, "decompress_block", "lsm.decompress"),
        (sstable, "decode_block", "lsm.decode_block"),
        (prompt.PromptGenerator, "build", "core.prompt"),
        (simulated.SimulatedExpert, "complete", "llm.complete"),
        (tuner, "extract_changes", "core.parse"),
        (safeguard.SafeguardEnforcer, "vet", "core.safeguard"),
        (tracer.Tracer, "emit", "obs.emit"),
    ]
    for attr, value in vars(perf_model.PerfModel).items():
        if not attr.startswith("_") and callable(value):
            targets.append((perf_model.PerfModel, attr, "lsm.perf_model"))
    return targets


def install(rec: SpanRecorder) -> list[tuple[object, str, object]]:
    """Patch every target; returns what :func:`uninstall` restores."""
    from repro.lsm.db import DB

    undo = []
    for owner, attr, name in _targets():
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            patched = classmethod(rec.wrap(name, original.__func__))
        else:
            patched = rec.wrap(name, original)
        undo.append((owner, attr, original))
        setattr(owner, attr, patched)
    original_close = vars(DB)["close"]
    close_span = rec.wrap("lsm.close", original_close)

    def close(self):
        if self.closed:
            return None
        out = close_span(self)
        if rec.phase == "measured":
            _add_db_totals(rec.db_totals, self)
        return out

    undo.append((DB, "close", original_close))
    DB.close = close
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _add_db_totals(totals: dict[str, float], db) -> None:
    stats = db.statistics
    add = {
        "cache_hit": stats.ticker(Ticker.BLOCK_CACHE_HIT),
        "cache_miss": stats.ticker(Ticker.BLOCK_CACHE_MISS),
        "bloom_checked": stats.ticker(Ticker.BLOOM_CHECKED),
        "bloom_useful": stats.ticker(Ticker.BLOOM_USEFUL),
        "flush_count": stats.ticker(Ticker.FLUSH_COUNT),
        "compaction_count": stats.ticker(Ticker.COMPACTION_COUNT),
        "compaction_bytes": stats.ticker(Ticker.COMPACTION_BYTES_WRITTEN),
        "evictions": db.block_cache.evictions,
        "join_stall_s": db.background_stats["join_stall_seconds"],
    }
    for key, value in add.items():
        totals[key] = totals.get(key, 0) + value
