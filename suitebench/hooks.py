"""Call-boundary hooks around the simulator's layers, installed from outside.

Nothing under ``src/`` knows about these hooks: :func:`install` replaces
public functions and methods of ``repro`` with wrappers that

* always count calls and the work a call carries (rows solved,
  interpreter batches, bank invocations), so every timed run records
  the deterministic work counters beside its timing;
* in trace mode, also record a span per call (name, start, end, parent)
  kept in memory, and charge each span's duration to its parent so a
  layer's self time is its span minus the part its child spans cover.

Very hot per-access boundaries (coherence directory updates, SAC's
per-access observer) are *aggregated*: they feed counts and self times
but emit no individual span, so a trace stays a few MB.

Pool workers are forked from the parent after :func:`install`, so they
carry the same wrappers.  A worker rewrites ``<dump_dir>/worker-<pid>.json``
with everything it recorded after every task, and the parent merges
those files with :func:`merge_worker_dumps`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

_now = time.perf_counter


class Recorder:
    """Counters, inclusive/self times and spans of one process."""

    def __init__(self, trace: bool, dump_dir: Path) -> None:
        self.trace = trace
        self.dump_dir = dump_dir
        #: The process that installed the hooks; pool workers differ.
        self.owner = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.counts: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Emitted spans: (name, start, end, span_id, parent_id).
        self.spans: List[Tuple[str, float, float, int, int]] = []
        #: Open spans: [name, start, child_seconds, span_id].
        self._stack: List[List[Any]] = []
        self._next_id = 1
        #: (label, timestamp) of every completed matrix pair.
        self.marks: List[Tuple[str, float]] = []

    # -- Span bookkeeping (trace mode only) --------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, _now(), 0.0, self._next_id])
        self._next_id += 1

    def leave(self, emit: bool) -> None:
        name, start, child, span_id = self._stack.pop()
        end = _now()
        duration = end - start
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        if emit:
            self.spans.append((name, start, end, span_id, parent_id))

    # -- Worker dumps -------------------------------------------------------

    def adopt_worker(self) -> None:
        """Drop state inherited through ``fork`` the first time a pool
        worker runs a task."""
        if self.pid != os.getpid():
            self._reset()

    def dump(self) -> None:
        """Write everything this worker recorded so far."""
        record = {"pid": self.pid, "counts": self.counts,
                  "total_s": self.total_s, "self_s": self.self_s,
                  "spans": self.spans}
        path = self.dump_dir / f"worker-{self.pid}.json"
        path.write_text(json.dumps(record), encoding="utf-8")


def merge_worker_dumps(recorder: Recorder) -> Dict[int, List[Any]]:
    """Fold every worker's record into ``recorder``; returns the worker
    spans by pid."""
    spans: Dict[int, List[Any]] = {}
    for path in sorted(recorder.dump_dir.glob("worker-*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        for table in ("counts", "total_s", "self_s"):
            mine = getattr(recorder, table)
            for name, value in record[table].items():
                mine[name] += value
        spans[record["pid"]] = record["spans"]
    return spans


# -- Wrappers ----------------------------------------------------------------

def _plain(rec: Recorder, name: str, fn: Callable[..., Any],
           emit: bool = True) -> Callable[..., Any]:
    """Count (and in trace mode, time) every call of ``fn``."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        rec.counts[name] += 1
        if not rec.trace:
            return fn(*args, **kwargs)
        rec.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leave(emit)
    return wrapper


def _bank_call(rec: Recorder, name: str, fn: Callable[..., Any],
               rows_of: Callable[..., int]) -> Callable[..., Any]:
    """A ``VectorBank`` entry point: also counts rows and the bank's own
    interpreter-batch counter, read before and after the call (so each
    batch is counted once per bank, never once per lane)."""

    @functools.wraps(fn)
    def wrapper(bank: Any, *args: Any, **kwargs: Any) -> Any:
        rec.counts[name] += 1
        rec.counts["vector.rows"] += rows_of(*args, **kwargs)
        before = bank.set_replay_batches
        if rec.trace:
            rec.enter(name)
            try:
                result = fn(bank, *args, **kwargs)
            finally:
                rec.leave(True)
        else:
            result = fn(bank, *args, **kwargs)
        rec.counts["vector.interp_batches"] += (bank.set_replay_batches
                                                - before)
        return result
    return wrapper


def _generator(rec: Recorder, name: str,
               fn: Callable[..., Any]) -> Callable[..., Any]:
    """A generator function: in trace mode every resumption is a span,
    so only the time the generator's own frame runs is attributed."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        rec.counts[name] += 1
        gen = fn(*args, **kwargs)
        if not rec.trace:
            return (yield from gen)
        sent: Any = None
        try:
            while True:
                rec.enter(name)
                try:
                    item = gen.send(sent)
                except StopIteration as stop:
                    return stop.value
                finally:
                    rec.leave(True)
                sent = yield item
        finally:
            gen.close()
    return wrapper


def _stacked(rec: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``simulate_stacked``: a span plus the dispatch counters of the
    returned ``StackedTelemetry`` (one record per stacked group)."""
    inner = _plain(rec, "simulate_stacked", fn)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = inner(*args, **kwargs)
        telemetry = result.telemetry
        rec.counts["stacked.bank_invocations"] += telemetry.bank_invocations
        rec.counts["stacked.lanes"] += telemetry.stacked_lanes
        rec.counts["stacked.fallbacks"] += telemetry.solo_lanes
        return result
    return wrapper


def _task(rec: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    """A runner task entry point: a pool worker dumps after each task."""
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        in_worker = os.getpid() != rec.owner
        if in_worker:
            rec.adopt_worker()
        try:
            return fn(*args, **kwargs)
        finally:
            if in_worker:
                rec.dump()
    return wrapper


def _mark(rec: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``SweepManifest.mark_done``: timestamp every completed pair."""
    inner = _plain(rec, "manifest.mark_done", fn)

    @functools.wraps(fn)
    def wrapper(manifest: Any, key: str, label: str = "") -> Any:
        result = inner(manifest, key, label)
        rec.marks.append((label, _now()))
        return result
    return wrapper


def _grouped_rows(cache_idx: Any, addrs: Any, *args: Any,
                  **kwargs: Any) -> int:
    return int(addrs.shape[0])


def _staged_rows(addrs: Any, *args: Any, **kwargs: Any) -> int:
    return int(addrs.shape[0])


def _shared_rows(calls: Any) -> int:
    return sum(int(call.addrs.shape[0]) for call in calls)


def _replace_everywhere(original: Any, replacement: Any) -> None:
    """Rebind every ``repro`` module attribute that is ``original``
    (modules that imported the function by name hold their own binding)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(rec: Recorder) -> None:
    """Wrap the public boundaries of every layer the benchmark reports."""
    from repro.analysis import diskcache, runner
    from repro.cache.vector import VectorBank
    from repro.coherence.hardware import HardwareCoherence
    from repro.coherence.mesi import MESIDirectory
    from repro.coherence.software import SoftwareCoherence
    from repro.core.sac import SharingAwareCaching
    from repro.resilience import supervisor
    from repro.resilience.manifest import SweepManifest
    from repro.sim import run as sim_run
    from repro.sim.engine import SimulationEngine
    from repro.workloads.generator import TraceGenerator

    for method, rows in (("access_many_grouped", _grouped_rows),
                         ("access_many_grouped_shared", _shared_rows),
                         ("access_many_staged", _staged_rows),
                         ("access_many_staged_shared", _shared_rows)):
        setattr(VectorBank, method, _bank_call(
            rec, f"vector.{method}", getattr(VectorBank, method), rows))

    SimulationEngine.run_steps = _generator(
        rec, "engine.step", SimulationEngine.run_steps)
    SimulationEngine.set_llc_partitioning = _plain(
        rec, "llc.set_llc_partitioning",
        SimulationEngine.set_llc_partitioning)
    TraceGenerator._generate_all = _generator(
        rec, "workloads.generate", TraceGenerator._generate_all)

    for cls, methods in ((HardwareCoherence, ("on_fill", "on_evict",
                                              "on_write",
                                              "pop_epoch_messages")),
                         (MESIDirectory, ("read", "write", "evict")),
                         (SoftwareCoherence, ("flush_cost",))):
        for method in methods:
            setattr(cls, method, _plain(
                rec, f"coherence.{cls.__name__}.{method}",
                getattr(cls, method), emit=False))
    SharingAwareCaching.observe_access = _plain(
        rec, "sac.observe_access", SharingAwareCaching.observe_access,
        emit=False)
    SharingAwareCaching.observe_batch = _plain(
        rec, "sac.observe_batch", SharingAwareCaching.observe_batch)

    diskcache.ResultCache.store = _plain(
        rec, "diskcache.store", diskcache.ResultCache.store)
    SweepManifest.mark_done = _mark(
        rec, SweepManifest.mark_done)

    functions = [
        (diskcache.content_key, _plain(rec, "diskcache.content_key",
                                       diskcache.content_key)),
        (runner.run_matrix, _plain(rec, "run_matrix", runner.run_matrix)),
        (sim_run.simulate, _plain(rec, "simulate", sim_run.simulate)),
        (sim_run.simulate_stacked, _stacked(rec, sim_run.simulate_stacked)),
        (supervisor.wait, _plain(rec, "pool.wait", supervisor.wait,
                                 emit=False)),
        (runner._simulate_task, _task(rec, runner._simulate_task)),
        (runner._simulate_stacked_task,
         _task(rec, runner._simulate_stacked_task)),
    ]
    for original, replacement in functions:
        _replace_everywhere(original, replacement)
