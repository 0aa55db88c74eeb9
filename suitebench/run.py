"""Suite benchmark: the cold Fig. 8 matrix (serial and 2 workers) and the
Fig. 14 design sweep, with a separate traced per-layer run.

    python3 suitebench/run.py --workload fig8_serial --seed 0 \\
        --seconds 60 --trace 0

Every measured run is a fresh process (``child.py``) with an empty cache
directory.  ``--trace 0`` repeats cold runs for about ``--seconds`` and
prints the end-to-end metrics (medians); ``--trace 1`` makes one
untraced and one traced run and prints the per-layer metrics, and writes
a Chrome trace-event file plus a self-time roll-up under
``.suitebench_out/traces/``.  Every simulated pair is checked; the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--record`` stores the run's per-pair digests and work counters for
this workload and seed in ``digests.json``; later runs of that seed must
reproduce them.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from child import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".suitebench_out"
DIGESTS = HERE / "digests.json"

#: fig8_pool2 simulates the same pairs as fig8_serial, so both must
#: reproduce one recorded set of digests.
DIGEST_GROUP = {"fig8_serial": "fig8", "fig8_pool2": "fig8",
                "fig14_sweep": "fig14_sweep"}

#: A whole invocation must end within 180 s; child runs are cut off
#: (and counted as failed) at this many seconds after the start.
RUN_LIMIT_S = 170.0

#: Set-up-only processes per untraced invocation; ``setup_s`` is their
#: median.
SETUP_SAMPLES = 7

END_TO_END = (("wall_s", "s"), ("accesses_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("sac_err_pp", "pp"))

PER_LAYER = (
    ("vector.calls", "count"), ("vector.rows", "count"),
    ("vector.grouped_s", "s"), ("vector.staged_s", "s"),
    ("vector.ns_per_row", "ns"), ("vector.interp_batches", "count"),
    ("engine.self_s", "s"), ("engine.vector_epochs", "count"),
    ("engine.serial_epochs", "count"), ("engine.demotions", "count"),
    ("coherence.calls", "count"), ("coherence.s", "s"),
    ("sac.observe_s", "s"), ("sac.reconfigurations", "count"),
    ("llc.repartitions", "count"),
    ("stacked.driver_s", "s"), ("stacked.bank_invocations", "count"),
    ("stacked.lanes", "count"), ("stacked.fallbacks", "count"),
    ("workloads.trace_s", "s"), ("workloads.traces", "count"),
    ("runner.overhead_s", "s"), ("diskcache.key_s", "s"),
    ("diskcache.store_s", "s"), ("diskcache.stores", "count"),
    ("pool.busy_share", "fraction"), ("pool.tail_s", "s"),
    ("pool.retries", "count"), ("pool.timeouts", "count"),
    ("pool.respawns", "count"),
    ("trace.overhead_s", "s"), ("trace.unattributed_s", "s"),
)


class Run(NamedTuple):
    """One child process: its result document, or why it has none."""

    mode: str
    doc: Optional[Dict[str, Any]]
    error: str
    seconds: float


def child_env() -> Dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` switch, with
    ``PYTHONPATH`` set to this checkout's sources only."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def stop(proc: "subprocess.Popen[bytes]") -> None:
    """Kill whatever is left of a child's process group (pool workers
    are the child's children), reap the child, and wait until the group
    is empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn(args: argparse.Namespace, mode: str, work: Path, index: int,
          deadline: float) -> Run:
    """Run ``child.py`` once in a fresh process and session."""
    run_dir = work / f"run{index}-{mode}"
    run_dir.mkdir()
    out = run_dir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--out", str(out), "--work-dir", str(run_dir)]
    if mode == "trace":
        cmd += ["--trace-file", str(trace_path(args, ".trace.json"))]
    started = time.perf_counter()
    log = run_dir / "log.txt"
    with log.open("wb") as sink:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=sink, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code: Optional[int] = proc.wait(
                timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            stop(proc)
    seconds = time.perf_counter() - started
    if code is None:
        return Run(mode, None, "timed out", seconds)
    if code != 0 or not out.is_file():
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        return Run(mode, None, f"exit code {code}:\n{tail}", seconds)
    return Run(mode, json.loads(out.read_text(encoding="utf-8")), "",
               seconds)


def trace_path(args: argparse.Namespace, suffix: str) -> Path:
    return OUT / "traces" / f"{args.workload}-seed{args.seed}{suffix}"


def load_record() -> Dict[str, Any]:
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text(encoding="utf-8"))
    return {"digests": {}, "counters": {}}


def check(args: argparse.Namespace, runs: List[Run],
          record: Dict[str, Any]) -> Tuple[int, int, int, List[str]]:
    """Check every pair of every run.

    A pair fails when its run crashed or timed out, when it breaks an
    invariant, or when its digest differs from the recorded one or from
    the first run's.  A work counter that differs from the first run's
    or from the recorded one is a counter mismatch.  Returns (pairs
    attempted, pairs failed, counter mismatches, notes).
    """
    seed = str(args.seed)
    want = record["digests"].get(DIGEST_GROUP[args.workload], {}).get(seed)
    want_counters = record["counters"].get(args.workload, {}).get(seed)
    good = [r for r in runs if r.doc is not None]
    first = good[0].doc if good else None
    expected = len(want) if want else (len(first["pairs"]) if first else 1)
    attempted = failed = mismatches = 0
    notes: List[str] = []
    for run in runs:
        if run.doc is None:
            attempted += expected
            failed += expected
            notes.append(f"{run.mode} run failed: {run.error}")
            continue
        pairs = run.doc["pairs"]
        reference = want or {key: pair["digest"]
                             for key, pair in first["pairs"].items()}
        keys = set(pairs) | set(reference)
        attempted += len(keys)
        for key in sorted(keys):
            pair = pairs.get(key)
            if pair is None:
                problem = "missing from the results"
            elif pair["problems"]:
                problem = "; ".join(pair["problems"])
            elif reference.get(key) != pair["digest"]:
                problem = "digest differs from the " + \
                    ("recorded one" if want else "first run's")
            else:
                continue
            failed += 1
            if len(notes) < 20:
                notes.append(f"{run.mode} {key}: {problem}")
        for name, value in run.doc["counters"].items():
            for label, base in (("first run", first["counters"]),
                                ("record", want_counters or {})):
                if name in base and base[name] != value:
                    mismatches += 1
                    notes.append(f"counter {name} = {value} differs from "
                                 f"the {label}'s {base[name]}")
    if want is None:
        notes.append(f"no digests recorded for seed {seed}: pairs are "
                     "checked against invariants and across runs only")
    return attempted, failed, mismatches, notes


def end_to_end(docs: List[Dict[str, Any]],
               setups: List[float]) -> Dict[str, float]:
    """Medians over the runs of one invocation."""
    return {
        "wall_s": statistics.median(d["wall_s"] for d in docs),
        "accesses_per_s": statistics.median(d["accesses"] / d["wall_s"]
                                            for d in docs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in docs),
        "sac_err_pp": docs[0]["sac_err_pp"],
    }


def per_layer(untraced: Dict[str, Any],
              traced: Dict[str, Any]) -> Dict[str, float]:
    values: Dict[str, float] = {}
    values.update(traced["counters"])
    values.update(traced["layers"])
    for name, value in untraced["pool"].items():
        values[f"pool.{name}"] = value
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    values["trace.unattributed_s"] = traced["unattributed_s"]
    return values


def write_rollup(args: argparse.Namespace, untraced: Dict[str, Any],
                 traced: Dict[str, Any]) -> str:
    """Self-time roll-up of the traced run, as text."""
    self_s, total_s, calls = traced["self_s"], traced["total_s"], \
        traced["calls"]
    covered = sum(self_s.values())
    overhead = traced["wall_s"] - untraced["wall_s"]
    lines = [
        f"{args.workload} seed {args.seed}: traced wall "
        f"{traced['wall_s']:.3f} s, untraced {untraced['wall_s']:.3f} s, "
        f"tracing overhead {overhead:+.3f} s "
        f"({100 * overhead / untraced['wall_s']:+.1f}%)",
        f"{'span':44} {'calls':>9} {'total_s':>9} {'self_s':>9} "
        f"{'self %':>7}",
    ]
    for name in sorted(self_s, key=lambda n: -self_s[n]):
        lines.append(f"{name:44} {calls.get(name, 0):9d} "
                     f"{total_s[name]:9.3f} {self_s[name]:9.3f} "
                     f"{100 * self_s[name] / covered:6.1f}%")
    lines.append(f"{'(unattributed root remainder)':44} {'':9} {'':9} "
                 f"{traced['unattributed_s']:9.3f}")
    text = "\n".join(lines) + "\n"
    trace_path(args, ".rollup.txt").write_text(text, encoding="utf-8")
    return text


def save_record(args: argparse.Namespace, doc: Dict[str, Any]) -> None:
    """Store one run's digests and counters as the reference."""
    record = load_record()
    seed = str(args.seed)
    group = record["digests"].setdefault(DIGEST_GROUP[args.workload], {})
    group[seed] = {key: pair["digest"] for key, pair in doc["pairs"].items()}
    record["counters"].setdefault(args.workload, {})[seed] = doc["counters"]
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"suitebench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    # A terminated benchmark still stops its children and cleans up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    (OUT / "traces").mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        return measure(args, work, start, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args: argparse.Namespace, work: Path, start: float,
            deadline: float) -> int:
    index = itertools.count()
    # Compiles bytecode and warms the file cache; never measured.
    warm = spawn(args, "setup", work, next(index), deadline)
    if warm.doc is None:
        print(f"suitebench: the simulator does not import: {warm.error}",
              file=sys.stderr)
        return 1
    runs: List[Run] = []
    setups: List[float] = []
    if args.trace:
        runs.append(spawn(args, "count", work, next(index), deadline))
        runs.append(spawn(args, "trace", work, next(index), deadline))
    else:
        measure_from = time.perf_counter()
        while True:
            run = spawn(args, "count", work, next(index), deadline)
            runs.append(run)
            now = time.perf_counter()
            if (run.doc is None
                    or now - measure_from + run.seconds > args.seconds
                    or now + 1.5 * run.seconds > deadline):
                break
        # Set-up-only processes right after the cold runs, so every
        # sample starts on an equally busy machine.
        while (len(setups) < SETUP_SAMPLES
               and time.perf_counter() + 5 < deadline):
            run = spawn(args, "setup", work, next(index), deadline)
            if run.doc is None:
                break
            setups.append(run.doc["setup_s"])

    attempted, failed, mismatches, notes = check(args, runs, load_record())
    good = [r.doc for r in runs if r.doc is not None]
    correct = failed == 0 and mismatches == 0 and bool(good)
    if args.record and correct:
        save_record(args, good[0])
        notes.append(f"recorded digests and counters for seed {args.seed}")

    print(f"suitebench {args.workload} seed {args.seed}: {len(runs)} cold "
          f"run(s), {len(setups)} set-up sample(s), "
          f"{time.perf_counter() - start:.1f} s")
    for note in notes:
        print(f"  note: {note}")
    print(f"  failed_pair_ratio {failed / max(1, attempted):.4f} "
          f"({failed} of {attempted} pairs)")
    if good:
        print("  counters: " + json.dumps(good[0]["counters"]))
    values: Optional[Dict[str, float]] = None
    if args.trace and len(good) == 2:
        print(write_rollup(args, good[0], good[1]), end="")
        values, table = per_layer(good[0], good[1]), PER_LAYER
    elif not args.trace and good:
        values, table = end_to_end(good, setups), END_TO_END
    metrics: Dict[str, Dict[str, Any]] = {}
    if values is None:
        correct = False
    else:
        for name, unit in table:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name} = {values[name]:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
