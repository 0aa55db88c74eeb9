"""One cold run of a suite-benchmark workload, in a fresh process.

``run.py`` spawns this script once per measured run, with
``PYTHONPATH`` pointing at the checkout's ``src/`` and every ``REPRO_*``
variable removed, so no memo, trace cache or disk cache survives from an
earlier run.  It writes one JSON document to ``--out``::

    python3 suitebench/child.py --workload fig8_serial --seed 0 \\
        --mode count --out result.json --work-dir DIR

``--mode setup`` stops after set-up (import + spec/config building);
``count`` runs the workload with work counters only; ``trace`` also
records spans and writes a Chrome trace-event file to ``--trace-file``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

import hooks  # noqa: E402

WORKLOADS = ("fig8_serial", "fig8_pool2", "fig14_sweep")

#: Trace density of every workload: the test-suite (``--fast``) density.
DENSITY = 2048

FIG8_ORGS = ("memory-side", "sm-side", "static", "dynamic", "sac")
FIG14_ORGS = ("memory-side", "sm-side", "sac")
FIG14_BENCHMARKS = ("RN", "CFD", "SRAD", "NN")

#: The paper's headline SAC gains over each organization, in percent
#: (Section 5.1 harmonic means over the whole suite).
PAPER_SAC_GAIN_PCT = {"memory-side": 76.0, "sm-side": 12.0,
                      "static": 31.0, "dynamic": 18.0}

PairKey = Tuple[str, ...]


def seeded_specs(specs: Any, seed: int) -> List[Any]:
    """Every spec with an explicit seed; seed 0 keeps the per-name seeds
    the experiments use, any other seed shifts all of them."""
    return [dataclasses.replace(s, seed=(s.effective_seed + seed) % 2**32)
            for s in specs]


def fig14_points() -> List[Tuple[str, Any]]:
    """Fig. 14's design points, baseline first, duplicates dropped."""
    from repro.arch import presets
    base = presets.baseline()
    candidates = [("baseline", base)]
    candidates += [(f"inter-chip {gbps} GB/s",
                    presets.with_inter_chip_bandwidth(base, gbps))
                   for gbps in presets.INTER_CHIP_SWEEP_GBPS]
    candidates += [(f"LLC x{factor:g}",
                    presets.with_llc_capacity_scale(base, factor))
                   for factor in (0.5, 1.0, 2.0)]
    candidates += [(name, presets.with_memory_interface(base, name))
                   for name in ("GDDR5", "GDDR6", "HBM2")]
    candidates += [(f"{protocol} coherence",
                    presets.with_coherence(base, protocol))
                   for protocol in ("software", "hardware")]
    candidates += [(f"{chips} GPUs", presets.with_chip_count(base, chips))
                   for chips in (2, 4)]
    candidates += [("sectored LLC", presets.with_sectored_llc(base)),
                   ("64 KB pages", presets.with_page_size(base, 65536))]
    points: List[Tuple[str, Any]] = []
    for label, config in candidates:
        if all(config != seen for _, seen in points):
            points.append((label, config))
    return points


def prepare(workload: str, seed: int) -> Dict[str, Any]:
    """Import the simulator and build the seeded specs and configs."""
    from repro.workloads.suite import SUITE, get
    if workload == "fig14_sweep":
        return {"specs": seeded_specs([get(n) for n in FIG14_BENCHMARKS],
                                      seed),
                "points": fig14_points()}
    return {"specs": seeded_specs(SUITE, seed),
            "jobs": 2 if workload == "fig8_pool2" else 1}


def run_workload(workload: str, prepared: Dict[str, Any],
                 work_dir: Path) -> Dict[PairKey, Any]:
    """The timed part: every pair of the workload, cold."""
    from repro.analysis.runner import run_matrix
    if workload == "fig14_sweep":
        results: Dict[PairKey, Any] = {}
        for label, config in prepared["points"]:
            matrix = run_matrix(prepared["specs"], FIG14_ORGS,
                                config=config, accesses_per_epoch=DENSITY,
                                n_jobs=1)
            for (bench, org), stats in matrix.items():
                results[(label, bench, org)] = stats
        return results
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work_dir)
    try:
        matrix = run_matrix(prepared["specs"], FIG8_ORGS,
                            accesses_per_epoch=DENSITY,
                            n_jobs=prepared["jobs"], cache_dir=cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {key: stats for key, stats in matrix.items()}


def pair_problems(stats: Any) -> List[str]:
    """Invariants every simulated pair must satisfy."""
    problems = []
    if stats.accesses <= 0 or stats.cycles <= 0:
        problems.append("no accesses or cycles")
    if sum(stats.responses_by_origin.values()) != stats.accesses:
        problems.append("responses by origin != accesses")
    if not 0 <= stats.llc_hits <= stats.llc_lookups:
        problems.append("llc_hits outside [0, llc_lookups]")
    if sum(k.cycles for k in stats.kernels) != stats.cycles:
        problems.append("kernel cycles do not sum to the run's")
    if sum(k.accesses for k in stats.kernels) != stats.accesses:
        problems.append("kernel accesses do not sum to the run's")
    for field in ("inter_chip_bytes", "dram_bytes", "coherence_bytes"):
        if getattr(stats, field) < 0:
            problems.append(f"negative {field}")
    return problems


def digest(stats: Any) -> str:
    """Digest of every simulated (physics) field of one pair."""
    text = json.dumps(stats.comparable_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def sac_gains_pct(workload: str,
                  results: Dict[PairKey, Any]) -> Dict[str, float]:
    """SAC's harmonic-mean gain over each other organization, percent:
    over the whole suite on fig8, over the baseline point on fig14."""
    from repro.sim.stats import harmonic_mean
    if workload == "fig14_sweep":
        runs = {(b, o): s for (label, b, o), s in results.items()
                if label == "baseline"}
        others = FIG14_ORGS[:-1]
    else:
        runs = {(b, o): s for (b, o), s in results.items()}
        others = FIG8_ORGS[:-1]
    benches = sorted({b for b, _ in runs})

    def hmean(org: str) -> float:
        base = "memory-side"
        return harmonic_mean([runs[(b, base)].cycles / runs[(b, org)].cycles
                              for b in benches])
    sac = hmean("sac")
    return {org: 100.0 * (sac / hmean(org) - 1.0) for org in others}


def pool_tail_s(rec: hooks.Recorder, jobs: int, end: float) -> float:
    """Time from when fewer tasks remain than workers until the end.

    A task is one benchmark's stacked group; it completes when the last
    of its pairs is journaled (``SweepManifest.mark_done``)."""
    done: Dict[str, float] = {}
    for label, stamp in rec.marks:
        bench = label.rsplit(":", 1)[0]
        done[bench] = max(done.get(bench, stamp), stamp)
    if not done:
        return 0.0
    finished = sorted(done.values())
    start = finished[max(0, len(finished) - jobs)]
    return end - start


def counters(rec: hooks.Recorder,
             results: Dict[PairKey, Any]) -> Dict[str, int]:
    """Deterministic work counters: equal on every run of one seed."""
    counts = rec.counts
    runs = list(results.values())
    return {
        "pairs": len(runs),
        "vector.calls": sum(v for k, v in counts.items()
                            if k.startswith("vector.access_many")),
        "vector.rows": counts["vector.rows"],
        "vector.interp_batches": counts["vector.interp_batches"],
        "engine.vector_epochs": sum(s.vector_epochs for s in runs),
        "engine.serial_epochs": sum(s.slow_epochs for s in runs),
        "engine.demotions": sum(s.demotions for s in runs),
        "stacked.bank_invocations": counts["stacked.bank_invocations"],
        "stacked.lanes": counts["stacked.lanes"],
        "stacked.fallbacks": counts["stacked.fallbacks"],
        "workloads.traces": counts["workloads.generate"],
        "coherence.calls": sum(v for k, v in counts.items()
                               if k.startswith("coherence.")),
        "sac.reconfigurations": sum(
            sum(1 for k in s.kernels if k.reconfigured)
            for s in runs if s.organization == "sac"),
        "llc.repartitions": counts["llc.set_llc_partitioning"],
        "diskcache.stores": counts["diskcache.store"],
    }


def layer_times(rec: hooks.Recorder,
                parent_total: Dict[str, float]) -> Dict[str, float]:
    """Host seconds per layer, from the traced spans."""
    total, self_s = rec.total_s, rec.self_s
    vector_s = sum(v for k, v in total.items()
                   if k.startswith("vector.access_many"))
    rows = rec.counts["vector.rows"]
    return {
        "vector.grouped_s": (total["vector.access_many_grouped"]
                             + total["vector.access_many_grouped_shared"]),
        "vector.staged_s": (total["vector.access_many_staged"]
                            + total["vector.access_many_staged_shared"]),
        "vector.ns_per_row": 1e9 * vector_s / rows if rows else 0.0,
        "engine.self_s": self_s["engine.step"],
        "coherence.s": sum(v for k, v in total.items()
                           if k.startswith("coherence.")),
        "sac.observe_s": (total["sac.observe_access"]
                          + total["sac.observe_batch"]),
        "stacked.driver_s": self_s["simulate_stacked"],
        "workloads.trace_s": total["workloads.generate"],
        "runner.overhead_s": (parent_total.get("run_matrix", 0.0)
                              - parent_total.get("simulate", 0.0)
                              - parent_total.get("simulate_stacked", 0.0)
                              - parent_total.get("pool.wait", 0.0)),
        "diskcache.key_s": total["diskcache.content_key"],
        "diskcache.store_s": total["diskcache.store"],
    }


def write_chrome_trace(path: Path, rec: hooks.Recorder,
                       worker_spans: Dict[int, List[Any]],
                       origin: float) -> None:
    """Chrome trace-event JSON of every emitted span."""
    events = []
    by_pid = dict(worker_spans)
    by_pid[rec.pid] = rec.spans
    for pid, spans in by_pid.items():
        for name, start, end, span_id, parent_id in spans:
            events.append({"name": name, "ph": "X", "pid": pid, "tid": pid,
                           "ts": round((start - origin) * 1e6, 3),
                           "dur": round((end - start) * 1e6, 3),
                           "args": {"id": span_id, "parent": parent_id}})
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}),
                    encoding="utf-8")


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any finished child (workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "count", "trace"))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args()

    prepared = prepare(args.workload, args.seed)
    setup_s = time.perf_counter() - _START
    if args.mode == "setup":
        args.out.write_text(json.dumps({"setup_s": setup_s}))
        return

    from repro.analysis.runner import telemetry
    for stale in args.work_dir.glob("worker-*.json"):
        stale.unlink()
    rec = hooks.Recorder(trace=args.mode == "trace",
                         dump_dir=args.work_dir)
    hooks.install(rec)
    started = time.perf_counter()
    results = run_workload(args.workload, prepared, args.work_dir)
    ended = time.perf_counter()
    wall_s = ended - started

    parent_total = dict(rec.total_s)
    worker_spans = hooks.merge_worker_dumps(rec)
    jobs = prepared.get("jobs", 1)
    runner = telemetry()
    gains = sac_gains_pct(args.workload, results)
    doc: Dict[str, Any] = {
        "wall_s": wall_s,
        "accesses": sum(s.accesses for s in results.values()),
        "peak_rss_mb": peak_rss_mb(),
        "sac_gain_pct": gains,
        "sac_err_pp": statistics.mean(abs(gain - PAPER_SAC_GAIN_PCT[org])
                                      for org, gain in gains.items()),
        "pairs": {"|".join(key): {"digest": digest(stats),
                                  "problems": pair_problems(stats)}
                  for key, stats in results.items()},
        "counters": counters(rec, results),
        "pool": {
            "busy_share": (sum(s.wall_seconds for s in results.values())
                           / (jobs * wall_s)),
            "tail_s": pool_tail_s(rec, jobs, ended),
            "retries": runner.retries,
            "timeouts": runner.timeouts,
            "respawns": runner.respawns,
        },
    }
    if rec.trace:
        doc["layers"] = layer_times(rec, parent_total)
        doc["unattributed_s"] = wall_s - parent_total.get("run_matrix", 0.0)
        doc["self_s"] = dict(rec.self_s)
        doc["total_s"] = dict(rec.total_s)
        doc["calls"] = dict(rec.counts)
        if args.trace_file is not None:
            write_chrome_trace(args.trace_file, rec, worker_spans, started)
    args.out.write_text(json.dumps(doc))


if __name__ == "__main__":
    main()
