"""Two-clock benchmark of the checkpoint-restart simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload nas16-ckpt-restart --seed 1 \\
        --seconds 20 --trace 0

``--workload`` is one of the names in ``BENCHMARK.json`` or ``all``.
A run repeats *set up → run → check* for ``--seconds`` of wall time in
one process and one thread, then prints a table of every end-to-end
metric (host-clock metrics as medians over the repetitions, sim-clock
metrics from the model) and, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 1`` adds a plain run of the same world with no checkpoint
work and one traced repetition; the JSON then carries the per-layer
metrics, and the spans are written to
``perfbench/out/spans-<workload>-seed<n>.jsonl.gz``.  The metric
dictionary (unit, clock, direction, which end-to-end metric and
workload a layer metric should move) is ``perfbench/metrics.json``.

Sim-clock metrics are identical for a given seed, so a change that
claims a gain is tuned on one seed and confirmed on another (held-out)
seed.  Peak RSS is read from ``/proc/self/status`` after resetting the
process's high-water mark through ``/proc/self/clear_refs``.

Exit status: 0 when every output check, the determinism check and (in
traced runs) the wrapper coverage check passed; 1 when one failed; 2
when the benchmark cannot run at all (for example, no ``src/``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: set-up is timed at least this many times per run (median reported).
MIN_SETUPS = 15


def _reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark at the current
    RSS, so a run's peak excludes whatever ran before it."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _load_json(name: str) -> Dict[str, Any]:
    with open(os.path.join(ROOT if name == "BENCHMARK.json" else HERE, name)) as f:
        return json.load(f)


def _check_dictionary(bench: Dict[str, Any], book: Dict[str, Any]) -> None:
    """BENCHMARK.json and the metric dictionary must agree."""
    for section in ("end_to_end", "per_layer"):
        for m in bench[section]:
            entry = book[section].get(m["name"])
            if entry is None or entry["unit"] != m["unit"] \
                    or entry["better"] != m["better"]:
                raise SystemExit(f"metrics.json disagrees on {m['name']!r}")
        if len(book[section]) != len(bench[section]):
            raise SystemExit(f"metrics.json has extra {section} metrics")


class Iteration:
    """One timed set-up → run → check cycle."""

    def __init__(self, workload, seed: int) -> None:
        gc.collect()
        t0 = time.perf_counter()
        world = workload.setup(seed)
        self.setup_s = time.perf_counter() - t0
        gc.collect()
        _reset_peak_rss()
        t1 = time.perf_counter()
        workload.run(world)
        self.wall_s = time.perf_counter() - t1
        self.peak_rss_mb = _peak_rss_mb()
        self.outcome = workload.evaluate(world)


def measure(workload, seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced repetitions for ``seconds`` of wall time (at least one)."""
    iters: List[Iteration] = []
    t_begin = time.perf_counter()
    while True:
        iters.append(Iteration(workload, seed))
        # stop before a repetition of average length would overrun
        spent = time.perf_counter() - t_begin
        if spent + spent / len(iters) > seconds:
            break
    setups = [it.setup_s for it in iters]
    while len(setups) < MIN_SETUPS:
        gc.collect()
        t0 = time.perf_counter()
        world = workload.setup(seed)
        setups.append(time.perf_counter() - t0)
        del world
    sims = [it.outcome.sim for it in iters]
    # benchmark-level checks count one failed unit each, like output checks
    checks: List[str] = []
    if any(s != sims[0] for s in sims):
        checks.append("determinism: sim-clock metrics differ between repetitions")
    failures = [f for it in iters for f in it.outcome.failures] + checks
    attempted = sum(it.outcome.attempted for it in iters)
    failed = min(attempted, sum(it.outcome.failed for it in iters) + len(checks))
    rates = [(it.outcome.attempted - it.outcome.failed) / it.wall_s for it in iters]
    host = {
        "wall_s": statistics.median([it.wall_s for it in iters]),
        "pod_ops_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median([it.peak_rss_mb for it in iters]),
    }
    return {"iters": iters, "host": host, "sim": sims[0],
            "failures": failures, "attempted": attempted, "failed": failed,
            "op_fail_frac": failed / attempted if attempted else 1.0}


def _phase_ms(tracer) -> Dict[str, float]:
    """Per protocol phase: median over ops of the max across pods."""
    worst: Dict[tuple, float] = {}
    for span in tracer.spans:
        if not span.name.startswith("agent.phase.") or span.t_end is None:
            continue
        key = (span.name[len("agent.phase."):], span.attrs.get("op"))
        worst[key] = max(worst.get(key, 0.0), span.t_end - span.t_start)
    by_phase: Dict[str, List[float]] = {}
    for (phase, _op), seconds in worst.items():
        by_phase.setdefault(phase, []).append(seconds)
    return {p: statistics.median(v) * 1e3 for p, v in by_phase.items()}


def trace_run(workload, seed: int, untraced: Dict[str, Any],
              out_dir: str, book: Dict[str, Any]) -> Dict[str, Any]:
    """The plain baseline, then one traced repetition; per-layer metrics."""
    import tracing
    from repro.obs import SpanTracer

    gc.collect()
    world = workload.setup(seed)
    t0 = time.perf_counter()
    workload.baseline(world)
    baseline_s = time.perf_counter() - t0
    del world

    tracer = tracing.Tracer().install()
    try:
        gc.collect()
        world = workload.setup(seed)
        spans = SpanTracer(world.cluster.engine).install(world.cluster)
        gc.collect()
        tracer.reset()
        t1 = time.perf_counter()
        workload.run(world)
        traced_s = time.perf_counter() - t1
    finally:
        tracer.uninstall()
    outcome = workload.evaluate(world)
    checks: List[str] = []
    if outcome.sim != untraced["sim"]:
        checks.append("determinism: the traced run's sim-clock metrics "
                        "differ from the untraced run's")
    if tracer.nesting_errors:
        checks.append(f"trace: {tracer.nesting_errors} spans closed out of order")

    stats = tracer.stats
    out: Dict[str, float] = {}
    for name, (calls, nbytes, self_s) in stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.bytes"] = nbytes
        out[f"{name}.self_s" if name not in tracer.generators
            else f"{name}.step_s"] = self_s
    events = world.cluster.engine.events_executed
    out["sim.events"] = events
    out["sim.us_per_event"] = stats["sim.run"][2] / events * 1e6 if events else 0.0
    ledger = stats["storage.ledger.OpLedger.append"][0]
    out["storage.ledger.parsed_per_appended"] = (
        stats["storage.ledger.OpLedger.records"][1] / ledger if ledger else 0.0)
    pod_ckpts = outcome.pod_ckpts
    out["core.netckpt.netstate_nbytes.per_pod_ckpt"] = (
        stats["core.netckpt.netstate_nbytes"][0] / pod_ckpts if pod_ckpts else 0.0)
    stored = stats["core.pipeline.FileSink.store"]
    out["core.pipeline.filesink.encoded_per_appended"] = (
        tracer.filesink_encoded / stored[1] if stored[1] else 0.0)
    from repro.storage.cas import CasStore
    store = CasStore.on(world.cluster.san)
    out["storage.cas.stored_per_offered"] = (
        store.stored_bytes / store.logical_bytes if store.logical_bytes else 0.0)
    for key, value in world.extra.get("fleet", {}).items():
        out[f"fleet.{key}"] = value
    for phase, ms in _phase_ms(spans).items():
        out[f"phase.{phase}.sim_ms"] = ms
    wall = untraced["host"]["wall_s"]
    out["other.self_s"] = traced_s - tracer.top_level_seconds()
    out["trace.overhead_s"] = traced_s - wall
    out["ckpt.host_overhead_s"] = wall - baseline_s

    # coverage: every entry point of a layer the workload exercises ran
    by_layer: Dict[str, float] = {"other": out["other.self_s"]}
    for name, (_m, _p, layer, _b) in tracing.ENTRY_POINTS.items():
        by_layer[layer] = by_layer.get(layer, 0.0) + stats[name][2]
        works_in = book["coverage_exceptions"].get(name, book["layers"][layer])
        if workload.name in works_in["most_work_in"] and stats[name][0] == 0:
            checks.append(f"coverage: {name} recorded no calls")

    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.jsonl.gz"))
    return {"metrics": out, "failures": outcome.failures + checks,
            "traced_s": traced_s, "by_layer": by_layer,
            "attempted": outcome.attempted,
            "failed": min(outcome.attempted, outcome.failed + len(checks))}


def _fmt(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report(name: str, seed: int, res: Dict[str, Any], book: Dict[str, Any],
           bench: Dict[str, Any], traced: Dict[str, Any] = None) -> Dict[str, Any]:
    values = dict(res["host"])
    values.update(res["sim"])
    digest = hashlib.sha256(json.dumps(res["sim"], sort_keys=True).encode()).hexdigest()
    print(f"== {name}  seed {seed}  repetitions {len(res['iters'])}  "
          f"sim digest {digest[:16]}")
    print(f"  {'metric':<18} {'value':>14}  {'unit':<6} clock")
    for m in bench["end_to_end"]:
        entry = book["end_to_end"][m["name"]]
        print(f"  {m['name']:<18} {_fmt(values[m['name']]):>14}  "
              f"{m['unit']:<6} {entry['clock']}")
    walls = ", ".join(f"{it.wall_s:.3f}" for it in res["iters"])
    print(f"  wall_s per repetition: {walls}")
    print(f"  {'op_fail_frac':<18} {_fmt(res['op_fail_frac']):>14}  "
          f"{'ratio':<6} -   ({res['failed']} of {res['attempted']} units)")
    failures = list(res["failures"])
    attempted, failed = res["attempted"], res["failed"]
    if traced is None:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    else:
        layer_vals = traced["metrics"]
        print(f"  traced wall {traced['traced_s']:.4f} s; self time by layer:")
        total = traced["traced_s"]
        for layer, secs in sorted(traced["by_layer"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<16} {secs:10.4f} s  {100 * secs / total:5.1f}%")
        print(f"  {'per-layer metric':<52} {'value':>14}  unit")
        metrics = {}
        for m in bench["per_layer"]:
            value = layer_vals.get(m["name"], 0)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<52} {_fmt(value):>14}  {m['unit']}")
        failures.extend(traced["failures"])
        attempted += traced["attempted"]
        failed += traced["failed"]
    for msg in failures[:20]:
        print(f"  FAILED: {msg}")
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(HERE, "out"))
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: cannot run: no repro package under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        bench = _load_json("BENCHMARK.json")
        book = _load_json("metrics.json")
        from workloads import WORKLOADS
    except (OSError, ImportError) as err:
        print(f"perfbench: cannot run: {err}", file=sys.stderr)
        return 2
    _check_dictionary(bench, book)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    ok = True
    for name in names:
        workload = WORKLOADS[name]
        res = measure(workload, args.seed, seconds)
        traced = (trace_run(workload, args.seed, res, args.out, book)
                  if args.trace else None)
        line = report(name, args.seed, res, book, bench, traced)
        ok = ok and line["correct"]
        print(json.dumps(line), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
