#!/usr/bin/env python3
"""Verdict benchmark of brauergraph: time to a checked answer, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload mutate-ladder --seed 1 --seconds 30 --trace 0

A run imports the package from ``src/``, builds the workload's seeded inputs
and their known answers (the set-up, timed separately), then makes whole
passes over the inputs for about ``--seconds`` seconds in one process, one
client, each request sent after the previous verdict is checked.  With
``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it makes untraced passes for half the time, one traced pass,
and reports the per-layer metrics and the tracing overhead.  The last line
of standard output is one JSON object; the exit code is nonzero when any
verdict is wrong or raised.  ``--fingerprint`` prints the size, table
dimension and relation count of every input instead of timing anything.

Nothing on the verdict path queues, waits on I/O or runs in another thread,
so no wait time is reported.  Scratch files (graph files, spans, result
details) go to ``.perfbench/`` under the repository root.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
TAIL_BEYOND = 10

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class BenchError(Exception):
    pass


def load_package() -> types.SimpleNamespace:
    """Import brauergraph afresh from ``src/`` and return its layer modules."""
    if not (SRC / "brauergraph" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'brauergraph'}")
    for name in [m for m in sys.modules if m == "brauergraph" or m.startswith("brauergraph.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    root = importlib.import_module("brauergraph")
    if Path(root.__file__).resolve().parent != (SRC / "brauergraph").resolve():
        raise BenchError(f"imported brauergraph from {root.__file__}, not from {SRC}")
    layers = {layer: importlib.import_module(f"brauergraph.{layer}") for layer in tracing.LAYERS}
    return types.SimpleNamespace(root=root, **layers)


def set_up(workload: str, seed: int, workdir: Path, ladder: dict, probe: speed.SpeedProbe):
    start = time.perf_counter()
    pkg = load_package()
    inputs = workloads.build(pkg, workload, seed, workdir, **ladder)
    return pkg, inputs, probe.scale(start, time.perf_counter())


def run_pass(pkg, inputs, verdict, probe=None, tracer=None) -> dict:
    """One pass over the inputs.

    With a probe, ``times`` are reference-speed seconds and ``wall`` is their
    sum; without one (the traced pass), both are raw seconds.
    """
    spans = []
    failures = []
    start = time.perf_counter()
    for index, item in enumerate(inputs.items):
        if tracer is not None:
            tracer.input_id = index
        t0 = time.perf_counter()
        try:
            problem = verdict(pkg, item)
        except Exception as exc:  # a verdict that raises is a failed verdict
            problem = f"{type(exc).__name__}: {exc}"
        spans.append((t0, time.perf_counter()))
        if problem is not None:
            failures.append({"input": item.name, "problem": problem})
    raw_wall = time.perf_counter() - start
    if probe is None:
        return {"wall": raw_wall, "raw_wall": raw_wall,
                "times": [t1 - t0 for t0, t1 in spans], "failures": failures}
    times = [probe.scale(t0, t1) for t0, t1 in spans]
    return {"wall": sum(times), "raw_wall": raw_wall, "times": times, "failures": failures}


def run_passes(pkg, inputs, verdict, budget: float, probe: speed.SpeedProbe) -> list[dict]:
    """Whole passes until the next one would overrun ``budget``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(pkg, inputs, verdict, probe))
        if time.perf_counter() - start + passes[-1]["raw_wall"] > budget:
            return passes


def tail(values: list[float]) -> tuple[float, float]:
    """Value and rank of the highest percentile with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        raise BenchError(f"{len(ordered)} inputs are too few for a tail")
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    per_input = [statistics.median(ts) for ts in zip(*(p["times"] for p in passes))]
    tail_value, tail_pct = tail(per_input)
    values = {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "verdict_p50_s": statistics.median(per_input),
        "verdict_tail_s": tail_value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "verdict_tail_s": f"p{tail_pct:.1f} of {len(per_input)} per-input medians "
        f"over {len(passes)} passes",
        "peak_rss_mb": "peak resident set of the benchmark process",
    }
    return values, notes


def declared_metrics(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def measure(workload: str, seed: int, seconds: float, trace: bool, ladder: dict | None = None) -> dict:
    """One benchmark run; returns metric values, counts and details."""
    verdict = workloads.VERDICTS[workload]
    workdir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    probe = speed.SpeedProbe()
    try:
        probe.start()
        try:
            setups = []
            for _ in range(1 if trace else SETUP_REPEATS):
                pkg, inputs, elapsed = set_up(workload, seed, workdir, ladder or {}, probe)
                setups.append(elapsed)
            passes = run_passes(pkg, inputs, verdict, seconds / 2 if trace else seconds, probe)
        finally:
            probe.stop()
        if trace:
            traced, values, notes = measure_traced(pkg, inputs, verdict, passes)
            tracer_base = OUT / f"{workload}.spans"
            traced["tracer"].dump(tracer_base)
            notes["trace.spans"] = f"written to {OUT.name}/{tracer_base.name}.bin"
        else:
            traced = None
            values, notes = end_to_end(passes, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    every_pass = passes + ([traced] if traced else [])
    failures = [f for p in every_pass for f in p["failures"]]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "inputs": len(inputs.items),
        "digest": inputs.digest,
        "passes": len(every_pass),
        "pass_walls": [p["wall"] for p in passes],
        "raw_pass_walls": [p["raw_wall"] for p in passes],
        "setups": setups,
        "per_input": {
            item.name: statistics.median(ts)
            for item, ts in zip(inputs.items, zip(*(p["times"] for p in passes)))
        },
        "attempted": sum(len(p["times"]) for p in every_pass),
        "failed": len(failures),
        "failures": failures[:20],
        "values": values,
        "notes": notes,
    }


def measure_traced(pkg, inputs, verdict, passes: list[dict]) -> tuple[dict, dict, dict]:
    """One traced pass; per-layer metrics and the overhead over untraced passes."""
    tracer = tracing.Tracer()
    tracer.install(pkg)
    try:
        traced = run_pass(pkg, inputs, verdict, tracer=tracer)
    finally:
        tracer.uninstall()
    traced["tracer"] = tracer
    untraced = statistics.median(p["raw_wall"] for p in passes)
    values = tracer.layer_metrics()
    values["trace.wall_s"] = traced["raw_wall"]
    values["trace.untraced_wall_s"] = untraced
    values["trace.overhead_s"] = traced["raw_wall"] - untraced
    notes = {"trace.overhead_s": "raw seconds, traced pass minus median untraced pass"}
    return traced, values, notes


def report(result: dict) -> tuple[list[str], dict]:
    """Human-readable lines and the final JSON object of one run."""
    metrics = {}
    lines = [
        f"workload {result['workload']} seed {result['seed']}: {result['inputs']} inputs, "
        f"{result['passes']} passes, input digest {result['digest']}"
    ]
    for spec in declared_metrics(result["trace"]):
        name, unit = spec["name"], spec["unit"]
        value = result["values"][name]
        metrics[name] = {"value": value, "unit": unit}
        note = result["notes"].get(name)
        lines.append(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    ratio = result["failed"] / result["attempted"]
    lines.append(
        f"fail_ratio = {ratio:.6g}  ({result['failed']} of {result['attempted']} verdicts failed)"
    )
    for failure in result["failures"]:
        lines.append(f"FAILED {failure['input']}: {failure['problem']}")
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    return lines, final


def print_fingerprints(workload: str, seed: int) -> None:
    workdir = OUT / f"{workload}-seed{seed}-fingerprint"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pkg = load_package()
        inputs = workloads.build(pkg, workload, seed, workdir)
        # fuzz-moves builds no presentation, and relations() of some of its
        # random skew graphs runs for minutes (ROADMAP item 3b).
        count_relations = workload != "fuzz-moves"
        for item in inputs.items:
            row = {"workload": workload, "seed": seed} | workloads.fingerprint(
                pkg, item, count_relations
            )
            print(json.dumps(row), flush=True)
        print(json.dumps({"workload": workload, "seed": seed, "inputs": len(inputs.items),
                          "digest": inputs.digest}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fingerprint", action="store_true",
                        help="print every input's size, dimension and relation count")
    args = parser.parse_args(argv)
    try:
        if args.fingerprint:
            print_fingerprints(args.workload, args.seed)
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        lines, final = report(result)
    except (BenchError, ImportError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    details = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    details.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
