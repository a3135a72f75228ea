"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid-weasel --seed 0 --seconds 10 --trace 0

prints a human-readable report, then one JSON result line: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced pass with ``--trace 1``. ``--workload all`` runs every
workload in its own process and prints each report in turn;
``--write-golden`` regenerates ``golden.json`` from the current code.
Run from the root of a source checkout (the program is imported from
``src/``); see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import the benchmark as a package from the checkout root, not as loose
# modules from its own directory.
sys.path[0] = str(ROOT)

from perfbench import harness, probes, speed  # noqa: E402  (after sys.path)

harness.pin_threads()

import numpy as np  # noqa: E402  (after the BLAS thread pinning)


def _import_program() -> None:
    """Put ``src/`` first on the path; exit 2 when it is not there."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        print(
            f"error: {package.relative_to(ROOT)} not found; run the "
            "benchmark from the root of a source checkout",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        print(
            f"error: imported repro from {repro.__file__}, not {package}",
            file=sys.stderr,
        )
        sys.exit(2)


# ----------------------------------------------------------------------


def timed_rep(workload, state, rng, seed: int):
    """One repetition, with the machine slowdown measured over it."""
    start = time.perf_counter()
    rep = workload.run(state, rng, seed)
    rep.slowdown = speed.window_slowdown(start, time.perf_counter())
    return rep


def measure(workload, seed: int, seconds: float):
    """Timed setups, then repetitions until ``seconds`` have elapsed.

    Setups are returned speed-normalised, each by the slowdown over it.
    """
    setups = []
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        state = workload.setup()
        end = time.perf_counter()
        setups.append((end - start) / speed.window_slowdown(start, end))
    rng = np.random.default_rng(seed)
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(timed_rep(workload, state, rng, seed))
        if time.perf_counter() - start >= seconds:
            break
    return setups, reps


def traced_pass(workload, seed: int):
    """One setup and one repetition under tracing with the probes in."""
    from repro.obs.events import span_to_record
    from repro.obs.trace import Tracer, use_tracer

    tracer = Tracer()
    try:
        with probes.installed(), use_tracer(tracer):
            with tracer.span(probes.SETUP_SPAN):
                state = workload.setup()
            with tracer.span(probes.MEASURE_SPAN):
                rep = timed_rep(
                    workload, state, np.random.default_rng(seed), seed
                )
        records = [span_to_record(span) for span in tracer.finished_spans()]
    finally:
        tracer.close()
    return rep, records


def golden_check(workload, seed: int, reps) -> tuple[list, int]:
    """Mismatches of every repetition against the committed golden file."""
    golden = harness.load_golden() if harness.GOLDEN_PATH.is_file() else {}
    key = workload.golden_key(seed)
    expected = golden.get(workload.name, {}).get(key)
    if expected is None:
        missing = harness.Mismatch(
            workload.name, key, "<golden entry>", "<none committed>"
        )
        return [missing], 0
    mismatches = []
    for rep in reps:
        mismatches.extend(
            harness.compare_golden(workload.name, expected, rep.outputs)
        )
    return mismatches, len(expected) * len(reps)


def write_trace(workload, seed: int, records, info) -> Path:
    from perfbench.workloads import OUTPUT_DIR

    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps({"type": "provenance", **info}) + "\n")
        for record in probes.annotate_groups(records):
            handle.write(json.dumps(record, default=str) + "\n")
    return path


def print_fold(records) -> None:
    """Self time per phase and layer, then per algorithm within a layer."""
    folded = probes.fold(records)
    by_layer: dict[tuple[str, str], float] = {}
    for (phase, layer, _), seconds in folded.items():
        by_layer[(phase, layer)] = by_layer.get((phase, layer), 0.0) + seconds
    print("self time by phase and layer:")
    for (phase, layer), seconds in sorted(
        by_layer.items(), key=lambda item: (item[0][0], -item[1])
    ):
        print(f"  {phase:14s} {layer:10s} {seconds:10.4f} s")
    print("self time by algorithm and layer (measured phase):")
    for (phase, layer, algorithm), seconds in sorted(
        folded.items(), key=lambda item: -item[1]
    ):
        if phase == probes.MEASURE_SPAN and algorithm != "-" and seconds > 0:
            print(f"  {algorithm:9s} {layer:10s} {seconds:10.4f} s")


# ----------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    _import_program()
    from perfbench.workloads import ALGORITHMS, RUN_DIR, WORKLOADS

    if name not in WORKLOADS:
        print(
            f"error: unknown workload {name!r}; known: "
            f"{', '.join(WORKLOADS)}, all",
            file=sys.stderr,
        )
        return 2
    spec = harness.load_spec()
    workload = WORKLOADS[name]
    info = harness.provenance(name, seed, seconds, trace, workload.params())
    print("provenance: " + json.dumps(info, sort_keys=True))
    harness.log(f"{name}: {workload.setup_repeats} setups, then {seconds}s")
    speed.start(RUN_DIR / f"speed-{os.getpid()}")
    try:
        setups, reps = measure(workload, seed, seconds)
        values, latency = harness.end_to_end(setups, reps)
        slowdowns = [rep.slowdown for rep in reps]
        mismatches, compared = golden_check(workload, seed, reps)
        attempted = sum(rep.attempted for rep in reps)
        failed = sum(rep.failed for rep in reps)
        units = harness.metric_units(spec, trace=False)
        kind = "cell" if workload.item == "cells" else "stream"
        print(f"workload {name} (seed {seed}): {len(reps)} repetition(s)")
        for metric, unit in units.items():
            print(f"  {metric:20s} {values[metric]:14.6f} {unit}")
        print(f"  latency sample: {workload.latency}, {latency.describe()}")
        raw_wall = harness.percentile([rep.wall for rep in reps], 50.0)
        print(
            "  machine slowdown     median "
            f"{harness.percentile(slowdowns, 50.0):.4f} (min "
            f"{min(slowdowns):.4f}, max {max(slowdowns):.4f}); "
            f"raw wall_s median {raw_wall:.6f} s"
        )
        print(f"  throughput unit: {workload.item} per second")
        print(f"  golden_mismatches    {len(mismatches)} of {compared} values")
        print(f"  {kind}_fail_frac{'':6s} {failed}/{attempted}")
        for mismatch in mismatches[:20]:
            print(f"  {mismatch}")

        if trace:
            rep, records = traced_pass(workload, seed)
            traced_mismatches, _ = golden_check(workload, seed, [rep])
            mismatches.extend(traced_mismatches)
            attempted += rep.attempted
            failed += rep.failed
            overhead = rep.wall / rep.slowdown / values["wall_s"] - 1.0
            values = probes.per_layer_metrics(
                records, rep.counters, ALGORITHMS, overhead
            )
            units = harness.metric_units(spec, trace=True)
            path = write_trace(workload, seed, records, info)
            print(
                f"traced pass: {len(records)} spans -> "
                f"{path.relative_to(ROOT)}"
            )
            if workload.item == "cells":
                fits = sum(1 for r in records if r["name"] == "fit")
                expected = rep.attempted * workload.n_folds
                status = "all present" if fits == expected else "MISSING"
                print(f"  fit spans {fits} of {expected} expected ({status})")
            print_fold(records)
            for metric, unit in units.items():
                print(f"  {metric:38s} {values[metric]:14.6f} {unit}")
    finally:
        speed.stop()
    print(
        harness.result_line(
            correct=not mismatches,
            attempted=attempted,
            failed=failed,
            values=values,
            units=units,
        )
    )
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in its own process (peak RSS stays per workload)."""
    _import_program()
    from perfbench.workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        completed = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace)),
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = completed.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            print(f"{name}: exited with code {completed.returncode}")
            return completed.returncode or 1
        results[name] = json.loads(lines[-1])
    if trace:
        print("share of fit time inside transform.sfa.fit:")
        for name, result in results.items():
            share = result["metrics"]["transform.sfa.fit_share"]["value"]
            print(f"  {name:14s} {share:8.4f}")
    print(json.dumps(results))
    return 0


def write_golden() -> int:
    """Record the current code's outputs as the golden file."""
    _import_program()
    from perfbench.workloads import WORKLOADS

    golden = {}
    for name, workload in WORKLOADS.items():
        harness.log(f"golden: {name}")
        state = workload.setup()
        entries = {}
        seeds = range(getattr(workload, "seed_classes", 1))
        for seed in seeds:
            rng = np.random.default_rng(seed)
            rep = workload.run(state, rng, seed)
            entries[workload.golden_key(seed)] = rep.outputs
        golden[name] = entries
    with harness.GOLDEN_PATH.open("w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    arguments = parser.parse_args(argv)
    if arguments.write_golden:
        return write_golden()
    if arguments.workload == "all":
        return run_all(arguments.seed, arguments.seconds, bool(arguments.trace))
    return run_workload(
        arguments.workload,
        arguments.seed,
        arguments.seconds,
        bool(arguments.trace),
    )


if __name__ == "__main__":
    sys.exit(main())
