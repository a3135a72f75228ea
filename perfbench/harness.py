"""Helpers shared by every workload: quantiles, golden compare, provenance.

Nothing here imports the program under test, so the helpers (and their
tests) work without ``src/`` on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: Percentiles tried, highest first, for the tail-latency metric.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10

#: Environment variables that size the BLAS/OpenMP thread pools. All are
#: pinned to one thread so a run never has more busy threads than the
#: two worker processes the parallel workloads start.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> None:
    """Pin every BLAS/OpenMP pool to one thread (call before numpy loads)."""
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"


# ----------------------------------------------------------------------
# Order statistics


def samples_beyond(n: int, percentile: float) -> int:
    """How many of ``n`` sorted samples lie above the ``percentile`` rank."""
    return n - math.ceil(n * percentile / 100.0)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it.

    Falls back to the median when the sample is too small for any tail
    percentile, so the tail metric never claims more than the data holds.
    """
    for percentile in TAIL_LADDER:
        if samples_beyond(n, percentile) >= MIN_BEYOND:
            return percentile
    return 50.0


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``0 <= q <= 100``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


@dataclass(frozen=True)
class LatencySummary:
    """Median and tail of one latency sample, with its size."""

    n: int
    p50: float
    tail: float
    tail_percentile: float

    @classmethod
    def of(cls, samples: list[list[float]]) -> "LatencySummary":
        """Pool the per-repetition ``samples``.

        The tail percentile is chosen from the smallest repetition, so
        it has ten samples beyond it in every repetition and does not
        shift when a run fits one repetition more or less.
        """
        values = [value for sample in samples for value in sample]
        rank = tail_percentile(min(len(sample) for sample in samples))
        return cls(
            n=len(values),
            p50=percentile(values, 50.0),
            tail=percentile(values, rank),
            tail_percentile=rank,
        )

    def describe(self, unit_scale: float = 1e3, unit: str = "ms") -> str:
        return (
            f"p50 {self.p50 * unit_scale:.4f}{unit}, "
            f"p{self.tail_percentile:g} {self.tail * unit_scale:.4f}{unit} "
            f"(n={self.n})"
        )


def end_to_end(setups: list[float], reps) -> tuple[dict, LatencySummary]:
    """The end-to-end metrics of one run from its setups and repetitions.

    ``setups`` are speed-normalised seconds. ``reps`` carry raw ``wall``
    seconds, ``items`` completed, raw ``latencies`` in seconds and the
    ``slowdown`` measured over them, which every timing is divided by.
    Timings are medians over repetitions.
    """
    latency = LatencySummary.of(
        [[value / rep.slowdown for value in rep.latencies] for rep in reps]
    )
    walls = [rep.wall / rep.slowdown for rep in reps]
    values = {
        "setup_s": percentile(setups, 50.0),
        "wall_s": percentile(walls, 50.0),
        "throughput_per_s": percentile(
            [rep.items / wall for rep, wall in zip(reps, walls)], 50.0
        ),
        "latency_ms_p50": latency.p50 * 1e3,
        "latency_ms_tail": latency.tail * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    return values, latency


# ----------------------------------------------------------------------
# Golden outputs


def flatten(value: Any, prefix: str = "") -> dict[str, Any]:
    """Nested dicts/lists -> ``{"a.b[0]": leaf}`` for key-by-key compare."""
    out: dict[str, Any] = {}
    if isinstance(value, dict):
        for key in sorted(value):
            name = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten(value[key], name))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            out.update(flatten(item, f"{prefix}[{index}]"))
    else:
        out[prefix] = value
    return out


@dataclass(frozen=True)
class Mismatch:
    """One output value that differs from the committed golden file."""

    workload: str
    key: str
    expected: Any
    actual: Any

    def __str__(self) -> str:
        return (
            f"golden mismatch in {self.workload}: {self.key} expected "
            f"{self.expected!r}, got {self.actual!r}"
        )


_MISSING = "<missing>"


def compare_golden(
    workload: str, expected: dict[str, Any], actual: dict[str, Any]
) -> list[Mismatch]:
    """Every key whose value differs, or that only one side has.

    Values compare exactly: the golden file stores the floats the seed
    code produced, and JSON round-trips a Python float bit for bit.
    """
    mismatches = []
    for key in sorted(set(expected) | set(actual)):
        want = expected.get(key, _MISSING)
        got = actual.get(key, _MISSING)
        if want != got or type(want) is not type(got):
            mismatches.append(Mismatch(workload, key, want, got))
    return mismatches


def load_golden(path: Path = GOLDEN_PATH) -> dict[str, Any]:
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Spec, result line, provenance


def load_spec(path: Path = SPEC_PATH) -> dict[str, Any]:
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def metric_units(spec: dict[str, Any], trace: bool) -> dict[str, str]:
    """``{name: unit}`` of the metrics a run must report."""
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    values: dict[str, float],
    units: dict[str, str],
) -> str:
    """The one-line JSON result; ``values`` must cover exactly ``units``."""
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise ValueError(f"metric set mismatch: missing {missing}, extra {extra}")
    metrics = {
        name: {"value": float(values[name]), "unit": units[name]}
        for name in units
    }
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def source_digest(root: Path = ROOT) -> str:
    """SHA-256 over ``src/`` file paths and bytes (the code measured)."""
    digest = hashlib.sha256()
    source = root / "src"
    for path in sorted(source.rglob("*.py")):
        digest.update(str(path.relative_to(source)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision(root: Path = ROOT) -> str | None:
    """``HEAD`` of the checkout, or ``None`` outside a git work tree."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    revision = completed.stdout.strip()
    return revision if completed.returncode == 0 and revision else None


def provenance(
    workload: str, seed: int, seconds: int, trace: bool, params: dict
) -> dict[str, Any]:
    """Where and on what a result was measured."""
    import numpy

    from repro.stats.backends import get_backend

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_revision": git_revision(),
        "src_digest": source_digest(),
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": get_backend().name,
        "blas_threads": {
            name: os.environ.get(name) for name in THREAD_VARIABLES
        },
        "params": params,
    }


def log(message: str) -> None:
    """Human-readable progress and report lines go to stderr."""
    print(message, file=sys.stderr, flush=True)
