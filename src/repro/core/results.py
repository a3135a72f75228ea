"""Persistence and rendering of benchmark reports.

A :class:`~repro.core.runner.RunReport` holds everything one experimental
campaign produced. This module serialises reports to JSON (so expensive
grids can be archived and re-rendered without re-running), loads them back,
and renders the per-dataset score matrix as markdown — the per-dataset
results table the paper ships as supplementary material.
"""

from __future__ import annotations

import json
import os
from typing import Iterable

from typing import TYPE_CHECKING

from ..exceptions import DataFormatError
from .categorization import DatasetCategories
from .evaluation import EvaluationResult, FoldResult

if TYPE_CHECKING:  # break the runner -> checkpoint -> results cycle
    from .runner import RunReport

__all__ = [
    "save_report",
    "load_report",
    "report_to_markdown",
    "fold_to_dict",
    "fold_from_dict",
    "categories_from_names",
    "stable_round",
]

_FORMAT_VERSION = 1


def stable_round(value: float, digits: int = 9) -> float:
    """Stabilize floats for JSON round-trips and cross-run comparison."""
    return round(float(value), digits)


def fold_to_dict(fold: FoldResult) -> dict:
    """JSON-serialisable form of one fold (shared with checkpoints)."""
    return {
        "accuracy": fold.accuracy,
        "f1": fold.f1,
        "earliness": fold.earliness,
        "harmonic_mean": fold.harmonic_mean,
        "train_seconds": fold.train_seconds,
        "test_seconds": fold.test_seconds,
        "n_test": fold.n_test,
    }


def fold_from_dict(payload: dict) -> FoldResult:
    """Inverse of :func:`fold_to_dict`."""
    return FoldResult(**payload)


def save_report(report: RunReport, path: str | os.PathLike) -> None:
    """Serialise a run report (results, failures, categories) to JSON."""
    payload = {
        "version": _FORMAT_VERSION,
        "results": [
            {
                "algorithm": algorithm,
                "dataset": dataset,
                "folds": [fold_to_dict(fold) for fold in result.folds],
            }
            for (algorithm, dataset), result in report.results.items()
        ],
        "failures": [
            {"algorithm": algorithm, "dataset": dataset, "reason": reason}
            for (algorithm, dataset), reason in report.failures.items()
        ],
        "categories": {
            dataset: categories.names()
            for dataset, categories in report.categories.items()
        },
        "frequencies": dict(report._frequencies),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def categories_from_names(names: Iterable[str]) -> DatasetCategories:
    """Rebuild a :class:`DatasetCategories` from its flag-name list."""
    names = set(names)
    return DatasetCategories(
        wide="Wide" in names,
        large="Large" in names,
        unstable="Unstable" in names,
        imbalanced="Imbalanced" in names,
        multiclass="Multiclass" in names,
        common="Common" in names,
        univariate="Univariate" in names,
        multivariate="Multivariate" in names,
    )


def load_report(path: str | os.PathLike) -> RunReport:
    """Load a report previously written by :func:`save_report`."""
    from .runner import RunReport

    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("version") != _FORMAT_VERSION:
        raise DataFormatError(
            f"{path}: unsupported report version {payload.get('version')!r}"
        )
    report = RunReport()
    for entry in payload["results"]:
        folds = tuple(fold_from_dict(fold) for fold in entry["folds"])
        report.results[(entry["algorithm"], entry["dataset"])] = (
            EvaluationResult(entry["algorithm"], entry["dataset"], folds)
        )
    for entry in payload["failures"]:
        report.failures[(entry["algorithm"], entry["dataset"])] = entry[
            "reason"
        ]
    for dataset, names in payload["categories"].items():
        report.categories[dataset] = categories_from_names(names)
    report._frequencies.update(payload.get("frequencies", {}))
    return report


def report_to_markdown(report: RunReport, decimals: int = 3) -> str:
    """Per-dataset score matrix as markdown (accuracy/earliness/hm).

    One block per metric, rows = datasets, columns = algorithms, failed
    pairs shown as ``--`` — the layout of the paper's supplementary
    per-dataset tables.
    """
    algorithms = report.algorithms()
    datasets = report.datasets()
    blocks = []
    for metric in ("accuracy", "f1", "earliness", "harmonic_mean"):
        lines = [
            f"## {metric}",
            "",
            "| dataset | " + " | ".join(algorithms) + " |",
            "|" + "---|" * (len(algorithms) + 1),
        ]
        for dataset in datasets:
            cells = []
            for algorithm in algorithms:
                result = report.results.get((algorithm, dataset))
                if result is None:
                    cells.append("--")
                else:
                    cells.append(f"{getattr(result, metric):.{decimals}f}")
            lines.append(f"| {dataset} | " + " | ".join(cells) + " |")
        blocks.append("\n".join(lines))
    if report.failures:
        lines = ["## failures", ""]
        for (algorithm, dataset), reason in report.failures.items():
            lines.append(f"- {algorithm} on {dataset}: {reason}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
