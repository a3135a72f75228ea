"""Layer probes: spans around the program's public entry points.

The traced run wraps each entry point below in a span on the program's
own tracer (:func:`repro.obs.trace.get_tracer`), so the probes nest
under the program's ``grid -> cell -> fold -> fit`` and ``push`` spans
and, in a parallel grid, travel back from the forked workers with the
cell spans the runner already ships. The probes are installed only for
the traced phase; untraced timings run the program unmodified.

:func:`fold` turns the finished spans into self time per layer and per
algorithm, and :func:`layer_totals` into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Iterator

#: (module, class or None for a module function, attribute, span name).
#: The first dotted part of a span name is its layer.
PROBES = (
    ("repro.datasets.ucr", None, "generate", "datasets.generate"),
    ("repro.datasets.biological", None, "generate", "datasets.generate"),
    ("repro.datasets.maritime", None, "generate", "datasets.generate"),
    ("repro.transform.sfa", "SFATransformer", "fit", "transform.sfa.fit"),
    (
        "repro.transform.sfa",
        "SFATransformer",
        "transform_words",
        "transform.sfa.transform",
    ),
    (
        "repro.transform.sfa",
        "SFATransformer",
        "transform_symbols",
        "transform.sfa.transform",
    ),
    ("repro.transform.bop", "BagOfPatterns", "fit", "transform.bop.fit"),
    (
        "repro.transform.bop",
        "BagOfPatterns",
        "transform",
        "transform.bop.transform",
    ),
    ("repro.tsc.weasel", "WEASEL", "train", "tsc.weasel.train"),
    ("repro.tsc.minirocket", "MiniROCKET", "train", "tsc.minirocket.train"),
    ("repro.tsc.mlstm_fcn", "MLSTMFCN", "train", "tsc.mlstm_fcn.train"),
    ("repro.nn.network", "MLSTMFCNNetwork", "train_epochs", "nn.train_epochs"),
    ("repro.stats.linear", "LogisticRegression", "fit", "stats.linear.fit"),
    ("repro.stats.svm", "OneClassSVM", "fit", "stats.svm.fit"),
    ("repro.stats.kmeans", "KMeans", "fit", "stats.kmeans.fit"),
    (
        "repro.stats.boosting",
        "GradientBoostingClassifier",
        "fit",
        "stats.boosting.fit",
    ),
    (
        "repro.stats.hierarchical",
        "AgglomerativeClustering",
        "fit",
        "stats.hierarchical.fit",
    ),
    (
        "repro.stats.distance",
        "PrefixDistanceCache",
        "advance",
        "stats.distance.prefix_advance",
    ),
    (
        "repro.stats.distance",
        "PrefixDistanceCache",
        "advance_chunk",
        "stats.distance.prefix_advance",
    ),
    ("repro.core.base", "EarlyClassifier", "predict_one", "etsc.predict_one"),
    ("repro.etsc.ects", "ECTS", "predict_one", "etsc.predict_one"),
    ("repro.etsc.teaser", "TEASER", "predict_one", "etsc.predict_one"),
)

#: Layer of the spans the program itself opens.
PROGRAM_SPAN_LAYERS = {
    "grid": "core",
    "load": "core",
    "cell": "core",
    "fold": "core",
    "fit": "etsc",
    "predict": "etsc",
    "push": "core",
    "stream": "core",
    "fleet_stream": "fleet",
    "fleet_batch": "fleet",
    "fleet_failover": "fleet",
}

#: Root spans the benchmark opens around its two phases.
SETUP_SPAN = "bench.setup"
MEASURE_SPAN = "bench.measure"


def _wrap(function, name: str):
    from repro.obs.trace import get_tracer

    @functools.wraps(function)
    def traced(*args, **kwargs):
        with get_tracer().span(name):
            return function(*args, **kwargs)

    return traced


@contextmanager
def installed(probes=PROBES) -> Iterator[None]:
    """Wrap every probe target for the duration of the block."""
    saved = []
    try:
        for module_name, class_name, attribute, span in probes:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
                original = owner.__dict__[attribute]
            else:
                original = getattr(owner, attribute)
            setattr(owner, attribute, _wrap(original, span))
            saved.append((owner, attribute, original))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


# ----------------------------------------------------------------------
# Folding spans


def layer_of(name: str) -> str:
    """``transform.sfa.fit`` -> ``transform``; program spans by table."""
    if name in PROGRAM_SPAN_LAYERS:
        return PROGRAM_SPAN_LAYERS[name]
    return name.split(".", 1)[0]


class SpanIndex:
    """Parent links over span records (``span_to_record`` dicts)."""

    def __init__(self, records: list[dict[str, Any]]) -> None:
        self.by_id = {record["span_id"]: record for record in records}
        self.children: dict[int, list[dict]] = defaultdict(list)
        for record in records:
            parent = record.get("parent_id")
            if parent in self.by_id:
                self.children[parent].append(record)

    def ancestors(self, record: dict) -> Iterator[dict]:
        parent = record.get("parent_id")
        while parent in self.by_id:
            record = self.by_id[parent]
            yield record
            parent = record.get("parent_id")

    def attribute(self, record: dict, key: str) -> Any:
        """``key`` on the record or its nearest ancestor that has it."""
        if key in (record.get("attributes") or {}):
            return record["attributes"][key]
        for ancestor in self.ancestors(record):
            if key in (ancestor.get("attributes") or {}):
                return ancestor["attributes"][key]
        return None

    def root_name(self, record: dict) -> str:
        root = record
        for root in self.ancestors(record):
            pass
        return root["name"]

    def self_seconds(self, record: dict) -> float:
        """Duration minus the time its direct children cover."""
        covered = sum(child["duration"] for child in self.children[record["span_id"]])
        return max(record["duration"] - covered, 0.0)

    def group(self, record: dict) -> str | None:
        """The cell (``ALG/DATASET``) or stream a span belongs to."""
        stream = self.attribute(record, "stream_id")
        if stream is not None:
            return str(stream)
        for candidate in (record, *self.ancestors(record)):
            if candidate["name"] == "cell":
                attributes = candidate.get("attributes") or {}
                return f"{attributes.get('algorithm')}/{attributes.get('dataset')}"
        return None


def fold(records: list[dict[str, Any]]) -> dict[tuple[str, str, str], float]:
    """Self seconds keyed by ``(phase, layer, algorithm)``."""
    index = SpanIndex(records)
    totals: dict[tuple[str, str, str], float] = defaultdict(float)
    for record in records:
        phase = index.root_name(record)
        algorithm = index.attribute(record, "algorithm") or "-"
        key = (phase, layer_of(record["name"]), str(algorithm))
        totals[key] += index.self_seconds(record)
    return dict(totals)


def layer_totals(
    records: list[dict[str, Any]], phase: str
) -> dict[str, dict[str, Any]]:
    """Per span name: outermost inclusive seconds, calls, per-algorithm.

    A span nested inside one of the same name (the voting ensemble
    training its per-variable members, say) is counted as a call but
    its time is already inside the outer span's.
    """
    index = SpanIndex(records)
    out: dict[str, dict[str, Any]] = {}
    for record in records:
        if index.root_name(record) != phase:
            continue
        name = record["name"]
        entry = out.setdefault(
            name, {"seconds": 0.0, "calls": 0, "by_algorithm": defaultdict(list)}
        )
        entry["calls"] += 1
        if any(a["name"] == name for a in index.ancestors(record)):
            continue
        entry["seconds"] += record["duration"]
        algorithm = index.attribute(record, "algorithm")
        if algorithm is not None:
            entry["by_algorithm"][str(algorithm)].append(record["duration"])
    return out


def annotate_groups(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Copies of ``records`` carrying the cell/stream id they belong to."""
    index = SpanIndex(records)
    return [{**record, "group": index.group(record)} for record in records]


# ----------------------------------------------------------------------
# Per-layer metrics

#: Per-layer metric -> probe span whose outermost inclusive seconds it is.
SPAN_SECONDS = {
    "transform.sfa.fit_s": "transform.sfa.fit",
    "transform.sfa.transform_s": "transform.sfa.transform",
    "transform.bop.fit_s": "transform.bop.fit",
    "transform.bop.transform_s": "transform.bop.transform",
    "tsc.weasel.train_s": "tsc.weasel.train",
    "tsc.minirocket.train_s": "tsc.minirocket.train",
    "tsc.mlstm_fcn.train_s": "tsc.mlstm_fcn.train",
    "nn.train_epochs_s": "nn.train_epochs",
    "stats.linear.fit_s": "stats.linear.fit",
    "stats.svm.fit_s": "stats.svm.fit",
    "stats.kmeans.fit_s": "stats.kmeans.fit",
    "stats.boosting.fit_s": "stats.boosting.fit",
    "stats.hierarchical.fit_s": "stats.hierarchical.fit",
    "stats.distance.prefix_advance_s": "stats.distance.prefix_advance",
}

#: Per-layer metric -> probe span whose call count it is.
SPAN_CALLS = {
    "transform.sfa.fit_calls": "transform.sfa.fit",
    "stats.linear.fit_calls": "stats.linear.fit",
    "stats.distance.prefix_advance_calls": "stats.distance.prefix_advance",
}


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def per_layer_metrics(
    records: list[dict[str, Any]],
    counters: dict[str, float],
    algorithms: tuple[str, ...],
    overhead_frac: float,
) -> dict[str, float]:
    """Every per-layer metric of one traced setup plus one traced rep.

    Span metrics come from the measured phase, except the two that feed
    ``setup_s`` (dataset generation and SLO bundle training), which come
    from the setup phase. Counter metrics are read from the program's
    own registries and reports; a layer the workload never reaches
    reads 0.
    """
    measured = layer_totals(records, MEASURE_SPAN)
    setup = layer_totals(records, SETUP_SPAN)

    def seconds(totals, name):
        return totals.get(name, {}).get("seconds", 0.0)

    values: dict[str, float] = {
        "datasets.generate_s": seconds(setup, "datasets.generate"),
        "slo.train_bundles_s": seconds(setup, "slo.train_bundles"),
    }
    for metric, span in SPAN_SECONDS.items():
        values[metric] = seconds(measured, span)
    for metric, span in SPAN_CALLS.items():
        values[metric] = measured.get(span, {}).get("calls", 0)
    fits = measured.get("fit", {}).get("by_algorithm", {})
    predicts = measured.get("predict", {}).get("by_algorithm", {})
    consults = measured.get("etsc.predict_one", {}).get("by_algorithm", {})
    for algorithm in algorithms:
        values[f"etsc.{algorithm}.fit_s"] = sum(fits.get(algorithm, ()))
        values[f"etsc.{algorithm}.predict_s"] = sum(predicts.get(algorithm, ()))
        samples = consults.get(algorithm)
        values[f"etsc.{algorithm}.predict_one_s_p50"] = (
            _median(samples) if samples else 0.0
        )
    fit_total = sum(sum(durations) for durations in fits.values())
    values["transform.sfa.fit_share"] = (
        values["transform.sfa.fit_s"] / fit_total if fit_total else 0.0
    )
    for name in (
        "core.runner.cell_s_total",
        "core.runner.busy_frac",
        "core.runner.cells_retried",
        "core.sched.estimate_error_pct",
        "serve.session.push_self_s",
        "serve.session.consults",
        "serve.degraded_decisions",
        "fleet.run_s",
        "fleet.ticks",
        "fleet.shed",
        "fleet.failovers",
        "core.pool.request_wait_s",
    ):
        values[name] = float(counters.get(name, 0.0))
    values["obs.spans"] = len(records)
    values["obs.trace_overhead_frac"] = overhead_frac
    return values
