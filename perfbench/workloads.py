"""The four benchmark workloads.

Each workload has a ``setup`` (timed, repeated) and a ``run`` that does
one repetition of the measured work and returns a :class:`Rep`. The
data every workload evaluates or serves is generated from the fixed
``DATA_SEED``, so every run does the same work and produces outputs the
golden file can hold. The ``--seed`` argument generates the rest of the
input: the order in which algorithms and datasets are registered (grid
workloads), the interleaving of the open streams (stream-serve), and
the arrival process of the replayed scenario (fleet-replay).
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro.core.prediction import SOURCE_FALLBACK
from repro.core.registry import (
    AlgorithmRegistry,
    DatasetRegistry,
    default_algorithms,
    default_datasets,
)
from repro.core.runner import BenchmarkRunner
from repro.core.voting import wrap_for_dataset
from repro.data.splits import train_test_split
from repro.etsc.ecec import ECEC
from repro.etsc.economy_k import EconomyK
from repro.etsc.strut import s_mlstm
from repro.etsc.teaser import TEASER
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import get_tracer
from repro.serve.fallback import make_fallback
from repro.serve.guard import GuardStats, InputGuard
from repro.serve.session import GuardedStreamingSession

from .harness import ROOT, flatten

#: Seed of every generated dataset and train/test split.
DATA_SEED = 0
#: Scratch space for checkpoints; traces go to ``OUTPUT_DIR``.
RUN_DIR = ROOT / ".perfbench_run"
OUTPUT_DIR = ROOT / ".perfbench_out"

#: The eight registered algorithms, for the per-algorithm layer metrics.
ALGORITHMS = (
    "ECEC", "ECO-K", "ECTS", "EDSC", "S-MINI", "S-MLSTM", "S-WEASEL", "TEASER",
)

#: Budget parameters cut below the fast profile so a run fits several
#: grid evaluations: fewer ECEC/TEASER prefixes, ECO-K checkpoints and
#: estimators, and S-MLSTM epochs. The algorithms and the substrates
#: they call are unchanged.
BENCH_OVERRIDES = {
    "ECEC": lambda: ECEC(n_prefixes=3, n_folds=2),
    "TEASER": lambda: TEASER(n_prefixes=3),
    "ECO-K": lambda: EconomyK(n_clusters=2, n_checkpoints=3, n_estimators=3),
    "S-MLSTM": lambda: s_mlstm(n_epochs=4),
}
PROFILE = (
    "fast, with ECEC n_prefixes=3 n_folds=2, TEASER n_prefixes=3, "
    "ECO-K n_checkpoints=3 n_estimators=3, S-MLSTM n_epochs=4"
)


def bench_algorithms(names: list[str]) -> AlgorithmRegistry:
    """The fast-profile registry, with overrides, registered in ``names`` order."""
    fast = default_algorithms(fast=True)
    registry = AlgorithmRegistry()
    for name in names:
        info = fast.get(name)
        registry.register(
            name,
            BENCH_OVERRIDES.get(name, info.factory),
            category=info.category,
            supports_multivariate=info.supports_multivariate,
            early=info.early,
        )
    return registry


def bench_dataset(name: str, scale: float, per_class: int | None):
    """A generated dataset cut to the first ``per_class`` series per class."""
    dataset = default_datasets(scale=scale, seed=DATA_SEED).load(name)
    if per_class is None:
        return dataset
    keep = [
        index
        for label in np.unique(dataset.labels)
        for index in np.flatnonzero(dataset.labels == label)[:per_class]
    ]
    return dataset.select(np.sort(keep))


@dataclass
class Rep:
    """One repetition of a workload's measured work."""

    wall: float
    items: int
    latencies: list[float]
    attempted: int
    failed: int
    outputs: dict[str, Any]
    counters: dict[str, float] = field(default_factory=dict)
    #: Machine slowdown measured over the repetition (``speed.py``);
    #: ``wall`` and ``latencies`` are raw, the metrics divide by it.
    slowdown: float = 1.0


# ----------------------------------------------------------------------


class GridWorkload:
    """``BenchmarkRunner.run`` over an algorithms x datasets grid."""

    item = "cells"
    #: Cells differ in cost by orders of magnitude, so a per-cell median
    #: jumps between algorithms; the grid evaluation is the unit a user
    #: waits for.
    latency = "wall seconds of one grid evaluation (the makespan)"
    golden_fields = ("accuracy", "f1", "earliness", "harmonic_mean")
    #: Dataset generation takes milliseconds; many repeats steady its median.
    setup_repeats = 20
    n_folds = 2

    def __init__(self, name, algorithms, datasets, workers, checkpoint):
        self.name = name
        self.algorithms = tuple(algorithms)
        self.datasets = tuple(datasets)  # (name, scale, per_class)
        self.workers = workers
        self.checkpoint = checkpoint

    def params(self) -> dict:
        return {
            "algorithms": list(self.algorithms),
            "datasets": [list(entry) for entry in self.datasets],
            "profile": PROFILE,
            "n_folds": self.n_folds,
            "workers": self.workers,
            "scheduler": "lpt",
            "checkpoint": self.checkpoint,
            "data_seed": DATA_SEED,
        }

    def golden_key(self, seed: int) -> str:
        return "cells"

    def setup(self) -> dict:
        return {
            name: bench_dataset(name, scale, per_class)
            for name, scale, per_class in self.datasets
        }

    def run(
        self, datasets: dict, rng: np.random.Generator, seed: int
    ) -> Rep:
        algorithm_order = [
            self.algorithms[i] for i in rng.permutation(len(self.algorithms))
        ]
        dataset_order = [
            self.datasets[i][0] for i in rng.permutation(len(self.datasets))
        ]
        registry = DatasetRegistry()
        for name in dataset_order:
            registry.register(name, lambda dataset=datasets[name]: dataset)
        checkpoint = None
        if self.checkpoint:
            RUN_DIR.mkdir(exist_ok=True)
            checkpoint = RUN_DIR / f"{self.name}-checkpoint.jsonl"
        metrics = MetricsRegistry()
        runner = BenchmarkRunner(
            bench_algorithms(algorithm_order),
            registry,
            n_folds=self.n_folds,
            seed=0,
            metrics=metrics,
            workers=self.workers,
            checkpoint_path=checkpoint,
        )
        try:
            start = time.perf_counter()
            report = runner.run()
            wall = time.perf_counter() - start
        finally:
            if checkpoint is not None:
                checkpoint.unlink(missing_ok=True)
        outputs = {}
        for (algorithm, dataset), result in report.results.items():
            for attribute in self.golden_fields:
                outputs[f"{algorithm}/{dataset}.{attribute}"] = getattr(
                    result, attribute
                )
        cells = len(self.algorithms) * len(self.datasets)
        cell_timer = metrics.timer("cell_seconds")
        estimate_error = metrics.timer("sched.estimate_error_pct")
        counters = {
            "core.runner.cell_s_total": cell_timer.total,
            "core.runner.busy_frac": cell_timer.total / (wall * self.workers),
            "core.runner.cells_retried": metrics.counter("cell_retries").value,
            "core.sched.estimate_error_pct": (
                estimate_error.total / estimate_error.count
                if estimate_error.count
                else 0.0
            ),
        }
        return Rep(
            wall=wall,
            items=cells,
            latencies=[wall],
            attempted=cells,
            failed=len(report.failures),
            outputs=outputs,
            counters=counters,
        )


# ----------------------------------------------------------------------


@dataclass
class _Model:
    algorithm: str
    dataset: str
    classifier: Any
    stats: GuardStats
    fallback: Any
    test: Any


class StreamServeWorkload:
    """Many open guarded sessions, interleaved point by point."""

    name = "stream-serve"
    item = "points"
    latency = "wall seconds of one model consultation"
    setup_repeats = 3
    #: (dataset, scale, algorithms served on it)
    models = (
        ("PowerCons", 0.05, ("ECTS", "EDSC", "ECO-K", "TEASER", "S-MINI")),
        ("Biological", 0.03, ("ECTS", "EDSC", "ECO-K", "S-MINI")),
    )
    test_fraction = 0.5

    def params(self) -> dict:
        return {
            "models": [[d, s, list(a)] for d, s, a in self.models],
            "test_fraction": self.test_fraction,
            "profile": PROFILE,
            "guard": "lenient, train statistics",
            "fallback": "majority",
            "deadline": None,
            "loop": "closed, one thread, one push in flight",
            "data_seed": DATA_SEED,
        }

    def golden_key(self, seed: int) -> str:
        return "streams"

    def setup(self) -> list[_Model]:
        tracer = get_tracer()
        models = []
        for dataset_name, scale, algorithms in self.models:
            dataset = bench_dataset(dataset_name, scale, None)
            train, test = train_test_split(
                dataset, test_fraction=self.test_fraction, seed=DATA_SEED
            )
            registry = bench_algorithms(list(algorithms))
            for algorithm in algorithms:
                with tracer.span("etsc.train", algorithm=algorithm):
                    classifier = wrap_for_dataset(
                        registry.get(algorithm).factory, train
                    )
                    classifier.train(train)
                models.append(
                    _Model(
                        algorithm,
                        dataset_name,
                        classifier,
                        GuardStats.from_dataset(train),
                        make_fallback("majority").fit(train),
                        test,
                    )
                )
        return models

    def run(
        self, models: list[_Model], rng: np.random.Generator, seed: int
    ) -> Rep:
        metrics = MetricsRegistry()
        streams = []
        for model in models:
            for instance in range(model.test.n_instances):
                streams.append((model, instance))
        order = rng.permutation(len(streams))
        tracer = get_tracer()
        start = time.perf_counter()
        open_streams = []
        for k in order:
            model, instance = streams[k]
            session = GuardedStreamingSession(
                model.classifier,
                model.test.length,
                guard=InputGuard(model.stats),
                fallback=model.fallback,
                stream_name=f"{model.dataset}[{instance}]",
                algorithm_name=model.algorithm,
                metrics=metrics,
            )
            open_streams.append([model, instance, session, 0])
        pushes = 0
        push_seconds = 0.0
        finished = []
        while open_streams:
            still_open = []
            for entry in open_streams:
                model, instance, session, t = entry
                with tracer.span(
                    "serve.push",
                    algorithm=model.algorithm,
                    stream_id=f"{model.algorithm}/{model.dataset}/{instance}",
                ):
                    pushed = time.perf_counter()
                    decision = session.push(model.test.values[instance, :, t])
                    push_seconds += time.perf_counter() - pushed
                pushes += 1
                entry[3] = t + 1
                if decision is None and entry[3] < model.test.length:
                    still_open.append(entry)
                else:
                    finished.append((model, instance, session, decision))
            open_streams = still_open
        wall = time.perf_counter() - start
        outputs: dict[str, Any] = {}
        latencies: list[float] = []
        failed = 0
        for model, instance, session, decision in finished:
            latencies.extend(r.elapsed_seconds for r in session.consult_records)
            key = f"{model.algorithm}/{model.dataset}/{instance}"
            if decision is None:
                failed += 1
                outputs[key] = None
                continue
            if decision.degraded or decision.source == SOURCE_FALLBACK:
                failed += 1
            outputs[key] = [int(decision.label), int(decision.decided_at)]
        return Rep(
            wall=wall,
            items=pushes,
            latencies=latencies,
            attempted=len(streams),
            failed=failed,
            outputs=flatten(outputs),
            counters={
                "serve.session.push_self_s": push_seconds - sum(latencies),
                "serve.session.consults": len(latencies),
                "serve.degraded_decisions": metrics.counter(
                    "serve.degraded_decisions"
                ).value,
            },
        )


# ----------------------------------------------------------------------


class _PoolTimer:
    """Sums the time the fleet coordinator spends blocked in ``recv``."""

    def __init__(self) -> None:
        self.wait = 0.0

    @contextmanager
    def installed(self) -> Iterator["_PoolTimer"]:
        from repro.core.pool import WorkerHandle

        recv = WorkerHandle.recv
        timer = self

        def timed_recv(handle, timeout=None):
            start = time.perf_counter()
            try:
                return recv(handle, timeout)
            finally:
                timer.wait += time.perf_counter() - start

        WorkerHandle.recv = timed_recv
        try:
            yield self
        finally:
            WorkerHandle.recv = recv


@contextmanager
def _pretrained(bundles: dict) -> Iterator[None]:
    """Make ``run_fleet`` reuse bundles trained in setup.

    ``run_fleet`` trains its scenario's models before replaying; the
    benchmark trains them once in setup so the replay is timed alone.
    """
    import repro.fleet.coordinator as coordinator

    original = coordinator.train_scenario_bundles
    coordinator.train_scenario_bundles = lambda *args, **kwargs: bundles
    try:
        yield
    finally:
        coordinator.train_scenario_bundles = original


@dataclass
class _FleetState:
    scenario: Any
    bundles: dict


class FleetReplayWorkload:
    """The bundled ``bursty`` scenario, replicated, through ``run_fleet``."""

    name = "fleet-replay"
    item = "streams"
    #: Which events share a tick depends on the arrival seed, so tick
    #: latency quantiles move with the seed; the replay is the unit.
    latency = "wall seconds of one run_fleet replay"
    setup_repeats = 3
    scenario_name = "bursty"
    replicate = 20
    n_shards = 2
    #: Arrival seeds cycle through this many scenario seeds, so the
    #: golden file holds one fleet report per seed class.
    seed_classes = 8

    def params(self) -> dict:
        return {
            "scenario": self.scenario_name,
            "replicate": self.replicate,
            "n_shards": self.n_shards,
            "training": "once in setup, reused by every replay",
            "arrival_seed": "bundled seed + (seed mod 8)",
        }

    def scenario_seed(self, base: int, seed: int) -> int:
        return base + seed % self.seed_classes

    def golden_key(self, seed: int) -> str:
        return f"seed-class-{seed % self.seed_classes}"

    def setup(self) -> _FleetState:
        from repro.fleet.cli import replicate_scenario
        from repro.slo.harness import train_scenario_bundles
        from repro.slo.scenario import resolve_scenario

        scenario = replicate_scenario(
            resolve_scenario(self.scenario_name), self.replicate
        )
        with get_tracer().span("slo.train_bundles"):
            bundles = train_scenario_bundles(scenario)
        return _FleetState(scenario, bundles)

    def run(
        self, state: _FleetState, rng: np.random.Generator, seed: int
    ) -> Rep:
        from repro.fleet import FleetConfig, run_fleet

        scenario = dataclasses.replace(
            state.scenario,
            seed=self.scenario_seed(state.scenario.seed, seed),
        )
        pool = _PoolTimer()
        with _pretrained(state.bundles), pool.installed():
            start = time.perf_counter()
            report = run_fleet(scenario, FleetConfig(n_shards=self.n_shards))
            wall = time.perf_counter() - start
        completed = report.n_requested - report.n_shed
        return Rep(
            wall=wall,
            items=completed,
            latencies=[wall],
            attempted=report.n_requested,
            failed=(
                report.n_shed + report.n_no_decision + report.n_degraded
            ),
            outputs=flatten(report.deterministic_dict()),
            counters={
                "fleet.run_s": wall,
                "fleet.ticks": report.ticks,
                "fleet.shed": report.n_shed,
                "fleet.failovers": report.failovers,
                "core.pool.request_wait_s": pool.wait,
            },
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        # Why each workload exists is recorded in BENCHMARK.json and
        # README.md.
        GridWorkload(
            "grid-weasel",
            ("ECEC", "TEASER", "S-WEASEL"),
            (("PowerCons", 0.03, 4), ("Biological", 0.03, 3)),
            workers=1,
            checkpoint=False,
        ),
        GridWorkload(
            "grid-mixed",
            ("ECTS", "EDSC", "ECO-K", "S-MINI", "S-MLSTM"),
            (
                ("PowerCons", 0.03, 5),
                ("DodgerLoopDay", 0.05, 3),
                ("BasicMotions", 0.05, 3),
                ("Biological", 0.03, 6),
            ),
            workers=2,
            checkpoint=True,
        ),
        StreamServeWorkload(),
        FleetReplayWorkload(),
    )
}
