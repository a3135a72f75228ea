"""Grid orchestration: datasets x algorithms -> per-category aggregates.

This is the outer loop of the paper's empirical comparison (Section 6):
run every registered algorithm on every registered dataset under stratified
k-fold cross-validation, respect a per-pair time budget (the paper kills
runs after 48 hours — EDSC never finished the 'Wide' datasets), and
aggregate each metric over the Table 3 dataset categories to produce the
series plotted in Figures 9-12 and the online-feasibility heatmap of
Figure 13.

Fault tolerance: every cell (including the dataset load) is crash-
isolated — *any* exception is caught, classified (timeout / transient /
permanent / data-format, see :mod:`repro.core.resilience`), recorded in
``RunReport.failures`` with traceback context on the cell span, and the
grid keeps going. Transient failures are retried with exponential
backoff. With a checkpoint attached, each cell's outcome is appended to
an append-only JSONL file as it completes, and ``resume_from=`` restores
a killed run, skipping finished cells (see
:mod:`repro.core.checkpoint`).

One cell loop (:meth:`BenchmarkRunner._run_cells`) runs every grid.
Datasets are loaded once, up front, in the parent. With ``workers > 1``
the loop schedules cells onto a fork-based ``ProcessPoolExecutor``; each
worker runs the identical crash-isolation/retry/budget attempt loop,
records its spans on a private tracer, and ships the outcome plus
serialised spans back. Otherwise each cell runs in the parent at its
commit slot. Either way the parent commits outcomes in the plan's order,
writing report entries and checkpoint lines itself — so a parallel run's
report and checkpoint are byte-identical to a serial run's (modulo
wall-clock timings). Worker span trees are stitched under the parent's
grid span via :meth:`repro.obs.trace.Tracer.adopt_spans`. If the pool
breaks (a worker died hard), the affected cells re-run in the parent.

Plans: a plain run commits its pending cells in canonical grid order
(dataset-major, registry algorithm order) and submits them in the order
chosen by the cost model in :mod:`repro.core.sched` —
longest-estimated-first (LPT) by default, so the skewed grid's expensive
cells start before the cheap ones pack the tail (``scheduler="fifo"``
keeps canonical submission order for A/B measurement). The schedule
changes only *when* cells execute, never what the artifacts contain.
``workers="auto"`` sizes the pool to the cores this process is actually
allowed to use. ``shard="i/n"`` (with a checkpoint *directory*) runs one
cost-balanced bin of the grid, then steals unclaimed cells from sibling
shards — see :meth:`BenchmarkRunner._run_shard` and ``etsc-bench
merge-checkpoints``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..data.dataset import TimeSeriesDataset
from ..exceptions import CheckpointError, ConfigurationError, ReproError
from ..obs.events import span_to_record
from ..obs.logging import GridProgress, get_logger
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer, get_tracer, use_tracer
from .categorization import (
    DatasetCategories,
    canonical_categories,
    categorize,
    category_names,
)
from .checkpoint import CheckpointWriter, grid_fingerprint, load_checkpoint
from .evaluation import EvaluationResult, evaluate
from .registry import AlgorithmRegistry, DatasetRegistry
from .resilience import (
    TIMEOUT,
    RetryPolicy,
    failure_reason,
    format_traceback,
)
from .sched import (
    CellEstimate,
    ClaimBoard,
    CostModel,
    ShardSpec,
    claims_directory,
    find_shard_checkpoints,
    lpt_order,
    partition_cells,
    resolve_workers,
    shard_checkpoint_path,
)
from .timeouts import time_limit

_logger = get_logger("core.runner")

__all__ = ["RunReport", "BenchmarkRunner", "aggregate_by_category"]

_METRIC_ATTRIBUTES = (
    "accuracy",
    "f1",
    "earliness",
    "harmonic_mean",
    "train_seconds",
    "test_seconds",
)


@dataclass
class RunReport:
    """Everything one grid run produced.

    ``results[(algorithm, dataset)]`` holds the cross-validated scores;
    ``failures[(algorithm, dataset)]`` holds the reason a pair was skipped
    (timeout or error) — mirroring the hatched cells of Figure 13.
    """

    results: dict[tuple[str, str], EvaluationResult] = field(
        default_factory=dict
    )
    failures: dict[tuple[str, str], str] = field(default_factory=dict)
    categories: dict[str, DatasetCategories] = field(default_factory=dict)

    def algorithms(self) -> list[str]:
        """Algorithm names appearing in results or failures."""
        names: list[str] = []
        for algorithm, _ in list(self.results) + list(self.failures):
            if algorithm not in names:
                names.append(algorithm)
        return names

    def datasets(self) -> list[str]:
        """Dataset names appearing in results or failures."""
        names: list[str] = []
        for _, dataset in list(self.results) + list(self.failures):
            if dataset not in names:
                names.append(dataset)
        return names

    def metric_by_category(self, metric: str) -> dict[str, dict[str, float]]:
        """``{category: {algorithm: mean metric}}`` over member datasets."""
        if metric not in _METRIC_ATTRIBUTES:
            raise ReproError(
                f"metric must be one of {_METRIC_ATTRIBUTES}, got {metric!r}"
            )
        return aggregate_by_category(self.results, self.categories, metric)

    def online_feasibility(self) -> dict[tuple[str, str], float | None]:
        """Figure 13 cells: per-instance test time over observation period.

        Values below 1 mean the algorithm keeps up with the stream; ``None``
        marks pairs that failed to train (the hatched cells). Datasets
        without a known observation frequency are skipped.
        """
        cells: dict[tuple[str, str], float | None] = {}
        frequencies: dict[str, float] = {}
        for (algorithm, dataset), result in self.results.items():
            frequency = self._frequencies.get(dataset)
            if frequency is None or frequency <= 0:
                continue
            cells[(algorithm, dataset)] = (
                result.test_seconds_per_instance / frequency
            )
        for key in self.failures:
            if key[1] in self._frequencies:
                cells[key] = None
        return cells

    _frequencies: dict[str, float] = field(default_factory=dict)


def aggregate_by_category(
    results: dict[tuple[str, str], EvaluationResult],
    categories: dict[str, DatasetCategories],
    metric: str,
) -> dict[str, dict[str, float]]:
    """Average a metric per (category, algorithm) over member datasets.

    Pairs that failed are simply absent — exactly how the paper's bar
    charts omit EDSC on 'Wide' datasets.
    """
    table: dict[str, dict[str, list[float]]] = {
        name: {} for name in category_names()
    }
    for (algorithm, dataset), result in results.items():
        dataset_categories = categories.get(dataset)
        if dataset_categories is None:
            continue
        value = float(getattr(result, metric))
        for category in dataset_categories.names():
            table[category].setdefault(algorithm, []).append(value)
    return {
        category: {
            algorithm: float(np.mean(values))
            for algorithm, values in per_algorithm.items()
        }
        for category, per_algorithm in table.items()
        if per_algorithm
    }


@dataclass
class _CellOutcome:
    """What one cell attempt loop produced (success or terminal failure).

    Separating the *attempt* (runs in a worker or the parent) from the
    *bookkeeping* (metrics, report, checkpoint, telemetry — always the
    parent, always in the plan's commit order) is what lets parallel runs
    merge deterministically.
    """

    algorithm: str
    dataset: str
    result: EvaluationResult | None
    reason: str | None
    kind: str | None
    attempts: int
    elapsed: float
    retries: int
    cpu_seconds: float = 0.0


#: Fork-inherited state for pool workers. Registries hold closures (not
#: picklable), so the parent parks itself and the preloaded datasets here
#: right before forking; workers read them back by key instead of
#: receiving them over the pipe.
_WORKER_STATE: dict[str, Any] | None = None


def _evaluate_cell_worker(
    key: tuple[str, str],
) -> tuple[_CellOutcome, list[dict[str, Any]]]:
    """Pool entry point: run one cell, return its outcome and spans.

    Spans are recorded on a worker-private tracer (the fork-inherited
    parent tracer must not be used — its ``on_finish`` may hold the
    parent's trace-file handle) and shipped back as plain dicts for
    ``Tracer.adopt_spans`` to stitch under the grid span.
    """
    state = _WORKER_STATE
    assert state is not None, "worker used without fork-inherited state"
    runner: BenchmarkRunner = state["runner"]
    algorithm_name, dataset_name = key
    dataset = state["datasets"][dataset_name]
    parent_tracer = get_tracer()
    if parent_tracer.enabled:
        tracer: Any = Tracer(
            trace_memory=getattr(parent_tracer, "_trace_memory", False)
        )
    else:
        tracer = parent_tracer  # the null tracer: record nothing
    with use_tracer(tracer):
        outcome = runner._execute_cell(
            algorithm_name, dataset_name, dataset, tracer
        )
    records = [span_to_record(span) for span in tracer.finished_spans()]
    return outcome, records


class BenchmarkRunner:
    """Run the full algorithms x datasets grid with budgets and fallbacks.

    Parameters
    ----------
    algorithms, datasets:
        The registries to iterate.
    n_folds:
        Cross-validation folds (the paper uses 5).
    time_budget_seconds:
        Per-pair wall-clock budget. Checked *between* pairs and recorded as
        a skip when a pair exceeded it — a cooperative version of the
        paper's 48-hour kill rule (no mid-run preemption).
    wide_threshold, large_threshold:
        Categorisation thresholds, exposed so reduced-scale runs can scale
        them together with the data.
    progress:
        Optional callable receiving human-readable progress lines.
    metrics:
        Optional :class:`repro.obs.metrics.MetricsRegistry` to record run
        counters into (cells completed / timed out / failed / retried,
        grid completion). A fresh registry is created when omitted; it is
        always available as ``runner.metrics`` after construction.
    retry_policy:
        :class:`repro.core.resilience.RetryPolicy` governing how many
        attempts a transiently-failing cell gets and the backoff between
        them. The default policy makes a single attempt (no retries).
        Timeouts and permanent/data-format failures are never retried.
    checkpoint_path:
        Write an append-only JSONL checkpoint of every cell outcome to
        this path as the grid runs, so a killed run can be resumed.
    resume_from:
        Path of a checkpoint from a previous (killed) run. Its completed
        cells are restored into the report and skipped; the checkpoint's
        grid fingerprint must match this run's (seed, folds, budget,
        algorithm/dataset lists) or
        :class:`repro.exceptions.CheckpointMismatchError` is raised.
        When ``checkpoint_path`` is omitted, new outcomes append to the
        resumed file.
    fault_injector:
        Deterministic fault-injection hook for tests: a callable
        ``(stage, algorithm, dataset, attempt)`` consulted before every
        dataset load (``stage="load"``) and evaluation attempt
        (``stage="evaluate"``); raising injects the failure. See
        :class:`repro.core.resilience.FaultPlan`.
    fingerprint_extra:
        Extra key/value context folded into the checkpoint fingerprint
        (the CLI records the scale factor and registry profile here).
    workers:
        Number of worker processes evaluating cells concurrently
        (default 1 = in-process serial), or ``"auto"`` to size the pool
        to the cores this process may actually run on
        (:func:`repro.core.pool.available_cores` — clamps to 1 on a
        1-core box instead of oversubscribing). Requires the ``fork``
        start method (silently degrades to serial where unavailable);
        results, checkpoint lines, and report contents are merged in
        canonical grid order, identical to a serial run.
    scheduler:
        Parallel dispatch policy: ``"lpt"`` (default) submits cells
        longest-estimated-first using the cost model; ``"fifo"`` submits
        in canonical grid order. Serial runs ignore it. Artifacts are
        schedule-independent either way.
    shard:
        ``"i/n"`` (or a :class:`repro.core.sched.ShardSpec`) runs only
        the ``i``-th of ``n`` cost-balanced bins of the grid, writing to
        ``<checkpoint_path>/shard-i.jsonl`` — ``checkpoint_path`` must
        then be a *directory* shared by all shards. An idle shard steals
        unclaimed cells from its siblings (disable with
        ``shard_steal=False``). Shard runs resume implicitly from their
        own file; ``resume_from`` is rejected.
    shard_steal:
        Whether a shard that drains its own bin steals unclaimed,
        uncompleted cells from sibling bins (default ``True``).
    cost_model:
        The :class:`repro.core.sched.CostModel` estimating per-cell
        durations. A fresh one is created when omitted; resume seeds it
        with the checkpoint's recorded wall timings either way.

    Tracing is picked up from the process-wide tracer
    (:func:`repro.obs.trace.get_tracer`) at :meth:`run` time; per-cell
    progress telemetry goes through the ``repro.core.runner`` logger
    (silent unless logging is configured).
    """

    def __init__(
        self,
        algorithms: AlgorithmRegistry,
        datasets: DatasetRegistry,
        n_folds: int = 5,
        time_budget_seconds: float = float("inf"),
        wide_threshold: int | None = None,
        large_threshold: int | None = None,
        seed: int = 0,
        progress: Callable[[str], None] | None = None,
        metrics: MetricsRegistry | None = None,
        retry_policy: RetryPolicy | None = None,
        checkpoint_path: str | os.PathLike | None = None,
        resume_from: str | os.PathLike | None = None,
        fault_injector: Callable[[str, str, str, int], None] | None = None,
        fingerprint_extra: dict | None = None,
        workers: int | str = 1,
        scheduler: str = "lpt",
        shard: str | ShardSpec | None = None,
        shard_steal: bool = True,
        cost_model: CostModel | None = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        if scheduler not in ("lpt", "fifo"):
            raise ConfigurationError(
                f"scheduler must be 'lpt' or 'fifo', got {scheduler!r}"
            )
        self.scheduler = scheduler
        if isinstance(shard, str):
            shard = ShardSpec.parse(shard)
        self.shard = shard
        self.shard_steal = shard_steal
        self.cost_model = cost_model or CostModel()
        if shard is not None:
            if checkpoint_path is None:
                raise ConfigurationError(
                    "shard mode requires checkpoint_path (a directory "
                    "shared by all shards)"
                )
            if resume_from is not None:
                raise ConfigurationError(
                    "shard mode resumes implicitly from its own "
                    "shard-<i>.jsonl; resume_from is not supported"
                )
        self.algorithms = algorithms
        self.datasets = datasets
        self.n_folds = n_folds
        self.time_budget_seconds = time_budget_seconds
        self.wide_threshold = wide_threshold
        self.large_threshold = large_threshold
        self.seed = seed
        self.progress = progress or (lambda line: None)
        self.metrics = metrics or MetricsRegistry()
        self.retry_policy = retry_policy or RetryPolicy()
        self.checkpoint_path = checkpoint_path
        self.resume_from = resume_from
        self.fault_injector = fault_injector
        self.fingerprint_extra = fingerprint_extra

    def _categorize(self, dataset: TimeSeriesDataset) -> DatasetCategories:
        # The paper's 12 datasets keep their published Table 3 assignment
        # regardless of the generation scale; unknown datasets are measured.
        canonical = canonical_categories(dataset.name)
        if canonical is not None:
            return canonical
        kwargs = {}
        if self.wide_threshold is not None:
            kwargs["wide_threshold"] = self.wide_threshold
        if self.large_threshold is not None:
            kwargs["large_threshold"] = self.large_threshold
        return categorize(dataset, **kwargs)

    def fingerprint(
        self,
        algorithm_names: list[str] | None = None,
        dataset_names: list[str] | None = None,
    ) -> dict:
        """The checkpoint fingerprint :meth:`run` would use for this grid."""
        return grid_fingerprint(
            seed=self.seed,
            n_folds=self.n_folds,
            time_budget_seconds=self.time_budget_seconds,
            algorithms=algorithm_names or self.algorithms.names(),
            datasets=dataset_names or self.datasets.names(),
            wide_threshold=self.wide_threshold,
            large_threshold=self.large_threshold,
            extra=self.fingerprint_extra,
        )

    def _open_checkpoint(
        self,
        report: RunReport,
        fingerprint: dict,
        resume_from: str | os.PathLike | None,
        path: str | os.PathLike | None,
    ) -> tuple[CheckpointWriter | None, set[tuple[str, str]]]:
        """Restore ``resume_from`` into ``report`` and open ``path``.

        Returns ``(writer, completed_keys)``; the writer is ``None`` when
        checkpointing is off. Restored outcomes are copied into ``report``
        before any cell runs. Resuming from ``path`` itself appends to it.
        """
        completed: set[tuple[str, str]] = set()
        state = None
        if resume_from is not None:
            state = load_checkpoint(resume_from)
            state.validate_fingerprint(fingerprint)
            report.results.update(state.results)
            report.failures.update(state.failures)
            report.categories.update(state.categories)
            report._frequencies.update(state.frequencies)
            completed = state.completed_keys()
            self._seed_cost_model(state)
            _logger.info(
                "resuming from %s: %d cells already complete "
                "(%d results, %d failures)",
                resume_from,
                len(completed),
                len(state.results),
                len(state.failures),
            )
        if path is None:
            return None, completed
        same_file = state is not None and os.path.realpath(
            str(path)
        ) == os.path.realpath(str(resume_from))
        writer = CheckpointWriter(path, fingerprint, append=same_file)
        if state is not None and not same_file:
            # Resuming into a fresh checkpoint file: re-record the
            # restored outcomes so the new file stands alone.
            for name, categories in state.categories.items():
                writer.write_dataset(
                    name, categories, state.frequencies.get(name)
                )
            for (algorithm, dataset), result in state.results.items():
                timings = state.timings.get((algorithm, dataset), {})
                writer.write_result(
                    algorithm,
                    dataset,
                    result,
                    wall_seconds=timings.get("wall_seconds"),
                    cpu_seconds=timings.get("cpu_seconds"),
                )
            for (algorithm, dataset), reason in state.failures.items():
                timings = state.timings.get((algorithm, dataset), {})
                writer.write_failure(
                    algorithm,
                    dataset,
                    reason,
                    state.failure_kinds.get((algorithm, dataset), "permanent"),
                    state.failure_attempts.get((algorithm, dataset), 1),
                    wall_seconds=timings.get("wall_seconds"),
                    cpu_seconds=timings.get("cpu_seconds"),
                )
        return writer, completed

    def _seed_cost_model(self, state) -> None:
        """Feed a resumed checkpoint's recorded wall timings to the model."""
        seeded = 0
        for (algorithm, dataset), timings in state.timings.items():
            wall = timings.get("wall_seconds")
            if wall is not None:
                self.cost_model.record(algorithm, dataset, wall)
                seeded += 1
        if seeded:
            _logger.info(
                "cost model seeded with %d measured cell timings", seeded
            )

    def run(
        self,
        algorithm_names: list[str] | None = None,
        dataset_names: list[str] | None = None,
    ) -> RunReport:
        """Evaluate the (sub)grid and return the aggregated report.

        In shard mode (``shard="i/n"``) only this shard's bin (plus any
        stolen cells) is evaluated and the returned report is partial —
        merge the shard checkpoints (``etsc-bench merge-checkpoints`` or
        :func:`repro.core.sched.merge_checkpoint_states`) for the
        canonical full report.
        """
        report = RunReport()
        algorithm_names = algorithm_names or self.algorithms.names()
        dataset_names = dataset_names or self.datasets.names()
        fingerprint = self.fingerprint(algorithm_names, dataset_names)
        if self.shard is None:
            resume_from = self.resume_from
            path = self.checkpoint_path or self.resume_from
        else:
            # A directory shared by every shard; this shard appends to
            # its own file in it, resuming implicitly if it exists.
            directory = Path(self.checkpoint_path)
            directory.mkdir(parents=True, exist_ok=True)
            path = shard_checkpoint_path(directory, self.shard.index)
            resume_from = path if path.exists() else None
        checkpoint, completed = self._open_checkpoint(
            report, fingerprint, resume_from, path
        )
        cells = [
            (algorithm_name, dataset_name)
            for dataset_name in dataset_names
            for algorithm_name in algorithm_names
        ]
        tracer = get_tracer()
        workers = self._effective_workers()
        shard_attributes = (
            {} if self.shard is None else {"shard": str(self.shard)}
        )
        try:
            with tracer.span(
                "grid",
                n_algorithms=len(algorithm_names),
                n_datasets=len(dataset_names),
                n_folds=self.n_folds,
                time_budget_seconds=self.time_budget_seconds,
                seed=self.seed,
                resumed_cells=len(completed),
                workers=workers,
                **shard_attributes,
            ) as grid_span:
                if self.shard is None:
                    self._run_pending(
                        report, cells, completed, checkpoint,
                        tracer, grid_span, workers,
                    )
                else:
                    self._run_shard(
                        report, cells, completed, checkpoint, path,
                        fingerprint, tracer, grid_span, workers,
                    )
        finally:
            if checkpoint is not None:
                checkpoint.close()
        return report

    def _effective_workers(self) -> int:
        """Worker count after platform gating (fork-only parallelism)."""
        if self.workers <= 1:
            return 1
        if "fork" not in multiprocessing.get_all_start_methods():
            _logger.warning(
                "workers=%d requested but the 'fork' start method is "
                "unavailable on this platform; running serially",
                self.workers,
            )
            return 1
        return self.workers

    def _run_pending(
        self,
        report: RunReport,
        cells: list[tuple[str, str]],
        completed: set[tuple[str, str]],
        checkpoint: CheckpointWriter | None,
        tracer,
        grid_span,
        workers: int,
    ) -> None:
        """Plain plan: every pending cell, committed in canonical order.

        Submission order is the schedule: the fork pool starts cells in
        the order they were submitted, so handing it the LPT order puts
        the expensive cells first. Commits still walk the canonical grid,
        so artifacts cannot observe the schedule.
        """
        pending = [key for key in cells if key not in completed]
        datasets, load_failures = self._load_datasets(
            [dataset_name for _, dataset_name in pending], tracer
        )
        estimates: dict[tuple[str, str], CellEstimate] = {}
        submit_order = None
        if workers > 1:
            runnable = [key for key in pending if key[1] in datasets]
            estimates = self._cell_estimates(runnable, datasets)
            submit_order = self._dispatch_order(runnable, estimates)
            grid_span.add_event(
                "sched_plan",
                scheduler=self.scheduler,
                n_cells=len(runnable),
                workers=workers,
                estimated_total_seconds=sum(
                    est.seconds for est in estimates.values()
                ),
            )
        self._run_cells(
            pending, submit_order, datasets, load_failures, estimates,
            report, checkpoint, GridProgress(len(pending), logger=_logger),
            tracer, grid_span, workers, announced=set(),
        )

    def _run_cells(
        self,
        cells: list[tuple[str, str]],
        submit_order: list[tuple[str, str]] | None,
        datasets: dict[str, TimeSeriesDataset],
        load_failures: dict[str, tuple[str, str, int]],
        estimates: dict[tuple[str, str], CellEstimate],
        report: RunReport,
        checkpoint: CheckpointWriter | None,
        telemetry: GridProgress,
        tracer,
        grid_span,
        workers: int,
        announced: set[str],
        stolen: bool = False,
    ) -> None:
        """The one cell loop: execute ``cells`` and commit them in order.

        With ``workers > 1`` and more than one loaded cell, every loaded
        cell is submitted up front to a fork pool (in ``submit_order``,
        default ``cells``); otherwise each cell runs inline in the parent
        at its commit slot, under SIGALRM. Either way the report entries,
        checkpoint lines, counters and progress lines are written here,
        in ``cells`` order — so how cells ran never shows in artifacts.
        A dataset's categories are announced at its first committed cell
        unless already in ``announced`` (which the loop extends). A
        broken pool (hard worker death) re-runs the cell in the parent.
        """
        global _WORKER_STATE
        poolable = [
            key for key in submit_order or cells if key[1] in datasets
        ]
        executor = None
        futures: dict[tuple[str, str], Any] = {}
        if workers > 1 and len(poolable) > 1:
            _WORKER_STATE = {"runner": self, "datasets": datasets}
            executor = ProcessPoolExecutor(
                max_workers=min(workers, len(poolable)),
                mp_context=multiprocessing.get_context("fork"),
            )
            futures = {
                key: executor.submit(_evaluate_cell_worker, key)
                for key in poolable
            }
        completion = self.metrics.gauge("grid_completion")
        try:
            for key in cells:
                algorithm_name, dataset_name = key
                if dataset_name in load_failures:
                    self._commit_load_failure(
                        report, algorithm_name, dataset_name,
                        *load_failures[dataset_name], telemetry, checkpoint,
                    )
                    completion.set(telemetry.fraction_done)
                    continue
                dataset = datasets[dataset_name]
                if dataset_name not in announced:
                    announced.add(dataset_name)
                    self._commit_dataset(
                        report, dataset_name, dataset, checkpoint
                    )
                self.metrics.counter("cells_total").inc()
                telemetry.started(algorithm_name, dataset_name)
                span_records: list[dict[str, Any]] = []
                if key in futures:
                    try:
                        outcome, span_records = futures[key].result()
                    except (BrokenProcessPool, OSError) as error:
                        _logger.warning(
                            "%s on %s: worker pool broke (%s); "
                            "re-running the cell in the parent",
                            algorithm_name, dataset_name, error,
                        )
                        outcome = self._execute_cell(
                            algorithm_name, dataset_name, dataset, tracer
                        )
                else:
                    outcome = self._execute_cell(
                        algorithm_name, dataset_name, dataset, tracer
                    )
                if span_records and isinstance(tracer, Tracer):
                    tracer.adopt_spans(
                        span_records, parent_id=grid_span.span_id
                    )
                self._commit_outcome(report, outcome, telemetry, checkpoint)
                self._record_sched(
                    grid_span, outcome, estimates.get(key), stolen=stolen
                )
                completion.set(telemetry.fraction_done)
        finally:
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
                _WORKER_STATE = None

    def _commit_dataset(
        self,
        report: RunReport,
        dataset_name: str,
        dataset: TimeSeriesDataset,
        checkpoint: CheckpointWriter | None,
    ) -> None:
        """Record a loaded dataset's categories/frequency (+ checkpoint)."""
        report.categories[dataset_name] = self._categorize(dataset)
        if dataset.frequency_seconds is not None:
            report._frequencies[dataset_name] = dataset.frequency_seconds
        if checkpoint is not None:
            checkpoint.write_dataset(
                dataset_name,
                report.categories[dataset_name],
                dataset.frequency_seconds,
            )

    def _load_datasets(self, dataset_names: list[str], tracer) -> tuple[
        dict[str, TimeSeriesDataset], dict[str, tuple[str, str, int]]
    ]:
        """Load each named dataset once: ``(datasets, load_failures)``.

        ``load_failures`` maps a dataset that failed terminally to its
        ``(reason, kind, attempts)``; the cell loop commits one failure
        per cell of it, and the grid keeps going.
        """
        datasets: dict[str, TimeSeriesDataset] = {}
        load_failures: dict[str, tuple[str, str, int]] = {}
        for dataset_name in dict.fromkeys(dataset_names):
            dataset, reason, kind, attempt = self._load_with_retries(
                dataset_name, tracer
            )
            if dataset is None:
                assert reason is not None and kind is not None
                load_failures[dataset_name] = (reason, kind, attempt)
            else:
                datasets[dataset_name] = dataset
        return datasets, load_failures

    def _load_with_retries(
        self, dataset_name: str, tracer
    ) -> tuple[TimeSeriesDataset | None, str | None, str | None, int]:
        """The load attempt loop: ``(dataset, reason, kind, attempts)``.

        Span-side recording only — terminal-failure bookkeeping (report,
        checkpoint, telemetry) happens at the dataset's cells' commit
        slots in the cell loop.
        """
        policy = self.retry_policy
        attempt = 0
        with tracer.span("load", dataset=dataset_name) as span:
            while True:
                attempt += 1
                try:
                    if self.fault_injector is not None:
                        self.fault_injector("load", "", dataset_name, attempt)
                    return self.datasets.load(dataset_name), None, None, attempt
                except Exception as error:
                    kind = policy.classify(error)
                    reason = failure_reason(error)
                    span.add_event(
                        "attempt_failed",
                        attempt=attempt,
                        kind=kind,
                        error=reason,
                    )
                    if policy.should_retry(error, attempt):
                        self.metrics.counter("load_retries").inc()
                        delay = policy.wait(
                            attempt, key=f"load:{dataset_name}"
                        )
                        span.add_event(
                            "retry", attempt=attempt, delay=delay
                        )
                        _logger.warning(
                            "load %s: transient failure (%s), retrying "
                            "attempt %d/%d after %.2fs",
                            dataset_name, reason, attempt + 1,
                            policy.max_attempts, delay,
                        )
                        continue
                    span.set_status("error")
                    span.set_attribute("reason", reason)
                    span.set_attribute("failure_kind", kind)
                    span.set_attribute("attempts", attempt)
                    span.set_attribute(
                        "traceback", format_traceback(error)
                    )
                    self.metrics.counter("datasets_failed").inc()
                    return None, reason, kind, attempt

    def _commit_load_failure(
        self,
        report: RunReport,
        algorithm_name: str,
        dataset_name: str,
        reason: str,
        kind: str,
        attempt: int,
        telemetry: GridProgress,
        checkpoint: CheckpointWriter | None,
    ) -> None:
        """Record the failure of a cell whose dataset failed to load."""
        cell_reason = f"dataset load failed: {reason}"
        self.metrics.counter("cells_total").inc()
        self.metrics.counter("cells_failed").inc()
        report.failures[(algorithm_name, dataset_name)] = cell_reason
        if checkpoint is not None:
            checkpoint.write_failure(
                algorithm_name, dataset_name, cell_reason, kind, attempt,
            )
        telemetry.failed(algorithm_name, dataset_name, 0.0, cell_reason)
        self.progress(
            f"{algorithm_name} on {dataset_name}: FAILED ({cell_reason})"
        )

    def _execute_cell(
        self,
        algorithm_name: str,
        dataset_name: str,
        dataset: TimeSeriesDataset,
        tracer,
    ) -> _CellOutcome:
        """The cell attempt loop, run in the parent or a pool worker.

        Runs fault injection, the paper's kill rule, and the retry policy
        inside a ``cell`` span, recording attempt events and terminal
        status on the span. Everything observable outside the span — the
        report entry, checkpoint line, metrics, telemetry — is described
        by the returned :class:`_CellOutcome` and committed by the cell
        loop, so parallel runs commit in the plan's order.
        """
        info = self.algorithms.get(algorithm_name)
        policy = self.retry_policy
        retries = 0
        with tracer.span(
            "cell", algorithm=algorithm_name, dataset=dataset_name
        ) as cell_span:
            start = time.perf_counter()
            cpu_start = time.process_time()
            attempt = 0
            while True:
                attempt += 1
                try:
                    if self.fault_injector is not None:
                        self.fault_injector(
                            "evaluate", algorithm_name, dataset_name, attempt
                        )
                    # Preemptive kill rule (the paper's 48-hour cutoff);
                    # falls back to the cooperative check below when
                    # SIGALRM is unavailable (non-Unix or worker thread).
                    with time_limit(self.time_budget_seconds):
                        result = evaluate(
                            info.factory,
                            dataset,
                            algorithm_name,
                            n_folds=self.n_folds,
                            seed=self.seed,
                        )
                    break
                except Exception as error:
                    kind = policy.classify(error)
                    reason = failure_reason(error)
                    cell_span.add_event(
                        "attempt_failed",
                        attempt=attempt,
                        kind=kind,
                        error=reason,
                    )
                    if policy.should_retry(error, attempt):
                        retries += 1
                        delay = policy.wait(
                            attempt, key=f"{algorithm_name}:{dataset_name}"
                        )
                        cell_span.add_event(
                            "retry", attempt=attempt, delay=delay
                        )
                        _logger.warning(
                            "%s on %s: transient failure (%s), retrying "
                            "attempt %d/%d after %.2fs",
                            algorithm_name, dataset_name, reason,
                            attempt + 1, policy.max_attempts, delay,
                        )
                        continue
                    elapsed = time.perf_counter() - start
                    cpu_seconds = time.process_time() - cpu_start
                    timeout = kind == TIMEOUT
                    cell_span.set_status("timeout" if timeout else "error")
                    cell_span.set_attribute("reason", reason)
                    cell_span.set_attribute("failure_kind", kind)
                    cell_span.set_attribute("attempts", attempt)
                    cell_span.set_attribute(
                        "traceback", format_traceback(error)
                    )
                    return _CellOutcome(
                        algorithm=algorithm_name,
                        dataset=dataset_name,
                        result=None,
                        reason=reason,
                        kind=kind,
                        attempts=attempt,
                        elapsed=elapsed,
                        retries=retries,
                        cpu_seconds=cpu_seconds,
                    )
            elapsed = time.perf_counter() - start
            cpu_seconds = time.process_time() - cpu_start
            cell_span.set_attribute("seconds", elapsed)
            cell_span.set_attribute("attempts", attempt)
            if elapsed > self.time_budget_seconds:
                # Cooperative after-the-fact budget check (degraded
                # no-SIGALRM mode): classified timeout, never retried.
                reason = f"exceeded time budget ({elapsed:.1f}s)"
                cell_span.set_status("timeout")
                cell_span.set_attribute("reason", reason)
                cell_span.set_attribute("failure_kind", TIMEOUT)
                cell_span.set_attribute("attempts", attempt)
                return _CellOutcome(
                    algorithm=algorithm_name,
                    dataset=dataset_name,
                    result=None,
                    reason=reason,
                    kind=TIMEOUT,
                    attempts=attempt,
                    elapsed=elapsed,
                    retries=retries,
                    cpu_seconds=cpu_seconds,
                )
            return _CellOutcome(
                algorithm=algorithm_name,
                dataset=dataset_name,
                result=result,
                reason=None,
                kind=None,
                attempts=attempt,
                elapsed=elapsed,
                retries=retries,
                cpu_seconds=cpu_seconds,
            )

    def _commit_outcome(
        self,
        report: RunReport,
        outcome: _CellOutcome,
        telemetry: GridProgress,
        checkpoint: CheckpointWriter | None,
    ) -> None:
        """Record a cell outcome everywhere it must appear (parent only)."""
        algorithm_name, dataset_name = outcome.algorithm, outcome.dataset
        # Feed the measurement back so later estimates for this cell (and
        # this algorithm's calibration factor) come from reality.
        self.cost_model.record(
            algorithm_name, dataset_name, outcome.elapsed
        )
        if outcome.retries:
            self.metrics.counter("cell_retries").inc(outcome.retries)
        result = outcome.result
        if result is None:
            assert outcome.reason is not None and outcome.kind is not None
            timeout = outcome.kind == TIMEOUT
            self.metrics.counter(
                "cells_timeout" if timeout else "cells_failed"
            ).inc()
            report.failures[(algorithm_name, dataset_name)] = outcome.reason
            if checkpoint is not None:
                checkpoint.write_failure(
                    algorithm_name, dataset_name,
                    outcome.reason, outcome.kind, outcome.attempts,
                    wall_seconds=outcome.elapsed,
                    cpu_seconds=outcome.cpu_seconds,
                )
            telemetry.failed(
                algorithm_name, dataset_name, outcome.elapsed,
                outcome.reason, timeout=timeout,
            )
            self.progress(
                f"{algorithm_name} on {dataset_name}: "
                f"FAILED ({outcome.reason})"
            )
            return
        report.results[(algorithm_name, dataset_name)] = result
        if checkpoint is not None:
            checkpoint.write_result(
                algorithm_name, dataset_name, result,
                wall_seconds=outcome.elapsed,
                cpu_seconds=outcome.cpu_seconds,
            )
        self.metrics.counter("cells_completed").inc()
        self.metrics.timer("cell_seconds").observe(outcome.elapsed)
        detail = f"acc={result.accuracy:.3f} hm={result.harmonic_mean:.3f}"
        telemetry.finished(
            algorithm_name, dataset_name, outcome.elapsed, detail
        )
        self.progress(
            f"{algorithm_name} on {dataset_name}: "
            f"acc={result.accuracy:.3f} f1={result.f1:.3f} "
            f"earl={result.earliness:.3f} hm={result.harmonic_mean:.3f} "
            f"({outcome.elapsed:.1f}s)"
        )

    # ------------------------------------------------------------------
    # Cost-model scheduling and checkpoint shards (repro.core.sched).

    def _cell_estimates(
        self,
        cells: list[tuple[str, str]],
        datasets: dict[str, TimeSeriesDataset],
    ) -> dict[tuple[str, str], CellEstimate]:
        """Estimate every cell's duration (attaching loaded shapes)."""
        estimates: dict[tuple[str, str], CellEstimate] = {}
        for algorithm_name, dataset_name in cells:
            dataset = datasets.get(dataset_name)
            shape = dataset.values.shape if dataset is not None else None
            if shape is not None:
                self.cost_model.attach_shape(dataset_name, shape)
            estimates[(algorithm_name, dataset_name)] = (
                self.cost_model.estimate(
                    algorithm_name,
                    dataset_name,
                    shape,
                    self.algorithms.get(algorithm_name).category,
                )
            )
        return estimates

    def _dispatch_order(
        self,
        cells: list[tuple[str, str]],
        estimates: dict[tuple[str, str], CellEstimate],
    ) -> list[tuple[str, str]]:
        """``cells`` (canonical order) in the scheduler's dispatch order."""
        if self.scheduler != "lpt":
            return list(cells)
        return lpt_order(
            cells, {key: estimates[key].seconds for key in cells}
        )

    def _record_sched(
        self,
        grid_span,
        outcome: _CellOutcome,
        estimate: CellEstimate | None,
        stolen: bool = False,
    ) -> None:
        """Scheduler telemetry for one committed cell.

        The live ``sched.*`` counters and the ``sched_cell`` grid-span
        event are written together so :func:`repro.obs.metrics
        .metrics_from_spans` recomputes exactly the live numbers from a
        trace (the rollup==live parity contract).
        """
        if estimate is None:
            return
        error_pct = (
            abs(outcome.elapsed - estimate.seconds)
            / max(estimate.seconds, 1e-9)
            * 100.0
        )
        self.metrics.counter("sched.cells_scheduled").inc()
        if stolen:
            self.metrics.counter("sched.steals").inc()
        self.metrics.timer("sched.estimate_error_pct").observe(error_pct)
        grid_span.add_event(
            "sched_cell",
            algorithm=outcome.algorithm,
            dataset=outcome.dataset,
            estimate_seconds=estimate.seconds,
            actual_seconds=outcome.elapsed,
            error_pct=error_pct,
            source=estimate.source,
            stolen=stolen,
        )

    def _run_shard(
        self,
        report: RunReport,
        cells: list[tuple[str, str]],
        completed: set[tuple[str, str]],
        checkpoint: CheckpointWriter,
        own_path: Path,
        fingerprint: dict,
        tracer,
        grid_span,
        workers: int,
    ) -> None:
        """Shard plan: run this shard's cost-balanced bin, then steal.

        Shards coordinate purely through atomic claim files next to
        their checkpoints — no locks, no coordinator. Cells commit in
        dispatch order (the shard file is not canonical); ``etsc-bench
        merge-checkpoints`` rebuilds the canonical single artifact.
        """
        shard = self.shard
        assert shard is not None
        claims = ClaimBoard(claims_directory(own_path.parent), shard.owner)
        # Load every dataset once: any bin's cells may execute here
        # (stealing), and the partition heuristic needs the shapes.
        datasets, load_failures = self._load_datasets(
            [dataset_name for _, dataset_name in cells], tracer
        )
        for dataset_name, dataset in datasets.items():
            self.cost_model.attach_shape(dataset_name, dataset.values.shape)
        # Partition on the *pure heuristic* over the full grid — never
        # on recorded history — so every shard, whatever it has resumed
        # or measured, derives identical bins. (Should shards still
        # disagree — say a transient load failure hid a shape from one —
        # the claim board keeps each cell single-run; only balance
        # suffers.)
        heuristics = {
            (algorithm_name, dataset_name): self.cost_model.heuristic(
                datasets[dataset_name].values.shape
                if dataset_name in datasets
                else None,
                self.algorithms.get(algorithm_name).category,
            )
            for algorithm_name, dataset_name in cells
        }
        bins = partition_cells(cells, heuristics, shard.count)
        own_bin = bins[shard.index]
        own_set = set(own_bin)
        # Dispatch order within the shard may use the full cost model
        # (history-calibrated); only the partition must stay history-free.
        estimates = self._cell_estimates(cells, datasets)
        runnable = self._dispatch_order(
            [key for key in own_bin if key not in completed], estimates
        )
        claimed = [key for key in runnable if claims.claim(*key)]
        grid_span.add_event(
            "sched_plan",
            scheduler=self.scheduler,
            n_cells=len(claimed),
            workers=workers,
            shard=str(shard),
            bin_cells=len(own_bin),
            estimated_total_seconds=sum(
                estimates[key].seconds for key in claimed
            ),
        )
        if len(claimed) < len(runnable):
            _logger.info(
                "shard %s: %d own-bin cells already claimed by siblings",
                shard, len(runnable) - len(claimed),
            )
        # Progress counts only the cells this shard commits; the steal
        # phase grows the total before it runs.
        telemetry = GridProgress(len(claimed), logger=_logger)
        announced = set(report.categories)
        self._run_cells(
            claimed, None, datasets, load_failures, estimates, report,
            checkpoint, telemetry, tracer, grid_span, workers, announced,
        )
        if not self.shard_steal:
            return
        # Steal phase: everything outside our bin that nobody has
        # completed or claimed, longest first — the point of stealing is
        # to absorb a straggler sibling's expensive tail.
        sibling_done = self._sibling_completed(own_path, fingerprint)
        candidates = self._dispatch_order(
            [
                key
                for key in cells
                if key not in own_set
                and key not in completed
                and key not in sibling_done
            ],
            estimates,
        )
        stolen = [
            key
            for key in candidates
            if not claims.claimed_by_other(*key) and claims.claim(*key)
        ]
        if stolen:
            self.progress(
                f"shard {shard}: stealing {len(stolen)} unclaimed "
                f"cells from sibling bins"
            )
            _logger.info(
                "shard %s stealing %d unclaimed cells", shard, len(stolen)
            )
        telemetry.total_cells = max(len(claimed) + len(stolen), 1)
        self._run_cells(
            stolen, None, datasets, load_failures, estimates, report,
            checkpoint, telemetry, tracer, grid_span, workers, announced,
            stolen=True,
        )

    def _sibling_completed(
        self, own_path: Path, fingerprint: dict
    ) -> set[tuple[str, str]]:
        """Cells sibling shard checkpoints already have outcomes for."""
        done: set[tuple[str, str]] = set()
        for path in find_shard_checkpoints(own_path.parent):
            if path == own_path:
                continue
            try:
                state = load_checkpoint(path)
                state.validate_fingerprint(fingerprint)
            except CheckpointError as error:
                _logger.warning(
                    "ignoring sibling checkpoint %s: %s", path, error
                )
                continue
            done |= state.completed_keys()
        return done
