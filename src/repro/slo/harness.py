"""Scenario replay: serve a configured workload and measure its SLOs.

The harness turns a :class:`~repro.slo.scenario.Scenario` into a replay
through :class:`~repro.serve.session.GuardedStreamingSession`:

1. Train each distinct (algorithm, dataset) pair once on its training
   split; fit guard statistics and the fallback predictor from the same
   split.
2. Generate every stream's per-point arrival timestamps from the
   scenario's seeded arrival process and merge them into one global
   timeline.
3. Replay the timeline through a single simulated server: a consultation
   starts at ``max(arrival, server_free)`` and occupies the server for
   its service time, so bursts queue and queueing shows up in response
   latency — exactly the mechanism that makes real-time deadlines hard.

Under the ``virtual`` clock, service times come from the scenario's
seeded :class:`~repro.slo.scenario.ServiceModel` (the wrapped classifier
advances the clock instead of consuming wall time), deadlines are
enforced by the session's cooperative check on the same clock, and the
whole report is a deterministic function of the scenario. Under the
``wall`` clock the replay measures real consultation latencies, like
``serve-sim`` — useful for profiling, not for committed trajectories.

Every consultation's response time and deadline verdict are also
stamped onto the session's ``push`` span, so when a replay is traced the
report's SLO counters are recomputable from the trace alone via
:func:`repro.obs.metrics.metrics_from_spans`.
"""

from __future__ import annotations

import sys
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..core.registry import default_algorithms, default_datasets
from ..core.resilience import TIMEOUT
from ..core.streaming import LatencySummary
from ..core.voting import wrap_for_dataset
from ..data.splits import train_test_split
from ..obs.metrics import MetricsRegistry
from ..obs.trace import current_span
from ..serve.breaker import CircuitBreaker
from ..serve.guard import GuardStats, InputGuard
from ..serve.fallback import make_fallback
from ..serve.session import ConsultRecord, GuardedStreamingSession
from .clock import VirtualClock
from .report import ScenarioReport
from .scenario import CLOCK_VIRTUAL, Scenario


__all__ = [
    "run_scenario",
    "derive_seed",
    "bundle_corruptors",
    "SimulatedClassifier",
    "ScenarioBundle",
    "train_scenario_bundles",
]


def derive_seed(*parts) -> int:
    """Deterministic cross-process seed from structured parts (crc32 —
    the hash() pitfall PR 2 fixed must not come back here)."""
    key = ":".join(str(part) for part in parts).encode("utf-8")
    return zlib.crc32(key)


class SimulatedClassifier:
    """Wrap a trained classifier so consultations cost *virtual* time.

    ``predict_one`` advances the shared virtual clock by a seeded
    service-model sample before delegating, so the session's cooperative
    deadline check — reading the same clock — sees exactly that
    duration. Everything else proxies to the trained classifier.

    Shared by the single-server SLO harness and the fleet's shard
    workers (each shard wraps the bundle classifier around its *own*
    clock, so a shard is one simulated server).
    """

    def __init__(self, inner, clock: VirtualClock, service, rng) -> None:
        self._inner = inner
        self._vclock = clock
        self._service = service
        self._rng = rng

    def predict_one(self, values: np.ndarray):
        self._vclock.advance(
            self._service.sample(self._rng, int(values.shape[-1]))
        )
        return self._inner.predict_one(values)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def bundle_corruptors(scenario: Scenario, bundles: dict) -> dict:
    """One push-time corruptor per trained pair, keyed like ``bundles``.

    Additive noise is referenced to each pair's train-time channel std,
    so scenario severities mean the same thing as in the offline
    robustness grid. Values are ``None`` when the scenario declares no
    (or only severity-0) corruption.
    """
    return {
        key: scenario.corruptor(
            noise_scale=float(
                np.mean([channel.std for channel in bundle.stats.channels])
            )
        )
        for key, bundle in bundles.items()
    }


@dataclass
class ScenarioBundle:
    """One trained (algorithm, dataset) pair and its serving artefacts.

    What a scenario's streams share: the trained classifier, the guard
    statistics and fitted fallback derived from the same training split,
    and the held-out test split the streams replay. Training happens
    once per distinct pair — in the parent, before any shard forks, so
    fleet workers inherit bundles by copy-on-write.
    """

    algorithm: str
    dataset: str
    classifier: object
    stats: GuardStats
    fallback: object | None
    test: object

    @property
    def key(self) -> tuple[str, str]:
        return (self.algorithm, self.dataset)


def train_scenario_bundles(
    scenario: Scenario,
    algorithms=None,
    datasets=None,
) -> dict[tuple[str, str], ScenarioBundle]:
    """Train every distinct (algorithm, dataset) pair a scenario uses."""
    if algorithms is None:
        algorithms = default_algorithms(fast=True)
    if datasets is None:
        datasets = default_datasets(scale=scenario.scale, seed=scenario.seed)
    bundles: dict[tuple[str, str], ScenarioBundle] = {}
    for spec in scenario.streams:
        key = (spec.algorithm, spec.dataset)
        if key in bundles:
            continue
        info = algorithms.get(spec.algorithm)
        dataset = datasets.load(spec.dataset)
        train, test = train_test_split(
            dataset,
            test_fraction=scenario.test_fraction,
            seed=scenario.seed,
        )
        classifier = wrap_for_dataset(info.factory, train)
        classifier.train(train)
        bundles[key] = ScenarioBundle(
            algorithm=spec.algorithm,
            dataset=spec.dataset,
            classifier=classifier,
            stats=GuardStats.from_dataset(train),
            fallback=(
                make_fallback(scenario.fallback).fit(train)
                if scenario.fallback
                else None
            ),
            test=test,
        )
    return bundles


@dataclass
class _Stream:
    """One replaying stream and its per-stream collection state."""

    name: str
    session: GuardedStreamingSession
    breaker: CircuitBreaker | None
    values: np.ndarray  # (n_variables, length) held-out instance
    true_label: int
    arrivals: np.ndarray  # per-point arrival timestamps (seconds)
    pending_arrival: float = 0.0
    responses: list[float] = field(default_factory=list)
    records: list[ConsultRecord] = field(default_factory=list)


def run_scenario(
    scenario: Scenario,
    *,
    algorithms=None,
    datasets=None,
) -> ScenarioReport:
    """Replay ``scenario`` and return its :class:`ScenarioReport`.

    ``algorithms``/``datasets`` default to the standard registries at
    the scenario's scale and seed; tests inject tiny custom registries.
    """
    wall_start = time.perf_counter()
    if algorithms is None:
        algorithms = default_algorithms(fast=True)
    if datasets is None:
        datasets = default_datasets(scale=scenario.scale, seed=scenario.seed)

    virtual = scenario.clock == CLOCK_VIRTUAL
    clock = VirtualClock() if virtual else None
    deadline = scenario.deadline_seconds
    metrics = MetricsRegistry()
    fault_plan = scenario.fault_plan()

    # -- train each distinct (algorithm, dataset) pair once ------------
    bundles = train_scenario_bundles(scenario, algorithms, datasets)

    # -- build streams, sessions, and arrival timelines ----------------
    streams: list[_Stream] = []
    misses = 0
    responses: list[float] = []
    last_completion = 0.0

    def make_observer(stream: _Stream):
        def observe(record: ConsultRecord) -> None:
            nonlocal misses, last_completion
            if virtual:
                if (
                    record.failure_kind == TIMEOUT
                    and deadline is not None
                    and record.elapsed_seconds < deadline
                ):
                    # A timed-out consultation occupies the server for
                    # the full deadline before being preempted; injected
                    # timeouts raise instantly, so charge the remainder.
                    clock.advance(deadline - record.elapsed_seconds)
                response = clock.now() - stream.pending_arrival
            else:
                response = record.elapsed_seconds
            missed = bool(
                record.deadline_missed
                or record.failure_kind == TIMEOUT
                or (deadline is not None and response > deadline + 1e-12)
            )
            misses += missed
            stream.responses.append(response)
            stream.records.append(record)
            responses.append(response)
            if virtual:
                last_completion = max(last_completion, clock.now())
            span = current_span()
            span.set_attribute("slo.response_seconds", response)
            span.set_attribute("slo.deadline_missed", missed)

        return observe

    corruptors = bundle_corruptors(scenario, bundles)

    global_index = 0
    for spec in scenario.streams:
        bundle = bundles[(spec.algorithm, spec.dataset)]
        classifier, stats, fallback, test = (
            bundle.classifier,
            bundle.stats,
            bundle.fallback,
            bundle.test,
        )
        for i in range(spec.count):
            instance = i % test.n_instances
            name = f"{spec.dataset}[{instance}]@{spec.algorithm}"
            length = test.values.shape[2]
            arrivals = scenario.arrival.generate(
                length,
                seed=derive_seed(scenario.seed, global_index, "arrival"),
                start=global_index * scenario.stagger_ms / 1000.0,
            )
            breaker = None
            if scenario.breaker is not None:
                breaker = CircuitBreaker(
                    failure_threshold=scenario.breaker.threshold,
                    recovery_seconds=scenario.breaker.recovery_ms / 1000.0,
                    probe_successes=scenario.breaker.probe_successes,
                    clock=clock.now if virtual else time.monotonic,
                )
            serving_classifier = classifier
            if virtual:
                serving_classifier = SimulatedClassifier(
                    classifier,
                    clock,
                    scenario.service,
                    np.random.default_rng(
                        np.random.SeedSequence(
                            derive_seed(scenario.seed, global_index, "service")
                        )
                    ),
                )
            stream = _Stream(
                name=name,
                session=None,  # filled below (observer needs the stream)
                breaker=breaker,
                values=test.values[instance],
                true_label=int(test.labels[instance]),
                arrivals=arrivals,
            )
            stream.session = GuardedStreamingSession(
                serving_classifier,
                length,
                check_every=scenario.check_every,
                guard=InputGuard(stats, policy=scenario.guard),
                fallback=fallback,
                deadline_seconds=deadline,
                breaker=breaker,
                fault_injector=fault_plan,
                corruptor=corruptors[(spec.algorithm, spec.dataset)],
                stream_name=name,
                algorithm_name=spec.algorithm,
                metrics=metrics,
                clock=clock.now if virtual else time.perf_counter,
                consult_observer=make_observer(stream),
                preemptive_deadline=not virtual,
            )
            streams.append(stream)
            global_index += 1

    # -- merge per-stream arrivals into one global timeline ------------
    events = sorted(
        (float(stream.arrivals[point]), index, point)
        for index, stream in enumerate(streams)
        for point in range(len(stream.arrivals))
    )
    first_arrival = events[0][0] if events else 0.0

    # -- replay through one simulated server ---------------------------
    for timestamp, stream_index, point in events:
        stream = streams[stream_index]
        if virtual:
            # The consultation starts when both the point has arrived
            # and the server is free; the clock never runs backwards.
            clock.advance_to(timestamp)
        stream.pending_arrival = timestamp
        stream.session.push(stream.values[:, point])

    decisions, true_labels = [], []
    for stream in streams:
        decision = stream.session.decision
        if decision is None and stream.session.n_observed:
            decision = stream.session.finalize()
        if decision is not None:
            decisions.append(decision)
            true_labels.append(stream.true_label)

    # -- aggregate ------------------------------------------------------
    wall_seconds = time.perf_counter() - wall_start
    makespan = (
        last_completion - first_arrival
        if virtual
        else wall_seconds
    )
    latency = iqr = None
    if responses:
        sample = np.asarray(responses, dtype=float)
        latency = LatencySummary.from_latencies(sample, budget_seconds=deadline)
        iqr = float(np.quantile(sample, 0.75) - np.quantile(sample, 0.25))
    counters = {
        name: value
        for name, value in metrics.snapshot().items()
        if isinstance(value, int)
    }
    recoveries = sum(
        1
        for stream in streams
        if stream.breaker is not None
        for _, to_state, _, _ in stream.breaker.transitions
        if to_state == "closed"
    )
    report = ScenarioReport(
        scenario=scenario,
        n_streams=len(streams),
        n_points=sum(len(stream.arrivals) for stream in streams),
        n_consults=len(responses),
        decisions=decisions,
        true_labels=true_labels,
        latency=latency,
        iqr_seconds=iqr or 0.0,
        makespan_seconds=max(makespan, 0.0),
        deadline_misses=misses,
        degraded_decisions=sum(1 for d in decisions if d.degraded),
        breaker_trips=counters.get("serve.breaker_trips", 0),
        breaker_recoveries=recoveries,
        counters=counters,
        environment=_environment(wall_seconds),
    )
    return report


def _environment(wall_seconds: float) -> dict:
    """Non-deterministic per-run facts, reported but never compared."""
    environment = {
        "wall_seconds": round(wall_seconds, 3),
        "python": sys.version.split()[0],
    }
    try:
        import resource

        environment["peak_rss_kb"] = int(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        )
    except (ImportError, OSError):  # pragma: no cover - non-Unix
        environment["peak_rss_kb"] = None
    return environment
