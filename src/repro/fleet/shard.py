"""Shard worker: one simulated server holding many guarded sessions.

A shard is the fleet's unit of execution *and* of failure. It owns a
:class:`~repro.slo.clock.VirtualClock`, a heap of pending arrival
events, and one :class:`~repro.serve.session.GuardedStreamingSession`
per in-flight stream — built exactly the way the single-server SLO
harness builds them, from the same per-stream seeds, so a one-shard
fleet replays a scenario stream-for-stream identically to
:func:`repro.slo.harness.run_scenario`.

The worker side of the coordinator protocol (see
:mod:`repro.core.pool`):

* ``open`` — admit stream descriptors; each is three small integers
  (``global_index``, ``spec_index``, ``stream_i``) from which the shard
  re-derives everything (arrivals, seeds, instance, name). The trained
  bundles arrive by fork inheritance, never through the pipe.
* ``tick`` — advance up to ``max_events`` arrival events in the global
  deterministic order ``(timestamp, global_index, point)`` and reply
  with the **completed** streams' outcomes. A stream's records leave the
  shard only together with its final decision, so a SIGKILL mid-tick
  loses no committed work: the coordinator replays the whole stream on
  a healthy shard.
* ``stop`` / ``hang`` — handled by the generic request/reply loop.

Outcomes are plain picklable payloads; per-stream counters come from a
per-session metrics registry so the parent can sum them in commit order
deterministically, no matter which shard (or replacement worker) ran
the stream.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..core.pool import request_reply_loop
from ..core.resilience import TIMEOUT
from ..obs.metrics import MetricsRegistry
from ..serve.breaker import CircuitBreaker
from ..serve.guard import InputGuard
from ..serve.session import GuardedStreamingSession
from ..slo.clock import VirtualClock
from ..slo.harness import (
    SimulatedClassifier,
    bundle_corruptors,
    derive_seed,
)
from ..slo.scenario import Scenario

__all__ = [
    "StreamDescriptor",
    "ShardRuntime",
    "shard_main",
    "set_shard_state",
]

#: Fork-inherited worker state: set in the parent before spawning so the
#: trained bundles travel by copy-on-write (the runner's idiom).
_SHARD_STATE: dict = {}


def set_shard_state(scenario: Scenario, bundles: dict) -> None:
    """Park the scenario and trained bundles for fork inheritance."""
    _SHARD_STATE["scenario"] = scenario
    _SHARD_STATE["bundles"] = bundles


@dataclass(frozen=True)
class StreamDescriptor:
    """The three integers that fully determine one scenario stream."""

    global_index: int
    spec_index: int
    stream_i: int

    def as_dict(self) -> dict:
        return {
            "global_index": self.global_index,
            "spec_index": self.spec_index,
            "stream_i": self.stream_i,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "StreamDescriptor":
        return cls(
            global_index=int(raw["global_index"]),
            spec_index=int(raw["spec_index"]),
            stream_i=int(raw["stream_i"]),
        )


@dataclass
class _ShardStream:
    """One in-flight stream and its per-stream collection state."""

    descriptor: StreamDescriptor
    name: str
    session: GuardedStreamingSession
    breaker: CircuitBreaker | None
    values: np.ndarray
    true_label: int
    n_points: int
    remaining: int
    metrics: MetricsRegistry
    pending_arrival: float = 0.0
    responses: list = field(default_factory=list)
    misses: int = 0


class ShardRuntime:
    """The in-worker state machine behind one shard."""

    def __init__(self, scenario: Scenario, bundles: dict, index: int) -> None:
        self.scenario = scenario
        self.bundles = bundles
        self.index = index
        self.clock = VirtualClock()
        self.fault_plan = scenario.fault_plan()
        self.corruptors = bundle_corruptors(scenario, bundles)
        self._events: list[tuple[float, int, int]] = []  # heap
        self._streams: dict[int, _ShardStream] = {}
        self.first_arrival: float | None = None

    # ------------------------------------------------------------------
    @property
    def n_active(self) -> int:
        return len(self._streams)

    def handle(self, request: dict) -> dict:
        """Dispatch one coordinator request (the pool handler)."""
        command = request.get("cmd")
        if command == "open":
            descriptors = [
                StreamDescriptor.from_dict(raw)
                for raw in request.get("streams", [])
            ]
            for descriptor in descriptors:
                self.open_stream(descriptor)
            return {"cmd": "open", "ok": True, "opened": len(descriptors)}
        if command == "tick":
            # One round trip per tick: admissions ride along with the
            # advance request so a dispatch costs one reply, not two.
            opened = [
                StreamDescriptor.from_dict(raw)
                for raw in request.get("streams", [])
            ]
            for descriptor in opened:
                self.open_stream(descriptor)
            outcomes = self.run_events(request.get("max_events"))
            return {
                "cmd": "tick",
                "ok": True,
                "opened": len(opened),
                "outcomes": outcomes,
                "active": self.n_active,
                "events_left": len(self._events),
                "clock": self.clock.now(),
            }
        return {"cmd": command, "error": f"unknown command {command!r}"}

    # ------------------------------------------------------------------
    def open_stream(self, descriptor: StreamDescriptor) -> None:
        """Build the guarded session for one stream, harness-identically."""
        scenario = self.scenario
        spec = scenario.streams[descriptor.spec_index]
        bundle = self.bundles[(spec.algorithm, spec.dataset)]
        test = bundle.test
        instance = descriptor.stream_i % test.n_instances
        name = f"{spec.dataset}[{instance}]@{spec.algorithm}"
        length = test.values.shape[2]
        global_index = descriptor.global_index
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
                clock=self.clock.now,
            )
        serving_classifier = SimulatedClassifier(
            bundle.classifier,
            self.clock,
            scenario.service,
            np.random.default_rng(
                np.random.SeedSequence(
                    derive_seed(scenario.seed, global_index, "service")
                )
            ),
        )
        metrics = MetricsRegistry()
        stream = _ShardStream(
            descriptor=descriptor,
            name=name,
            session=None,  # filled below (observer needs the stream)
            breaker=breaker,
            values=test.values[instance],
            true_label=int(test.labels[instance]),
            n_points=len(arrivals),
            remaining=len(arrivals),
            metrics=metrics,
        )
        stream.session = GuardedStreamingSession(
            serving_classifier,
            length,
            check_every=scenario.check_every,
            guard=InputGuard(bundle.stats, policy=scenario.guard),
            fallback=bundle.fallback,
            deadline_seconds=scenario.deadline_seconds,
            breaker=breaker,
            fault_injector=self.fault_plan,
            corruptor=self.corruptors[(spec.algorithm, spec.dataset)],
            stream_name=name,
            algorithm_name=spec.algorithm,
            metrics=metrics,
            clock=self.clock.now,
            consult_observer=self._make_observer(stream),
            preemptive_deadline=False,
        )
        self._streams[global_index] = stream
        for point, timestamp in enumerate(arrivals):
            heapq.heappush(
                self._events, (float(timestamp), global_index, point)
            )
        if self.first_arrival is None or arrivals[0] < self.first_arrival:
            self.first_arrival = float(arrivals[0])

    def _make_observer(self, stream: _ShardStream):
        deadline = self.scenario.deadline_seconds

        def observe(record) -> None:
            if (
                record.failure_kind == TIMEOUT
                and deadline is not None
                and record.elapsed_seconds < deadline
            ):
                # A timed-out consultation occupies the server for the
                # full deadline before being preempted; injected timeouts
                # raise instantly, so charge the remainder.
                self.clock.advance(deadline - record.elapsed_seconds)
            response = self.clock.now() - stream.pending_arrival
            missed = bool(
                record.deadline_missed
                or record.failure_kind == TIMEOUT
                or (deadline is not None and response > deadline + 1e-12)
            )
            stream.misses += missed
            stream.responses.append(response)

        return observe

    # ------------------------------------------------------------------
    def run_events(self, max_events: int | None = None) -> list[dict]:
        """Advance up to ``max_events`` arrival events; collect outcomes."""
        completed: list[dict] = []
        processed = 0
        while self._events and (max_events is None or processed < max_events):
            timestamp, global_index, point = heapq.heappop(self._events)
            stream = self._streams[global_index]
            self.clock.advance_to(timestamp)
            stream.pending_arrival = timestamp
            stream.session.push(stream.values[:, point])
            stream.remaining -= 1
            processed += 1
            if stream.remaining == 0:
                completed.append(self._finish(stream))
        return completed

    def _finish(self, stream: _ShardStream) -> dict:
        """Close one fully replayed stream into a picklable outcome."""
        session = stream.session
        decision = session.decision
        if decision is None and session.n_observed:
            decision = session.finalize()
        counters = {
            name: value
            for name, value in stream.metrics.snapshot().items()
            if isinstance(value, int)
        }
        recoveries = 0
        if stream.breaker is not None:
            recoveries = sum(
                1
                for _, to_state, _, _ in stream.breaker.transitions
                if to_state == "closed"
            )
        del self._streams[stream.descriptor.global_index]
        return {
            "descriptor": stream.descriptor.as_dict(),
            "name": stream.name,
            "true_label": stream.true_label,
            "decision": decision,
            "responses": stream.responses,
            "n_consults": len(stream.responses),
            "misses": stream.misses,
            "n_points": stream.n_points,
            "counters": counters,
            "breaker_recoveries": recoveries,
            "completion_clock": self.clock.now(),
        }


def shard_main(conn, index: int) -> None:
    """Worker entry point: serve the coordinator until told to stop."""
    runtime = ShardRuntime(
        _SHARD_STATE["scenario"], _SHARD_STATE["bundles"], index
    )
    request_reply_loop(conn, runtime.handle, worker=index)
