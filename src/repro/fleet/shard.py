"""Shard worker: the fork protocol around one replay engine.

A shard is the fleet's unit of execution *and* of failure. Each worker
runs one :class:`~repro.slo.harness.ReplayEngine` — the single simulated
server :func:`repro.slo.harness.run_scenario` uses — so a one-shard
fleet replays a scenario stream for stream like the harness.

The worker side of the coordinator protocol (see
:mod:`repro.core.pool`):

* ``tick`` — admit the stream descriptors riding along (each is three
  small integers from which the engine re-derives arrivals, seeds,
  instance and name; the trained bundles arrive by fork inheritance,
  never through the pipe), advance up to ``max_events`` arrival events
  and reply with the engine clock and the **completed** streams'
  outcomes. A stream's records leave the shard only together with its
  final decision, so a SIGKILL mid-tick loses no committed work: the
  coordinator replays the whole stream on a healthy shard.
* ``stop`` / ``hang`` — handled by the generic request/reply loop.

Forked workers replay under the null tracer: the tracer they inherit
may hold the parent's trace-file handle, and the coordinator's
``fleet_*`` spans are the fleet's trace.
"""

from __future__ import annotations

from functools import partial

from ..core.pool import request_reply_loop
from ..obs.trace import set_tracer
from ..slo.harness import ReplayEngine, StreamDescriptor
from ..slo.scenario import Scenario

__all__ = [
    "StreamDescriptor",
    "handle_tick",
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


def handle_tick(engine: ReplayEngine, request: dict) -> dict:
    """Answer one coordinator request (the pool handler)."""
    command = request.get("cmd")
    if command != "tick":
        return {"cmd": command, "error": f"unknown command {command!r}"}
    # One round trip per tick: admissions ride along with the advance
    # request so a dispatch costs one reply, not two.
    for raw in request.get("streams", []):
        engine.open_stream(StreamDescriptor.from_dict(raw))
    outcomes = engine.run_events(request.get("max_events"))
    return {
        "cmd": "tick",
        "ok": True,
        "outcomes": outcomes,
        "clock": engine.clock.now(),
    }


def shard_main(conn, index: int) -> None:
    """Worker entry point: serve the coordinator until told to stop."""
    set_tracer(None)
    engine = ReplayEngine(_SHARD_STATE["scenario"], _SHARD_STATE["bundles"])
    request_reply_loop(conn, partial(handle_tick, engine), worker=index)
