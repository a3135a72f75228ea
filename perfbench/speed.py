"""Machine-speed reference: a fixed slice of work run from a CPU timer.

The cores of a shared virtual machine change speed by tens of percent
over seconds as neighbours come and go, and every timing of a run moves
with them. To take that out, every process of a run (the benchmark and
the workers it forks) runs one fixed slice of pure-Python work each
time it has used ``INTERVAL_S`` of CPU (``ITIMER_PROF``), and records
when the slice ended and the CPU time it took. Inside a virtual
machine, CPU time still grows while the host runs someone else on the
core, so it sees the neighbours; it does not grow while the run's own
other processes hold the core, which is the program's behaviour and
stays in the timings. The slice runs in the
process's own main thread, between two bytecodes of whatever the
program is doing, so it is slowed by the same neighbours as that work.

The slice is short and stays in the core's caches, so it feels only
part of a slowdown: contention for caches and memory bandwidth, which
comes with the same neighbours, slows the program more. On the 2-vCPU
Xeon VM the benchmark was tuned on, over all four workloads and two
noisy stretches, the logarithm of a repetition's time moved 1.2 to 1.9
times (about 1.5 times) as much as that of the slice. The window's
slowdown is therefore the mean slice duration over the nominal one,
raised to ``SENSITIVITY``; a timing divided by it is *speed-normalised*.
Dividing by the plain ratio left a third to a half of the spread
between repetitions; the calibrated power left about a fifth to a
tenth.

The slice is the benchmark's own code, so a change to the program does
not move it; a program that slows its own process (for example with a
busy background thread) would slow the slice too, and that share of a
regression would not show.

Samples go to one append-only file per process, so forked workers need
no channel back to the benchmark: it reads every file after a window.
``time.perf_counter`` is ``CLOCK_MONOTONIC``, shared by all processes.
"""

from __future__ import annotations

import atexit
import os
import shutil
import signal
import struct
import time
from pathlib import Path

#: CPU seconds between two reference slices in one process.
INTERVAL_S = 0.005
#: The slice's typical CPU time during runs on the tuning machine, so
#: normalised figures read near raw ones there.
NOMINAL_S = 7.0e-5
#: How much more a workload slows than the slice, as a power of the
#: slice's slowdown (calibration in the module docstring).
SENSITIVITY = 1.5
#: One sample: end time and duration of a slice, both in seconds.
_SAMPLE = struct.Struct("dd")

_state: dict = {"directory": None, "fd": None}


def reference_slice() -> int:
    """The fixed work whose duration tracks the machine's speed."""
    total = 0
    for i in range(800):
        total += i * i % 7
    return total


def _on_tick(signum, frame) -> None:
    # CPU time of the thread: a slice preempted by the run's own other
    # processes is not slowed, only one whose core the host slowed.
    start = time.thread_time()
    reference_slice()
    duration = time.thread_time() - start
    os.write(_state["fd"], _SAMPLE.pack(time.perf_counter(), duration))


def _open_sample_file() -> None:
    path = _state["directory"] / f"{os.getpid()}.bin"
    _state["fd"] = os.open(
        path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
    )


def _disarm() -> None:
    signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)


def _in_forked_child() -> None:
    # Interval timers are not inherited across fork; the handler is.
    # Interpreter shutdown restores SIGPROF's default action, which
    # kills the process, so a child that exits normally disarms first.
    if _state["directory"] is None:
        return
    os.close(_state["fd"])
    _open_sample_file()
    atexit.register(_disarm)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)


os.register_at_fork(after_in_child=_in_forked_child)


def start(directory: Path) -> None:
    """Arm the timer in this process and every process it forks."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    _state["directory"] = directory
    _open_sample_file()
    signal.signal(signal.SIGPROF, _on_tick)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    """Disarm the timer and remove the sample files."""
    directory = _state["directory"]
    if directory is None:
        return
    _disarm()
    signal.signal(signal.SIGPROF, signal.SIG_IGN)
    os.close(_state["fd"])
    _state.update(directory=None, fd=None)
    shutil.rmtree(directory, ignore_errors=True)


def read_samples(directory: Path) -> list[tuple[float, float]]:
    """Every ``(end, duration)`` sample written so far, by any process."""
    samples: list[tuple[float, float]] = []
    for path in sorted(directory.glob("*.bin")):
        data = path.read_bytes()
        usable = len(data) - len(data) % _SAMPLE.size
        samples.extend(_SAMPLE.iter_unpack(data[:usable]))
    return samples


def slowdown(
    samples: list[tuple[float, float]], start: float, end: float
) -> float:
    """Mean slice duration in ``[start, end]`` over the nominal one, to
    the power ``SENSITIVITY``.

    Falls back to all samples when the window holds none (a window far
    shorter than ``INTERVAL_S`` of CPU), and to 1 when there are none.
    """
    inside = [duration for stamp, duration in samples if start <= stamp <= end]
    chosen = inside or [duration for _, duration in samples]
    if not chosen:
        return 1.0
    return (sum(chosen) / len(chosen) / NOMINAL_S) ** SENSITIVITY


def window_slowdown(start: float, end: float) -> float:
    """:func:`slowdown` over the samples of the running probe."""
    return slowdown(read_samples(_state["directory"]), start, end)
