"""Open-loop pacing: send each operation when it is due, not when the last
one finished.

A closed loop hides a stall: the client simply waits, and the operations
it would have sent meanwhile are never sent.  Here the arrival times are
fixed in advance (seeded Poisson), the generator waits until each one is
due, and every latency runs from the *due* time.  So a slow operation
also charges the wait it imposes on those queued behind it.

The generator itself can be late: a wait may overshoot.  That lateness is
recorded separately (``lags``), only for operations the generator slept
for.  A backlogged operation starts late because of queueing, and that
delay belongs in its latency, not in the lag.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence


def poisson_offsets(rate: float, duration: float, rng: random.Random) -> List[float]:
    """Arrival offsets (seconds from start) of a Poisson process of
    ``rate`` per second over ``[0, duration)``."""
    offsets: List[float] = []
    now = rng.expovariate(rate)
    while now < duration:
        offsets.append(now)
        now += rng.expovariate(rate)
    return offsets


@dataclass
class PacedRun:
    """What one open-loop pass observed."""

    #: per-operation latency from due time to completion (seconds)
    latencies: List[float] = field(default_factory=list)
    #: per-operation service time, start to completion (seconds)
    service: List[float] = field(default_factory=list)
    #: clock reading when each operation started
    started: List[float] = field(default_factory=list)
    #: generator wake-up lateness for the operations it slept for (seconds)
    lags: List[float] = field(default_factory=list)
    #: operations due by the end of the window but not yet started then
    backlog_end: int = 0


def spin(seconds: float) -> None:
    """Busy-wait: unlike ``time.sleep``, never lets the virtual CPU halt,
    whose wake-up delay on a shared host varies with the neighbours' load."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def run_open_loop(
    offsets: Sequence[float],
    window: float,
    execute: Callable[[int], bool],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = spin,
    idle: Optional[Callable[[], object]] = None,
    idle_slack: float = 0.0,
) -> PacedRun:
    """Run ``execute(i)`` for each offset in order, each no earlier than due.

    ``execute`` returns whether the operation succeeded; a failed one's
    latency is ``inf``, past every limit.  Every operation runs, so the
    work done is the same however late the run falls; ``backlog_end``
    counts how many were still waiting when ``window`` closed.  While more
    than ``idle_slack`` seconds remain before the next op is due, ``idle()``
    runs in the gap (the speed probes); if it overruns, the op's lag shows it.
    """
    result = PacedRun()
    start = clock()
    window_end = start + window
    backlog_counted = False
    for index, offset in enumerate(offsets):
        due = start + offset
        now = clock()
        if now < due:
            while idle is not None and due - now > idle_slack:
                idle()
                now = clock()
            if now < due:
                sleep(due - now)
                now = clock()
            result.lags.append(max(0.0, now - due))
        if not backlog_counted and now >= window_end:
            backlog_counted = True
            result.backlog_end = sum(
                1 for later in offsets[index:] if start + later <= window_end
            )
        result.started.append(now)
        ok = execute(index)
        done = clock()
        result.service.append(done - now)
        result.latencies.append(done - due if ok else math.inf)
    return result
