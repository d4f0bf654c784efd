"""Machine-speed probes: time a fixed reference job beside the measured work.

The benchmark was built on a shared virtual machine whose speed swung by
±30% within seconds, and by 40% between minutes.  The neighbours' load
changes, and every timing of the program moves with it.  A fixed piece of
pure-Python work, timed right beside the program, swings the same way:
on that machine the ratio program time ÷ reference time varied a third as
much as either alone.

So every reported timing is scaled to a nominal machine: raw seconds ×
(:data:`REFERENCE_SECONDS` ÷ the reference job's time at that moment),
taken as the median of the :data:`NEAREST` probes closest in time.  A
change to the program moves the scaled time as it moves the raw time.  A
change of machine speed moves both the program and the reference, and
mostly cancels out.  The reference job lives here, not in ``src/``, so no
change to the program can change it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Callable, List

#: Seconds the reference job takes on the nominal machine.
REFERENCE_SECONDS = 0.0075
#: Probes whose median gives the speed at one moment.
NEAREST = 5
#: Closed loops probe whenever this much measured time has passed.
PROBE_EVERY = 0.1


def reference_job() -> int:
    """Fixed work in the program's idiom: tuples into a dict of lists."""
    table: dict = {}
    for i in range(20_000):
        row = (i, i * 7919 % 4096, i)
        table.setdefault(row[1], []).append(row)
    return sum(len(rows) for rows in table.values())


class SpeedMeter:
    """A timeline of reference-job times; scales raw seconds to nominal."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 job: Callable[[], object] = reference_job) -> None:
        self.clock = clock
        self.job = job
        #: probe end times, ascending, and the reference time each measured
        self.times: List[float] = []
        self.samples: List[float] = []

    def probe(self) -> float:
        """Run the reference job once; its seconds."""
        start = self.clock()
        self.job()
        end = self.clock()
        self.times.append(end)
        self.samples.append(end - start)
        return end - start

    def burst(self) -> None:
        """:data:`NEAREST` probes back to back, around a short timed step."""
        for _ in range(NEAREST):
            self.probe()

    def factor_at(self, moment: float) -> float:
        """Multiplier from raw to nominal seconds for work done at
        ``moment``, from the :data:`NEAREST` probes closest in time."""
        if not self.samples:
            raise ValueError("no speed probe taken")
        i = bisect.bisect_left(self.times, moment)
        lo, hi = i, i
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.times)):
            before = moment - self.times[lo - 1] if lo > 0 else float("inf")
            after = self.times[hi] - moment if hi < len(self.times) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return REFERENCE_SECONDS / statistics.median(self.samples[lo:hi])
