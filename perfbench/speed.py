"""Machine-speed probe: scale measured times to a fixed reference speed.

On a shared host the cores this benchmark gets run at changing speed: the
same loop takes anywhere from 1x to about 2x its best time, switching every
few milliseconds as other tenants come and go. A time measured over seconds
therefore mixes fast and slow stretches in proportions that change from run
to run, and its spread hides any change in the program.

The probe runs a fixed reference loop every ``INTERVAL_S`` seconds (from a
``SIGALRM`` handler, so it runs between two bytecodes of whatever the
process is doing) and records when each loop ran and how long it took. The time between two loops is a *segment*; it is scaled by
``REF_S`` over the mean duration of the two loops around it, so a segment
that ran while the core was half as fast counts half its wall time. The
loops' own time falls outside every segment and is never counted.

The loop is small-array numpy work, one logistic-regression gradient step
on a 125 x 20 array at a time: calls into numpy dominate it, as they dominate
``opid``. Of the loops tried (pure-Python arithmetic, small numpy calls,
small matrix products, a 16 MB reduction, and blends of these), it left the
least spread in the scaled times of the workloads that vary most. Sampling
often matters as much as the loop: scaling by loops 20 ms apart left about
1.5 times the spread of loops 5 ms apart.

Scaled values read as seconds on a core that runs the reference loop in
``REF_S`` (about its best time on an uncontended 2.1 GHz Xeon core); the raw
values are kept next to them in the result file.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# Gradient steps in one reference loop.
LOOPS = 50
# Nominal duration of one reference loop; scaled times are relative to it.
REF_S = 0.27e-3
# Time between two reference loops.
INTERVAL_S = 0.005


_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((125, 20))
_W = _RNG.standard_normal(20)


def reference_loop(loops: int = LOOPS) -> None:
    """Fixed small-array numpy work: logistic-regression gradient steps."""
    for _ in range(loops):
        p = 1.0 / (1.0 + np.exp(-(_X @ _W)))
        _X.T @ (p - 0.5)


class SpeedProbe:
    """Reference loops on a timer, and scaling of intervals between them."""

    def __init__(self) -> None:
        # (wall before, cpu before, wall after, cpu after) of each loop.
        self.marks: list[tuple[float, float, float, float]] = []
        self._busy = False
        self._segs: list[tuple[float, float, float, float]] = []
        self._ends: list[float] = []

    def mark(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            reference_loop()
            self.marks.append((w0, c0, time.perf_counter(), time.process_time()))
        finally:
            self._busy = False

    def start(self) -> None:
        self.mark()
        signal.signal(signal.SIGALRM, lambda *_: self.mark())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.mark()
        self.seal()

    def seal(self) -> None:
        """Index the segments between the loops recorded so far."""
        # (start, end, cpu seconds, scale) of each segment between two loops.
        m = self.marks
        self._segs = [(a[2], b[0], b[1] - a[3], REF_S / ((a[2] - a[0] + b[2] - b[0]) / 2))
                      for a, b in zip(m, m[1:])]
        self._ends = [s[1] for s in self._segs]

    def scaled(self, start: float, end: float) -> dict:
        """Scaled and raw wall and CPU time of ``[start, end]``, reference
        loops excluded. Time before the first loop is scaled by that loop.
        Call after ``stop``; time after the last loop is not counted."""
        wall = cpu = raw_wall = raw_cpu = 0.0
        first = self.marks[0]
        if start < first[0]:
            head = min(end, first[0]) - start
            scale = REF_S / (first[2] - first[0])
            wall, raw_wall = head * scale, head
        for seg_start, seg_end, seg_cpu, scale in self._segs[bisect.bisect_right(self._ends, start):]:
            if seg_start >= end:
                break
            overlap = min(end, seg_end) - max(start, seg_start)
            if overlap <= 0:
                continue
            share = overlap / (seg_end - seg_start)
            wall += overlap * scale
            raw_wall += overlap
            cpu += seg_cpu * share * scale
            raw_cpu += seg_cpu * share
        return {"wall_s": wall, "cpu_s": cpu, "raw_wall_s": raw_wall, "raw_cpu_s": raw_cpu}

    def summary(self) -> dict:
        loops = sorted(m[2] - m[0] for m in self.marks)
        n = len(loops)
        return {"loops": n, "loop_min_ms": 1e3 * loops[0], "loop_p50_ms": 1e3 * loops[n // 2],
                "loop_max_ms": 1e3 * loops[-1]}
