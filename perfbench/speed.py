"""The host's current speed, from a fixed calibration loop.

The loop mixes the two kinds of work the program does: pure-Python float
arithmetic and small complex numpy products (a 4x4 ``kron`` with the 2x2
identity, then a product with its conjugate transpose).  It does not call
symmetria, so a change to the program does not move it.  ``SpeedProbe``
runs the loop before, during and after a block of work and scales the
block's time by the mean of ``REFERENCE_S / loop time``: the figure is what
the time would have been with the host at the speed at which the loop takes
``REFERENCE_S``.  README.md, Run shape, gives the evidence.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Seconds the loop took at the quiet end of the 2-vCPU reference machine
# (README.md, Environment); a fixed constant, so it only sets the unit.
REFERENCE_S = 0.007

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))
_I2 = np.eye(2)


def _loop() -> float:
    x = 0.0
    for i in range(4000):
        x += (i * 0.5) ** 0.5
    for _ in range(300):
        b = np.kron(_A, _I2)
        b = b @ b.conj().T
        x += abs(b[0, 0])
    return x


_loop()  # the first run pays for numpy's lazy set-up; time only warm runs


def calibrate() -> tuple:
    """(wall, cpu) seconds of one run of the loop."""
    t0, c0 = time.perf_counter(), time.process_time()
    _loop()
    return time.perf_counter() - t0, time.process_time() - c0


class SpeedProbe:
    """Time a block of work and the host's speed while it runs.

    The loop runs once before and once after the block and, if `interval`
    is given, every `interval` seconds inside it from a SIGALRM handler,
    which Python runs between bytecodes of the block.  The loops inside are
    taken out of the block's times: `wall` and `cpu` are the block's own
    seconds, `scaled_wall` and `scaled_cpu` those seconds at the reference
    speed.
    """

    def __init__(self, interval: float | None):
        self.interval = interval

    def __enter__(self):
        self.loops = [calibrate()]
        self.spent_wall = self.spent_cpu = 0.0
        if self.interval:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self.t0, self.c0 = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc) -> bool:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall = time.perf_counter() - self.t0 - self.spent_wall
        self.cpu = time.process_time() - self.c0 - self.spent_cpu
        self.loops.append(calibrate())
        n = len(self.loops)
        self.scaled_wall = self.wall * sum(REFERENCE_S / w for w, _ in self.loops) / n
        self.scaled_cpu = self.cpu * sum(REFERENCE_S / c for _, c in self.loops) / n
        return False

    def _tick(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        self.loops.append(calibrate())
        self.spent_wall += time.perf_counter() - t0
        self.spent_cpu += time.process_time() - c0
