"""Host-speed scaling of the benchmark's timings.

The benchmark runs on shared hosts whose speed changes in phases: on the
2-core VM where the baseline was measured, the same op ran up to 1.7x
slower from one minute to the next, and a 45 s run's median moved with it
(a quartile spread of 26% of the median over ten runs).  To
time the program rather than the host, a fixed calibration kernel, which
uses nothing from ``halfline_dnls``, runs right after every timed piece of
work, and each piece is scaled by how fast the host ran the kernels on
either side of it:

    scaled = seconds * REFERENCE_S / mean(kernel before, kernel after)

``scaled`` is the time the work would have taken at the host speed where
one kernel takes ``REFERENCE_S``.  The kernel mixes the three kinds of
work the package does: interpreter loops, many calls on length-17 arrays,
and elementwise complex arithmetic on arrays of 9 x 6000.  A change to the
program moves scaled times as it moves raw ones; the kernel does not
change with the program.
"""

from __future__ import annotations

import time

import numpy as np

# a round value near the kernel's median time on the 2-core VM where the
# baseline was measured (0.024 s in its fast phases, 0.038 s in its slow ones)
REFERENCE_S = 0.030


class HostClock:
    """Scales the seconds of each piece of work to the reference speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._short = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        self._wide = (rng.standard_normal((9, 6000))
                      + 1j * rng.standard_normal((9, 6000)))
        for _ in range(3):          # let allocator and caches settle
            self._kernel()
        self._last = self._kernel()
        self.samples = [self._last]

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        x, table = 0, {}
        for i in range(60000):
            x += i * i
            table[i & 255] = x
        a = self._short
        acc = 0.0
        for _ in range(1500):
            acc += abs(np.convolve(a, a)[:17][3] * a[2])
        for _ in range(10):
            acc += (np.exp(1j * self._wide.real) * self._wide)[0, 0].real
        return time.perf_counter() - t0

    def speed(self) -> float:
        """Host speed over the samples so far; 1 is the reference speed."""
        return REFERENCE_S / float(np.median(self.samples))

    def scale(self, seconds: float) -> float:
        """``seconds`` of work that has just ended, at the reference speed.
        Runs the kernel once, so call it right after the work."""
        now = self._kernel()
        self.samples.append(now)
        scaled = seconds * 2.0 * REFERENCE_S / (self._last + now)
        self._last = now
        return scaled
