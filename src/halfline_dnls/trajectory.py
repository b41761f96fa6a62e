"""Time-sampled spectral trajectories with dense output.

A Trajectory stores, for every tracked mode, its node values on every panel
of a PanelGrid.  Between nodes the mode is the Chebyshev interpolant of its
panel values, which is accurate to the integrator tolerance; that is the
interpolation contract relied on by the residual checks.  Modes outside the
tracked set are identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .quadrature import PanelGrid
from .spectral import EquationSpec, SpectralState

__all__ = ["Trajectory", "sup_sobolev_diff"]

# Bytes of the complex node values copied for one block of dense output
# (rows x times x q), which are multiplied in place by the Chebyshev rows
# and summed over q.  At 512 KiB, a quarter of a 2 MiB L2, 17 modes x 201
# times on grids of 5, 33 and 308 panels took 0.46, 0.51 and 0.58 ms (0.74,
# 0.68 and 0.88 ms as one unblocked contraction), within noise of 256 KiB
# and 1 MiB, and 0.56-0.66 ms at 64 KiB.  Resampling the N=16, alpha=2
# headline (9 rows) onto its doubled grid, 85,296 times, took 97-104 ms
# from 256 KiB to 1 MiB and 164 ms at 64 KiB, against 291 ms as one
# contraction, at a tracemalloc peak of 34 MB (632 MB as one contraction).
# Medians of 9 to 31 runs, in process, 2-core x86-64 VM.
DENSE_BLOCK_BYTES = 1 << 19


def sup_sobolev_diff(a: np.ndarray, b: np.ndarray, s: float = 1.0) -> float:
    """sup over the trailing axes of the H^s distance of two dense node-value
    tensors shaped (modes, ...)."""
    n = np.arange(a.shape[0], dtype=float)
    w = (1.0 + n * n) ** float(s)
    # one mode at a time: temporaries of one mode's size, not the tensor's
    sq = np.zeros(a.shape[1:])
    for m in range(a.shape[0]):
        d = a[m] - b[m]
        sq += w[m] * (d.real * d.real + d.imag * d.imag)
    return float(np.sqrt(np.max(sq)))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Piecewise-Chebyshev history of a truncated one-sided spectrum.

    ``modes`` lists the tracked frequencies, strictly increasing within
    ``[0, truncation]`` (others are refused with ValueError);
    ``values[r, p, i]`` is mode ``modes[r]`` at node ``i`` of panel ``p``.
    ``grid_attempts`` is the rung record of the cascade solve that made the
    trajectory (see ``cascade.cascade_integrate``), the list that solve
    appended each rung to, and empty otherwise; the Picard solvers keep
    theirs in their ``PicardLog``.
    """

    spec: EquationSpec
    grid: PanelGrid
    modes: np.ndarray
    values: np.ndarray
    quadrature_tolerance: float
    initial_state: SpectralState
    variable: str = "u"
    grid_attempts: list = field(default_factory=list)

    def __post_init__(self):
        m = np.asarray(self.modes, dtype=int)
        if np.any(np.diff(m) <= 0) or np.any((m < 0) | (m > self.truncation)):
            raise ValueError(f"modes {m.tolist()} are not strictly increasing "
                             f"within [0, {self.truncation}]")
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (m.size, self.grid.n_panels, self.grid.q):
            raise ValueError(f"values shape {v.shape} does not match grid/modes")
        object.__setattr__(self, "modes", m)
        object.__setattr__(self, "values", v)

    # -- basic geometry ----------------------------------------------------

    @property
    def truncation(self) -> int:
        return self.initial_state.truncation

    @property
    def horizon(self) -> float:
        return self.grid.horizon

    @property
    def n_panels(self) -> int:
        return self.grid.n_panels

    def _row(self, n: int) -> Optional[int]:
        idx = np.searchsorted(self.modes, n)
        if idx < self.modes.size and self.modes[idx] == n:
            return int(idx)
        return None

    def _evaluate(self, ns: np.ndarray, ts) -> np.ndarray:
        """Modes ``ns`` (1-D) at each time of ``ts`` (a scalar is one time),
        shape (ns.size, len(ts)); untracked modes are 0.  One locate and one
        Chebyshev row per time (its ``chebvander`` row times
        ``coeff_map``), then one elementwise contraction per block of times:
        the node values of the tracked rows asked for, on the panels of the
        block's times, are copied into one array of at most
        ``DENSE_BLOCK_BYTES`` (rows x times x q), multiplied in place by the
        Chebyshev rows and summed over q by numpy's pairwise sum.  No sum
        depends on how many times or rows are asked for, so a time gives
        the same bits alone as in any batch of times, and a mode the same
        bits alone as among all modes."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        p, x = self.grid.locate(ts)
        q = self.grid.q
        idx = np.searchsorted(self.modes, ns)
        tracked = idx < self.modes.size
        tracked[tracked] = self.modes[idx[tracked]] == ns[tracked]
        rows = idx[tracked]
        cheb = (_cheb.chebvander(x, q - 1)[:, None, :]
                @ self.grid.scheme.coeff_map)[:, 0]
        out = np.zeros((ns.size, ts.size), dtype=complex)
        block = max(1, DENSE_BLOCK_BYTES // (16 * q * max(1, rows.size)))
        for start in range(0, ts.size, block):
            t = slice(start, start + block)
            g = self.values[rows[:, None], p[t]]
            g *= cheb[t]
            out[tracked, t] = g.sum(axis=-1)
        return out

    def resampled(self, grid: PanelGrid) -> "Trajectory":
        """The trajectory on the nodes of ``grid``, a grid over the same
        horizon: every tracked mode's interpolant evaluated there, so on a
        refinement of ``self.grid`` it holds the same functions up to
        round-off."""
        if abs(grid.horizon - self.horizon) > 1e-12 * max(1.0, self.horizon):
            raise ValueError("grid horizon differs from trajectory horizon")
        values = self._evaluate(self.modes, grid.node_times().reshape(-1))
        return replace(self, grid=grid, values=values.reshape(
            self.modes.size, grid.n_panels, grid.q))

    # -- dense output --------------------------------------------------------

    def coeffs_at(self, t: float) -> np.ndarray:
        """Dense coefficient vector (length truncation+1) at time t."""
        return self._evaluate(np.arange(self.truncation + 1), t)[:, 0]

    def dense_at(self, ts) -> np.ndarray:
        """Dense coefficients at each time of ``ts``, shape
        (truncation+1, len(ts)): mode axis first, times as the batch."""
        return self.mode_values(np.arange(self.truncation + 1), ts)

    def state_at(self, t: float) -> SpectralState:
        return SpectralState(self.coeffs_at(t), time=float(t))

    def mode_values(self, n, ts) -> np.ndarray:
        """Mode n at each time of ``ts``, shape (len(ts),); for an array of
        modes, shape (len(n), len(ts)).  Untracked modes are 0."""
        ns = np.asarray(n, dtype=int)
        values = self._evaluate(ns.reshape(-1), ts)
        return values.reshape(ns.shape + values.shape[1:])

    # -- sampled view -------------------------------------------------------

    @property
    def sample_times(self) -> np.ndarray:
        """Output samples: every ``ceil(n_panels / 256)``-th panel
        breakpoint plus the final one, so at most 257 times with both
        endpoints always present."""
        breaks = self.grid.breaks
        stride = max(1, int(np.ceil((breaks.size - 1) / 256)))
        ts = breaks[::stride]
        if ts[-1] != breaks[-1]:
            ts = np.append(ts, breaks[-1])
        return ts

    @property
    def samples(self) -> list:
        ts = self.sample_times
        dense = self._evaluate(np.arange(self.truncation + 1), ts)
        return [SpectralState(c, time=float(t)) for t, c in zip(ts, dense.T)]

    # -- norms ---------------------------------------------------------------

    def sup_sobolev_norm(self, s: float) -> float:
        """sup over all panel nodes of the H^s norm."""
        if self.modes.size == 0:
            return 0.0
        w = (1.0 + self.modes.astype(float) ** 2) ** float(s)
        sq = np.einsum("m,mpq->pq", w, np.abs(self.values) ** 2)
        return float(np.sqrt(np.max(sq)))

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "variable": self.variable,
            "spec": self.spec.to_dict(),
            "truncation": int(self.truncation),
            "quadrature_tolerance": float(self.quadrature_tolerance),
            "horizon": self.horizon,
            "n_panels": int(self.n_panels),
            "tracked_modes": [int(n) for n in self.modes],
            "samples": [state.to_dict() for state in self.samples],
        }

    def write_csv(self, fh) -> None:
        """Rows (t, n, abs, arg) for each sample time and tracked mode."""
        fh.write("t,n,abs,arg\n")
        ts = self.sample_times
        values = self._evaluate(self.modes, ts)
        for t, column in zip(ts, values.T):
            for n, z in zip(self.modes, column):
                fh.write(f"{float(t)!r},{int(n)},{float(abs(z))!r},"
                         f"{float(np.angle(z))!r}\n")
