"""Time-sampled spectral trajectories with dense output.

A Trajectory stores, for every tracked mode, its node values on every panel
of a PanelGrid.  Between nodes the mode is the Chebyshev interpolant of its
panel values, which is accurate to the integrator tolerance; that is the
interpolation contract relied on by the residual checks.  Modes outside the
tracked set are identically zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .quadrature import PanelGrid
from .spectral import EquationSpec, SpectralState

__all__ = ["Trajectory", "sup_sobolev_diff"]


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

    ``modes`` lists the tracked frequencies (sorted ascending);
    ``values[r, p, i]`` is mode ``modes[r]`` at node ``i`` of panel ``p``.
    ``grid_attempts`` is the rung record of the cascade solve that made the
    trajectory (see ``cascade.cascade_integrate``), and empty otherwise; the
    Picard solvers keep theirs in their ``PicardLog``.
    """

    spec: EquationSpec
    grid: PanelGrid
    modes: np.ndarray
    values: np.ndarray
    truncation: int
    quadrature_tolerance: float
    initial_state: SpectralState
    variable: str = "u"
    grid_attempts: tuple = ()

    def __post_init__(self):
        m = np.asarray(self.modes, dtype=int)
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (m.size, self.grid.n_panels, self.grid.q):
            raise ValueError(f"values shape {v.shape} does not match grid/modes")
        object.__setattr__(self, "modes", m)
        object.__setattr__(self, "values", v)

    # -- basic geometry ----------------------------------------------------

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
        shape (ns.size, len(ts)); untracked modes are 0.  One locate, one
        Chebyshev row per time (a stack of one vector-matrix product per
        time), and one elementwise contraction over (times, rows, q) that
        copies only the tracked rows asked for, on the panels of ``ts``.
        No sum depends on how many times or rows are asked for, so a time
        gives the same bits alone as in any batch of times, and a mode the
        same bits alone as among all modes."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        p, x = self.grid.locate(ts)
        # T_0(x), ..., T_{q-1}(x) by chebvander's recurrence (bit-identical
        # to it); times coeff_map, the row that evaluates the panel's
        # interpolant at x
        tx = [np.ones_like(x), x]
        for _ in range(2, self.grid.q):
            tx.append(2.0 * x * tx[-1] - tx[-2])
        cheb = np.array(tx).T[:, None, :] @ self.grid.scheme.coeff_map
        idx = np.searchsorted(self.modes, ns)
        tracked = idx < self.modes.size
        tracked[tracked] = self.modes[idx[tracked]] == ns[tracked]
        out = np.zeros((ns.size, ts.size), dtype=complex)
        rows = self.values[idx[tracked][None, :], p[:, None]]
        out[tracked] = (rows * cheb).sum(axis=-1).T
        return out

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

    def final_state(self) -> SpectralState:
        return self.state_at(self.horizon)

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def write_csv(self, fh) -> None:
        """Rows (t, n, abs, arg) for each sample time and tracked mode."""
        fh.write("t,n,abs,arg\n")
        ts = self.sample_times
        values = self._evaluate(self.modes, ts)
        for t, column in zip(ts, values.T):
            for n, z in zip(self.modes, column):
                fh.write(f"{float(t)!r},{int(n)},{float(abs(z))!r},"
                         f"{float(np.angle(z))!r}\n")
