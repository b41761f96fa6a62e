"""Time-sampled spectral trajectories with dense output.

A Trajectory stores, for every tracked mode, its node values on every panel
of a PanelGrid.  Between nodes the mode is the Chebyshev interpolant of its
panel values, which is accurate to the integrator tolerance; that is the
interpolation contract relied on by the residual checks.  Modes outside the
tracked set are identically zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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
    sq = np.einsum("m,m...->...", w, np.abs(a - b) ** 2)
    return float(np.sqrt(np.max(sq)))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Piecewise-Chebyshev history of a truncated one-sided spectrum.

    ``modes`` lists the tracked frequencies (sorted ascending);
    ``values[r, p, i]`` is mode ``modes[r]`` at node ``i`` of panel ``p``.
    """

    spec: EquationSpec
    grid: PanelGrid
    modes: np.ndarray
    values: np.ndarray
    truncation: int
    quadrature_tolerance: float
    initial_state: SpectralState
    variable: str = "u"
    _coeff_cache: dict = field(default_factory=dict, repr=False, compare=False)

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

    def _panel_coeffs(self, p: int) -> np.ndarray:
        c = self._coeff_cache.get(p)
        if c is None:
            c = self.values[:, p, :] @ self.grid.scheme.coeff_map.T
            self._coeff_cache[p] = c
        return c

    # -- dense output --------------------------------------------------------

    def coeffs_at(self, t: float) -> np.ndarray:
        """Dense coefficient vector (length truncation+1) at time t."""
        p, x = self.grid.locate(t)
        c = self._panel_coeffs(p)
        tx = np.polynomial.chebyshev.chebvander(np.array([x]), self.grid.q - 1)[0]
        dense = np.zeros(self.truncation + 1, dtype=complex)
        if self.modes.size:
            dense[self.modes] = c @ tx
        return dense

    def dense_at(self, ts) -> np.ndarray:
        """Dense coefficients at each time of ``ts``, shape
        (truncation+1, len(ts)): mode axis first, times as the batch."""
        return np.stack([self.coeffs_at(t) for t in ts], axis=1)

    def state_at(self, t: float) -> SpectralState:
        return SpectralState(self.coeffs_at(t), time=float(t))

    def mode_values(self, n: int, ts) -> np.ndarray:
        """Mode n evaluated at an array of times."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.zeros(ts.size, dtype=complex)
        r = self._row(n)
        if r is None:
            return out
        for i, t in enumerate(ts):
            p, x = self.grid.locate(t)
            c = self._panel_coeffs(p)[r]
            out[i] = np.polynomial.chebyshev.chebval(x, c)
        return out

    def mode_derivative_values(self, n: int, panel: int) -> np.ndarray:
        """d/dt of mode n at the nodes of one panel."""
        r = self._row(n)
        if r is None:
            return np.zeros(self.grid.q, dtype=complex)
        h = self.grid.widths()[panel]
        return (2.0 / h) * (self.values[r, panel, :] @ self.grid.scheme.deriv_nodes.T)

    def panel_node_values(self, p: int, dense: bool = False) -> np.ndarray:
        """Node values on panel p: tracked rows, or the dense (M+1, q) array."""
        if not dense:
            return self.values[:, p, :]
        full = np.zeros((self.truncation + 1, self.grid.q), dtype=complex)
        if self.modes.size:
            full[self.modes] = self.values[:, p, :]
        return full

    # -- sampled view -------------------------------------------------------

    @property
    def sample_times(self) -> np.ndarray:
        """Output samples: panel breakpoints thinned to <= ~256, with both
        endpoints always present."""
        breaks = self.grid.breaks
        stride = max(1, int(np.ceil((breaks.size - 1) / 256)))
        ts = breaks[::stride]
        if ts[-1] != breaks[-1]:
            ts = np.append(ts, breaks[-1])
        return ts

    @property
    def samples(self) -> list:
        return [self.state_at(t) for t in self.sample_times]

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

    def max_mode_abs(self, n: int) -> float:
        r = self._row(n)
        return float(np.max(np.abs(self.values[r]))) if r is not None else 0.0

    # -- serialization --------------------------------------------------------

    def to_dict(self, max_samples: int = 257) -> dict:
        ts = self.sample_times
        if ts.size > max_samples:
            idx = np.unique(np.linspace(0, ts.size - 1, max_samples).astype(int))
            ts = ts[idx]
        return {
            "variable": self.variable,
            "spec": self.spec.to_dict(),
            "truncation": int(self.truncation),
            "quadrature_tolerance": float(self.quadrature_tolerance),
            "horizon": self.horizon,
            "n_panels": int(self.n_panels),
            "tracked_modes": [int(n) for n in self.modes],
            "samples": [self.state_at(t).to_dict() for t in ts],
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(**kw))

    def write_csv(self, fh, manifest_lines=()) -> None:
        """Rows (t, n, abs, arg) for each sample time and tracked mode."""
        for line in manifest_lines:
            fh.write(f"# {line}\n")
        fh.write("t,n,abs,arg\n")
        for t in self.sample_times:
            dense = self.coeffs_at(t)
            for n in self.modes:
                z = dense[n]
                fh.write(f"{t!r},{int(n)},{abs(z)!r},{float(np.angle(z))!r}\n")
