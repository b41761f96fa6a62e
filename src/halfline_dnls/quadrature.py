"""Panel quadrature for oscillatory mode ODEs.

The solvers in this package integrate scalar ODEs of the form

    d/dt u_n = i omega_n u_n + F_n(t)

by exact integrating factors ``e^{i omega_n (t - a)}`` on short panels.  On
each panel the slow factor ``e^{-i omega_n (t-a)} F_n`` is sampled at
Gauss-Legendre nodes, represented by its Chebyshev interpolant, and
antidifferentiated exactly in coefficient space; the same interpolant
provides dense output between nodes.  Panels are sized so that the largest
oscillation frequency completes only a few radians per panel, which keeps
the interpolation error near machine precision; the cascade re-runs with a
doubled panel count when the Chebyshev tail estimate exceeds the requested
tolerance.  The panel sizing and the overflow guard are module constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial.legendre import leggauss

__all__ = [
    "PanelScheme",
    "PanelGrid",
    "QuadratureError",
    "OverflowGuardError",
    "panel_scheme",
    "oscillatory_march",
    "tail_ratio",
]

DEFAULT_POINTS = 24
# radians of the fastest oscillation allowed per panel
RADIANS_PER_PANEL = 8.0
# largest mode magnitude a march may reach before it stops with an error
OVERFLOW_GUARD = 1e100


class QuadratureError(RuntimeError):
    """Quadrature failed to meet tolerance after refinement."""

    def __init__(self, message, worst_mode=None, tail=None):
        super().__init__(message)
        self.worst_mode = worst_mode
        self.tail = tail


class OverflowGuardError(RuntimeError):
    """A mode magnitude exceeded ``OVERFLOW_GUARD`` at ``time``."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True, eq=False)
class PanelScheme:
    """Fixed matrices for one panel, on the reference interval [-1, 1].

    ``nodes``/``weights`` are the q-point Gauss-Legendre rule.  ``coeff_map``
    sends node values to Chebyshev coefficients of the degree q-1
    interpolant.  ``antideriv_nodes`` and ``antideriv_end`` give node/right-
    endpoint values of the antiderivative vanishing at -1 (multiply by h/2
    for a panel of width h); ``deriv_nodes`` gives node values of d/dx
    (multiply by 2/h).  ``eval_left``/``eval_right`` evaluate the
    interpolant at the panel ends.
    """

    q: int
    nodes: np.ndarray
    weights: np.ndarray
    vander: np.ndarray
    coeff_map: np.ndarray
    antideriv_nodes: np.ndarray
    antideriv_end: np.ndarray
    deriv_nodes: np.ndarray
    eval_left: np.ndarray
    eval_right: np.ndarray


@lru_cache(maxsize=8)
def panel_scheme(q: int = DEFAULT_POINTS) -> PanelScheme:
    if q < 4:
        raise ValueError("need at least 4 points per panel")
    x, w = leggauss(q)
    V = _cheb.chebvander(x, q - 1)            # V[i, j] = T_j(x_i)
    A = np.linalg.inv(V)                      # node values -> cheb coeffs
    # antiderivative with value 0 at x = -1, as a coeff -> coeff map
    S = np.zeros((q + 1, q))
    for j in range(q):
        e = np.zeros(q)
        e[j] = 1.0
        S[:, j] = _cheb.chebint(e, lbnd=-1)
    Vq1 = _cheb.chebvander(x, q)
    P = Vq1 @ S @ A
    end = (_cheb.chebvander(np.array([1.0]), q) @ S @ A)[0]
    # derivative, coeff -> coeff, then back to node values
    D = np.zeros((q, q))
    for j in range(1, q):
        e = np.zeros(q)
        e[j] = 1.0
        D[: q - 1, j] = _cheb.chebder(e)
    DN = V @ D @ A
    left = (_cheb.chebvander(np.array([-1.0]), q - 1) @ A)[0]
    right = (_cheb.chebvander(np.array([1.0]), q - 1) @ A)[0]
    for arr in (x, w, V, A, P, end, DN, left, right):
        arr.flags.writeable = False
    return PanelScheme(q=q, nodes=x, weights=w, vander=V, coeff_map=A,
                       antideriv_nodes=P, antideriv_end=end, deriv_nodes=DN,
                       eval_left=left, eval_right=right)


@dataclass(frozen=True, eq=False)
class PanelGrid:
    """Uniform panels over [0, T] with a shared node scheme."""

    breaks: np.ndarray
    scheme: PanelScheme

    @classmethod
    def for_frequency(cls, horizon: float, max_frequency: float) -> "PanelGrid":
        """The grid whose panels each advance ``max_frequency`` by at most
        ``RADIANS_PER_PANEL`` radians, on the default scheme."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        n_panels = max(1, int(np.ceil(horizon * max(max_frequency, 1.0)
                                      / RADIANS_PER_PANEL)))
        breaks = np.linspace(0.0, horizon, n_panels + 1)
        breaks.flags.writeable = False
        return cls(breaks=breaks, scheme=panel_scheme())

    @property
    def n_panels(self) -> int:
        return self.breaks.size - 1

    @property
    def q(self) -> int:
        return self.scheme.q

    @property
    def horizon(self) -> float:
        return float(self.breaks[-1])

    def widths(self) -> np.ndarray:
        return np.diff(self.breaks)

    def node_times(self) -> np.ndarray:
        """All node times, shape (n_panels, q)."""
        a = self.breaks[:-1, None]
        b = self.breaks[1:, None]
        return 0.5 * (a + b) + 0.5 * (b - a) * self.scheme.nodes[None, :]

    def refined(self) -> "PanelGrid":
        breaks = np.linspace(0.0, self.horizon, 2 * self.n_panels + 1)
        breaks.flags.writeable = False
        return PanelGrid(breaks=breaks, scheme=self.scheme)

    def locate(self, t: float) -> tuple[int, float]:
        """Panel index and local coordinate x in [-1, 1] for a time t."""
        if not 0.0 <= t <= self.horizon * (1 + 1e-12):
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        p = int(np.searchsorted(self.breaks, t, side="right") - 1)
        p = min(max(p, 0), self.n_panels - 1)
        a, b = self.breaks[p], self.breaks[p + 1]
        x = 2.0 * (t - a) / (b - a) - 1.0
        return p, float(min(1.0, max(-1.0, x)))


def tail_ratio(values: np.ndarray, scheme: PanelScheme) -> float:
    """Largest relative magnitude of the last two Chebyshev coefficients.

    ``values`` has node values along its last axis.  A small ratio certifies
    that the interpolant resolves the sampled function on this panel.
    Panels whose largest coefficient is below 1e-290 count as resolved
    (ratio 0): their tails are round-off of a negligible row.
    """
    coeffs = values @ scheme.coeff_map.T
    tail = np.max(np.abs(coeffs[..., -2:]), axis=-1)
    scale = np.max(np.abs(coeffs), axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(scale > 1e-290, tail / np.maximum(scale, 1e-300), 0.0)
    return float(np.max(ratio)) if ratio.size else 0.0


def oscillatory_march(grid: PanelGrid, omega: np.ndarray, forcing: np.ndarray,
                      init: np.ndarray) -> np.ndarray:
    """Solve ``u' = i omega u + F`` for every row, over all panels at once.

    ``forcing`` holds F at all panel nodes, shape (n_rows, n_panels, q);
    ``init`` the values at t = 0.  Panel phases, the slow factor
    ``e^{-i omega (t-a)} F`` and its antiderivatives are formed for all
    panels in one pass; only the carry across panel ends is a loop.
    Integrating factors are panel-relative, so complex omega (growing modes)
    stays overflow safe up to ``OVERFLOW_GUARD``, which is checked at every
    panel end.  Returns node values with the same shape as ``forcing``.
    """
    sch = grid.scheme
    if forcing.shape != (omega.size, grid.n_panels, grid.q):
        raise ValueError(f"forcing shape {forcing.shape} does not match "
                         f"({omega.size}, {grid.n_panels}, {grid.q})")
    h = grid.widths()
    dt = grid.node_times() - grid.breaks[:-1, None]      # (n_panels, q)
    ph = 1j * omega[:, None, None] * dt[None, :, :]
    np.exp(ph, out=ph)
    psi = forcing / ph
    J = psi @ sch.antideriv_nodes.T
    J *= 0.5 * h[:, None]
    Jend = 0.5 * h * (psi @ sch.antideriv_end)           # (n_rows, n_panels)
    del psi
    step = np.exp(1j * omega[None, :] * h[:, None])      # (n_panels, n_rows)
    carry = np.empty_like(step)
    c = np.array(init, dtype=complex)
    for p, (step_p, jend_p) in enumerate(zip(step, Jend.T)):
        carry[p] = c
        c = step_p * (c + jend_p)
        if np.abs(c).max(initial=0.0) > OVERFLOW_GUARD:
            n_bad = int(np.argmax(np.abs(c)))
            t_bad = float(grid.breaks[p + 1])
            raise OverflowGuardError(
                f"mode magnitude exceeded {OVERFLOW_GUARD:g} at t="
                f"{t_bad:g} (mode row {n_bad}); "
                "growing background makes the truncated system blow up",
                time=t_bad)
    J += carry.T[:, :, None]
    J *= ph
    return J
