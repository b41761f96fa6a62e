"""Panel quadrature for oscillatory mode ODEs.

The solvers in this package integrate scalar ODEs of the form

    d/dt u_n = i omega_n u_n + F_n(t)

by exact integrating factors ``e^{i omega_n (t - a)}`` on short panels.  On
each panel the slow factor ``e^{-i omega_n (t-a)} F_n`` is sampled at
Gauss-Legendre nodes, represented by its Chebyshev interpolant, and
antidifferentiated exactly in coefficient space; the same interpolant
provides dense output between nodes.  The carry from one panel end to the
next is a linear recurrence, solved in closed form over blocks of panels
with integrating factors taken from the breaks directly, so its modulus
error does not grow with the panel count.  The grid is uniform, so the
node times of every panel relative to its left break are one vector,
``PanelGrid.offsets``: the panel phase is one table for all panels, and
``PanelGrid.node_phases`` builds ``e^{rate t}`` on the nodes from one
factor per break and one per offset.  Over one panel, the rounding of
both is the same for every panel (the offset table) or a constant (the
break factor), so it adds no noise to the Chebyshev tails.

Every solver runs on a ladder of grids, coarsest first, through the one
climber ``solve_on_ladder``: it solves on a rung, checks the rung, and moves
to the next rung when the check raises QuadratureError.  ``grid_ladder``
gives rungs sized for fractions of the fastest frequency, up to the grid
whose panels each advance that frequency by ``RADIANS_PER_PANEL`` radians;
``refined_ladder`` continues it with ``MAX_REFINEMENTS`` panel doublings.
A rung passes when the Chebyshev tail of its solution, measured against
all rows on each panel (``tail_ratio``), is within tolerance; the cascade
also asks that two successive rungs agree, which estimates the error built
up along the march, and ends its climb before a rung whose node array
would pass ``NODE_BUDGET`` is allocated.  The panel sizing, the number of
refinements, the node budget and the overflow guard are module constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Optional

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial.legendre import leggauss

__all__ = [
    "PanelScheme",
    "PanelGrid",
    "QuadratureError",
    "OverflowGuardError",
    "panel_scheme",
    "grid_ladder",
    "refined_ladder",
    "solve_on_ladder",
    "oscillatory_march",
    "tail_ratio",
]

DEFAULT_POINTS = 24
# radians of the fastest oscillation allowed per panel
RADIANS_PER_PANEL = 8.0
# panel doublings between the coarsest and the finest grid a solver tries
MAX_REFINEMENTS = 3
# largest mode magnitude a march may reach before it stops with an error
OVERFLOW_GUARD = 1e100
# most node values (rows x panels x q) in the node array of a cascade rung:
# 800 MB of complex128, which admits the 226,712 panels x 9 rows of the
# N=16, alpha=3 inflation run.  It bounds that one array, not the solve's
# peak memory: a degree-k nonlinearity keeps k - 1 more arrays of its size,
# and the rung check holds a dense output besides
NODE_BUDGET = 50_000_000
# Panels per block of a pass over dense (M+1, panels, q) node values (the
# normal-form map, the weak-formulation residual): a block's node values
# are one batch of (M+1, panels * q) columns, so larger blocks pay the
# Python loop of the truncated products fewer times but hold larger
# temporaries.  Measured on the fixed-point map with ``bench/run.py
# --workload verify --seed 1 --seconds 45`` (one scaled run each, 2-core
# x86-64 VM), blocks of 16, 32 and 64 panels gave a ``latency_p50_s`` of
# 0.699, 0.663 and 0.664 s at a ``peak_rss_mb`` of 64.6, 65.8 and 68.4 MB;
# ``picard_solve`` at alpha=3, k=1, M=16, T=1 (1025 panels) peaks at 15.1,
# 16.1 and 18.2 MB under tracemalloc, and at 67.4 MB with the whole grid
# as one block.  32 is as fast as 64 at a lower peak.
BLOCK_PANELS = 32
# how far, in ulps of the horizon, a panel width may be from horizon /
# n_panels; np.linspace breaks were within 1.4 over 4000 random horizons
# in [1e-3, 1e3] with up to 10^6 panels
_UNIFORM_ULPS = 4


class QuadratureError(RuntimeError):
    """Quadrature failed to meet tolerance on every rung of a ladder.

    ``grid_attempts`` is the record of the rungs tried, as the solver kept
    it, when the error ended a ``solve_on_ladder`` climb."""

    def __init__(self, message, worst_mode=None, tail=None):
        super().__init__(message)
        self.worst_mode = worst_mode
        self.tail = tail
        self.grid_attempts = []


class OverflowGuardError(RuntimeError):
    """A mode magnitude exceeded ``OVERFLOW_GUARD`` at ``time``."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


def require_positive(**values) -> None:
    """Raise ValueError naming the first of ``values`` that is not finite
    and > 0 (a NaN fails every comparison, so it would pass ``x <= 0``)."""
    for name, x in values.items():
        if not (x > 0 and math.isfinite(x)):
            raise ValueError(f"{name} must be positive and finite, got {x!r}")


@dataclass(frozen=True, eq=False)
class PanelScheme:
    """Fixed matrices for one panel, on the reference interval [-1, 1].

    ``nodes``/``weights`` are the q-point Gauss-Legendre rule.  ``coeff_map``
    sends node values to Chebyshev coefficients of the degree q-1
    interpolant.  ``antideriv_nodes`` and ``antideriv_end`` give node/right-
    endpoint values of the antiderivative vanishing at -1 (multiply by h/2
    for a panel of width h); ``deriv_nodes`` gives node values of d/dx
    (multiply by 2/h).
    """

    q: int
    nodes: np.ndarray
    weights: np.ndarray
    coeff_map: np.ndarray
    antideriv_nodes: np.ndarray
    antideriv_end: np.ndarray
    deriv_nodes: np.ndarray


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
    for arr in (x, w, A, P, end, DN):
        arr.flags.writeable = False
    return PanelScheme(q=q, nodes=x, weights=w, coeff_map=A,
                       antideriv_nodes=P, antideriv_end=end, deriv_nodes=DN)


@dataclass(frozen=True, eq=False)
class PanelGrid:
    """Uniform panels over [0, T] with a shared node scheme.

    Every panel has the width ``horizon / n_panels``, so the node times of
    each panel relative to its left break are one q-vector, ``offsets``;
    breaks that are not uniform to within ``_UNIFORM_ULPS`` ulps of the
    horizon raise ValueError."""

    breaks: np.ndarray
    scheme: PanelScheme

    def __post_init__(self):
        if self.n_panels < 1:
            raise ValueError("a grid needs at least one panel")
        slack = _UNIFORM_ULPS * np.spacing(abs(self.horizon))
        off = np.abs(np.diff(self.breaks) - self.horizon / self.n_panels)
        if off.max() > slack:
            raise ValueError(f"panel widths differ from horizon/n_panels by "
                             f"up to {off.max():.3g}, more than {slack:.3g}: "
                             "the panels must be uniform")

    @classmethod
    def for_frequency(cls, horizon: float, max_frequency: float) -> "PanelGrid":
        """The grid whose panels each advance ``max_frequency`` by at most
        ``RADIANS_PER_PANEL`` radians, on the default scheme."""
        return cls.uniform(horizon, _panel_count(horizon, max_frequency))

    @classmethod
    def uniform(cls, horizon: float, n_panels: int) -> "PanelGrid":
        """``n_panels`` equal panels over [0, horizon], on the default
        scheme."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
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
        """All node times, shape (n_panels, q): one read-only array per
        grid, computed on the first call."""
        return self._node_times

    @cached_property
    def _node_times(self) -> np.ndarray:
        a = self.breaks[:-1, None]
        b = self.breaks[1:, None]
        times = 0.5 * (a + b) + 0.5 * (b - a) * self.scheme.nodes[None, :]
        times.flags.writeable = False
        return times

    @cached_property
    def offsets(self) -> np.ndarray:
        """Node times of every panel relative to its left break, shape
        (q,): read-only, computed once per grid."""
        h = self.horizon / self.n_panels
        offsets = 0.5 * h * (1.0 + self.scheme.nodes)
        offsets.flags.writeable = False
        return offsets

    def node_phases(self, rate: np.ndarray, panels: slice = slice(None)
                    ) -> np.ndarray:
        """``exp(rate * t)`` at the nodes of ``panels``, shape (rows,
        panels, q) for a 1-D ``rate`` of rows, as the product of a factor
        at each panel's left break and one at each offset: rows x (panels +
        q) exponentials instead of rows x panels x q."""
        rate = np.asarray(rate)[:, None]
        at_breaks = np.exp(rate * self.breaks[:-1][panels])
        return at_breaks[:, :, None] * np.exp(rate * self.offsets)[:, None, :]

    def refined(self) -> "PanelGrid":
        breaks = np.linspace(0.0, self.horizon, 2 * self.n_panels + 1)
        breaks.flags.writeable = False
        return PanelGrid(breaks=breaks, scheme=self.scheme)

    def locate(self, t):
        """Panel index and local coordinate x in [-1, 1] of each time of
        ``t``: arrays of both for an array of times (one searchsorted), an
        ``(int, float)`` pair for a scalar time."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        inside = (ts >= 0.0) & (ts <= self.horizon * (1 + 1e-12))
        if not inside.all():
            raise ValueError(f"time {ts[~inside][0]} outside "
                             f"[0, {self.horizon}]")
        p = np.clip(np.searchsorted(self.breaks, ts, side="right") - 1,
                    0, self.n_panels - 1)
        a, b = self.breaks[p], self.breaks[p + 1]
        x = np.clip(2.0 * (ts - a) / (b - a) - 1.0, -1.0, 1.0)
        if np.ndim(t) == 0:
            return int(p[0]), float(x[0])
        return p, x


def _panel_count(horizon: float, max_frequency: float) -> int:
    """Panels of ``PanelGrid.for_frequency(horizon, max_frequency)``."""
    return max(1, int(np.ceil(horizon * max(max_frequency, 1.0)
                              / RADIANS_PER_PANEL)))


def _ladder_panels(horizon: float, max_frequency: float) -> list:
    """Panel counts of the rungs of ``grid_ladder``, ascending."""
    return sorted({_panel_count(horizon, max_frequency / 2**j)
                   for j in range(MAX_REFINEMENTS + 1)})


def grid_ladder(horizon: float, max_frequency: float) -> list:
    """The grids ``PanelGrid.for_frequency(horizon, max_frequency / 2**j)``
    for ``j = MAX_REFINEMENTS, ..., 0``, coarsest first.  Rungs with equal
    panel counts are one rung, and the last rung is always the grid for
    ``max_frequency`` itself."""
    return [PanelGrid.uniform(horizon, n)
            for n in _ladder_panels(horizon, max_frequency)]


def refined_ladder(horizon: float, max_frequency: float):
    """The rungs of ``grid_ladder(horizon, max_frequency)``, then
    ``MAX_REFINEMENTS`` doublings of its top rung by ``PanelGrid.refined``.
    Each rung is made only when a climb reaches it, so a climb that stops
    early never holds the breaks of the finer rungs."""
    for n in _ladder_panels(horizon, max_frequency):
        grid = PanelGrid.uniform(horizon, n)
        yield grid
    for _ in range(MAX_REFINEMENTS):
        grid = grid.refined()
        yield grid


def solve_on_ladder(rungs: Iterable[PanelGrid],
                    solve: Callable[[PanelGrid], object],
                    check: Callable[[PanelGrid, object], None],
                    attempts: list, rows: Optional[int] = None) -> tuple:
    """Climb ``rungs`` (grids in increasing size) to the first that passes.

    On each rung ``solve(grid)`` returns a solution and ``check(grid,
    solution)`` raises QuadratureError when the rung does not resolve it,
    recording the rung in ``attempts`` as it goes.  Returns ``(grid,
    solution)`` of the first rung that passes.  A QuadratureError from
    either moves the climb to the next rung, and the last rung's error
    propagates; a failed rung's solution is dropped before the next rung
    is solved.  When ``rows`` is given, a rung whose node array, ``rows`` x
    panels x q values, would pass ``NODE_BUDGET`` raises QuadratureError
    naming its panel count before ``solve`` runs, and ends the climb, since
    every later rung is larger.  An error that ends the climb carries
    ``attempts`` as ``grid_attempts``.
    """
    failure = None
    for grid in rungs:
        nodes = rows * grid.n_panels * grid.q if rows is not None else 0
        if nodes > NODE_BUDGET:
            failure = QuadratureError(
                f"{grid.n_panels} panels need {nodes:.3g} node values "
                f"({rows} rows x {grid.n_panels} panels x {grid.q}), above "
                f"the node budget {NODE_BUDGET:.3g}"
                + (f"; the rung before failed: {failure}" if failure else ""),
                worst_mode=getattr(failure, "worst_mode", None),
                tail=getattr(failure, "tail", None))
            break
        try:
            solution = solve(grid)
            check(grid, solution)
        except QuadratureError as exc:
            # without its traceback the error keeps no frame, and so no
            # solution, alive while the next rung is solved
            failure = exc.with_traceback(None)
            solution = None
            continue
        return grid, solution
    failure.grid_attempts = attempts
    raise failure


def tail_ratio(values: np.ndarray, scheme: PanelScheme) -> np.ndarray:
    """Largest magnitude of the last two Chebyshev coefficients of each row,
    relative to the largest coefficient of all rows on the same panel.

    ``values`` holds node values of shape (rows, panels, q).  Measuring each
    row against all rows keeps rows of negligible size (round-off of the
    others) from counting as unresolved.  A small ratio certifies that the
    row's interpolants resolve it.  Panels whose largest coefficient is
    below 1e-290 count as resolved (ratio 0).  Returns the largest ratio of
    each row, shape (rows,).
    """
    if values.ndim != 3:
        raise ValueError(f"values must have shape (rows, panels, q), "
                         f"got {values.shape}")
    tails = np.empty(values.shape[:2])
    scale = np.zeros(values.shape[1])
    # one row at a time keeps the temporaries at one row's size
    for r, row in enumerate(values):
        mag = np.abs(row @ scheme.coeff_map.T)
        tails[r] = np.max(mag[:, -2:], axis=1)
        np.maximum(scale, np.max(mag, axis=1), out=scale)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(scale > 1e-290, tails / np.maximum(scale, 1e-300), 0.0)
    return np.max(ratio, axis=1, initial=0.0)


def oscillatory_march(grid: PanelGrid, omega: np.ndarray, forcing: np.ndarray,
                      init: np.ndarray) -> np.ndarray:
    """Solve ``u' = i omega u + F`` for every row, over all panels at once.

    ``forcing`` holds F at all panel nodes, shape (n_rows, n_panels, q);
    ``init`` the values at t = 0.  The panel phase ``e^{i omega (t-a)}``
    is one (n_rows, 1, q) table on ``grid.offsets``, shared by every panel
    of the uniform grid, so the values are the solution at ``a_p +
    offsets``, the nodes of each panel's interpolant.  The slow factor
    ``e^{-i omega (t-a)} F`` and its antiderivatives ``Jend`` over each
    panel are formed for all panels in one pass.  The carry across panel
    ends, ``c_{p+1} = e^{i omega h_p} (c_p + Jend_p)``, is a linear
    recurrence, solved in closed form over blocks of panels starting at
    break s:

        c_{s+i} = E_i (c_s + sum_{j<i} Jend_{s+j} / E_j),
        E_i = e^{i omega (t_{s+i} - t_s)},

    with each ``E_i`` computed from the breaks directly, not as a product
    of panel steps.  A block spans as many panels as keep ``|E|`` and
    ``1/|E|`` within ``OVERFLOW_GUARD`` for the largest ``|Im omega|``, so
    rows with real omega take the whole grid in one block.  Each block's
    carries are checked against ``OVERFLOW_GUARD``; the error names the
    first panel end past it and the row.  Returns node values with the
    same shape as ``forcing``.
    """
    sch = grid.scheme
    if forcing.shape != (omega.size, grid.n_panels, grid.q):
        raise ValueError(f"forcing shape {forcing.shape} does not match "
                         f"({omega.size}, {grid.n_panels}, {grid.q})")
    h = grid.widths()
    ph = np.exp(1j * omega[:, None, None] * grid.offsets)   # (n_rows, 1, q)
    psi = forcing / ph
    J = psi @ sch.antideriv_nodes.T
    J *= 0.5 * h[:, None]
    Jend = 0.5 * h * (psi @ sch.antideriv_end)           # (n_rows, n_panels)
    del psi
    # |E| <= e^{growth * block} <= OVERFLOW_GUARD, and so is 1/|E|
    growth = float(np.max(np.abs(omega.imag), initial=0.0) * h.max())
    n = grid.n_panels
    block = n if growth == 0.0 else int(
        min(n, max(1, np.log(OVERFLOW_GUARD) // growth)))
    carry = np.empty_like(Jend)          # carry[:, p]: value at breaks[p]
    c = np.array(init, dtype=complex)
    for s in range(0, n, block):
        e = min(s + block, n)
        E = np.exp(1j * omega[:, None]
                   * (grid.breaks[s:e + 1] - grid.breaks[s]))
        ends = np.cumsum(Jend[:, s:e] / E[:, :-1], axis=1)
        ends += c[:, None]
        ends *= E[:, 1:]                 # values at breaks[s+1 .. e]
        over = np.abs(ends) > OVERFLOW_GUARD
        if over.any():
            i = int(np.argmax(over.any(axis=0)))
            n_bad = int(np.argmax(np.abs(ends[:, i])))
            t_bad = float(grid.breaks[s + i + 1])
            raise OverflowGuardError(
                f"mode magnitude exceeded {OVERFLOW_GUARD:g} at t="
                f"{t_bad:g} (mode row {n_bad}); "
                "growing background makes the truncated system blow up",
                time=t_bad)
        carry[:, s] = c
        carry[:, s + 1:e] = ends[:, :-1]
        c = ends[:, -1]
    J += carry[:, :, None]
    J *= ph
    return J
