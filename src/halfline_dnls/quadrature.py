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
break factor), so it adds no noise to the Chebyshev tails.  The march is a
setup and an application: ``OscillatoryMarch(grid, omega)`` builds the
phase tables and the node-value matrices of every row once, and its
``apply`` marches one forcing on some of the rows, with the block length
and break factors of those rows alone, so a row's bits do not depend on
the rows marched with it.  The cascade sets up once per rung and marches
its rows one at a time; the gauge solver sets up once per rung and marches
all rows in every Picard iteration.  ``oscillatory_march`` is the one-shot
form of the two.

Every solver runs on a ladder of grids, coarsest first, through the one
climber ``solve_on_ladder``: it calls one rung function, which returns the
solution of a rung that resolves it, and moves to the next rung when that
function raises QuadratureError.  The one ladder,
``ladder(horizon, max_frequency, depth, doublings)``, holds the grids sized
for fractions ``1/2**j`` of the fastest frequency, ``j = depth..0``, up to
the grid whose panels each advance that frequency by ``RADIANS_PER_PANEL``
radians, then ``doublings`` doublings of that grid.  The Picard solvers
climb it ``PICARD_DEPTH`` halvings deep with no doublings; the cascade
``MAX_REFINEMENTS`` halvings deep with ``MAX_REFINEMENTS`` doublings.  A
rung passes when the Chebyshev tail of its solution, measured against all
rows on each panel (``tail_ratio``), is within tolerance.  The check forms
every row's last two coefficients, but all of them only for the rows whose
Cauchy-Schwarz bound, ``coeff_bound`` times the row's node norm, can reach
the largest coefficient on some panel; the others cannot change it, so the
ratios are those of a full transform of every row, bit for bit.  A panel
that is not finite fails the check, and a march stops at a carry that is
not a number as at one past ``OVERFLOW_GUARD``.  The cascade also
asks that two successive rungs agree, which estimates the error built up
along the march, and ends its climb before a rung whose node array would
pass ``NODE_BUDGET`` is allocated.  Every climb ends at a rung that numpy
cannot allocate, with an error that names its panel count.  The panel
sizing, the two ladder depths, the node budget and the overflow guard are
module constants, read when a ladder is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    "ladder",
    "solve_on_ladder",
    "OscillatoryMarch",
    "oscillatory_march",
    "tail_ratio",
]

DEFAULT_POINTS = 24
# radians of the fastest oscillation allowed per panel
RADIANS_PER_PANEL = 8.0
# the cascade's ladder: halvings of the fastest frequency below the grid
# sized for it, and doublings above it
MAX_REFINEMENTS = 3
# the Picard solvers' ladder: halvings of the fastest frequency below the
# grid sized for it, its top rung.  On the benchmark's truncation-16 data
# the normal form accepts its floor (33 panels, tails <= 6.9e-14 against
# tol 1e-11 over 80 draws), where a floor one halving lower (17 panels)
# reads tails up to 4.7e-11 and fails
PICARD_DEPTH = 5
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
# temporaries.  At 64, the normal form's 33-panel floor at truncation 16
# is one block.  With blocks of 16, 32 and 64 panels, bench/run.py's
# verify read latency_p50_s 0.072-0.077, 0.073-0.075 and 0.071-0.072 s
# (seeds 1-3, 15 s runs).  Alone, one map application on that floor took
# 2.4, 3.5 and 3.5 ms at tracemalloc peaks of 1.3, 2.0 and 2.1 MB, and on
# the 1025-panel top rung 48, 41 and 40 ms at 8.0, 9.0 and 10.8 MB.  The
# weak residual of the N=16, alpha=2 headline (its 9 lattice rows, 1777
# panels) took 73, 60 and 51 ms for its three windows together (medians of
# 32 interleaved runs), at one peak of 2.3 MB that its whole-grid tables
# set (in process, 2-core x86-64 VM, 2 MiB L2 per core).
BLOCK_PANELS = 64


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
    """A mode magnitude exceeded ``OVERFLOW_GUARD``, or was not a number, at
    ``time``; ``breach`` says which, as the message does."""

    def __init__(self, message, time=None, breach=None):
        super().__init__(message)
        self.time = time
        self.breach = breach or f"exceeded {OVERFLOW_GUARD:g}"


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
    (multiply by 2/h).  ``coeff_bound`` is the largest row 2-norm of
    ``coeff_map`` times ``1 + 1e-12``: times a panel's node 2-norm it bounds
    every computed Chebyshev coefficient there, rounding included.
    """

    q: int
    nodes: np.ndarray
    weights: np.ndarray
    coeff_map: np.ndarray
    antideriv_nodes: np.ndarray
    antideriv_end: np.ndarray
    deriv_nodes: np.ndarray
    coeff_bound: float


@lru_cache(maxsize=8)
def panel_scheme(q: int = DEFAULT_POINTS) -> PanelScheme:
    """The cached ``PanelScheme`` of q >= 4 Gauss-Legendre points; its
    maps are numpy's ``chebint`` (vanishing at -1) and ``chebder`` of eye(q)."""
    if q < 4:
        raise ValueError("need at least 4 points per panel")
    x, w = leggauss(q)
    V = _cheb.chebvander(x, q - 1)            # V[i, j] = T_j(x_i)
    A = np.linalg.inv(V)                      # node values -> cheb coeffs
    S = _cheb.chebint(np.eye(q), lbnd=-1)     # shape (q + 1, q)
    Vq1 = _cheb.chebvander(x, q)
    P = Vq1 @ S @ A
    end = (_cheb.chebvander(np.array([1.0]), q) @ S @ A)[0]
    D = np.zeros((q, q))
    D[: q - 1] = _cheb.chebder(np.eye(q))
    DN = V @ D @ A
    for arr in (x, w, A, P, end, DN):
        arr.flags.writeable = False
    bound = float(np.linalg.norm(A, axis=1).max()) * (1 + 1e-12)
    return PanelScheme(q=q, nodes=x, weights=w, coeff_map=A,
                       antideriv_nodes=P, antideriv_end=end, deriv_nodes=DN,
                       coeff_bound=bound)


@dataclass(frozen=True, eq=False)
class PanelGrid:
    """``n_panels`` equal panels over [0, horizon] with a shared node scheme.

    Every panel has the width ``horizon / n_panels``, so the node times of
    each panel relative to its left break are one q-vector, ``offsets``.
    A horizon that is not positive and finite, or fewer than one panel,
    raises ValueError."""

    horizon: float
    n_panels: int
    scheme: PanelScheme = field(default_factory=panel_scheme)

    def __post_init__(self):
        require_positive(horizon=self.horizon)
        if self.n_panels < 1:
            raise ValueError("a grid needs at least one panel")
        object.__setattr__(self, "horizon", float(self.horizon))

    @classmethod
    def for_frequency(cls, horizon: float, max_frequency: float) -> "PanelGrid":
        """The grid whose panels each advance ``max_frequency`` by at most
        ``RADIANS_PER_PANEL`` radians, on the default scheme."""
        return cls(horizon, _panel_count(horizon, max_frequency))

    @cached_property
    def breaks(self) -> np.ndarray:
        """``np.linspace(0, horizon, n_panels + 1)``: read-only, computed
        once per grid."""
        breaks = np.linspace(0.0, self.horizon, self.n_panels + 1)
        breaks.flags.writeable = False
        return breaks

    @property
    def q(self) -> int:
        return self.scheme.q

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
        return PanelGrid(self.horizon, 2 * self.n_panels, self.scheme)

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
    """Panels of ``PanelGrid.for_frequency(horizon, max_frequency)``; a
    horizon or frequency that is not positive and finite, or a count past
    the largest float, raises ValueError."""
    require_positive(horizon=horizon, max_frequency=max_frequency)
    panels = horizon * max(max_frequency, 1.0) / RADIANS_PER_PANEL
    if not math.isfinite(panels):
        raise ValueError(f"horizon {horizon!r} at frequency {max_frequency!r} "
                         "needs more panels than a float can count")
    return max(1, int(np.ceil(panels)))


def ladder(horizon: float, max_frequency: float, depth: int,
           doublings: int = 0):
    """The grids ``PanelGrid.for_frequency(horizon, max_frequency / 2**j)``
    for ``j = depth, ..., 0``, coarsest first, then ``doublings`` doublings
    of the last of them by ``PanelGrid.refined``.  Rungs with equal panel
    counts are one rung, and the rung before the doublings is always the
    grid for ``max_frequency`` itself.  Each rung is made only when a climb
    reaches it, so a climb that stops early never holds the breaks of the
    finer rungs."""
    for n in sorted({_panel_count(horizon, max_frequency / 2**j)
                     for j in range(depth + 1)}):
        grid = PanelGrid(horizon, n)
        yield grid
    for _ in range(doublings):
        grid = grid.refined()
        yield grid


def solve_on_ladder(rungs: Iterable[PanelGrid],
                    solve: Callable[[PanelGrid], object],
                    attempts: list, rows: Optional[int] = None) -> tuple:
    """Climb ``rungs`` (grids in increasing size) to the first that passes.

    On each rung ``solve(grid)`` returns the solution when the rung resolves
    it and raises QuadratureError when it does not, recording the rung in
    ``attempts`` as it goes.  Returns ``(grid, solution)`` of the first rung
    that passes.  A QuadratureError moves the climb to the next rung, and
    the last rung's error propagates; a failed rung's solution is dropped
    before the next rung is solved.  When ``rows`` is given, a rung whose
    node array, ``rows`` x panels x q values, would pass ``NODE_BUDGET``
    raises QuadratureError naming its panel count before ``solve`` runs,
    and ends the climb, since every later rung is larger.  So does, for any
    climb, a rung with more node values than a numpy array can address, and
    a MemoryError on a rung.  An error that ends the climb carries
    ``attempts`` as ``grid_attempts``.
    """
    failure = None
    for grid in rungs:
        # a count sized for a huge frequency can have hundreds of digits
        panels = (grid.n_panels if grid.n_panels < 10**6
                  else f"{grid.n_panels:.3g}")
        nodes = float(grid.n_panels) * grid.q * (rows or 1)
        if rows is not None and nodes > NODE_BUDGET:
            refusal = (f"{panels} panels need {nodes:.3g} node values "
                       f"({rows} rows x {grid.q} per panel), above the node "
                       f"budget {NODE_BUDGET:.3g}")
        elif 16 * nodes > np.iinfo(np.intp).max:
            refusal = (f"{panels} panels of {grid.q} nodes: more complex "
                       "node values than a numpy array can address")
        else:
            try:
                solution = solve(grid)
            except QuadratureError as exc:
                # without its traceback the error keeps no frame, and so no
                # solution, alive while the next rung is solved
                failure = exc.with_traceback(None)
                continue
            except MemoryError as exc:
                refusal = f"{panels} panels: out of memory: {exc}"
            else:
                return grid, solution
        failure = QuadratureError(
            refusal
            + (f"; the rung before failed: {failure}" if failure else ""),
            worst_mode=getattr(failure, "worst_mode", None),
            tail=getattr(failure, "tail", None))
        break
    failure.grid_attempts = attempts
    raise failure


def tail_ratio(values: np.ndarray, scheme: PanelScheme) -> np.ndarray:
    """Largest magnitude of the last two Chebyshev coefficients of each row,
    relative to the largest coefficient of all rows on the same panel.

    ``values`` holds node values of shape (rows, panels, q).  Measuring each
    row against all rows keeps rows of negligible size (round-off of the
    others) from counting as unresolved.  A small ratio certifies that the
    row's interpolants resolve it.  Panels whose largest coefficient is
    below 1e-290 count as resolved (ratio 0); a panel with a coefficient
    that is not finite counts as unresolved for every row (ratio inf).
    Returns the largest ratio of each row, shape (rows,).

    Only the rows that can set some panel's scale get their full
    coefficients.  On a panel ``|c_k| <= |coeff_map[k]|_2 |u|_2``
    (Cauchy-Schwarz), so ``scheme.coeff_bound`` times a row's node 2-norm
    bounds its largest coefficient there.  The squared norms of all rows
    come from one pass over the float view, floored at 1e-300 so that
    squares that underflow still give a bound; one that overflows gives
    inf.  Rows are visited in decreasing order of their largest bound, and
    a row whose bound is below the running scale on every panel cannot
    raise it, so its full transform, ``coeff_map @ row.T`` in (q, panels)
    layout, is skipped.  Every row's tail comes from ``coeff_map[-2:] @
    row.T``, whichever path it took, so the result does not depend on which
    rows were skipped: the ratios are bit for bit those of a full transform
    of every row wherever the BLAS forms the last two rows of that product
    alone as it does within it.  Rows are taken one at a time, so the
    temporaries stay at one row's size.
    """
    if values.ndim != 3:
        raise ValueError(f"values must have shape (rows, panels, q), "
                         f"got {values.shape}")
    flat = values.view(float)
    bound = np.einsum("rpk,rpk->rp", flat, flat)
    np.sqrt(np.maximum(bound, 1e-300, out=bound), out=bound)
    bound *= scheme.coeff_bound
    tails = np.empty(values.shape[:2])
    scale = np.zeros(values.shape[1])
    last = scheme.coeff_map[-2:]
    for r in np.argsort(-bound.max(axis=1, initial=0.0), kind="stable"):
        row = values[r]
        mag = np.abs(last @ row.T)                      # (2, panels)
        np.maximum(mag[0], mag[1], out=tails[r])
        if not (bound[r] < scale).all():
            mag = np.abs(scheme.coeff_map @ row.T)      # (q, panels)
            np.maximum(scale, mag.max(axis=0), out=scale)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(scale > 1e-290, tails / np.maximum(scale, 1e-300), 0.0)
    ratio[:, ~np.isfinite(scale)] = np.inf
    return np.max(ratio, axis=1, initial=0.0)


class OscillatoryMarch:
    """``u' = i omega u + F`` on ``grid`` for the rows of ``omega``: the
    tables every forcing's march reads, built once.

    The panel phase ``ph = e^{i omega (t-a)}`` is one (rows, q) table on
    ``grid.offsets``, shared by every panel of the uniform grid, so the
    values are the solution at ``a_p + offsets``, the nodes of each panel's
    interpolant.  The setup holds its conjugate, ``slow_phase``, the
    panels' half-widths and, per row, ``growth = |Im omega| h`` and the
    (q + 1, q) ``lift`` matrix ``[[(h/2) antideriv_nodes.T diag(ph)],
    [ph]]``, ``h`` the uniform width.  ``apply`` marches one forcing on
    some of the rows with these tables; the cascade applies one setup to
    its rows one at a time, and the gauge to all rows in every Picard
    iteration.  Every table is elementwise in the row, so a row's march
    gives the same bits whichever rows the setup holds.
    """

    def __init__(self, grid: PanelGrid, omega: np.ndarray):
        q, h = grid.q, grid.horizon / grid.n_panels
        self.grid = grid
        self.omega = omega
        self.growth = np.abs(omega.imag) * h
        phase = 1j * omega[:, None] * grid.offsets              # (rows, q)
        self.slow_phase = np.exp(-phase)
        self.half_widths = 0.5 * grid.widths()
        ph = np.exp(phase)
        self.lift = np.empty((omega.size, q + 1, q), dtype=complex)
        np.multiply(0.5 * h * grid.scheme.antideriv_nodes.T, ph[:, None, :],
                    out=self.lift[:, :q])
        self.lift[:, q] = ph

    def apply(self, forcing: np.ndarray, init: np.ndarray,
              rows: slice = slice(None), out: Optional[np.ndarray] = None
              ) -> np.ndarray:
        """March the rows ``rows`` of the setup: ``forcing`` holds F at all
        panel nodes, shape (len(rows), n_panels, q); ``init`` the values at
        t = 0.

        The slow factor ``psi = F e^{-i omega (t-a)}`` is F times
        ``slow_phase`` (no division).  Its integral over each panel,
        ``Jend``, is one product with ``antideriv_end`` scaled by the
        panel's own width ``h_p``: the breaks are uniform only to within
        ulps of the horizon, and the carries telescope over them.  The
        carry across panel ends, ``c_{p+1} = e^{i omega h_p} (c_p +
        Jend_p)``, is a linear recurrence, solved in closed form over blocks
        of panels starting at break s:

            c_{s+i} = E_i (c_s + sum_{j<i} Jend_{s+j} / E_j),
            E_i = e^{i omega (t_{s+i} - t_s)},

        with each ``E_i`` computed from the breaks directly, not as a
        product of panel steps.  A block spans as many panels as keep
        ``|E|`` and ``1/|E|`` within ``OVERFLOW_GUARD`` for the largest
        ``|Im omega|`` of the rows marched, so rows with real omega take
        the whole grid in one block; the block length and the ``E`` are
        those of the marched rows alone, so a row gives the same bits
        marched alone as with the others.  Each block's carries are checked
        against ``OVERFLOW_GUARD``; the error names the first panel end
        past it, or where a carry is not a number, and the row among those
        marched.  The node values ``u = ph (c_p + (h/2) antideriv_nodes
        psi)`` are then one product per row, ``[psi | c_p] @ lift``.
        Returns node values with the same shape as ``forcing``, written
        into ``out`` when it is given.
        """
        grid = self.grid
        omega = self.omega[rows]
        rows_n, n, q = omega.size, grid.n_panels, grid.q
        if forcing.shape != (rows_n, n, q):
            raise ValueError(f"forcing shape {forcing.shape} does not match "
                             f"({rows_n}, {n}, {q})")
        # [psi | carry] on each panel: the slow factor at the nodes and, in
        # the last column, the value at the panel's left break
        slow = np.empty((rows_n, n, q + 1), dtype=complex)
        psi = slow[:, :, :q]
        np.multiply(forcing, self.slow_phase[rows, None, :], out=psi)
        Jend = (psi @ grid.scheme.antideriv_end) * self.half_widths
        # |E| <= e^{growth * block} <= OVERFLOW_GUARD, and so is 1/|E|
        growth = float(np.max(self.growth[rows], initial=0.0))
        block = n if growth == 0.0 else int(
            min(n, max(1, np.log(OVERFLOW_GUARD) // growth)))
        carry = slow[:, :, q]            # carry[:, p]: value at breaks[p]
        c = np.array(init, dtype=complex)
        for s in range(0, n, block):
            e = min(s + block, n)
            E = np.exp(1j * omega[:, None]
                       * (grid.breaks[s:e + 1] - grid.breaks[s]))
            ends = np.cumsum(Jend[:, s:e] / E[:, :-1], axis=1)
            ends += c[:, None]
            ends *= E[:, 1:]             # values at breaks[s+1 .. e]
            mags = np.abs(ends)
            # a NaN is the largest magnitude and fails every comparison, so
            # only ``<=`` catches it
            if not mags.max(initial=0.0) <= OVERFLOW_GUARD:
                i = int(np.argmax((~(mags <= OVERFLOW_GUARD)).any(axis=0)))
                n_bad = int(np.argmax(mags[:, i]))     # a NaN is the argmax
                t_bad = float(grid.breaks[s + i + 1])
                breach = (f"exceeded {OVERFLOW_GUARD:g}"
                          if mags[n_bad, i] > OVERFLOW_GUARD
                          else "is not a number")
                raise OverflowGuardError(
                    f"mode magnitude {breach} at t={t_bad:g} (mode row "
                    f"{n_bad}); growing background makes the truncated "
                    "system blow up", time=t_bad, breach=breach)
            carry[:, s] = c
            carry[:, s + 1:e] = ends[:, :-1]
            c = ends[:, -1]
        return np.matmul(slow, self.lift[rows], out=out)


def oscillatory_march(grid: PanelGrid, omega: np.ndarray, forcing: np.ndarray,
                      init: np.ndarray, out: Optional[np.ndarray] = None
                      ) -> np.ndarray:
    """Solve ``u' = i omega u + F`` for every row, over all panels at once:
    ``OscillatoryMarch(grid, omega).apply(forcing, init, out=out)``, the
    one-shot form for a forcing of shape (n_rows, n_panels, q)."""
    return OscillatoryMarch(grid, omega).apply(forcing, init, out=out)
