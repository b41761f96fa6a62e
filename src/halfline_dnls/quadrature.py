"""Panel quadrature for oscillatory mode ODEs.

The solvers in this package integrate scalar ODEs of the form

    d/dt u_n = i omega_n u_n + w_n F_n(t)

by exact integrating factors ``e^{i omega_n (t - a)}`` on short panels.  On
each panel the slow factor ``e^{-i omega_n (t-a)} F_n`` is sampled at
Gauss-Legendre nodes, represented by its Chebyshev interpolant, and
antidifferentiated exactly in coefficient space; the same interpolant
provides dense output between nodes.  Every solver reads the panel
geometry from ``PanelGrid`` alone: the one width ``h`` of its equal
panels, the node offsets from a panel's left break (``offsets``), and
``break_phases``, ``e^{rate j h}`` at break j with its phase ``j Im(rate
h)`` exact, tabled as products of a factor at ``64 a`` and one at ``b <
64``.  No width or phase differs from panel to panel by rounding, which a
fast mode's forcing, cancelling to a small part of its size, would
amplify.  ``node_phases`` builds ``e^{rate t}`` on the nodes from one
break factor per panel and one factor per offset.  The carry from one
panel end to the next is a linear recurrence, solved in closed form over
blocks of panels with the factors of ``break_phases``, so its modulus
error does not grow with the panel count.  ``OscillatoryMarch(grid,
omega, weight)`` builds the tables of every row once, with the slow phase,
the row's weight ``w_n`` and the half-width folded into them, and its
``apply`` marches one forcing on some of the rows in one product per row,
with the block length of those rows alone, so a row's bits do not depend
on the rows marched with it.  Asked for it, ``apply`` also estimates its
error on each panel, from the last two Chebyshev coefficients of the slow
factor (one more (q, 2) product per row, beside the panel-end integrals)
and from a running bound of the carry's round-off, and leaves the node
values bit for bit as they are.  The cascade sets up once per rung and
marches its rows one at a time; the gauge solver (unit weights) sets up
once per rung and marches all rows in every Picard iteration.
``oscillatory_march`` is the one-shot form of the two, with unit weights.

Every solver runs on a ladder of grids, coarsest first, through the one
climber ``solve_on_ladder``, which makes the rungs itself and moves on
when a rung's function raises QuadratureError.  The Picard solvers climb
from the grid sized for ``1/2**PICARD_DEPTH`` of the fastest frequency to
the grid whose panels each advance that frequency by ``RADIANS_PER_PANEL``
radians.  The cascade climbs from the grid sized for ``1/2**
(MAX_REFINEMENTS + 2)`` of its fastest frequency to the grid sized for
that frequency doubled ``MAX_REFINEMENTS`` times, and the weak residual
from a trajectory's grid to ``cascade.WINDOW_DOUBLINGS`` doublings of it.
A rung passes when the Chebyshev tail of its solution, measured against
all rows on each panel (``tail_ratio``), is within tolerance; a panel
that is not finite fails, and a march stops at a carry that is not a
number as at one past ``OVERFLOW_GUARD``.  The cascade also asks that the
rung's error estimate, made inside its march, be within tolerance, ends
its climb at once when the estimate's round-off part alone is not
(``RoundoffError``), and ends it before a rung whose node array would
pass ``NODE_BUDGET``.  Every climb ends at a rung that numpy
cannot allocate, with an error that names its panel count.  The panel
sizing, the two ladder depths, the first step, the node budget and the
overflow guard are module constants, read when a climb starts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial.legendre import leggauss

__all__ = [
    "PanelScheme",
    "PanelGrid",
    "QuadratureError",
    "RoundoffError",
    "OverflowGuardError",
    "panel_scheme",
    "solve_on_ladder",
    "OscillatoryMarch",
    "oscillatory_march",
    "tail_ratio",
]

DEFAULT_POINTS = 24
# radians of the fastest oscillation allowed per panel
RADIANS_PER_PANEL = 8.0
# the cascade's climb: doublings of the grid sized for its fastest
# frequency to its last rung; its first rung is sized for that frequency
# halved MAX_REFINEMENTS + 2 times
MAX_REFINEMENTS = 3
# the step after a climb's first rung when its tail t fails but is finite:
# n panels grow by (n t / tol) ** (1 / FIRST_STEP_ORDER), clamped to
# FIRST_STEP_RANGE: the rung where panels x tail, falling at that order,
# reaches tol.  On the N=16, alpha=2 headline the cascade's 223 panels
# predict 892 (the clamp's four times) at s = 2, 576 at s = 2.5 and 446
# from s = 2.8 up, each passing its tail; over those steps panels x tail
# falls at order 11, 11.5 and 14.5 (its local order between 223 and 892
# panels at s = 2 ranges from 1.8 to 19).  The clamp keeps the step at
# least the doubling it replaces and at most two doublings
FIRST_STEP_ORDER = 12
FIRST_STEP_RANGE = (2.0, 4.0)
# the Picard solvers' ladder: halvings of the fastest frequency below the
# grid sized for it, its top rung.  On the benchmark's truncation-16 data
# the normal form accepts its floor (33 panels, tails <= 6.9e-14 against
# tol 1e-11 over 80 draws), where a floor one halving lower (17 panels)
# reads tails up to 4.7e-11 and fails
PICARD_DEPTH = 5
# largest mode magnitude a march may reach before it stops with an error
OVERFLOW_GUARD = 1e100
# most node values (rows x panels x q) in the node array of a cascade rung:
# 800 MB of complex128, 231,481 panels x 9 rows, so 8.2 times the 28,339
# panels that the N=16, alpha=3 inflation run accepts.  It bounds that one
# array, not the solve's peak memory: a degree-k nonlinearity keeps k - 1
# more arrays of its size
NODE_BUDGET = 50_000_000
# Panels per block of a pass over dense (M+1, panels, q) node values (the
# normal-form map, the weak-formulation residual): a block's node values
# are one batch of (M+1, panels * q) columns, so larger blocks pay the
# Python loop of the truncated products fewer times but hold larger
# arrays; the map keeps its work arrays of one block for a whole solve.
# At 64, the normal form's 33-panel floor at truncation 16 is one block.
# In the benchmark's verify process (seed 1, the calibration kernel between
# calls, 120 ops alternating the block size), the map took 13.0, 11.5 and
# 7.0 ms per op with blocks of 16, 32 and 64 panels, at 196, 308 and 287
# minor page faults per op: at 32 the floor splits into 32 panels and one.
# The weak residual of the N=16, alpha=2 headline (its 9 lattice rows, 1777
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


class RoundoffError(QuadratureError):
    """A tolerance below the round-off of a solve: ``floor``, the smallest
    tolerance the solve can meet, exceeds it.  A finer rung rounds as
    much, so ``solve_on_ladder`` ends its climb at this error."""

    def __init__(self, message, floor, worst_mode=None, tail=None):
        super().__init__(message, worst_mode=worst_mode, tail=tail)
        self.floor = floor


class OverflowGuardError(RuntimeError):
    """A mode magnitude exceeded ``OVERFLOW_GUARD``, or was not a number, at
    ``time``; ``breach`` says which, as the message does."""

    def __init__(self, message, time=None, breach=None):
        super().__init__(message)
        self.time = time
        self.breach = breach or f"exceeded {OVERFLOW_GUARD:g}"


def require_positive(**values) -> None:
    """Raise ValueError naming the first of ``values`` that is not a real
    number in (0, inf) (a NaN fails every comparison, so it would pass
    ``x <= 0``; a string or None would raise TypeError)."""
    for name, x in values.items():
        if not (isinstance(x, numbers.Real) and 0 < x < math.inf):
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

    Every panel has the width ``h``, so the node times of each panel
    relative to its left break are one q-vector, ``offsets``, and
    ``e^{rate t}`` at break j is ``e^{rate j h}`` (``break_phases``); the
    rounded ``breaks`` place the nodes and locate times.  A horizon not
    positive and finite, or fewer than one panel, raises ValueError."""

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

    @property
    def h(self) -> float:
        """The width of every panel, ``horizon / n_panels``."""
        return self.horizon / self.n_panels

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

    def node_times(self) -> np.ndarray:
        """All node times, shape (n_panels, q): one read-only array per
        grid, computed on the first call."""
        return self._node_times

    @cached_property
    def _node_times(self) -> np.ndarray:
        times = self.breaks[:-1, None] + self.offsets
        times.flags.writeable = False
        return times

    @cached_property
    def offsets(self) -> np.ndarray:
        """Node times of every panel relative to its left break, shape
        (q,): read-only, computed once per grid."""
        offsets = 0.5 * self.h * (1.0 + self.scheme.nodes)
        offsets.flags.writeable = False
        return offsets

    def break_phases(self, rate: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``e^{rate j h}`` at the break indices ``j``, shape (rows, j.size)
        for a 1-D ``rate`` of rows.

        ``theta = Im(rate h)`` is split (Veltkamp; Dekker, Numer. Math. 18,
        1971) into a 26-bit head and the tail ``theta - head``: ``j head``
        is exact for 0 <= j < 2^27; any other j raises ValueError (2^27
        panels hold a node array above 50 GB).  Only ``e^{Re(rate h) j + i
        tail j}``, of phase below ``2^-26 |j theta|``, rounds its exponent.
        The factor at ``j = 64 a + b`` is the product of the exact factors
        at ``64 a`` and at ``b``, tabled together for the a from ``min(j) //
        64`` to ``max(j) // 64`` and the b that ``j`` can use (those from
        ``min(j) % 64`` to ``max(j) % 64`` when all of ``j`` lies in one
        run of 64, else all 64): a call takes at most rows x ((max(j) -
        min(j)) / 64 + 65) pairs of exponentials, and a factor depends on
        its row and j alone."""
        j, rate = np.asarray(j), np.asarray(rate)
        if j.size == 0:
            return np.empty((rate.size,) + j.shape, dtype=complex)
        lo, hi = int(j.min()), int(j.max())
        if lo < 0 or hi >= 2**27:
            bad = j[(j < 0) | (j >= 2**27)][0]
            raise ValueError(f"break index {bad} outside [0, 2**27)")
        step = rate[:, None] * self.h
        split = step.imag * (2.0**27 + 1.0)
        head = split - (split - step.imag)
        a0, a1 = lo // 64, hi // 64
        b0, b1 = (lo % 64, hi % 64) if a0 == a1 else (0, 63)
        # the columns: the factors at 64 a0 .. 64 a1, then at b0 .. b1
        k = np.concatenate((64 * np.arange(a0, a1 + 1), np.arange(b0, b1 + 1)))
        table = np.exp(1j * (head * k))
        table *= np.exp(step.real * k + 1j * ((step.imag - head) * k))
        high, low = np.divmod(j, 64)
        return table[:, high - a0] * table[:, low + (a1 - a0 + 1 - b0)]

    def node_phases(self, rate: np.ndarray, panels: slice = slice(None),
                    out=None) -> np.ndarray:
        """``exp(rate * t)`` at the nodes of ``panels``, shape (rows,
        panels, q) for a 1-D ``rate`` of rows: ``break_phases`` at each
        panel's left break times a factor per offset, rows x (panels + q)
        exponentials.  Written into ``out`` when it is given."""
        rate = np.asarray(rate)
        at_breaks = self.break_phases(rate, np.arange(self.n_panels)[panels])
        if out is None:
            out = np.empty(at_breaks.shape + (self.q,), dtype=complex)
        # copied, then multiplied in place: numpy (2.4) buffers each operand
        # that a ufunc broadcasts, in up to 128 KiB, and the copy takes none
        out[...] = at_breaks[:, :, None]
        out *= np.exp(rate[:, None] * self.offsets)[:, None, :]
        return out

    def refined(self) -> "PanelGrid":
        return PanelGrid(self.horizon, 2 * self.n_panels, self.scheme)

    def locate(self, t):
        """Panel index and local coordinate x in [-1, 1] of each time of
        ``t``: arrays of both for an array of times (one searchsorted), an
        ``(int, float)`` pair for a scalar time.  ``x = 2 (t - breaks[p]) /
        h - 1`` with the one width h, as the nodes sit at ``breaks[p] +
        offsets``; the horizon is x = 1 on the last panel."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        inside = (ts >= 0.0) & (ts <= self.horizon * (1 + 1e-12))
        if not inside.all():
            raise ValueError(f"time {ts[~inside][0]} outside "
                             f"[0, {self.horizon}]")
        p = np.clip(np.searchsorted(self.breaks, ts, side="right") - 1,
                    0, self.n_panels - 1)
        x = np.clip(2.0 * (ts - self.breaks[p]) / self.h - 1.0, -1.0, 1.0)
        x[ts >= self.horizon] = 1.0      # the horizon ends the last panel
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


def solve_on_ladder(first: PanelGrid, top: int, tol: float,
                    solve: Callable[[PanelGrid], object],
                    attempts: list, rows: Optional[int] = None) -> object:
    """Climb from the grid ``first`` to the first rung that passes.

    On each rung ``solve(grid)`` returns the solution when the rung resolves
    it and raises QuadratureError when it does not, recording the rung in
    ``attempts`` as it goes; a failed rung's solution is dropped before the
    next rung is solved.  After n panels the next rung is ``PanelGrid(
    first.horizon, n', first.scheme)``, capped at ``top``, the last rung,
    whose error propagates.  n' is ``(5n + 3) // 4`` (ceil(5n/4)) when the
    error's tail is ``<= tol``.  When the rung is ``first`` and its tail t
    fails but is finite, n' is ``ceil(n f)``, f = ``(n t / tol) ** (1 /
    FIRST_STEP_ORDER)`` clamped to ``FIRST_STEP_RANGE``: the rung where
    panels x tail, falling at that order, reaches ``tol``.  Otherwise (a
    later tail above ``tol``, an infinite or NaN tail, or None) n' is 2n.
    When ``rows`` is given, a rung whose node array, ``rows`` x panels x q
    values, would pass ``NODE_BUDGET`` raises QuadratureError naming its
    panel count before ``solve`` runs, and ends the climb, since every
    later rung is larger.  So does, for any climb, a rung with more node
    values than a numpy array can address, and a MemoryError on a rung.
    An error that ends the climb carries ``attempts`` as ``grid_attempts``.
    """
    grid, failure = first, None
    while True:
        # a count sized for a huge frequency can have hundreds of digits
        n = grid.n_panels
        panels = n if n < 10**6 else f"{n:.3g}"
        nodes = float(n) * grid.q * (rows or 1)
        if rows is not None and nodes > NODE_BUDGET:
            refusal = (f"{panels} panels need {nodes:.3g} node values "
                       f"({rows} rows x {grid.q} per panel), above the node "
                       f"budget {NODE_BUDGET:.3g}")
        elif 16 * nodes > np.iinfo(np.intp).max:
            refusal = (f"{panels} panels of {grid.q} nodes: more complex "
                       "node values than a numpy array can address")
        else:
            try:
                return solve(grid)
            except QuadratureError as exc:
                # without its traceback the error keeps no frame, and so no
                # solution, alive while the next rung is solved
                failure = exc.with_traceback(None)
                if n >= top or isinstance(exc, RoundoffError):
                    break
                n = min(top, _next_rung(n, exc.tail, tol, grid is first))
                grid = PanelGrid(first.horizon, n, first.scheme)
                continue
            except MemoryError as exc:
                refusal = f"{panels} panels: out of memory: {exc}"
        failure = QuadratureError(
            refusal
            + (f"; the rung before failed: {failure}" if failure else ""),
            worst_mode=getattr(failure, "worst_mode", None),
            tail=getattr(failure, "tail", None))
        break
    failure.grid_attempts = attempts
    raise failure


def _next_rung(n: int, tail: Optional[float], tol: float, first: bool) -> int:
    """Panels of the rung after one of n panels whose error carries
    ``tail``, as ``solve_on_ladder`` sizes it; ``first``: the rung is the
    climb's first."""
    if tail is not None and tail <= tol:
        return (5 * n + 3) // 4
    if first and tail is not None and math.isfinite(tail):
        low, high = FIRST_STEP_RANGE
        factor = (n * tail / tol) ** (1 / FIRST_STEP_ORDER)
        return math.ceil(n * min(high, max(low, factor)))
    return 2 * n


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
    layout, is skipped; once a row's largest bound is below the least
    scale, so are the bounds of every row after it, and the visit ends
    there, unless a row's bound is NaN (it sorts last, and is
    transformed).  Every row's tail comes from ``coeff_map[-2:] @
    row.T``, whichever path it took, so the result does not depend on which
    rows were skipped: the ratios are bit for bit those of a full transform
    of every row wherever the BLAS forms the last two rows of that product
    alone as it does within it.  The full transforms are taken one row at
    a time, then the tails in one stacked product per chunk of rows, whose
    (rows, 2, panels) result holds at most the node values of
    ``BLOCK_PANELS`` panels of a row (one row per product from q / 2 x
    BLOCK_PANELS panels on), so the temporaries stay at one row's size.
    """
    if values.ndim != 3:
        raise ValueError(f"values must have shape (rows, panels, q), "
                         f"got {values.shape}")
    flat = values.view(float)
    bound = np.einsum("rpk,rpk->rp", flat, flat)
    np.sqrt(np.maximum(bound, 1e-300, out=bound), out=bound)
    bound *= scheme.coeff_bound
    scale = np.zeros(values.shape[1])
    peaks = bound.max(axis=1, initial=0.0)
    order = np.argsort(-peaks, kind="stable").tolist()
    peaks = peaks.tolist()
    # a NaN peak sorts last and must be visited; without one, the visit
    # ends at the first row whose peak is below the least panel's scale
    ends = not (order and math.isnan(peaks[order[-1]]))
    floor = 0.0
    for r in order:
        if peaks[r] < floor:
            break
        if not (bound[r] < scale).all():
            mag = np.abs(scheme.coeff_map @ values[r].T)    # (q, panels)
            np.maximum(scale, mag.max(axis=0), out=scale)
            if ends:
                floor = float(scale.min())
    tails = np.empty(values.shape[:2])
    last = scheme.coeff_map[-2:]
    chunk = max(1, BLOCK_PANELS * scheme.q // (2 * max(1, values.shape[1])))
    for r in range(0, values.shape[0], chunk):
        rows = values[r:r + chunk]
        mag = np.abs(last @ rows.transpose(0, 2, 1))    # (chunk, 2, panels)
        np.maximum(mag[:, 0], mag[:, 1], out=tails[r:r + chunk])
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(scale > 1e-290, tails / np.maximum(scale, 1e-300), 0.0)
    ratio[:, ~np.isfinite(scale)] = np.inf
    return np.max(ratio, axis=1, initial=0.0)


class OscillatoryMarch:
    """``u' = i omega u + w F`` on ``grid`` for the rows of ``omega`` and
    ``weight`` (ones if None): the tables every forcing's march reads.

    The panel phase ``ph = e^{i omega (t-a)}`` is one (rows, q) table on
    ``grid.offsets``, shared by every panel, so the values are the solution
    at ``a_p + offsets``, the nodes of each panel's interpolant.  With
    ``sw = w (h/2) e^{-i omega (t-a)}``, the slow phase times the weight
    and the half-width, the setup holds, per row, the carry factors
    ``steps[:, j] = e^{i omega j h}`` (``grid.break_phases``, j =
    0..n_panels), the length of its carry blocks (see ``apply``), the
    panel-end row ``end = sw antideriv_end`` and the (q + 1, q) ``lift``
    matrix ``[[diag(sw) antideriv_nodes.T diag(ph)], [ph]]``, built in
    place in its own array, and the (q, 2) matrix ``diag(sw)
    coeff_map[-2:].T``, which sends F to the last two Chebyshev
    coefficients of the weighted slow factor, kept as ``tail``, its (2q, 4)
    real form on the float view of F.  Every table is elementwise
    in the row, so a row's march gives the same bits whichever rows the
    setup holds.  ``apply`` copies each forcing into one (rows, n_panels, q + 1)
    buffer of the setup, made for the widest ``apply``.
    """

    def __init__(self, grid: PanelGrid, omega: np.ndarray,
                 weight: Optional[np.ndarray] = None):
        q, h, n = grid.q, grid.h, grid.n_panels
        self.grid = grid
        self.omega = omega
        phase = 1j * omega[:, None] * grid.offsets              # (rows, q)
        self.weight = np.ones(omega.size) if weight is None else weight
        sw = np.exp(-phase) * (0.5 * h * self.weight)[:, None]
        # a row's factors past its own block may overflow; none is read
        with np.errstate(over="ignore", invalid="ignore"):
            self.steps = grid.break_phases(1j * omega, np.arange(n + 1))
        ph = np.exp(phase)
        self.end = sw * grid.scheme.antideriv_end
        # a (rows, q, q) temporary would pass glibc's mmap threshold from
        # 15 rows on
        self.lift = np.empty((omega.size, q + 1, q), dtype=complex)
        np.multiply(sw[:, :, None], grid.scheme.antideriv_nodes.T,
                    out=self.lift[:, :q])
        self.lift[:, :q] *= ph[:, None, :]
        self.lift[:, q] = ph
        # the last two Chebyshev coefficients of the weighted slow factor
        # sw F from F's node values, apply's local error estimate, as the
        # real map of the float views: a complex (q, 2) product per row
        # costs twice the real one
        tail = sw[:, :, None] * grid.scheme.coeff_map[-2:].T     # (rows, q, 2)
        self.tail = np.empty((omega.size, 2 * q, 4))
        self.tail[:, 0::2, 0::2] = tail.real
        self.tail[:, 0::2, 1::2] = tail.imag
        self.tail[:, 1::2, 0::2] = -tail.imag
        self.tail[:, 1::2, 1::2] = tail.real
        # each row's carry block: the most panels over which e^{growth
        # panels}, growth = |Im omega| h, stays within OVERFLOW_GUARD (all
        # of them for real omega)
        guard = np.log(OVERFLOW_GUARD)
        self._blocks = [n if g == 0.0 else int(min(n, max(1, guard // g)))
                        for g in (np.abs(omega.imag) * h).tolist()]
        self._buffer = np.empty((0, n, q + 1), dtype=complex)

    def apply(self, forcing: np.ndarray, init: np.ndarray,
              rows: slice = slice(None), out: Optional[np.ndarray] = None,
              error: Optional[np.ndarray] = None) -> np.ndarray:
        """March the rows ``rows`` of the setup: ``forcing`` holds F at all
        panel nodes, shape (len(rows), n_panels, q); ``init`` the values at
        t = 0.

        The weighted integral of the slow factor ``F e^{-i omega (t-a)}``
        over each panel, ``Jend``, is one product of F with ``end``.  The
        carry across panel ends, ``c_{p+1} = e^{i omega h} (c_p +
        Jend_p)``, is solved in closed form over blocks of panels starting
        at break s:

            c_{s+i} = E_i (c_s + sum_{j<i} Jend_{s+j} / E_j),
            E_i = e^{i omega i h} = steps[:, i],

        one table for every block.  A block spans as many panels as keep
        ``|E|`` and ``1/|E|`` within ``OVERFLOW_GUARD`` for the largest
        ``|Im omega|`` of the rows marched (the whole grid for real omega),
        so a row gives the same bits marched alone as with the others.  The
        error at a carry past ``OVERFLOW_GUARD``, or not a number, names the
        first such panel end and the row among those marched.  The node
        values ``u = ph (c_p + w (h/2) antideriv_nodes (F / ph))`` are then
        one product per row, ``[F | c_p] @ lift``.  Returns node values
        with the same shape as ``forcing``, written into ``out`` when it is
        given.

        When ``error``, a float array of shape (2, len(rows), n_panels), is
        given, the march also estimates its error on each panel, and leaves
        every bit of the node values as they are.  ``error[0]`` is the
        local estimate ``max(|c_{q-2}|, |c_{q-1}|)`` of the slow factor
        times ``w (h/2)``: a node value integrates the degree q - 1
        interpolant of the slow factor up to the node, whose error is of
        the size of the next Chebyshev coefficient, where ``Jend``, the
        q-point Gauss rule, is exact to degree 2q - 1.  ``error[1]`` is a
        running bound of the carry's round-off at each panel's right break:
        ``eps`` times the partial sums of ``|Jend / E|``, times ``|E|``.
        """
        grid = self.grid
        blocks = self._blocks[rows]
        rows_n, n, q = len(blocks), grid.n_panels, grid.q
        if forcing.shape != (rows_n, n, q):
            raise ValueError(f"forcing shape {forcing.shape} does not match "
                             f"({rows_n}, {n}, {q})")
        if len(self._buffer) < rows_n:
            self._buffer = np.empty((rows_n, n, q + 1), dtype=complex)
        # [F | carry] on each panel: the forcing at the nodes and, in the
        # last column, the value at the panel's left break
        buf = self._buffer[:rows_n]
        buf[:, :, :q] = forcing
        Jend = np.matmul(forcing, self.end[rows, :, None])[:, :, 0]
        if error is not None:
            local = np.abs(np.matmul(buf[:, :, :q].view(float),
                                     self.tail[rows]).view(complex))
            np.maximum(local[:, :, 0], local[:, :, 1], out=error[0])
        # the shortest block of the rows marched: that of the row with the
        # largest growth, so |E| and 1/|E| stay within OVERFLOW_GUARD
        block = min(blocks, default=n)
        E = self.steps[rows, :block + 1]
        carry = buf[:, :, q]             # carry[:, p]: value at breaks[p]
        c = np.array(init, dtype=complex)
        for s in range(0, n, block):
            m = min(block, n - s)
            terms = Jend[:, s:s + m] / E[:, :m]
            ends = np.cumsum(terms, axis=1)
            ends += c[:, None]
            ends *= E[:, 1:m + 1]        # values at breaks[s+1 .. s+m]
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
            carry[:, s + 1:s + m] = ends[:, :-1]
            c = ends[:, -1]
            if error is not None:
                # the bound at breaks[s+1 .. s+m], from the one at break s
                run = np.cumsum(np.abs(terms), axis=1, out=error[1][:, s:s + m])
                run *= 2.0**-52          # float64's machine epsilon
                if s:
                    run += error[1][:, s - 1:s]
                run *= np.abs(E[:, 1:m + 1])
        return np.matmul(buf, self.lift[rows], out=out)


def oscillatory_march(grid: PanelGrid, omega: np.ndarray, forcing: np.ndarray,
                      init: np.ndarray, out: Optional[np.ndarray] = None
                      ) -> np.ndarray:
    """Solve ``u' = i omega u + F`` for every row, over all panels at once:
    ``OscillatoryMarch(grid, omega).apply(forcing, init, out=out)``, the
    one-shot form for a forcing of shape (n_rows, n_panels, q)."""
    return OscillatoryMarch(grid, omega).apply(forcing, init, out=out)
