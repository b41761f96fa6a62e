"""Reference solver: mode-by-mode Duhamel quadrature.

On one-sided spectra the nonlinearity couples mode n only to modes below it,
plus a self-interaction through the constant background: with
``c = u(0)`` (which is conserved) mode n >= 1 obeys the scalar linear ODE

    d/dt u_n = i (mu(n) + n * sum_l lambda_l c^l) u_n + g_n(t),

where g_n collects products of strictly lower supported modes.  Solving the
modes in increasing order, each over all of [0, T] in one march of a
``quadrature.OscillatoryMarch`` before the next, therefore yields, up to
quadrature error, the *exact* solution of the truncated system, which in
turn agrees with the full equation on all retained modes.  The stiff
dispersive factor is handled by exact integrating factors, so there is no
step-size stability constraint.

The solve climbs ``quadrature.ladder``, ``MAX_REFINEMENTS`` halvings deep
and ``MAX_REFINEMENTS`` doublings past the grid sized for its fastest
frequency, through ``quadrature.solve_on_ladder``, and accepts a rung by
step doubling: its Chebyshev tails must pass, and its dense output must
agree with the rung before it, which bounds the error built up along the
march as well as the per-panel interpolation error.

The module also provides the linear (degree-0) closed form, the
weak-formulation residual checker, and the transform to the mean-zero
frame that removes the constant background from the nonlinearity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import quadrature
from .quadrature import (BLOCK_PANELS, OscillatoryMarch, OverflowGuardError,
                         PanelGrid, QuadratureError, ladder, require_positive,
                         solve_on_ladder, tail_ratio)
from .spectral import (DispersionKind, EquationSpec, SpectralState,
                       _product, dispersion_mu, dispersion_symbol, power)
from .trajectory import Trajectory

__all__ = [
    "nonlinear_forcing",
    "cascade_integrate",
    "linear_solve",
    "mean_zero_transform",
    "mean_zero_inverse",
    "TimeWindow",
    "standard_windows",
    "weak_residual",
]

# equispaced times, both ends included, at which two successive rungs of a
# cascade solve must agree
AGREEMENT_TIMES = 201
# the cascade's ladder is sized for this multiple of its fastest frequency.
# The ladder sized for the frequency itself passes the N=16, alpha=2
# inflation run's two-rung check on its second rung only for s >= 2.104,
# and a third rung below that doubles the run's time within the alpha=2
# regime 2 <= s <= 3.  With the margin every s there passes on the second
# rung (difference <= 1.6e-11 at s = 2), so the run costs the same over
# the regime
LADDER_MARGIN = 1.2
# doublings of a trajectory's panels that weak_residual tries for a window
# they do not resolve; the bump window needs 32 panels over any horizon
# for a tail <= 1e-12
WINDOW_DOUBLINGS = 8


def nonlinear_forcing(state: SpectralState, spec: EquationSpec, n: int) -> complex:
    """Mode-n value of ``(sum_l lambda_l u^l) u_x``.

    Computed as ``sum_l lambda_l (i n / (l+1)) (u^{l+1})(n)``; by one-sided
    triangularity only modes <= n enter.
    """
    if not 0 <= n <= state.truncation:
        raise ValueError(f"mode {n} outside truncation {state.truncation}")
    total = 0.0 + 0.0j
    for deg, lam in spec.nonlin_coeffs.items():
        total += lam * (1j * n / (deg + 1)) * power(state.coeffs, deg + 1)[n]
    return complex(total)


# -- cascade integrator -------------------------------------------------------

def cascade_integrate(phi: SpectralState, spec: EquationSpec, T: float,
                      tol: float = 1e-10, restrict_support: bool = True
                      ) -> Trajectory:
    """Evolve ``phi`` under ``spec`` up to time T.

    The solver tracks the modes ``0, g, 2g, ... <= M``: with
    ``restrict_support`` ``g`` is the gcd of the modes of ``phi``, whose
    sums stay on that lattice, and otherwise 1, which is slower but lets
    the support confinement emerge numerically.  Lattice modes no sum of
    data modes reaches are exactly zero; zero data tracks no mode.

    Modes are solved in increasing order, each over the whole grid in one
    march of the rung's ``OscillatoryMarch``.  With ``u = c + w`` (``w``
    the modes >= 1), the forcing of mode n is ``i n sum_j a_j (w^j)(n)``
    over ``j >= 2``, where ``(w^j)(n) = sum_{0<m<n} w(m) (w^{j-1})(n-m)``
    needs only solved modes and ``a_j = lambda'_{j-1} / j`` over the
    coefficients of ``spec.recentered(c)``.  A nonlinearity of degree k >= 2 keeps
    ``k - 1`` arrays the size of the trajectory for the powers of ``w``.

    The solve climbs ``quadrature.ladder``, sized for ``LADDER_MARGIN``
    times the fastest frequency of the tracked modes, and accepts the first
    rung where two things hold: the Chebyshev tails, each measured against
    all marched modes on its panel, are ``<= tol``; and
    the dense output of the marched modes at ``AGREEMENT_TIMES`` equispaced
    times differs from the previous rung's by at most ``tol`` times the
    largest magnitude of the two (step doubling).  The first rung is never
    accepted.  The returned trajectory's ``grid_attempts`` holds
    ``(n_panels, tail, difference)`` per rung tried, the difference
    relative and None on the first rung.

    Raises QuadratureError when no rung passes, naming the last rung's
    panel count, the condition that failed and its worst mode, with the
    rung record as ``grid_attempts``; also when a rung would pass
    ``quadrature.NODE_BUDGET``.  Raises OverflowGuardError when a mode
    magnitude passes ``quadrature.OVERFLOW_GUARD`` or is not a number; as
    modes are solved in increasing order, the error names the lowest mode
    where that happens.
    """
    require_positive(T=T, tol=tol)
    M = phi.truncation
    # row r is mode g r; without a positive mode g = 0: the data's own modes
    nonzero = np.flatnonzero(phi.coeffs)
    step = int(np.gcd.reduce(nonzero)) if restrict_support else 1
    support = np.arange(0, M + 1, step) if step else nonzero

    attempts = []

    def trajectory(grid, values):
        return Trajectory(spec=spec, grid=grid, modes=support, values=values,
                          quadrature_tolerance=tol, initial_state=phi,
                          variable="u", grid_attempts=attempts)

    # the constant mode 0 is set, not marched, and is not compared
    c0 = complex(phi.coeffs[0])
    marched = support[1:]
    if marched.size == 0:
        # zero or constant data: nothing is marched, and any grid is exact
        grid = PanelGrid.for_frequency(T, 1.0)
        return trajectory(grid, np.full((support.size, grid.n_panels, grid.q), c0))

    shift = spec.self_coupling(c0)
    mu = dispersion_symbol(spec, support).astype(complex)
    omega = mu + support * shift
    freq = 2.0 * float(np.max(np.abs(mu) + support * abs(shift))) + 1.0

    # a_{i+1} = lambda'_i / (i+1) of the recentered equation; a_1 is the shift
    weights = {} if spec.max_degree == 0 else {
        i + 1: lam / (i + 1)
        for i, lam in spec.recentered(c0).nonlin_coeffs.items()}
    init = phi.coeffs[support]
    times = np.linspace(0.0, T, AGREEMENT_TIMES)
    previous = None          # dense output of the rung before

    def solve(grid):
        nonlocal previous
        values, tail, tail_mode, live = _solve_rows(grid, support, omega, c0,
                                                    init, weights)
        traj = trajectory(grid, values)
        # a row that is not live is exactly zero, and so is its dense output
        dense = np.zeros((marched.size, times.size), dtype=complex)
        dense[np.array(live, dtype=int) - 1] = traj._evaluate(
            support[live], times)
        difference = diff_mode = None
        if previous is not None:
            gaps = np.max(np.abs(dense - previous), axis=1)
            scale = max(np.abs(dense).max(), np.abs(previous).max())
            worst = int(np.argmax(gaps))
            difference = float(gaps[worst] / scale) if scale else 0.0
            diff_mode = int(marched[worst])
        previous = dense
        attempts.append((grid.n_panels, tail, difference))
        where = f"cascade not resolved on {grid.n_panels} panels"
        if not tail <= tol:          # a NaN fails it too
            raise QuadratureError(
                f"{where}: Chebyshev tail {tail:.3e} > tol {tol:.3e} at "
                f"mode {tail_mode}", worst_mode=tail_mode, tail=tail)
        if difference is None:
            raise QuadratureError(
                f"{where}: no coarser rung to compare it with (tail "
                f"{tail:.3e}, worst at mode {tail_mode})",
                worst_mode=tail_mode, tail=tail)
        if not difference <= tol:
            raise QuadratureError(
                f"{where}: two-rung difference {difference:.3e} > tol "
                f"{tol:.3e} against {attempts[-2][0]} panels at mode "
                f"{diff_mode}", worst_mode=diff_mode, tail=tail)
        return traj

    depth = quadrature.MAX_REFINEMENTS
    _, traj = solve_on_ladder(ladder(T, LADDER_MARGIN * freq, depth, depth),
                              solve, attempts, rows=support.size)
    return traj


@np.errstate(over="ignore", invalid="ignore")
def _solve_rows(grid, support, omega, c0, init, weights):
    """Solve the rows of the lattice ``support`` in increasing order on one
    grid, row 0 set to c0.  Returns the node values, the worst Chebyshev
    tail ratio (against all rows not exactly zero on each panel), its mode
    and the live rows, those marched that are not exactly zero.  A row
    whose initial value is 0 and whose forcing no product of live rows
    reaches is set to +0 and not marched.  Each row that is marched is one
    ``apply`` of the grid's ``OscillatoryMarch``, set up once for all rows.
    numpy's overflow and invalid-value warnings are off: the march's guard
    names the mode where a value passes ``OVERFLOW_GUARD`` or is not a
    number.

    Row r of ``w^j`` is target r of ``spectral._product(w, w^{j-1})`` over
    the rows below r not exactly zero after their march (a zero row adds
    only signed zeros to a sum that starts at +0).  ``w^2`` is symmetric:
    it sums the rows ``m < r - m``, plus half the diagonal square, and is
    doubled, in the forcing's scalar ``i n a_2`` when it is the top power."""
    shape = (grid.n_panels, grid.q)
    values = np.empty((support.size,) + shape, dtype=complex)
    values[0] = c0
    top = max(weights, default=1)
    # powers[j] holds (w^j) on every row; w^1 is the trajectory itself
    powers = {1: values}
    powers.update((j, np.zeros_like(values)) for j in range(2, top))
    g = np.empty(shape, dtype=complex)
    march = OscillatoryMarch(grid, omega)
    live = []                    # marched rows that are not exactly zero
    # reached[r]: row r is live, or a product of live rows may reach it
    reached = np.zeros(support.size, dtype=bool)
    for r in range(1, support.size):
        n = int(support[r])
        # every term of the forcing multiplies a live row m by row r - m of
        # a power of w, which is zero unless r - m is reached
        forced = bool(reached[r - np.array(live, dtype=int)].any())
        if not (forced or init[r]):
            values[r] = 0.0      # +0, as a march of the zero forcing gives
            continue
        reached[r] = forced
        # powers below the top are kept for later rows; (w^top)(n) is
        # summed in place into the forcing i n sum_j a_j (w^j)(n)
        g.fill(0.0)
        for j in range(2, top + 1):
            acc = powers[j][r] if j < top else g
            if j == 2:
                _product(values, values, acc[None], r,
                         [m for m in live if 2 * m < r])
                if r % 2 == 0 and r // 2 in live:
                    acc += values[r // 2] * values[r // 2] * 0.5
                if j < top:
                    acc *= 2.0           # later rows need the true w^2
            else:
                _product(values, powers[j - 1], acc[None], r, live)
        g *= (2.0 if top == 2 else 1.0) * 1j * n * weights.get(top, 0.0)
        for j in range(2, top):
            if j in weights:
                g += (1j * n * weights[j]) * powers[j][r]
        try:
            march.apply(g[None], init[r:r + 1], slice(r, r + 1),
                        out=values[r:r + 1])
        except OverflowGuardError as exc:
            raise OverflowGuardError(
                f"mode {n} {exc.breach} at t={exc.time:g}",
                time=exc.time, breach=exc.breach) from None
        if np.any(values[r]):
            live.append(r)
            reached[r] = True
    # the tail check sets the rung's peak memory, and needs no march tables
    del march
    # the constant mode 0 is set, not marched, and a zero row has no tail:
    # neither is checked or sets the scale of the live rows.  A fancy index
    # copies the rows, so a solve whose rows are all live keeps the slice
    checked = live or [1]
    ratios = tail_ratio(values[1:] if len(checked) == support.size - 1
                        else values[checked], grid.scheme)
    worst = int(np.argmax(ratios))
    return values, float(ratios[worst]), int(support[checked[worst]]), live


# -- closed forms --------------------------------------------------------------

def linear_solve(phi: SpectralState, lam: complex, t: float,
                 alpha: Optional[float] = None,
                 kind: DispersionKind = DispersionKind.SCHRODINGER
                 ) -> SpectralState:
    """Closed form for the degree-0 equation ``u_t - i mu(D) u = lam u_x``:
    mode n is multiplied by ``e^{i t (mu(n) + lam n)}``.

    With ``alpha=None`` the dispersive factor is dropped, i.e. the result is
    the interaction-picture solution ``v(t, x) = phi(x + lam t)``.
    """
    n = np.arange(phi.coeffs.size)
    mu = 0.0 if alpha is None else dispersion_mu(alpha, n, kind)
    return SpectralState(phi.coeffs * np.exp(1j * t * (mu + lam * n)),
                         time=phi.time + t)


# -- mean-zero frame -----------------------------------------------------------

def mean_zero_transform(traj: Trajectory, m0: Optional[complex] = None
                        ) -> Trajectory:
    """Recenter a trajectory around its conserved mean.

    With ``c = sum_l lambda_l m0^l``, mode n >= 1 is multiplied by
    ``e^{-i t c n}`` and m0 is subtracted from mode 0.  The result solves
    ``traj.spec.recentered(m0)``, the equation with no degree-0 term, so the
    new data is mean-zero with no transport.
    """
    if m0 is None:
        m0 = complex(traj.initial_state.coeffs[0])
    m0 = complex(m0)
    shift = traj.spec.self_coupling(m0)
    if shift.imag > 0:
        warnings.warn(
            "recentering multiplier grows in time (Im of the self-coupling "
            "is positive); the truncated transform stays finite but is "
            "exponentially ill-conditioned", stacklevel=2)
    return _shift_frame(traj, -m0, -shift, traj.spec.recentered(m0), "w")


def mean_zero_inverse(w_traj: Trajectory, m0: complex,
                      original_spec: EquationSpec) -> Trajectory:
    """Undo mean_zero_transform; exact inverse multipliers."""
    m0 = complex(m0)
    return _shift_frame(w_traj, m0, original_spec.self_coupling(m0),
                        original_spec, "u")


def _shift_frame(traj: Trajectory, m0: complex, shift: complex,
                 spec: EquationSpec, variable: str) -> Trajectory:
    """Multiply mode n by ``e^{i t shift n}`` and add m0 to mode 0; the
    result is a trajectory of ``spec``."""
    vals = traj.values * traj.grid.node_phases(
        1j * shift * traj.modes.astype(float))
    init = np.array(traj.initial_state.coeffs)
    init[0] += m0
    if traj.modes.size and traj.modes[0] == 0:
        vals[0] += m0
    return Trajectory(spec=spec, grid=traj.grid, modes=traj.modes,
                      values=vals,
                      quadrature_tolerance=traj.quadrature_tolerance,
                      initial_state=SpectralState(init, traj.initial_state.time),
                      variable=variable)


# -- weak-formulation residual --------------------------------------------------

@dataclass(frozen=True)
class TimeWindow:
    """Smooth window theta with theta(T) = 0, with an analytic derivative.

    value/derivative accept numpy arrays of times in [0, T].
    """

    name: str
    horizon: float
    value: Callable
    derivative: Callable


def standard_windows(T: float) -> list:
    """Three windows vanishing at T: a flat bump, a quartic, and a cosine."""

    def bump_val(t):
        s = np.atleast_1d(np.asarray(t, dtype=float)) / T
        out = np.zeros_like(s)
        m = s < 1.0
        inside = 1.0 - s[m] ** 2
        out[m] = np.exp(1.0 - 1.0 / inside)
        return out

    def bump_der(t):
        s = np.atleast_1d(np.asarray(t, dtype=float)) / T
        out = np.zeros_like(s)
        m = s < 1.0 - 1e-12
        inside = 1.0 - s[m] ** 2
        out[m] = np.exp(1.0 - 1.0 / inside) * (-2.0 * s[m] / T) / inside**2
        return out

    def quartic_val(t):
        s = np.clip(np.atleast_1d(np.asarray(t, dtype=float)) / T, 0.0, 1.0)
        return (1.0 - s) ** 4

    def quartic_der(t):
        s = np.clip(np.atleast_1d(np.asarray(t, dtype=float)) / T, 0.0, 1.0)
        return -4.0 * (1.0 - s) ** 3 / T

    def cos_val(t):
        s = np.atleast_1d(np.asarray(t, dtype=float)) / T
        return np.cos(0.5 * np.pi * s) ** 2

    def cos_der(t):
        s = np.atleast_1d(np.asarray(t, dtype=float)) / T
        return -(0.5 * np.pi / T) * np.sin(np.pi * s)

    return [
        TimeWindow("bump", T, bump_val, bump_der),
        TimeWindow("quartic", T, quartic_val, quartic_der),
        TimeWindow("cosine", T, cos_val, cos_der),
    ]


def _window_tail(window: TimeWindow, grid: PanelGrid) -> float:
    """Largest of the last two Chebyshev coefficients of the window, and of
    its derivative, on any panel of ``grid``, each relative to its largest
    node value on the whole grid.  The scale is global, not per panel: the
    residual weighs the window's error by the trajectory, and near a zero of
    the window a per-panel scale would grow with every refinement."""
    times = grid.node_times()
    tail = 0.0
    for f in (window.value, window.derivative):
        vals = f(times)
        scale = np.max(np.abs(vals))
        if scale > 0:
            coeffs = np.abs(grid.scheme.coeff_map[-2:] @ vals.T)
            tail = max(tail, float(np.max(coeffs)) / scale)
    return tail


def _window_grid(traj: Trajectory, window: TimeWindow) -> PanelGrid:
    """The trajectory's grid when its window tail (``_window_tail``) is
    within ``traj.quadrature_tolerance``, else the first doubling of it
    that is.  Raises QuadratureError naming the window after
    ``WINDOW_DOUBLINGS`` doublings."""
    grid, doublings, tol = traj.grid, 0, traj.quadrature_tolerance
    while (tail := _window_tail(window, grid)) > tol:
        if doublings == WINDOW_DOUBLINGS:
            raise QuadratureError(
                f"window {window.name!r} not resolved on {grid.n_panels} "
                f"panels: Chebyshev tail {tail:.3e} > tol {tol:.3e}",
                tail=tail)
        grid, doublings = grid.refined(), doublings + 1
    return grid


def weak_residual(traj: Trajectory, window: TimeWindow) -> np.ndarray:
    """Defect of the distributional formulation against the test functions
    ``chi(t, x) = theta(t) e^{-imx}``, for every test mode m <= truncation.

    For a true solution every entry vanishes up to quadrature error:

        -int u_m theta' dt - phi_m theta(0) - i mu(m) int u_m theta dt
            = sum_l lambda_l (i m / (l+1)) int (u^{l+1})_m theta dt.

    Returns left minus right, shape (truncation + 1,).  The integrals run
    on the trajectory's panels when they resolve the window, and otherwise
    on the doubling of them that does (``_window_grid``), with the
    trajectory's interpolants evaluated on its nodes
    (``Trajectory.resampled``).  The quadrature weights times theta and
    theta' are tabled once on the grid's nodes, and each power of u is
    taken on the node values of ``quadrature.BLOCK_PANELS`` panels at a
    time, every mode ``g j`` (``g`` the gcd of the tracked modes) in one
    call; no other mode is reached.
    """
    if abs(window.horizon - traj.horizon) > 1e-12 * max(1.0, traj.horizon):
        raise ValueError("window horizon differs from trajectory horizon")
    grid = _window_grid(traj, window)
    if grid is not traj.grid:
        traj = traj.resampled(grid)
    spec, grid = traj.spec, traj.grid
    n = np.arange(traj.truncation + 1)
    times = grid.node_times()
    wq = 0.5 * grid.widths()[:, None] * grid.scheme.weights
    theta = wq * window.value(times)
    int_theta = np.zeros(n.size, dtype=complex)
    int_dtheta = np.zeros(n.size, dtype=complex)
    int_theta[traj.modes] = np.tensordot(traj.values, theta, axes=2)
    int_dtheta[traj.modes] = np.tensordot(
        traj.values, wq * window.derivative(times), axes=2)

    # sum_l lambda_l / (l+1) int (u^{l+1})_m theta dt, on the rows g j
    step = int(np.gcd.reduce(traj.modes)) or 1
    nonlin = np.zeros(n.size, dtype=complex)
    on_lattice = nonlin[::step]
    for start in range(0, grid.n_panels, BLOCK_PANELS):
        blk = slice(start, start + BLOCK_PANELS)
        dense = np.zeros((on_lattice.size,) + theta[blk].shape, dtype=complex)
        dense[traj.modes // step] = traj.values[:, blk]
        for deg, lam in spec.nonlin_coeffs.items():
            on_lattice += (lam / (deg + 1)) * np.tensordot(
                power(dense, deg + 1), theta[blk], axes=2)

    theta0 = float(window.value(np.array([0.0]))[0])
    mu = dispersion_symbol(spec, n)
    lhs = -int_dtheta - traj.initial_state.coeffs * theta0 - 1j * mu * int_theta
    return lhs - 1j * n * nonlin
