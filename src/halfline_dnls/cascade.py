"""Reference solver: mode-by-mode Duhamel quadrature.

On one-sided spectra the nonlinearity couples mode n only to modes below it,
plus a self-interaction through the constant background: with
``c = u(0)`` (which is conserved) mode n >= 1 obeys the scalar linear ODE

    d/dt u_n = i (mu(n) + n * sum_l lambda_l c^l) u_n + g_n(t),

where g_n collects products of strictly lower supported modes.  Solving the
modes in increasing order, each over all of [0, T] in one
``quadrature.oscillatory_march`` before the next, therefore yields, up to
quadrature error, the *exact* solution of the truncated system, which in
turn agrees with the full equation on all retained modes.  The stiff
dispersive factor is handled by exact integrating factors, so there is no
step-size stability constraint.

The module also provides the linear (degree-0) closed form, the
weak-formulation residual checker, and the transform to the mean-zero
frame that removes the constant background from the nonlinearity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

import numpy as np

from .phase import support_semigroup
from .quadrature import (DEFAULT_POINTS, OverflowGuardError, PanelGrid,
                         QuadratureError, RADIANS_PER_PANEL,
                         oscillatory_march, tail_ratio)
from .spectral import (DispersionKind, EquationSpec, SpectralState,
                       dispersion_mu, dispersion_symbol, power)
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
                      tol: float = 1e-10, restrict_support: bool = True,
                      q: int = DEFAULT_POINTS,
                      radians_per_panel: float = RADIANS_PER_PANEL,
                      max_refinements: int = 3,
                      overflow_guard: float = 1e100) -> Trajectory:
    """Evolve ``phi`` under ``spec`` up to time T.

    With ``restrict_support`` the solver tracks only the additive semigroup
    generated by the support of ``phi`` (all other modes are identically
    zero); otherwise every mode up to the truncation is integrated, which is
    slower but lets the support confinement emerge numerically.

    Modes are solved in increasing order, each over the whole grid in one
    ``oscillatory_march``.  With ``u = c + w`` (``w`` the modes >= 1), the
    forcing of mode n is ``i n sum_j a_j (w^j)(n)`` over ``j >= 2``, where
    ``(w^j)(n) = sum_{0<m<n} w(m) (w^{j-1})(n-m)`` needs only solved modes
    and ``a_j`` collects the binomial terms of ``(c + w)^{l+1}``.  A
    nonlinearity of degree k >= 2 keeps ``k - 1`` arrays the size of the
    trajectory for the powers of ``w``.

    Raises QuadratureError when the Chebyshev tails still exceed ``tol``
    after ``max_refinements`` panel doublings, and OverflowGuardError when a
    mode magnitude passes ``overflow_guard``; as modes are solved in
    increasing order, the error names the lowest mode that passes it.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    M = phi.truncation
    if restrict_support:
        gens = {n for n in range(M + 1) if phi.coeffs[n] != 0}
        support = np.array(sorted(support_semigroup(gens, M)), dtype=int)
    else:
        support = np.arange(M + 1)

    if support.size == 0:
        grid = PanelGrid.for_frequency(T, 1.0, q=q,
                                       radians_per_panel=radians_per_panel)
        values = np.zeros((0, grid.n_panels, grid.q), dtype=complex)
        return Trajectory(spec=spec, grid=grid, modes=support, values=values,
                          truncation=M, quadrature_tolerance=tol,
                          initial_state=phi, variable="u")

    c0 = complex(phi.coeffs[0]) if support[0] == 0 else 0.0 + 0.0j
    shift = spec.self_coupling(c0)
    mu = dispersion_symbol(spec, support).astype(complex)
    omega = mu + support * shift
    freq = 2.0 * float(np.max(np.abs(mu) + support * abs(shift))) + 1.0

    # a_j = sum_l lambda_l C(l+1, j) c^(l+1-j) / (l+1); j = 1 is the shift
    weights = {}
    for deg, lam in spec.nonlin_coeffs.items():
        for j in range(2, deg + 2):
            weights[j] = weights.get(j, 0.0) + (
                lam * comb(deg + 1, j) * c0 ** (deg + 1 - j) / (deg + 1))
    weights = {j: a for j, a in weights.items() if a != 0}
    init = phi.coeffs[support]

    grid = PanelGrid.for_frequency(T, freq, q=q,
                                   radians_per_panel=radians_per_panel)
    for _ in range(max_refinements + 1):
        values, worst_tail, worst_mode = _solve_rows(
            grid, support, omega, c0, init, weights, overflow_guard)
        if worst_tail <= tol:
            return Trajectory(spec=spec, grid=grid, modes=support,
                              values=values, truncation=M,
                              quadrature_tolerance=tol, initial_state=phi,
                              variable="u")
        grid = grid.refined()
    raise QuadratureError(
        f"quadrature did not converge: worst Chebyshev tail {worst_tail:.3e} "
        f"> tol {tol:.3e} at mode {worst_mode}",
        worst_mode=worst_mode, tail=worst_tail)


def _solve_rows(grid, support, omega, c0, init, weights, overflow_guard):
    """Solve the support rows in increasing order on one grid.  Returns the
    node values, the worst Chebyshev tail ratio and the mode it occurs at."""
    shape = (grid.n_panels, grid.q)
    values = np.empty((support.size,) + shape, dtype=complex)
    start = 1 if support[0] == 0 else 0
    if start:
        values[0] = c0
    row_of = {int(n): r for r, n in enumerate(support)}
    top = max(weights, default=1)
    # powers[j] holds (w^j) on every row; w^1 is the trajectory itself
    powers = {1: values}
    powers.update((j, np.zeros_like(values)) for j in range(2, top))
    g = np.empty(shape, dtype=complex)
    prod = np.empty(shape, dtype=complex)
    worst_tail, worst_mode = 0.0, None
    for r in range(start, support.size):
        n = int(support[r])
        pairs = [(i, row_of[n - int(support[i])]) for i in range(start, r)
                 if n - int(support[i]) in row_of]
        # powers below the top are kept for later rows; (w^top)(n) is
        # summed in place into the forcing i n sum_j a_j (w^j)(n)
        g.fill(0.0)
        for j in range(2, top + 1):
            acc = powers[j][r] if j < top else g
            for i, i_rest in pairs:
                acc += np.multiply(values[i], powers[j - 1][i_rest], out=prod)
        g *= 1j * n * weights.get(top, 0.0)
        for j in range(2, top):
            if j in weights:
                g += (1j * n * weights[j]) * powers[j][r]
        try:
            values[r] = oscillatory_march(grid, omega[r:r + 1], g[None],
                                          init[r:r + 1], overflow_guard)[0]
        except OverflowGuardError as exc:
            raise OverflowGuardError(
                f"mode {n} exceeded {overflow_guard:g} at t={exc.time:g}",
                time=exc.time) from None
        ratio = tail_ratio(values[r], grid.scheme)
        if ratio > worst_tail:
            worst_tail, worst_mode = ratio, n
    return values, worst_tail, worst_mode


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
    ``e^{-i t c n}`` and m0 is subtracted from mode 0.  The result solves the
    recentered equation whose nonlinearity coefficients are
    ``lambda'_j = sum_{l>=j} lambda_l C(l, j) m0^{l-j}`` (j >= 1): no
    degree-0 term survives, so the new data is mean-zero with no transport.
    """
    spec = traj.spec
    if m0 is None:
        m0 = complex(traj.initial_state.coeffs[0])
    m0 = complex(m0)
    shift = spec.self_coupling(m0)
    if shift.imag > 0:
        warnings.warn(
            "recentering multiplier grows in time (Im of the self-coupling "
            "is positive); the truncated transform stays finite but is "
            "exponentially ill-conditioned", stacklevel=2)
    new_coeffs = {}
    for j in range(1, spec.max_degree + 1):
        lam_j = sum(lam * comb(deg, j) * m0 ** (deg - j)
                    for deg, lam in spec.nonlin_coeffs.items()
                    if deg >= max(j, 1))
        if lam_j != 0:
            new_coeffs[j] = lam_j
    if not new_coeffs:
        raise ValueError("no nonlinear term survives recentering a linear equation")
    w_spec = EquationSpec(alpha=spec.alpha, nonlin_coeffs=new_coeffs,
                          dispersion_kind=spec.dispersion_kind)

    times = traj.grid.node_times()
    mult = np.exp(-1j * shift * traj.modes[:, None, None].astype(float)
                  * times[None, :, :])
    w_vals = traj.values * mult
    w_init = np.array(traj.initial_state.coeffs)
    w_init[0] -= m0
    r0 = np.searchsorted(traj.modes, 0)
    if r0 < traj.modes.size and traj.modes[r0] == 0:
        w_vals[r0] -= m0
    return Trajectory(spec=w_spec, grid=traj.grid, modes=traj.modes,
                      values=w_vals, truncation=traj.truncation,
                      quadrature_tolerance=traj.quadrature_tolerance,
                      initial_state=SpectralState(w_init, traj.initial_state.time),
                      variable="w")


def mean_zero_inverse(w_traj: Trajectory, m0: complex,
                      original_spec: EquationSpec) -> Trajectory:
    """Undo mean_zero_transform; exact inverse multipliers."""
    m0 = complex(m0)
    shift = original_spec.self_coupling(m0)
    times = w_traj.grid.node_times()
    mult = np.exp(1j * shift * w_traj.modes[:, None, None].astype(float)
                  * times[None, :, :])
    u_vals = w_traj.values * mult
    u_init = np.array(w_traj.initial_state.coeffs)
    u_init[0] += m0
    r0 = np.searchsorted(w_traj.modes, 0)
    if r0 < w_traj.modes.size and w_traj.modes[r0] == 0:
        u_vals[r0] += m0
    return Trajectory(spec=original_spec, grid=w_traj.grid, modes=w_traj.modes,
                      values=u_vals, truncation=w_traj.truncation,
                      quadrature_tolerance=w_traj.quadrature_tolerance,
                      initial_state=SpectralState(u_init, w_traj.initial_state.time),
                      variable="u")


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


def weak_residual(traj: Trajectory, m: int, window: TimeWindow) -> complex:
    """Defect of the distributional formulation against the test function
    ``chi(t, x) = theta(t) e^{-imx}``.

    For a true solution the value vanishes up to quadrature error:

        -int u_m theta' dt - phi_m theta(0) - i mu(m) int u_m theta dt
            = sum_l lambda_l (i m / (l+1)) int (u^{l+1})_m theta dt.

    Returns left minus right.
    """
    if not 0 <= m <= traj.truncation:
        raise ValueError(f"test mode {m} outside truncation {traj.truncation}")
    if abs(window.horizon - traj.horizon) > 1e-12 * max(1.0, traj.horizon):
        raise ValueError("window horizon differs from trajectory horizon")
    spec = traj.spec
    grid = traj.grid
    sch = grid.scheme
    times = grid.node_times()
    widths = grid.widths()

    mu_m = dispersion_mu(spec.alpha, m, spec.dispersion_kind)
    phi_m = complex(traj.initial_state.coeffs[m])
    degs = sorted(spec.nonlin_coeffs)

    int_theta = 0.0 + 0.0j
    int_dtheta = 0.0 + 0.0j
    int_pow = {deg: 0.0 + 0.0j for deg in degs}
    for p in range(grid.n_panels):
        wq = 0.5 * widths[p] * sch.weights
        th = window.value(times[p])
        # modes above m cannot reach mode m of a one-sided product
        dense = traj.panel_node_values(p, dense=True)[: m + 1]
        int_theta += np.sum(wq * th * dense[m])
        int_dtheta += np.sum(wq * window.derivative(times[p]) * dense[m])
        for deg in degs:
            int_pow[deg] += np.sum(wq * th * power(dense, deg + 1)[m])

    theta0 = complex(window.value(np.array([0.0]))[0])
    lhs = -int_dtheta - phi_m * theta0 - 1j * mu_m * int_theta
    rhs = sum(spec.nonlin_coeffs[deg] * (1j * m / (deg + 1)) * int_pow[deg]
              for deg in degs)
    return complex(lhs - rhs)
