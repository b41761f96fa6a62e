"""Gauge-transformed pipeline for the second-order dispersion (alpha = 2).

At alpha = 2 the normal-form gain from 1/Phi is not enough, so the
derivative is removed from the worst nonlinear term by conjugation instead:
with the periodic weight

    Lambda(t, x) = (1/2i) int_0^x u(t, y)^k dy

the pair ``(u, gu)`` with ``gu = e^{-Lambda} u_x`` satisfies a system whose
nonlinearities carry no derivative, so a plain Duhamel/Picard iteration
converges for small data.  All ingredients (primitive, exponential, point
values at x = 0) are computed in coefficient space; the exponential of a
series with lowest mode >= 1 is a power series recurrence that ends at
the truncation and is therefore exact there.  Every function below takes
coefficient arrays of shape ``(M+1, ...)`` (mode axis first, trailing axes
a batch of nodes or times), so the solver evaluates its right-hand side
on the whole panel grid in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .normalform import SmallnessReport, picard_on_ladder
from .quadrature import OscillatoryMarch, require_positive
from .spectral import (EquationSpec, SpectralState, _along_modes, _as_coeffs,
                       convolve, derivative_coeffs, dispersion_mu, power,
                       sobolev_norm)

__all__ = [
    "GaugeWeight",
    "SecularSlopeError",
    "GaugeDataOverflowError",
    "primitive_from_zero",
    "gauge_lambda",
    "exp_coeffs",
    "gauge_exp",
    "gauge_system_rhs",
    "compatible_gauge_data",
    "gauge_picard_solve",
    "compatibility_defects",
    "conjugation_defect",
]

MEAN_TOL = 1e-12
SLOPE_TOL = 1e-10
# bound on |phi|_H1 + |psi|_H1 for the Picard iteration: a pragmatic
# stand-in for the contraction smallness condition
SMALLNESS_THRESHOLD = 0.25


class SecularSlopeError(ValueError):
    """A primitive that must be periodic picked up a linear-in-x part."""


class GaugeDataOverflowError(RuntimeError):
    """The compatible gauge data of finite data is not finite: ``e^{-Lambda}``
    overflows for data of its size."""


@dataclass(frozen=True, eq=False)
class GaugeWeight:
    """An antiderivative split into an affine and a periodic part.

    ``periodic_coeffs`` is normalized so the point value at x = 0 vanishes;
    ``secular_slope`` is the coefficient of x (the mean of the integrand)
    and is zero whenever the integrand is mean-zero.  For a batch,
    ``periodic_coeffs`` has shape ``(M+1, ...)`` and ``secular_slope`` the
    trailing batch shape.
    """

    periodic_coeffs: np.ndarray
    secular_slope: np.ndarray

    def __post_init__(self):
        for name in ("periodic_coeffs", "secular_slope"):
            a = np.array(getattr(self, name), dtype=complex)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def truncation(self) -> int:
        return self.periodic_coeffs.shape[0] - 1


def point_value(a):
    """Value at x = 0: the plain mode sum (absolutely convergent here), one
    per batch column."""
    return np.sum(_as_coeffs(a), axis=0)


def primitive_from_zero(g) -> GaugeWeight:
    """``int_0^x g``: slope ``g(0)`` plus the periodic part ``g(n)/(in)``,
    with the constant chosen so the value at x = 0 is zero."""
    c = _as_coeffs(g)
    p = np.zeros_like(c)
    p[1:] = c[1:] / (1j * _along_modes(np.arange(1, c.shape[0]), c))
    p[0] = -np.sum(p[1:], axis=0)
    return GaugeWeight(periodic_coeffs=p, secular_slope=c[0])


def gauge_lambda(u, k: int) -> GaugeWeight:
    """The gauge weight ``(1/2i) int_0^x u^k``.

    Requires mean-zero ``u^k`` (automatic for mean-zero one-sided u), else
    the primitive would not be periodic.
    """
    cu = _as_coeffs(u)
    if k < 1:
        raise ValueError("k must be >= 1")
    g = power(cu, k) / 2j
    mean = float(np.max(np.abs(g[0])))
    if mean > MEAN_TOL:
        raise SecularSlopeError(
            f"u^k has mean of size {mean:.3e}; its primitive is not periodic "
            "(u must be mean-zero)")
    return primitive_from_zero(g)


@np.errstate(over="ignore", invalid="ignore")
def exp_coeffs(lam) -> np.ndarray:
    """Coefficients of ``e^{lam}`` for a one-sided series, column by column
    of an ``(M+1, ...)`` array.

    The positive-mode part ``P`` has lowest mode >= 1, so ``E = e^P``
    solves ``E' = P' E`` mode by mode: ``E_0 = 1`` and

        n E_n = sum_{m=1..n} m P_m E_{n-m}

    (Knuth, TAOCP vol. 2, 4.7), M steps of O(M) products each, and exact at
    the truncation.  A mode no sum of supported modes reaches stays exactly
    0.  The mode-0 part contributes the factor ``e^{lam(0)}`` of each
    column.  numpy's overflow and invalid-value warnings are off: a series
    too large for float64 gives inf or NaN coefficients, which callers
    check.
    """
    c = _as_coeffs(lam)
    dP = _along_modes(np.arange(c.shape[0]), c) * c       # m P_m
    out = np.zeros_like(c)
    out[0] = 1.0
    for n in range(1, c.shape[0]):
        out[n] = np.sum(dP[n:0:-1] * out[:n], axis=0) / n
    return np.exp(c[0]) * out


def gauge_exp(w: GaugeWeight, c: complex = 1.0) -> np.ndarray:
    """``e^{c Lambda}`` of a periodic gauge weight (zero secular slope)."""
    slope = float(np.max(np.abs(w.secular_slope)))
    if slope > SLOPE_TOL:
        raise SecularSlopeError(
            f"secular slope of size {slope:.3e} != 0: the exponential of a "
            "non-periodic weight has no Fourier series")
    return exp_coeffs(c * w.periodic_coeffs)


def gauge_system_rhs(u, gu, k: int) -> tuple:
    """Right-hand sides of the gauge-conjugated system.

    For ``L = d/dt + i d_x^2``:

        L u  = u^k e^L gu,
        L gu = k u^{k-1} e^L gu^2
               - (k/2) [ (u^{k-1} e^L gu)(0)
                         + (k-1) int_0^x u^{k-2} e^{2L} gu^2 ] gu
               + (1/4i) u(0)^{2k} gu,

    where (0) denotes the point value at x = 0 and e^L the gauge
    exponential.  The k-1 terms are absent for k = 1.  The primitive in the
    bracket is tracked with its secular slope; a non-negligible slope aborts
    (it cannot occur for mean-zero one-sided data, where the integrand's
    mean vanishes identically).  ``u`` and ``gu`` are ``(M+1, ...)`` arrays
    of one shape; every column (node) is evaluated at once.
    """
    cu, cg = _as_coeffs(u), _as_coeffs(gu)
    if cu.shape != cg.shape:
        raise ValueError("u and gu must share one truncation and batch shape")
    eL = exp_coeffs(gauge_lambda(cu, k).periodic_coeffs)
    f_rhs = convolve(convolve(power(cu, k), eL), cg)

    base = convolve(power(cu, k - 1), eL)
    gu2 = convolve(cg, cg)
    # the bracket's point value enters as a mode-0 factor: a plain multiple
    point = point_value(convolve(base, cg))
    g_rhs = k * convolve(base, gu2)
    g_rhs += ((1 / 4j) * point_value(cu) ** (2 * k) - (k / 2) * point) * cg
    if k >= 2:
        integrand = convolve(convolve(power(cu, k - 2), convolve(eL, eL)), gu2)
        prim = primitive_from_zero(integrand)
        slope = float(np.max(np.abs(prim.secular_slope)))
        if slope > SLOPE_TOL:
            raise SecularSlopeError(
                f"integral term has secular slope of size {slope:.3e}; "
                "refusing to continue with a non-periodic right-hand side")
        g_rhs -= (k / 2) * (k - 1) * convolve(prim.periodic_coeffs, cg)
    return f_rhs, g_rhs


def _twisted_derivative(u, k: int) -> np.ndarray:
    """``e^{-Lambda(u)} u_x``, column by column of an ``(M+1, ...)`` array."""
    cu = _as_coeffs(u)
    lam = gauge_lambda(cu, k)
    return convolve(exp_coeffs(-lam.periodic_coeffs), derivative_coeffs(cu))


def compatible_gauge_data(phi: SpectralState, k: int) -> SpectralState:
    """The twisted-derivative data ``e^{-Lambda(phi)} phi_x`` matching phi.
    Raises GaugeDataOverflowError, naming its lowest such mode, when a
    coefficient is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        psi = _twisted_derivative(phi, k)
    bad = np.flatnonzero(~np.isfinite(psi))
    if bad.size:
        raise GaugeDataOverflowError(
            f"compatible gauge data e^(-Lambda(phi)) phi_x is not finite "
            f"at mode {bad[0]}: e^(-Lambda) overflows for data of this size")
    return SpectralState(psi, time=phi.time)


def gauge_picard_solve(phi: SpectralState, psi: SpectralState, k: int,
                       T: float, tol: float = 1e-10, max_iter: int = 60,
                       allow_unsafe: bool = False) -> tuple:
    """Picard iteration on the Duhamel form of the gauge system, from the
    free evolutions of ``(phi, psi)``, until the sup-in-time H^1 increment
    of both components is below ``tol``, on the grid that
    ``normalform.picard_on_ladder`` accepts; its ladder is sized for the
    fastest frequency ``2 mu(M) + 1``.

    Returns ``(trajectory of u, trajectory of gu, PicardLog)``.  Data with
    ``|phi|_H1 + |psi|_H1`` above ``SMALLNESS_THRESHOLD`` is refused unless
    ``allow_unsafe``; the check is reported as the log's ``smallness``.
    """
    require_positive(T=T, tol=tol)
    M = phi.truncation
    if psi.truncation != M:
        raise ValueError("phi and psi must share one truncation")
    if abs(phi.coeffs[0]) > MEAN_TOL or abs(psi.coeffs[0]) > MEAN_TOL:
        raise ValueError("gauge solver needs mean-zero data")
    phi_h1 = sobolev_norm(phi, 1.0)
    lhs = phi_h1 + sobolev_norm(psi, 1.0)
    smallness = SmallnessReport(
        accepted=lhs <= SMALLNESS_THRESHOLD, phi_h1=phi_h1, lhs=lhs,
        rhs=SMALLNESS_THRESHOLD, boundary_constants={},
        bulk_kernel_constants={}, horizon=T)

    mu = dispersion_mu(2.0, np.arange(M + 1)).astype(complex)
    phi_c = np.asarray(phi.coeffs, dtype=complex)
    psi_c = np.asarray(psi.coeffs, dtype=complex)

    # u and gu both march on the rung's one setup
    def setup(grid):
        march = OscillatoryMarch(grid, mu)

        def apply(x):
            f_rhs, g_rhs = gauge_system_rhs(x[:, 0], x[:, 1], k)
            return np.stack([march.apply(f_rhs, phi_c),
                             march.apply(g_rhs, psi_c)], axis=1)

        return apply, (np.stack([phi_c, psi_c], axis=1)[:, :, None, None]
                       * grid.node_phases(1j * mu)[:, None])

    return picard_on_ladder(
        EquationSpec.pure_power(k, 2.0), {"u": phi, "gu": psi}, T,
        2.0 * float(mu[-1].real) + 1.0, smallness, tol, max_iter, setup,
        allow_unsafe)


def compatibility_defects(u, gu, k: int) -> np.ndarray:
    """H^0 norm of ``gu - e^{-Lambda(u)} u_x``, one per column of the
    ``(M+1, ...)`` arrays ``u`` and ``gu`` (for instance both trajectories'
    ``dense_at`` of the same times).

    Small values certify that the pair stayed on the gauge relation it was
    initialized with.
    """
    return np.linalg.norm(_as_coeffs(gu) - _twisted_derivative(u, k), axis=0)


def conjugation_defect(f, f_t, lam, lam_t) -> float:
    """Max-mode defect of the conjugation identity

        e^L Op(e^{-L} f) = Op f + (-Op L + i (L_x)^2) f - 2i L_x f_x,

    where ``Op = d/dt + i d_x^2`` and all products are truncated one-sided
    convolutions.  The inputs are coefficient vectors of f, df/dt, Lambda,
    dLambda/dt at one instant; the identity is exact in truncated arithmetic
    so the returned value is pure round-off.
    """
    cf, cft = _as_coeffs(f), _as_coeffs(f_t)
    cl, clt = _as_coeffs(lam), _as_coeffs(lam_t)
    if not (cf.size == cft.size == cl.size == clt.size):
        raise ValueError("all inputs must share one truncation")
    n = np.arange(cf.size, dtype=float)
    n2 = n * n

    eL = exp_coeffs(cl)
    emL = exp_coeffs(-cl)
    g = convolve(emL, cf)
    # commutative algebra: d/dt e^{-L} = -L_t e^{-L}
    g_t = convolve(emL, cft - convolve(clt, cf))
    op_g = g_t - 1j * n2 * g
    lhs = convolve(eL, op_g)

    op_f = cft - 1j * n2 * cf
    op_l = clt - 1j * n2 * cl
    dlam = 1j * n * cl
    rhs = (op_f + convolve(-op_l + 1j * convolve(dlam, dlam), cf)
           - 2j * convolve(dlam, 1j * n * cf))
    return float(np.max(np.abs(lhs - rhs)))
