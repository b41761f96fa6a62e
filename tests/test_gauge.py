"""Gauge weight, truncated exponentials, the conjugated system, and its solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfline_dnls import (ContractionThresholdError, EquationSpec,
                           SecularSlopeError, SpectralState, cascade_integrate,
                           compatibility_defects, compatible_gauge_data,
                           conjugation_defect, convolve, exp_coeffs,
                           gauge_exp, gauge_lambda,
                           gauge_picard_solve, gauge_system_rhs,
                           picard_solve, primitive_from_zero, sobolev_norm)
from halfline_dnls.gauge import point_value


def delta(n, M, amp=1.0):
    c = np.zeros(M + 1, dtype=complex)
    c[n] = amp
    return c


# -- primitives -----------------------------------------------------------------

def test_primitive_of_single_mode():
    # int_0^x e^{iy} dy = (e^{ix} - 1)/i: mode 1 gets -i, constant +i
    w = primitive_from_zero(delta(1, 5))
    assert w.secular_slope == 0
    assert w.periodic_coeffs[1] == pytest.approx(-1j)
    assert w.periodic_coeffs[0] == pytest.approx(1j)
    assert point_value(w.periodic_coeffs) == pytest.approx(0.0, abs=1e-15)


def test_primitive_of_constant_is_pure_slope():
    w = primitive_from_zero(delta(0, 4, 2.5))
    assert w.secular_slope == 2.5
    assert np.all(w.periodic_coeffs == 0)


def test_primitive_mean_zero_has_zero_slope():
    g = delta(1, 6, 0.3) + delta(4, 6, -0.2j)
    assert primitive_from_zero(g).secular_slope == 0


def test_gauge_weight_k1():
    # Lambda = (a/2i) * (e^{ix}-1)/i: mode 1 carries -a/2, constant a/2
    a = 0.4 - 0.1j
    w = gauge_lambda(delta(1, 6, a), 1)
    assert w.periodic_coeffs[1] == pytest.approx(-a / 2)
    assert w.periodic_coeffs[0] == pytest.approx(a / 2)
    assert w.secular_slope == 0


def test_gauge_weight_k2():
    # integrand a^2 e^{2ix}/(2i): mode 2 carries -a^2/4
    a = 0.3
    w = gauge_lambda(delta(1, 6, a), 2)
    assert w.periodic_coeffs[2] == pytest.approx(-a * a / 4)
    assert w.periodic_coeffs[0] == pytest.approx(a * a / 4)


def test_gauge_weight_requires_mean_zero():
    with pytest.raises(SecularSlopeError):
        gauge_lambda(delta(0, 4, 0.5) + delta(1, 4, 0.1), 1)


def test_batched_weight_per_column():
    # a batch of nodes gives each column its own primitive and slope
    rng = np.random.default_rng(14)
    u = 0.1 * (rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5)))
    u[0] = 0.0
    w = gauge_lambda(u, 2)
    assert w.truncation == 7
    for i in range(5):
        col = gauge_lambda(u[:, i], 2)
        assert np.max(np.abs(w.periodic_coeffs[:, i]
                             - col.periodic_coeffs)) < 1e-16
        assert w.secular_slope[i] == col.secular_slope == 0
    with pytest.raises(SecularSlopeError):
        gauge_lambda(u + delta(0, 7, 0.5)[:, None], 1)


# -- truncated exponential ---------------------------------------------------------

def exp_oracle(lam):
    """The per-node series with np.convolve that exp_coeffs batches."""
    c = np.asarray(lam, dtype=complex)
    pos = np.array(c)
    pos[0] = 0.0
    out = np.zeros_like(c)
    out[0] = 1.0
    term = out.copy()
    for j in range(1, c.size):
        term = np.convolve(term, pos)[: c.size] / j
        if not np.any(term):
            break
        out += term
    return np.exp(c[0]) * out


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 6), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
def test_batched_exp_matches_per_node_oracle(M, B, step, seed):
    # equal to the per-node oracle on (M+1, B), and modes off the multiples
    # of ``step`` stay exactly 0
    rng = np.random.default_rng(seed)
    lam = 0.5 * (rng.standard_normal((M + 1, B))
                 + 1j * rng.standard_normal((M + 1, B)))
    off = np.arange(M + 1) % step != 0
    lam[off] = 0.0
    got = exp_coeffs(lam)
    for i in range(B):
        ref = exp_oracle(lam[:, i])
        bound = np.abs(exp_oracle(np.abs(lam[:, i])))
        assert np.all(np.abs(got[:, i] - ref) <= 1e-13 * np.maximum(1.0, bound))
    assert np.all(got[off] == 0)


def taylor_exp(lam):
    """The batched Taylor series exp_coeffs replaced: one truncated
    convolution power of the positive-mode part per term."""
    c = np.asarray(lam, dtype=complex)
    pos = np.array(c)
    pos[0] = 0.0
    out = np.zeros_like(c)
    out[0] = 1.0
    term = out.copy()
    for j in range(1, c.shape[0]):
        term = convolve(term, pos)
        term /= j
        if not np.any(term):
            break
        out += term
    return np.exp(c[0]) * out


@pytest.mark.parametrize("step", [1, 2])
def test_exp_recurrence_matches_taylor_series(step):
    # one gauge right-hand side's batch at M = 16 on 9 panels; with the
    # support on the even modes, the odd modes stay exactly 0
    rng = np.random.default_rng(16)
    lam = 0.05 * (rng.standard_normal((17, 9, 24))
                  + 1j * rng.standard_normal((17, 9, 24)))
    off = np.arange(17) % step != 0
    lam[off] = 0.0
    got = exp_coeffs(lam)
    assert np.max(np.abs(got - taylor_exp(lam))) <= 1e-15
    assert np.all(got[off] == 0)
    one = np.zeros_like(lam)
    one[0] = 1.0
    assert np.max(np.abs(convolve(got, exp_coeffs(-lam)) - one)) <= 1e-15


def test_exp_of_zero():
    assert np.array_equal(exp_coeffs(np.zeros(6, dtype=complex)), delta(0, 5))


def test_exp_single_mode_closed_form():
    # e^{c0 + c1 e^{ix}}: mode j carries e^{c0} c1^j / j!
    c0, c1, M = 0.2 - 0.3j, -0.4 + 0.1j, 9
    lam = delta(0, M, c0) + delta(1, M, c1)
    got = exp_coeffs(lam)
    expected = np.array([np.exp(c0) * c1**j / math.factorial(j)
                         for j in range(M + 1)])
    assert np.max(np.abs(got - expected)) < 1e-15


def test_exp_inverse_pair():
    # one vector, then a (12, 4, 3) batch of them
    rng = np.random.default_rng(23)
    for shape in ((12,), (12, 4, 3)):
        lam = 0.3 * (rng.standard_normal(shape)
                     + 1j * rng.standard_normal(shape))
        prod = convolve(exp_coeffs(lam), exp_coeffs(-lam))
        one = np.zeros(shape, dtype=complex)
        one[0] = 1.0
        assert np.max(np.abs(prod - one)) < 1e-13


def test_exp_truncation_independence():
    # computing at higher truncation and cutting back changes nothing
    rng = np.random.default_rng(3)
    lam = 0.2 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    lam_wide = np.zeros(16, dtype=complex)
    lam_wide[:8] = lam
    assert np.max(np.abs(exp_coeffs(lam_wide)[:8] - exp_coeffs(lam))) < 1e-15


def test_gauge_exp_rejects_secular_slope():
    w = primitive_from_zero(delta(0, 4, 1.0))
    with pytest.raises(SecularSlopeError):
        gauge_exp(w, 1)


def test_exp_weight_norm_pattern():
    # |e^Lambda - 1|_{H1} <= e^{C r^k} r^k with a fitted constant
    rng = np.random.default_rng(31)
    C, k = 3.0, 2
    for _ in range(30):
        u = np.zeros(10, dtype=complex)
        u[1:] = 0.05 * (rng.standard_normal(9) + 1j * rng.standard_normal(9))
        r = sobolev_norm(u, 1.0)
        w = gauge_lambda(u, k)
        lhs = sobolev_norm(exp_coeffs(w.periodic_coeffs) - delta(0, 9), 1.0)
        assert lhs <= math.exp(C * r**k) * r**k * C


# -- system right-hand sides ---------------------------------------------------------

def test_rhs_k1_single_mode_oracle():
    # u = a e^{ix}, gu = b e^{ix}: everything reduces to the closed-form
    # exponential e^{Lambda} with Lambda(0) = a/2, Lambda(1) = -a/2
    a, b, M = 0.3 - 0.2j, 0.25j, 10
    u, gu = delta(1, M, a), delta(1, M, b)
    eL = np.array([np.exp(a / 2) * (-a / 2) ** j / math.factorial(j)
                   for j in range(M + 1)])
    f_got, g_got = gauge_system_rhs(u, gu, 1)
    f_exp = np.zeros(M + 1, dtype=complex)
    f_exp[2:] = a * b * eL[: M - 1]
    assert np.max(np.abs(f_got - f_exp)) < 1e-14

    g_exp = np.zeros(M + 1, dtype=complex)
    g_exp[2:] = b * b * eL[: M - 1]              # k u^{k-1} e^L gu^2
    point1 = b * np.sum(eL[: M])                 # (e^L gu)(x=0)
    g_exp -= 0.5 * point1 * gu
    g_exp += (1 / 4j) * a ** 2 * gu              # u(0)^{2k} = a^2
    assert np.max(np.abs(g_got - g_exp)) < 1e-14


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rhs_batch_matches_per_node_oracle(k):
    # the solver evaluates the right-hand side on all (panel, node) columns
    # at once; each column must equal the per-node call it replaces
    rng = np.random.default_rng(40 + k)
    shape = (11, 3, 4)
    u = 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    gu = 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    u[0] = gu[0] = 0.0
    f, g = gauge_system_rhs(u, gu, k)
    for p, i in np.ndindex(3, 4):
        f_ref, g_ref = gauge_system_rhs(u[:, p, i], gu[:, p, i], k)
        scale = max(np.max(np.abs(f_ref)), np.max(np.abs(g_ref)))
        assert np.max(np.abs(f[:, p, i] - f_ref)) <= 1e-13 * scale
        assert np.max(np.abs(g[:, p, i] - g_ref)) <= 1e-13 * scale


def test_rhs_zero_state():
    z = np.zeros(8, dtype=complex)
    f, g = gauge_system_rhs(z, z, 1)
    assert np.all(f == 0) and np.all(g == 0)


def test_rhs_k2_has_zero_secular_slope():
    # the k >= 2 integral term is periodic for mean-zero one-sided data
    rng = np.random.default_rng(8)
    u = np.zeros(12, dtype=complex)
    gu = np.zeros(12, dtype=complex)
    u[1:] = 0.1 * (rng.standard_normal(11) + 1j * rng.standard_normal(11))
    gu[1:] = 0.1 * (rng.standard_normal(11) + 1j * rng.standard_normal(11))
    f, g = gauge_system_rhs(u, gu, 3)
    assert np.all(np.isfinite(g.view(float)))


# -- solver ---------------------------------------------------------------------------

def test_gauge_solver_zero_data():
    z = SpectralState(np.zeros(9, dtype=complex))
    tu, tg, log = gauge_picard_solve(z, z, 1, 1.0)
    assert log.converged
    assert np.max(np.abs(tu.values)) == 0.0
    assert np.max(np.abs(tg.values)) == 0.0


@pytest.mark.parametrize("k", [1, 2])
def test_gauge_solver_matches_cascade(k):
    phi = SpectralState.from_modes({1: 0.05}, 12)
    psi = compatible_gauge_data(phi, k)
    tu, tg, log = gauge_picard_solve(phi, psi, k, 0.75, tol=1e-12)
    assert log.converged
    assert all(r < 1 for r in log.ratios)
    ref = cascade_integrate(phi, EquationSpec.pure_power(k, 2.0), 0.75)
    for t in np.linspace(0, 0.75, 7):
        assert np.max(np.abs(tu.coeffs_at(t) - ref.coeffs_at(t))) < 1e-8
    ts = tu.sample_times
    defects = compatibility_defects(tu.dense_at(ts), tg.dense_at(ts), k)
    assert np.max(defects) < 1e-8


def test_gauge_solver_reports_smallness():
    phi = SpectralState.from_modes({1: 0.05}, 8)
    psi = compatible_gauge_data(phi, 1)
    _, _, log = gauge_picard_solve(phi, psi, 1, 0.5)
    rep = log.smallness
    assert rep.accepted and rep.rhs == 0.25
    assert rep.phi_h1 == sobolev_norm(phi, 1.0)
    assert rep.lhs == rep.phi_h1 + sobolev_norm(psi, 1.0)


def test_gauge_solver_rejects_large_data():
    phi = SpectralState.from_modes({1: 0.5}, 8)
    psi = compatible_gauge_data(phi, 1)
    with pytest.raises(ValueError, match="smallness"):
        gauge_picard_solve(phi, psi, 1, 1.0)


def test_both_picard_solvers_refuse_large_data_alike():
    # one exception type for data outside the smallness ball, so callers
    # (and the CLI's exit 2) treat the normal form and the gauge the same
    phi = SpectralState.from_modes({1: 0.5}, 8)
    with pytest.raises(ContractionThresholdError, match="smallness"):
        gauge_picard_solve(phi, compatible_gauge_data(phi, 1), 1, 1.0)
    with pytest.raises(ContractionThresholdError, match="contraction ball"):
        picard_solve(SpectralState.from_modes({1: 5.0}, 6),
                     EquationSpec.pure_power(1, 3.0), 0.5)


def test_gauge_solver_requires_mean_zero():
    phi = SpectralState.from_modes({0: 0.1, 1: 0.01}, 8)
    with pytest.raises(ValueError, match="mean-zero"):
        gauge_picard_solve(phi, phi, 1, 0.5)


def test_gauge_trajectory_satisfies_weak_formulation():
    # the gauge pipeline's u must be a distributional solution of the same
    # truncated equation the cascade solves
    from halfline_dnls import standard_windows, weak_residual
    phi = SpectralState.from_modes({1: 0.05}, 10)
    psi = compatible_gauge_data(phi, 1)
    tu, _, _ = gauge_picard_solve(phi, psi, 1, 0.5, tol=1e-12)
    window = standard_windows(0.5)[0]
    assert np.max(np.abs(weak_residual(tu, window))) < 1e-8


# -- conjugation identity ---------------------------------------------------------------

def test_conjugation_identity_zero_weight():
    rng = np.random.default_rng(12)
    f = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    f_t = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    z = np.zeros(9, dtype=complex)
    assert conjugation_defect(f, f_t, z, z) < 1e-14


def test_conjugation_identity_random_draws():
    rng = np.random.default_rng(2024)
    M = 12
    for _ in range(100):
        draw = lambda: 0.3 * (rng.standard_normal(M + 1)
                              + 1j * rng.standard_normal(M + 1))
        f0, f1, f2 = draw(), draw(), draw()
        l0, l1, l2 = draw(), draw(), draw()
        t = float(rng.uniform(0.0, 1.0))
        f = f0 + t * f1 + t * t * f2
        f_t = f1 + 2 * t * f2
        lam = l0 + t * l1 + t * t * l2
        lam_t = l1 + 2 * t * l2
        assert conjugation_defect(f, f_t, lam, lam_t) < 1e-10
