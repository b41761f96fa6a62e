"""Coefficient arithmetic: exactness, algebra laws, norms, serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfline_dnls import (DispersionKind, EquationSpec, SpectralState,
                           TruncationMismatchError, convolve,
                           derivative_coeffs, dispersion_apply,
                           dispersion_symbol, power, sobolev_norm)
from halfline_dnls.spectral import _product


def delta(n, M, amp=1.0):
    c = np.zeros(M + 1, dtype=complex)
    c[n] = amp
    return c


# -- convolve -------------------------------------------------------------------

def test_convolve_delta0_is_identity():
    b = np.array([0.3, 1j, -2.0, 0.5 + 0.5j])
    assert np.array_equal(convolve(delta(0, 3), b), b)


def test_convolve_single_modes_add_frequencies():
    out = convolve(delta(1, 4), delta(1, 4))
    assert np.array_equal(out, delta(2, 4))


def test_convolve_all_ones_by_hand():
    # (sum_{m<=n} 1*1) = n+1 for n = 0..3
    a = np.ones(4, dtype=complex)
    assert np.array_equal(convolve(a, a), np.array([1, 2, 3, 4], dtype=complex))


def test_convolve_truncation_mismatch():
    with pytest.raises(TruncationMismatchError):
        convolve(np.ones(4, dtype=complex), np.ones(5, dtype=complex))


def test_convolve_triangularity_bitwise():
    # entries above n must not affect entry n, bit for bit
    rng = np.random.default_rng(7)
    a = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    base = convolve(a, b)
    a2, b2 = a.copy(), b.copy()
    a2[6:] += 100.0
    b2[6:] -= 42.0j
    tampered = convolve(a2, b2)
    assert np.array_equal(base[:6], tampered[:6])


complex_lists = st.lists(
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=10)


@settings(max_examples=60, deadline=None)
@given(complex_lists, complex_lists)
def test_convolve_commutative(xs, ys):
    m = max(len(xs), len(ys))
    a = np.zeros(m, dtype=complex)
    b = np.zeros(m, dtype=complex)
    a[: len(xs)] = xs
    b[: len(ys)] = ys
    ab, ba = convolve(a, b), convolve(b, a)
    scale = max(1.0, np.max(np.abs(ab)))
    assert np.max(np.abs(ab - ba)) <= 1e-13 * scale


@settings(max_examples=40, deadline=None)
@given(complex_lists, complex_lists, complex_lists)
def test_convolve_associative_to_reassociation_tolerance(xs, ys, zs):
    m = max(len(xs), len(ys), len(zs))
    a, b, c = (np.zeros(m, dtype=complex) for _ in range(3))
    a[: len(xs)] = xs
    b[: len(ys)] = ys
    c[: len(zs)] = zs
    left = convolve(convolve(a, b), c)
    right = convolve(a, convolve(b, c))
    scale = max(1.0, np.max(np.abs(left)))
    assert np.max(np.abs(left - right)) <= 1e-13 * scale


# -- batches over trailing axes ----------------------------------------------------

def convolve_oracle(a, b):
    """Column-by-column ``np.convolve``: the scalar product the batched
    kernel replaces."""
    out = np.empty_like(a)
    for i in np.ndindex(a.shape[1:]):
        col = (slice(None),) + i
        out[col] = np.convolve(a[col], b[col])[: a.shape[0]]
    return out


def power_oracle(a, j):
    out = np.zeros_like(a)
    out[0] = 1.0
    for _ in range(j):
        out = convolve_oracle(out, a)
    return out


def batch(rng, M, B, step):
    """(M+1, B) draws supported on the multiples of ``step``, with a few
    whole columns zeroed."""
    a = rng.standard_normal((M + 1, B)) + 1j * rng.standard_normal((M + 1, B))
    a[np.arange(M + 1) % step != 0] = 0.0
    a[:, rng.random(B) < 0.2] = 0.0
    return a


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 6), st.integers(1, 3),
       st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_batched_products_match_column_oracle(M, B, step, j, seed):
    # batches on (M+1, B): equal to the column-by-column np.convolve oracle,
    # and modes off the multiples of ``step`` (no pair of supported modes
    # reaches them) stay exactly 0
    rng = np.random.default_rng(seed)
    a, b = batch(rng, M, B, step), batch(rng, M, B, step)
    off = np.arange(M + 1) % step != 0
    for got, ref, bound in (
            (convolve(a, b), convolve_oracle(a, b),
             convolve_oracle(np.abs(a), np.abs(b))),
            (power(a, j), power_oracle(a, j), power_oracle(np.abs(a), j))):
        assert got.shape == (M + 1, B)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, bound))
        assert np.all(got[off] == 0)
        assert np.all(got[:, ~np.any(a, axis=0)][1:] == 0)


@pytest.mark.parametrize("seed", range(4))
def test_weighted_product_all_ones_is_unweighted_bitwise(seed):
    rng = np.random.default_rng(seed)
    M = 12
    a, b = batch(rng, M, 7, 1 + seed % 3), batch(rng, M, 7, 1)
    got = _product(a, b, np.ones((M + 1, M + 1)))
    assert np.array_equal(got.view(np.uint64), _product(a, b).view(np.uint64))


def test_weighted_product_matches_direct_sum():
    rng = np.random.default_rng(5)
    M = 9
    a, b = batch(rng, M, 4, 1), batch(rng, M, 4, 1)
    w = rng.standard_normal((M + 1, M + 1))
    w[:, 3] = 0.0                      # a zero weight column is skipped
    ref = np.zeros_like(a)
    for n in range(M + 1):
        for m in range(n + 1):
            if m != 3:
                ref[n] += w[n, m] * a[m] * b[n - m]
    got = _product(a, b, w)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    # a delta at 3 meets only the zero weight column: exactly zero
    assert np.all(_product(delta(3, M)[:, None], b, w) == 0)


def test_convolve_batch_shape_mismatch():
    with pytest.raises(TruncationMismatchError):
        convolve(np.ones((4, 3), dtype=complex), np.ones((4, 2), dtype=complex))


def test_batched_derivative_per_column():
    rng = np.random.default_rng(5)
    c = rng.standard_normal((6, 2, 3)) + 1j * rng.standard_normal((6, 2, 3))
    got = derivative_coeffs(c)
    for i in np.ndindex(2, 3):
        col = (slice(None),) + i
        assert np.array_equal(got[col], derivative_coeffs(c[col]))


# -- power ----------------------------------------------------------------------

def test_power_of_single_mode():
    assert np.array_equal(power(delta(1, 5), 3), delta(3, 5))


def test_power_one_is_identity():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    assert np.array_equal(power(a, 1), a)


def test_power_zero_is_delta0():
    assert np.array_equal(power(np.ones(5, dtype=complex), 0), delta(0, 4))


@settings(max_examples=40, deadline=None)
@given(complex_lists, st.integers(0, 5))
def test_power_matches_iterated_convolution(xs, j):
    a = np.array(xs, dtype=complex)
    if a.size < 2:
        a = np.append(a, 0.0)
    ref = np.zeros_like(a)
    ref[0] = 1.0
    for _ in range(j):
        ref = convolve(ref, a)
    got = power(a, j)
    scale = max(1.0, np.max(np.abs(ref)))
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_power_two_mode_binomial_oracle(k):
    # (c + a e^{iNx})^k = sum_j C(k,j) c^{k-j} a^j e^{ijNx}
    c, a, N, M = 0.7 - 0.2j, 0.3 + 0.1j, 3, 12
    u = delta(0, M, c) + delta(N, M, a)
    got = power(u, k)
    expected = np.zeros(M + 1, dtype=complex)
    for j in range(k + 1):
        if j * N <= M:
            expected[j * N] = math.comb(k, j) * c ** (k - j) * a**j
    assert np.max(np.abs(got - expected)) <= 1e-14


# -- sobolev norms ---------------------------------------------------------------

def test_recentered_spec_binomial_coefficients():
    # lambda'_j = sum_{l>=j} lambda_l C(l, j) m0^{l-j}: no degree-0 term
    spec = EquationSpec(alpha=3.0, nonlin_coeffs={0: 0.5, 1: 1.0, 2: -0.5j})
    m0 = 0.2 - 0.1j
    w = spec.recentered(m0)
    assert set(w.nonlin_coeffs) == {1, 2}
    assert w.nonlin_coeffs[1] == pytest.approx(1.0 + 2 * (-0.5j) * m0)
    assert w.nonlin_coeffs[2] == -0.5j
    assert (w.alpha, w.dispersion_kind) == (spec.alpha, spec.dispersion_kind)


def test_recentered_linear_equation_rejected():
    with pytest.raises(ValueError, match="no nonlinear term"):
        EquationSpec.pure_power(0, 2.0).recentered(0.3)


def test_sobolev_norm_zero_state():
    assert sobolev_norm(np.zeros(6, dtype=complex), 2.5) == 0.0


def test_sobolev_norm_single_mode():
    # <N>^s |a|
    N, s, a = 4, 1.5, 0.3 - 0.4j
    got = sobolev_norm(delta(N, 8, a), s)
    assert got == pytest.approx((1 + N * N) ** (s / 2) * abs(a), rel=1e-15)


def test_sobolev_norm_inflation_data_bound():
    # two-mode data (1/log N, N^{-s}/log N at mode N) has H^s norm <= 2/log N
    N, s = 16, 2.0
    c = delta(0, N, 1 / math.log(N)) + delta(N, N, N ** (-s) / math.log(N))
    val = sobolev_norm(c, s)
    explicit = math.sqrt(1 + (1 + N * N) ** s * N ** (-2 * s)) / math.log(N)
    assert val == pytest.approx(explicit, rel=1e-14)
    assert val <= 2 / math.log(N)


def test_parseval_at_s_zero():
    rng = np.random.default_rng(11)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    assert sobolev_norm(c, 0.0) == pytest.approx(
        math.sqrt(np.sum(np.abs(c) ** 2)), rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(complex_lists, st.floats(-3, 3), st.floats(0, 3))
def test_sobolev_monotone_in_s(xs, s1, ds):
    c = np.array(xs, dtype=complex)
    if c.size < 2:
        c = np.append(c, 0.0)
    assert sobolev_norm(c, s1) <= sobolev_norm(c, s1 + ds) * (1 + 1e-12)


# -- derivative and dispersion ----------------------------------------------------

def test_derivative_of_constant_vanishes():
    assert np.array_equal(derivative_coeffs(delta(0, 4)),
                          np.zeros(5, dtype=complex))


def test_derivative_multiplier():
    c = np.arange(1, 6, dtype=complex)
    out = derivative_coeffs(c)
    assert np.array_equal(out, 1j * np.arange(5) * c)


def test_dispersion_apply_at_zero_time_is_identity():
    spec = EquationSpec.pure_power(1, 2.5)
    u = SpectralState(np.array([1.0, 2.0j, 3.0]), time=0.5)
    out = dispersion_apply(u, spec, 0.0)
    assert np.array_equal(out.coeffs, u.coeffs)
    assert out.time == 0.5


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0, 4.0])
def test_dispersion_kinds_agree_bitwise_for_integer_alpha(alpha):
    n = np.arange(0, 130)
    s1 = EquationSpec.pure_power(1, alpha, kind=DispersionKind.SCHRODINGER)
    s2 = EquationSpec.pure_power(1, alpha, kind=DispersionKind.AIRY_TYPE)
    assert np.array_equal(dispersion_symbol(s1, n), dispersion_symbol(s2, n))


def test_dispersion_kinds_close_for_fractional_alpha():
    n = np.arange(0, 40)
    s1 = EquationSpec(3.5, {1: 1.0}, DispersionKind.SCHRODINGER)
    s2 = EquationSpec(3.5, {1: 1.0}, DispersionKind.AIRY_TYPE)
    a, b = dispersion_symbol(s1, n), dispersion_symbol(s2, n)
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


# -- types ------------------------------------------------------------------------

def test_state_rejects_nan():
    with pytest.raises(ValueError):
        SpectralState(np.array([1.0, np.nan]))


def test_state_truncation_and_immutability():
    u = SpectralState(np.array([1.0, 2.0, 3.0]))
    assert u.truncation == 2
    with pytest.raises(ValueError):
        u.coeffs[0] = 5.0


def test_state_json_round_trip():
    u = SpectralState(np.array([1.0 + 2.0j, -0.5, 0.25j]), time=0.75)
    v = SpectralState.from_json(u.to_json())
    assert v.time == u.time
    assert np.array_equal(v.coeffs, u.coeffs)


def test_state_json_schema():
    u = SpectralState.from_modes({1: 1j}, 2, time=0.5)
    doc = json.loads(u.to_json())
    assert doc == {"time": 0.5, "coeffs": [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}


def test_equation_spec_requires_nonzero_coefficient():
    with pytest.raises(ValueError):
        EquationSpec(2.0, {1: 0.0})


def test_equation_spec_round_trip():
    spec = EquationSpec(3.0, {1: 1.0 + 0.5j, 2: -2.0},
                        DispersionKind.AIRY_TYPE)
    again = EquationSpec.from_dict(spec.to_dict())
    assert again.alpha == spec.alpha
    assert again.nonlin_coeffs == spec.nonlin_coeffs
    assert again.dispersion_kind is spec.dispersion_kind


def test_self_coupling_is_polynomial_in_background():
    spec = EquationSpec(3.0, {0: 2.0, 1: 1.0, 3: -1.0j})
    c = 0.5 + 0.25j
    assert spec.self_coupling(c) == pytest.approx(2.0 + c - 1j * c**3)
