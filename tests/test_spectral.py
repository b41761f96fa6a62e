"""Coefficient arithmetic: exactness, algebra laws, norms, serialization."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfline_dnls import (DispersionKind, EquationSpec, SpectralState,
                           TruncationMismatchError, convolve,
                           derivative_coeffs, dispersion_mu,
                           dispersion_symbol, linear_solve, power,
                           sobolev_norm)
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


def shift_and_add(a, b):
    """The product kernel's default expression: every nonzero row of ``a``
    shifted and added over all targets."""
    out = np.zeros_like(a)
    for m in np.flatnonzero(np.any(a, axis=tuple(range(1, a.ndim)))):
        out[m:] += a[m] * b[: a.shape[0] - m]
    return out


def rows_with_zeros(rng, M, shape):
    """An (M+1, *shape) draw with a few whole rows zero, one of them -0."""
    a = rng.standard_normal((M + 1,) + shape) \
        + 1j * rng.standard_normal((M + 1,) + shape)
    a[rng.random(M + 1) < 0.3] = 0.0
    a[M // 2] = -0.0
    return a


@pytest.mark.parametrize("seed", range(4))
def test_product_targets_match_the_full_product_bitwise(seed):
    # a one-row buffer at every target, and a range of targets, give the
    # bits of the full product: with the nonzero rows of ``a`` as ``live``
    # and with every row, since a zero row adds only signed zeros to a sum
    # that starts at +0
    rng = np.random.default_rng(seed)
    M, shape = 10, (3, 4)
    a, b = rows_with_zeros(rng, M, shape), rows_with_zeros(rng, M, shape)
    full = _product(a, b)
    assert np.array_equal(full.view(np.int64), shift_and_add(a, b).view(np.int64))
    nonzero = np.flatnonzero(np.any(a, axis=(1, 2))).tolist()
    assert len(nonzero) < M + 1
    for live in (nonzero, list(range(M + 1))):
        for n in range(M + 1):
            one = np.zeros((1,) + shape, dtype=complex)
            assert _product(a, b, one, start=n, live=live) is one
            assert np.array_equal(one[0].view(np.int64),
                                  full[n].view(np.int64)), n
        for start, stop in ((0, M + 1), (3, 7), (M, M + 1)):
            part = np.zeros((stop - start,) + shape, dtype=complex)
            _product(a, b, part, start=start, live=live)
            assert np.array_equal(part.view(np.int64),
                                  full[start:stop].view(np.int64))


def test_product_into_a_view_writes_in_place():
    # the cascade passes one row of a larger array as the buffer
    rng = np.random.default_rng(7)
    a, b = rows_with_zeros(rng, 6, (5,)), rows_with_zeros(rng, 6, (5,))
    store = np.zeros((7, 5), dtype=complex)
    _product(a, b, store[4][None], start=4)
    assert np.array_equal(store[4], _product(a, b)[4])
    assert not np.any(np.delete(store, 4, axis=0))


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


@pytest.mark.parametrize("j", range(7))
def test_power_product_count(monkeypatch, j):
    # binary powering from the lowest set bit: bit_length - 1 squarings and
    # popcount - 1 further products, none of them by delta_0
    from halfline_dnls import spectral
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return _product(*args, **kwargs)

    monkeypatch.setattr(spectral, "_product", counted)
    rng = np.random.default_rng(j)
    a = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
    got = power(a, j)
    expected = bin(j).count("1") + j.bit_length() - 2 if j else 0
    assert len(calls) == expected
    assert not np.shares_memory(got, a)
    ref = np.zeros_like(a)
    ref[0] = 1.0
    for _ in range(j):
        ref = convolve(ref, a)
    assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


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


def test_free_evolution_at_zero_time_is_identity():
    spec = EquationSpec.pure_power(1, 2.5)
    u = SpectralState(np.array([1.0, 2.0j, 3.0]), time=0.5)
    out = linear_solve(u, 0.0, 0.0, spec.alpha, spec.dispersion_kind)
    assert np.array_equal(out.coeffs, u.coeffs)
    assert out.time == 0.5


def dispersion_apply_oracle(u, spec, t):
    """The former ``spectral.dispersion_apply``: free evolution for a
    duration ``t``, mode n times ``e^{i t mu(n)}``."""
    mu = dispersion_symbol(spec, np.arange(u.coeffs.size))
    return SpectralState(u.coeffs * np.exp(1j * t * mu), time=u.time + t)


@pytest.mark.parametrize("kind", list(DispersionKind))
@pytest.mark.parametrize("alpha", [1.0, 2.0, 2.5, 3.0])
def test_free_evolution_is_linear_solve_without_transport_bitwise(alpha,
                                                                  kind):
    spec = EquationSpec.pure_power(1, alpha, kind=kind)
    rng = np.random.default_rng(int(4 * alpha))
    u = SpectralState(rng.standard_normal(17) + 1j * rng.standard_normal(17),
                      time=0.25)
    for t in (0.0, 0.3, 1.7):
        ref = dispersion_apply_oracle(u, spec, t)
        out = linear_solve(u, 0.0, t, alpha, kind)
        assert np.array_equal(out.coeffs.view(np.int64),
                              ref.coeffs.view(np.int64))
        assert out.time == ref.time


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


@pytest.mark.parametrize("kind", list(DispersionKind))
@pytest.mark.parametrize("alpha", [300.0, 300.5])
def test_dispersion_past_the_largest_float_is_refused(alpha, kind):
    # 128^300 overflowed float() with an OverflowError, and a fractional
    # alpha returned inf with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"mode n = 128 overflows a "
                                             rf"float at alpha = {alpha}"):
            dispersion_mu(alpha, np.arange(129), kind)
    assert np.isfinite(dispersion_mu(alpha, np.arange(10), kind)).all()


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
    v = SpectralState.from_dict(json.loads(json.dumps(u.to_dict())))
    assert v.time == u.time
    assert np.array_equal(v.coeffs, u.coeffs)


def test_state_json_schema():
    u = SpectralState.from_modes({1: 1j}, 2, time=0.5)
    doc = json.loads(json.dumps(u.to_dict()))
    assert doc == {"time": 0.5, "coeffs": [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}


def test_state_json_coefficients_are_each_entry_as_a_float():
    # one tolist of the stacked parts gives the floats that float() of each
    # part gave, bit for bit: signed zeros, subnormals and the largest float
    c = np.array([0.0, -0.0, complex(-0.0, 1.5), complex(5e-324, -0.0),
                  complex(np.pi, -np.e),
                  complex(-1.7976931348623157e308, 0.1)])
    got = SpectralState(c).to_dict()["coeffs"]
    old = [[float(z.real), float(z.imag)] for z in c]
    assert all(type(x) is float for pair in got for x in pair)
    assert np.array(got).tobytes() == np.array(old).tobytes()


def test_equation_spec_requires_nonzero_coefficient():
    with pytest.raises(ValueError):
        EquationSpec(2.0, {1: 0.0})


@pytest.mark.parametrize("lam", [float("nan"), float("inf"),
                                 complex(0.5, float("nan"))])
def test_equation_spec_refuses_a_non_finite_coefficient(lam):
    # a NaN coefficient was accepted and failed the cascade later with
    # "max_frequency must be positive and finite, got nan"
    message = "coefficient of degree 2 must be finite"
    with pytest.raises(ValueError, match=message):
        EquationSpec(2.0, {1: 1.0, 2: lam})
    with pytest.raises(ValueError, match=message):
        EquationSpec.from_dict({"alpha": 2.0, "nonlin_coeffs": {
            "1": [1.0, 0.0], "2": [lam.real, lam.imag]}})


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
