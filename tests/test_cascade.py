"""Cascade solver: forcing values, closed forms, residuals, transforms."""

import dataclasses
import importlib.util
import json
import math
import sys
import warnings
from math import comb
from pathlib import Path

import numpy as np
import pytest

from halfline_dnls import (DispersionKind, EquationSpec, OverflowGuardError,
                           QuadratureError, SpectralState, Trajectory,
                           cascade_integrate, compatible_gauge_data,
                           dispersion_mu, gauge_picard_solve, linear_solve,
                           mean_zero_inverse, mean_zero_transform,
                           nonlinear_forcing, power, sobolev_norm,
                           standard_windows, support_semigroup,
                           weak_residual)
from halfline_dnls import cascade, quadrature
from halfline_dnls.cli import dispatch
from halfline_dnls.inflation import build_inflation_data, inflation_time


def state(modes, M, time=0.0):
    return SpectralState.from_modes(modes, M, time)


def headline():
    """Data, equation and horizon of the N=16, alpha=2 inflation run at
    truncation 128 (s = 2.5, sigma = 0.5)."""
    return (build_inflation_data(16, 2.5, 1, 128),
            EquationSpec.pure_power(1, 2.0), inflation_time(16, 2.5, 0.5, 1))


def climb_on(*grids):
    """A stand-in for the cascade's ``solve_on_ladder`` that solves the
    rungs ``grids`` in order, whatever the solve's own sizing, and returns
    the first solution; the last rung's error propagates."""
    def climb(first, top, tol, solve, attempts, rows=None):
        *coarse, last = grids
        for grid in coarse:
            try:
                return solve(grid)
            except QuadratureError:
                pass
        return solve(last)
    return climb


def fixed_grid_solve(monkeypatch, phi, spec, T, n_panels, **kwargs):
    """The cascade on one fixed grid of ``n_panels``: the grid twice as the
    climb, so the two-rung difference is 0 and the tail check decides."""
    grid = quadrature.PanelGrid(T, n_panels)
    with monkeypatch.context() as m:
        m.setattr(cascade, "solve_on_ladder", climb_on(grid, grid))
        return cascade_integrate(phi, spec, T, **kwargs)


# -- nonlinear_forcing ------------------------------------------------------------

def test_forcing_vanishes_at_smallest_supported_mode():
    # mean-zero data: no way to split the lowest mode into >= 2 positive parts
    u = state({3: 0.5, 7: 0.2}, 12)
    spec = EquationSpec.pure_power(2, 3.0)
    assert nonlinear_forcing(u, spec, 3) == 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_forcing_carrier_self_term(k):
    c, a, N = 0.4 - 0.1j, 0.2j, 5
    u = state({0: c, N: a}, 3 * N)
    spec = EquationSpec.pure_power(k, 2.0)
    # the derivative factor kills terms differentiating the constant:
    # remaining contribution i N c^k a
    assert nonlinear_forcing(u, spec, N) == pytest.approx(1j * N * c**k * a)


def test_forcing_second_harmonic():
    # k = 1, mode 2N of c + a e^{iNx}: u u_x = (1/2)(u^2)_x picks a^2/2
    c, a, N = 0.4 - 0.1j, 0.2j, 5
    u = state({0: c, N: a}, 2 * N)
    spec = EquationSpec.pure_power(1, 2.0)
    assert nonlinear_forcing(u, spec, 2 * N) == pytest.approx(
        1j * (2 * N) * a * a / 2)


def test_forcing_brute_force_oracle():
    # independent enumeration of ordered decompositions, k = 2
    rng = np.random.default_rng(5)
    M, k, n = 9, 2, 7
    c = 0.1 * (rng.standard_normal(M + 1) + 1j * rng.standard_normal(M + 1))
    u = SpectralState(c)
    spec = EquationSpec.pure_power(k, 3.0)
    total = 0.0
    for n1 in range(n + 1):
        for n2 in range(n - n1 + 1):
            n3 = n - n1 - n2
            total += c[n1] * c[n2] * (1j * n3) * c[n3]
    assert nonlinear_forcing(u, spec, n) == pytest.approx(total, rel=1e-12)


# -- cascade closed forms -----------------------------------------------------------

@pytest.mark.parametrize("alpha,k", [(2.0, 1), (2.0, 2), (3.0, 1)])
def test_carrier_mode_closed_form(alpha, k):
    # u(t, N) = a e^{it(N^alpha + c^k N)} when lower modes are only the mean
    c, a, N, T = 0.3 * np.exp(0.7j), 0.01, 4, 0.8
    phi = state({0: c, N: a}, 3 * N)
    spec = EquationSpec.pure_power(k, alpha)
    traj = cascade_integrate(phi, spec, T)
    got = traj.mode_values(N, [T])[0]
    expected = a * np.exp(1j * T * (N**alpha + c**k * N))
    assert abs(got - expected) < 1e-12


def test_zero_data_gives_zero_trajectory():
    phi = SpectralState(np.zeros(9, dtype=complex))
    traj = cascade_integrate(phi, EquationSpec.pure_power(1, 2.0), 1.0)
    assert traj.modes.size == 0
    assert sobolev_norm(traj.state_at(0.7), 0.0) == 0.0


def test_pure_constant_data_is_stationary():
    c = 0.3 - 0.2j
    phi = state({0: c}, 6)
    traj = cascade_integrate(phi, EquationSpec.pure_power(2, 2.0), 1.0)
    assert list(traj.modes) == [0]
    assert np.all(traj.values == c)


def closed_form_mode2(a, b, t):
    """Independent oracle, k=1, alpha=3, data a*e^{ix} + b*e^{2ix}."""
    return b * np.exp(8j * t) + (a**2 / 6) * (np.exp(8j * t) - np.exp(2j * t))


def closed_form_mode3(a, b, t):
    def E(beta):
        return (np.exp(1j * beta * t) - np.exp(27j * t)) / (1j * (beta - 27))

    return 3j * ((a * b + a**3 / 6) * E(9) - (a**3 / 6) * E(3))


def test_low_mode_exponential_oracle():
    a = b = 0.1
    phi = state({1: a, 2: b}, 6)
    traj = cascade_integrate(phi, EquationSpec.pure_power(1, 3.0), 1.0)
    for t in (0.25, 1.0):
        assert abs(traj.mode_values(2, [t])[0]
                   - closed_form_mode2(a, b, t)) < 1e-12
        assert abs(traj.mode_values(3, [t])[0]
                   - closed_form_mode3(a, b, t)) < 1e-12
    # frozen oracle values (computed from the closed forms above)
    assert traj.mode_values(2, [0.25])[0] == pytest.approx(
        -0.043770899318776764 + 0.09164619582960397j, abs=1e-12)
    assert traj.mode_values(3, [0.25])[0] == pytest.approx(
        0.0025741941640349815 - 0.0005510022359684302j, abs=1e-12)
    # small-t Duhamel expansion: u3 = 3i a b t + O(t^2)
    t_small = 1e-4
    assert traj.mode_values(3, [t_small])[0] == pytest.approx(
        3j * a * b * t_small, rel=5e-3)


def test_against_independent_rk4_integrator():
    # classic fixed-step RK4 on the full coupled mode system, with the
    # right-hand side written from scratch via plain convolutions
    M, k, alpha, T = 6, 1, 2.0, 0.2
    c = np.zeros(M + 1, dtype=complex)
    c[0], c[1] = 0.2, 0.1
    mu = np.arange(M + 1, dtype=float) ** alpha
    n = np.arange(M + 1)

    def rhs(u):
        conv = np.convolve(u, u)[: M + 1]
        return 1j * mu * u + (1j * n / 2) * conv

    steps = 8000
    dt = T / steps
    u = c.copy()
    for _ in range(steps):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

    traj = cascade_integrate(SpectralState(c),
                             EquationSpec.pure_power(k, alpha), T)
    assert np.max(np.abs(traj.coeffs_at(T) - u)) < 1e-9


def test_mode0_conserved_exactly():
    phi = state({0: 0.25 - 0.1j, 2: 0.05}, 8)
    traj = cascade_integrate(phi, EquationSpec.pure_power(1, 2.0), 1.0)
    r0 = int(np.searchsorted(traj.modes, 0))
    assert np.all(traj.values[r0] == phi.coeffs[0])


def test_support_containment_unrestricted():
    # integrate every mode; off-semigroup modes must stay at zero
    N, M = 5, 20
    phi = state({0: 0.2, N: 0.1}, M)
    traj = cascade_integrate(phi, EquationSpec.pure_power(1, 2.0), 0.5,
                             restrict_support=False)
    allowed = {0, 5, 10, 15, 20}
    for r, n in enumerate(traj.modes):
        if int(n) not in allowed:
            assert np.max(np.abs(traj.values[r])) <= 1e-14


def test_restricted_matches_unrestricted():
    phi = state({0: 0.2, 3: 0.1}, 12)
    spec = EquationSpec.pure_power(1, 2.0)
    t_r = cascade_integrate(phi, spec, 0.6, restrict_support=True)
    t_f = cascade_integrate(phi, spec, 0.6, restrict_support=False)
    # the extra rows are exact zeros, so the semigroup rows match exactly
    assert np.array_equal(t_r.grid.breaks, t_f.grid.breaks)
    rows = np.searchsorted(t_f.modes, t_r.modes)
    assert np.array_equal(t_f.modes[rows], t_r.modes)
    assert np.array_equal(t_f.values[rows], t_r.values)


def test_truncation_exactness():
    # retained modes agree between truncations M and 2M up to quadrature tol
    phi_lo = state({0: 0.2, 2: 0.1, 3: 0.05j}, 8)
    phi_hi = state({0: 0.2, 2: 0.1, 3: 0.05j}, 16)
    spec = EquationSpec.pure_power(1, 2.0)
    lo = cascade_integrate(phi_lo, spec, 1.0)
    hi = cascade_integrate(phi_hi, spec, 1.0)
    for t in np.linspace(0, 1.0, 7):
        d = lo.coeffs_at(t) - hi.coeffs_at(t)[:9]
        assert np.max(np.abs(d)) < 1e-10


def test_dispersion_variant_equality_bitwise():
    phi = state({0: 0.2, 1: 0.1}, 6)
    a = cascade_integrate(phi, EquationSpec.pure_power(
        1, 3.0, kind=DispersionKind.SCHRODINGER), 0.5)
    b = cascade_integrate(phi, EquationSpec.pure_power(
        1, 3.0, kind=DispersionKind.AIRY_TYPE), 0.5)
    assert np.array_equal(a.values, b.values)


def test_growth_bound_small_data():
    # mild version of the continuity argument: small mean-zero data stays
    # within twice its initial H^1 norm up to T = 1
    phi = state({1: 0.02, 2: 0.02j}, 12)
    traj = cascade_integrate(phi, EquationSpec.pure_power(1, 3.0), 1.0)
    assert traj.sup_sobolev_norm(1.0) <= 2 * sobolev_norm(phi, 1.0)


def test_overflow_guard_trips():
    # strongly growing background: e^{t n |Im c|}; modes are solved in
    # increasing order, so the lowest mode that passes 1e100 is named
    phi = state({0: -20j, 1: 1.0}, 14)
    spec = EquationSpec.pure_power(1, 2.0)
    with pytest.raises(OverflowGuardError, match=r"mode 12\b"):
        cascade_integrate(phi, spec, 1.0)


def test_a_rung_that_is_not_a_number_ends_in_the_overflow_guard():
    # u^4 of modes of size 1e80 overflows the forcing of mode 4 to inf and
    # its march to NaN.  The guard missed the NaN (it failed ``> 1e100``),
    # the tail check read the NaN panels as ratio 0, and the two-rung check
    # let the NaN difference through, so the second rung was accepted
    phi = state({1: 1e80, 2: 1e80}, 8)
    with np.errstate(all="ignore"), pytest.raises(
            OverflowGuardError, match=r"^mode 4 is not a number at t=") as info:
        cascade_integrate(phi, EquationSpec.pure_power(3, 2.0), 1e-3)
    assert info.value.breach == "is not a number"


def test_a_rung_that_is_not_a_number_warns_of_nothing():
    # the guard names the mode; the overflow to inf and the NaN it leads
    # to raise no numpy warning on the way
    phi = state({1: 1e80, 2: 1e80}, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowGuardError,
                           match=r"^mode 4 is not a number at t="):
            cascade_integrate(phi, EquationSpec.pure_power(3, 2.0), 1e-3)


@pytest.mark.parametrize("M,panels", [(56, 197), (64, 257)])
def test_negligible_high_modes_pass_on_first_grid(monkeypatch, M, panels):
    # modes near 0.05^M are round-off of the state: measured against their
    # own size their tails looked unresolved and the solve raised; `panels`
    # is the grid sized for the fastest frequency, where the solve used to
    # stop, and no rung of the climb may be finer
    phi = state({1: 0.05, 2: 0.05}, M)
    spec = EquationSpec.pure_power(1, 2.0)
    traj = cascade_integrate(phi, spec, 0.25)
    assert traj.n_panels <= panels
    oracle = fixed_grid_solve(monkeypatch, phi, spec, 0.25, panels)
    ts = np.linspace(0.0, 0.25, cascade.AGREEMENT_TIMES)
    assert np.max(np.abs(traj.dense_at(ts) - oracle.dense_at(ts))) <= 1e-14


def test_under_resolved_grid_raises_naming_worst_mode(monkeypatch):
    # 200 radians per panel cannot be resolved by 24 nodes
    monkeypatch.setattr(quadrature, "RADIANS_PER_PANEL", 200.0)
    monkeypatch.setattr(quadrature, "MAX_REFINEMENTS", 0)
    phi = state({1: 0.1, 2: 0.05j}, 8)
    with pytest.raises(QuadratureError) as info:
        cascade_integrate(phi, EquationSpec.pure_power(1, 2.0), 1.0)
    err = info.value
    assert err.tail > 1e-10
    assert err.worst_mode in range(1, 9)
    assert f"at mode {err.worst_mode}" in str(err)


def test_background_does_not_mask_under_resolved_mode(monkeypatch):
    # one panel over T=8 leaves mode 1 (omega = 2) under-resolved, with a
    # tail of 2.3e-8 of its size; against the background c0 = 1, a thousand
    # times larger and never marched, the tail would read 1.6e-11 < tol
    monkeypatch.setattr(quadrature, "RADIANS_PER_PANEL", 1e4)
    phi = state({0: 1.0, 1: 1e-3}, 1)
    spec = EquationSpec.pure_power(1, 2.0)
    monkeypatch.setattr(quadrature, "MAX_REFINEMENTS", 0)
    with pytest.raises(QuadratureError) as info:
        cascade_integrate(phi, spec, 8.0)
    err = info.value
    assert err.tail > 1e-10 and "Chebyshev tail" in str(err)
    assert err.worst_mode == 1
    monkeypatch.setattr(quadrature, "MAX_REFINEMENTS", 3)
    traj = cascade_integrate(phi, spec, 8.0)
    (n_one, tail_one, _), *_ = traj.grid_attempts
    assert n_one == 1 and tail_one > 1e-10
    assert traj.n_panels > 1


# -- the rung climb ----------------------------------------------------------------

def alpha2_regime(s):
    """The N=16, alpha=2 run at truncation 128 with s = sigma + 2."""
    return (build_inflation_data(16, s, 1, 128),
            EquationSpec.pure_power(1, 2.0), inflation_time(16, s, s - 2.0, 1))


def test_headline_matches_a_fine_fixed_grid(monkeypatch):
    # step doubling is the oracle of the climb: over the alpha=2 regime the
    # accepted rung (1115, 720 and 558 panels) is within tol of a grid 10.6
    # to 21 times as fine, twice the 5921 panels sized for the fastest
    # frequency
    for s in (2.0, 2.5, 3.0):
        phi, spec, T = alpha2_regime(s)
        ts = np.linspace(0.0, T, cascade.AGREEMENT_TIMES)
        traj = cascade_integrate(phi, spec, T)
        reference = fixed_grid_solve(monkeypatch, phi, spec, T, 11842)
        ref = reference.dense_at(ts)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(traj.dense_at(ts) - ref)) <= 1e-10 * scale, s


def test_low_regularity_rows_agree_on_two_fixed_grids(monkeypatch):
    # the N = 149 instance of eps = 0.4, s = sigma = -1, k = 1, alpha = 2:
    # row 8N's largest value is about 1e-5 of the integral of its forcing's
    # magnitude, so an error that jumps from panel to panel, which nothing
    # cancels, is amplified about 1e5 times.  Widths and carry phases from
    # the rounded breaks put rows 4N-8N 4.3e-10 to 1.2e-9 apart on these
    # grids; from the one width h and exact phases, 2.7e-12 at most
    N = 149
    phi, spec = build_inflation_data(N, -1.0, 1, 8 * N), \
        EquationSpec.pure_power(1, 2.0)
    T = inflation_time(N, -1.0, -1.0, 1)
    ts = np.linspace(0.0, T, cascade.AGREEMENT_TIMES)
    dense = []
    for n_panels in (17912, 35824):
        args = solve_rows_args(monkeypatch, phi, spec, T, n_panels, True)
        grid, support = args[:2]
        values = cascade._solve_rows(*args)[0]
        traj = Trajectory(spec=spec, grid=grid, modes=support, values=values,
                          quadrature_tolerance=1e-10, initial_state=phi)
        dense.append(traj._evaluate(support, ts))
        del values, traj
    coarse, fine = dense
    assert support.tolist() == [N * r for r in range(9)]
    for r in range(1, support.size):
        gap = np.max(np.abs(coarse[r] - fine[r])) / np.max(np.abs(fine[r]))
        assert gap <= 1e-11, (support[r], gap)


def _verify_draws():
    """The data, equation and horizon of every cascade solve of the seed-1
    ``verify`` benchmark op (``bench/workloads.py``), at its tolerance."""
    from halfline_dnls.inflation import CASCADE_TOL
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # its dataclasses look themselves up
    try:
        spec.loader.exec_module(module)
        ops = module.generate(module.WORKLOADS["verify"], 1)
    finally:
        del sys.modules[spec.name]
    for draw in (op[key] for op in ops for key in ("gauge", "normal_form")):
        phi = SpectralState.from_dict(json.loads(draw["phi"]))
        yield (phi, EquationSpec.pure_power(draw["k"], float(draw["alpha"])),
               draw["T"], {"tol": CASCADE_TOL})


def _headline_at(s, k=1, alpha=2.0, m_max=8, **kwargs):
    """The N=16 run at sigma = s - 2, truncation 16 m_max, as the one case
    of a list of (data, equation, horizon, cascade keywords)."""
    return [(build_inflation_data(16, s, k, 16 * m_max),
             EquationSpec.pure_power(k, alpha),
             inflation_time(16, s, s - 2.0, k), kwargs)]


QUARTER_STEP_CASES = {
    "s=2": lambda: _headline_at(2.0),
    "s=2.5": lambda: _headline_at(2.5),
    "s=3": lambda: _headline_at(3.0),
    "unrestricted": lambda: _headline_at(2.5, restrict_support=False),
    "k=2": lambda: _headline_at(2.5, k=2),
    "k=3,m_max=4": lambda: _headline_at(2.5, k=3, m_max=4),
    "alpha=3,m_max=4": lambda: _headline_at(2.5, alpha=3.0, m_max=4),
    "verify-seed-1": _verify_draws,
}


@pytest.mark.parametrize("case", list(QUARTER_STEP_CASES))
def test_quarter_step_climb_against_step_doubling(monkeypatch, case):
    # step doubling is the oracle of the climb: the accepted rung, checked
    # against the rung 4/5 its size whose tails pass, is within tol of a
    # grid four times as fine, and their difference bounds its error, down
    # to the reference's round-off (5.8e-13 at alpha = 3 and 8.8e-13 at
    # k = 3, where the accepted rungs differ by 4.5e-13 and 7.5e-13)
    for phi, spec, T, kwargs in QUARTER_STEP_CASES[case]():
        tol = kwargs.get("tol", 1e-10)
        ts = np.linspace(0.0, T, cascade.AGREEMENT_TIMES)
        traj = cascade_integrate(phi, spec, T, **kwargs)
        (n, tail_n, _), (m, tail_m, difference) = traj.grid_attempts[-2:]
        assert m == traj.n_panels == (5 * n + 3) // 4, case
        assert max(tail_n, tail_m) <= tol and difference <= tol, case
        reference = fixed_grid_solve(monkeypatch, phi, spec, T,
                                     4 * traj.n_panels, **kwargs)
        marched = traj.modes[traj.modes != 0]
        ref = reference.mode_values(marched, ts)
        scale = np.max(np.abs(ref))
        error = np.max(np.abs(traj.mode_values(marched, ts) - ref)) / scale
        assert error <= tol, case
        assert error <= max(difference, 1e-12), case


def test_alpha2_regime_passes_on_the_same_rungs():
    # s = 2 and s = 3 bound the regime of the N=16, alpha=2 run: every s
    # there climbs from the same 223 panels and passes on its third rung.
    # The first rung's tail sizes the second, which passes its tail and is
    # checked against a rung 5/4 its size; the accepted rung's tail is the
    # decay of the second's (at s = 2, 892 panels' 8.9e-13 -> 1.0e-14)
    regime = {2.0: ([223, 892, 1115], 1.2e-14),
              2.5: ([223, 576, 720], 4e-15),
              3.0: ([223, 446, 558], 3e-16)}
    for s in (2.0, 2.25, 2.5, 2.75, 3.0):
        traj = cascade_integrate(*alpha2_regime(s))
        (first, _, _), *later = traj.grid_attempts
        assert first == 223 and len(later) == 2, s
        if s in regime:
            panels, tail = regime[s]
            assert [first] + [n for n, _, _ in later] == panels, s
            assert later[-1][1] <= tail, s


def test_two_rung_check_rejects_a_rung_whose_tail_passes(monkeypatch):
    # at 16 radians per panel the headline climb starts at 112 panels, whose
    # tail fails and sizes the next rung, 444; 444 and 555 both pass their
    # tails, but 444 is 3.0e-10 off, so 555 differs from it by more than
    # tol and is refused; 694 agrees with 555 (1.2e-11)
    monkeypatch.setattr(quadrature, "RADIANS_PER_PANEL", 16.0)
    phi, spec, T = headline()
    traj = cascade_integrate(phi, spec, T)
    (n0, t0, d0), (n1, t1, d1), (n2, t2, d2), (n3, t3, d3) = \
        traj.grid_attempts
    assert (n0, n1, n2, n3) == (112, 444, 555, 694) and traj.n_panels == n3
    assert t0 > 1e-10 and max(t1, t2, t3) <= 1e-10
    assert d0 is None and d1 is None
    assert 3.0e-10 < d2 < 3.05e-10 and d3 <= 1e-10


def test_an_unresolved_rung_is_no_comparison_base(monkeypatch):
    # a rung whose tail fails gets no dense output: the rung check never
    # evaluates it, and neither its record nor the next rung's carries a
    # difference, so the next rung cannot be accepted against it
    evaluated = []
    evaluate = Trajectory._evaluate
    monkeypatch.setattr(Trajectory, "_evaluate", lambda self, ns, ts:
                        evaluated.append(self.n_panels)
                        or evaluate(self, ns, ts))
    traj = cascade_integrate(*headline())
    (n0, t0, d0), (n1, t1, d1), (n2, t2, d2) = traj.grid_attempts
    assert (n0, n1, n2) == (223, 576, 720) and t0 > 1e-10
    assert d0 is None and d1 is None and d2 <= 1e-10
    assert evaluated == [576, 720]
    # a later rung whose tail fails (576 panels made to read a tail of 1)
    # is doubled, and the rung after it is checked only against the next
    solve_rows = cascade._solve_rows

    def unresolved_at_576(grid, *args):
        values, tail, mode, live = solve_rows(grid, *args)
        return values, (1.0 if grid.n_panels == 576 else tail), mode, live

    monkeypatch.setattr(cascade, "_solve_rows", unresolved_at_576)
    evaluated.clear()
    traj = cascade_integrate(*headline())
    assert [n for n, _, _ in traj.grid_attempts] == [223, 576, 1152, 1440]
    assert [d is None for _, _, d in traj.grid_attempts] \
        == [True, True, True, False]
    assert evaluated == [1152, 1440]


def _fed_climb(tails):
    """The panels of the rungs of the cascade's climb at tol 1e-10 over
    T = 1 at 513 radians per unit time, the i-th rung's tail reading
    ``tails[i]``: the first rung is 3 panels, sized ``MAX_REFINEMENTS + 2``
    halvings deep, and the top 65 doubled ``MAX_REFINEMENTS`` times, 520.
    Every rung is refused, as the cascade refuses one, with its tail."""
    depth, panels = quadrature.MAX_REFINEMENTS, []

    def refuse(grid):
        panels.append(grid.n_panels)
        raise QuadratureError("refused", tail=tails[len(panels) - 1])

    # the climb ends at its top rung, or at the rung past the last tail
    with pytest.raises((QuadratureError, IndexError)):
        quadrature.solve_on_ladder(
            quadrature.PanelGrid.for_frequency(1.0, 513.0 / 2**(depth + 2)),
            quadrature.PanelGrid.for_frequency(1.0, 513.0).n_panels << depth,
            1e-10, refuse, [])
    return panels[:len(tails)]


def test_climb_grows_by_a_quarter_after_a_passing_tail_and_doubles_otherwise():
    nan = float("nan")
    # ceil(5n/4) after a tail <= tol (tol itself included), 2n after one
    # above it or not a number; the first rung's 1e-9 predicts a step below
    # the doubling, and is clamped to it
    assert _fed_climb([1e-12, 1e-10, 1e-12, 1e-12]) == [3, 4, 5, 7]
    assert _fed_climb([1e-9, nan, 1e-12, 1e-12]) == [3, 6, 12, 15]
    assert _fed_climb([nan, 1e-12, nan, 1e-12]) == [3, 6, 8, 16]


def test_climb_whose_tails_all_fail_stops_at_the_top_rung():
    # the first rung's tail of 1 predicts four times its panels, and the
    # doublings of that rung pass the top, which is the last rung
    assert _fed_climb([1.0] * 20) == [3, 12, 24, 48, 96, 192, 384, 520]
    # so does a climb of passing tails, in more rungs
    rungs = _fed_climb([0.0] * 30)
    assert rungs[-1] == 520 and rungs[-2] * 5 / 4 > 520


def ordered_pair_solve_rows(grid, support, omega, c0, init, weights,
                            forcings):
    """Oracle of ``cascade._solve_rows``: every power, ``w^2`` included, is
    summed over the ordered pairs, each row is marched with its forcing
    ``w^top + sum_j (a_j / a_top) w^j`` over the weight ``i n a_top``, and
    the forcing ``i n sum_j a_j w^j`` of each marched row is appended to
    ``forcings``."""
    shape = (grid.n_panels, grid.q)
    values = np.empty((support.size,) + shape, dtype=complex)
    start = 1 if support[0] == 0 else 0
    if start:
        values[0] = c0
    row_of = {int(n): r for r, n in enumerate(support)}
    top = max(weights, default=1)
    powers = {1: values}
    powers.update((j, np.zeros_like(values)) for j in range(2, top))
    g = np.empty(shape, dtype=complex)
    for r in range(start, support.size):
        n = int(support[r])
        pairs = [(i, row_of[n - int(support[i])]) for i in range(start, r)
                 if n - int(support[i]) in row_of]
        g.fill(0.0)
        for j in range(2, top + 1):
            acc = powers[j][r] if j < top else g
            for i, i_rest in pairs:
                acc += values[i] * powers[j - 1][i_rest]
        for j in range(2, top):
            if j in weights:
                g += (weights[j] / weights[top]) * powers[j][r]
        weight = 1j * n * weights.get(top, 0.0)
        forcings.append(weight * g)
        values[r] = quadrature.OscillatoryMarch(
            grid, omega[r:r + 1], np.array([weight])).apply(
                g[None], init[r:r + 1])[0]
    return values


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pair_products_match_ordered_pair_oracle(monkeypatch, k):
    # with a background c0 the top power of w is k + 1 (2, 3, 4): w^2 over
    # unordered pairs must give the ordered-pair forcing and values, and
    # w^2 itself must still reach the higher powers of later rows
    phi = state({0: 0.15 - 0.1j, 1: 0.04, 2: 0.03j, 3: -0.02, 5: 0.01}, 12)
    spec = EquationSpec.pure_power(k, 3.0)
    calls = []
    solve_rows = cascade._solve_rows
    monkeypatch.setattr(cascade, "_solve_rows",
                        lambda *a: calls.append(a) or solve_rows(*a))
    fixed_grid_solve(monkeypatch, phi, spec, 0.5, 64)
    args = calls[0]
    assert max(args[-1]) == k + 1

    forcings = []
    apply = quadrature.OscillatoryMarch.apply
    with monkeypatch.context() as m:
        # the march is given the forcing over its row's weight
        m.setattr(quadrature.OscillatoryMarch, "apply", lambda self, f, init,
                  rows, **kw: forcings.append(self.weight[rows][0] * f[0])
                  or apply(self, f, init, rows, **kw))
        values, _, _, _ = solve_rows(*args)
    ref_forcings = []
    ref = ordered_pair_solve_rows(*args, ref_forcings)
    assert len(forcings) == len(ref_forcings) == args[1].size - 1
    for got, want in zip(forcings, ref_forcings):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    for got, want in zip(values, ref):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def semigroup_solve_rows(grid, support, omega, c0, init, weights):
    """Byte oracle of ``cascade._solve_rows``, in its form before the
    lattice: rows on the support semigroup alone (mode 0 among them only
    when the data has it), and every power summed over a pair list built
    from a mode-to-row map, zero rows included.  Each row is marched alone
    on a setup of its own, with its weight ``i n a_top`` (doubled when
    ``w^2`` is the top power) folded into the march and the lower powers
    scaled by ``a_j / a_top``."""
    shape = (grid.n_panels, grid.q)
    values = np.empty((support.size,) + shape, dtype=complex)
    start = 1 if support[0] == 0 else 0
    if start:
        values[0] = c0
    row_of = {int(n): r for r, n in enumerate(support)}
    top = max(weights, default=1)
    powers = {1: values}
    powers.update((j, np.zeros_like(values)) for j in range(2, top))
    g = np.empty(shape, dtype=complex)
    prod = np.empty(shape, dtype=complex)
    for r in range(start, support.size):
        n = int(support[r])
        pairs = [(i, row_of[n - int(support[i])]) for i in range(start, r)
                 if n - int(support[i]) in row_of]
        g.fill(0.0)
        for j in range(2, top + 1):
            acc = powers[j][r] if j < top else g
            if j == 2:
                for i, i_rest in pairs:
                    if i <= i_rest:
                        np.multiply(values[i], values[i_rest], out=prod)
                        if i == i_rest:
                            prod *= 0.5
                        acc += prod
                if j < top:
                    acc *= 2.0
            else:
                for i, i_rest in pairs:
                    acc += np.multiply(values[i], powers[j - 1][i_rest],
                                       out=prod)
        for j in range(2, top):
            if j in weights:
                g += (weights[j] / weights[top]) * powers[j][r]
        weight = ((2.0 if top == 2 else 1.0) * 1j
                  * weights.get(top, 0.0)) * support[r:r + 1]
        quadrature.OscillatoryMarch(grid, omega[r:r + 1], weight).apply(
            g[None], init[r:r + 1], out=values[r:r + 1])
    ratios = quadrature.tail_ratio(values[start:], grid.scheme)
    worst = int(np.argmax(ratios))
    return values, float(ratios[worst]), int(support[start + worst])


class _Captured(Exception):
    """Carries the arguments of a ``_solve_rows`` call out of the solve."""


def solve_rows_args(monkeypatch, phi, spec, T, n_panels, restrict):
    """The arguments ``cascade_integrate`` passes ``_solve_rows`` on one
    grid of ``n_panels``."""
    grid = quadrature.PanelGrid(T, n_panels)

    def capture(*args):
        raise _Captured(args)

    with monkeypatch.context() as m:
        m.setattr(cascade, "solve_on_ladder", climb_on(grid))
        m.setattr(cascade, "_solve_rows", capture)
        with pytest.raises(_Captured) as info:
            cascade_integrate(phi, spec, T, restrict_support=restrict)
    return info.value.args[0]


def _inflation_case(k, M, restrict, panels):
    return lambda: (build_inflation_data(16, 2.5, k, M),
                    EquationSpec.pure_power(k, 2.0),
                    inflation_time(16, 2.5, 0.5, k), restrict, panels)


BACKGROUND = {0: 0.15 - 0.1j, 1: 0.04, 2: 0.03j, 3: -0.02, 5: 0.01}
LATTICE_CASES = {
    "headline": _inflation_case(1, 128, True, 1777),
    "headline-unrestricted": _inflation_case(1, 128, False, 256),
    "k2-truncation-64": _inflation_case(2, 64, True, 256),
    "cross-validate-alpha2": lambda: (
        state({1: 0.05, 2: 0.05}, 8), EquationSpec.pure_power(1, 2.0), 1.0,
        True, 16),
    "cross-validate-alpha3": lambda: (
        state({1: 0.045, 2: 0.045j}, 16), EquationSpec.pure_power(1, 3.0),
        1.0, True, 64),
    **{f"background-k{k}": (lambda k=k: (
        state(BACKGROUND, 12), EquationSpec.pure_power(k, 3.0), 0.5, True,
        64)) for k in (1, 2, 3)},
    **{f"unrestricted-k{k}": (lambda k=k: (
        state({0: 0.2 - 0.1j, 4: 0.05}, 16), EquationSpec.pure_power(k, 2.0),
        0.5, False, 32)) for k in (1, 2, 3)},
    "gap-2-3": lambda: (state({2: 0.05, 3: 0.03}, 12),
                        EquationSpec.pure_power(2, 2.0), 0.5, True, 16),
    "gap-0-4-6": lambda: (state({0: 0.1, 4: 0.05, 6: 0.03}, 13),
                          EquationSpec.pure_power(1, 2.0), 0.5, True, 16),
}


@pytest.mark.parametrize("case", list(LATTICE_CASES))
def test_lattice_rows_match_the_semigroup_oracle_bitwise(monkeypatch, case):
    # the lattice holds every semigroup row with the oracle's bits, signed
    # zeros included, and the same tail and worst mode; its other rows are
    # exact zeros
    phi, spec, T, restrict, panels = LATTICE_CASES[case]()
    args = solve_rows_args(monkeypatch, phi, spec, T, panels, restrict)
    grid, lattice, omega, c0, init, weights = args
    values, tail, mode, _ = cascade._solve_rows(*args)
    support = lattice
    if restrict:
        gens = np.flatnonzero(phi.coeffs).tolist()
        support = np.array(sorted(support_semigroup(gens, phi.truncation)))
    rows = np.searchsorted(lattice, support)
    assert np.array_equal(lattice[rows], support)
    ref, ref_tail, ref_mode = semigroup_solve_rows(
        grid, support, omega[rows], c0 if support[0] == 0 else 0j,
        init[rows], weights)
    assert np.array_equal(values[rows].view(np.int64), ref.view(np.int64))
    assert (tail, mode) == (ref_tail, ref_mode)
    assert not np.any(np.delete(values, rows, axis=0))


ZERO_ROW_CASES = {
    # no row is live, and the tail check reads the zero row of mode 1
    "constant": lambda: (state({0: 0.1}, 8), EquationSpec.pure_power(1, 2.0),
                         0.5, 4, 8),
    "modes-0-2-3": lambda: (state({0: 0.1, 2: 0.05, 3: 0.03}, 12),
                            EquationSpec.pure_power(1, 2.0), 0.5, 16, 1),
    "modes-0-2-3-k3": lambda: (state({0: 0.1, 2: 0.05, 3: 0.03}, 12),
                               EquationSpec.pure_power(3, 2.0), 0.5, 16, 1),
    "headline-unrestricted": lambda: (
        build_inflation_data(16, 2.5, 1, 128), EquationSpec.pure_power(1, 2.0),
        inflation_time(16, 2.5, 0.5, 1), 256, 120),
    **{f"unrestricted-k{k}": (lambda k=k: (
        state({0: 0.2 - 0.1j, 4: 0.05}, 16), EquationSpec.pure_power(k, 2.0),
        0.5, 32, 12)) for k in (1, 2, 3)},
}


@pytest.mark.parametrize("case", list(ZERO_ROW_CASES))
def test_zero_rows_are_set_not_marched_with_the_marched_bits(monkeypatch,
                                                             case):
    # a row with initial value 0 that no product of live rows reaches is
    # set to +0: the bits a march of its zero forcing gives, signed zeros
    # included, and the same tail and worst mode as when every row is
    # marched and checked
    phi, spec, T, panels, zero_rows = ZERO_ROW_CASES[case]()
    args = solve_rows_args(monkeypatch, phi, spec, T, panels, False)
    marched = []
    apply = quadrature.OscillatoryMarch.apply
    monkeypatch.setattr(quadrature.OscillatoryMarch, "apply", lambda self, f,
                        *a, **kw: marched.append(f) or apply(self, f, *a,
                                                             **kw))
    values, tail, mode, _ = cascade._solve_rows(*args)
    lattice = args[1]
    assert len(marched) == lattice.size - 1 - zero_rows
    ref, ref_tail, ref_mode = semigroup_solve_rows(*args)
    assert np.array_equal(values.view(np.int64), ref.view(np.int64))
    assert (tail, mode) == (ref_tail, ref_mode)


@pytest.mark.parametrize("case", ["headline-unrestricted", "gap-0-4-6"])
def test_rung_check_evaluates_live_rows_with_every_rows_bits(monkeypatch,
                                                             case):
    # the rung check evaluates only the live rows; the rows set to +0 add
    # gaps of 0, so the rung record is bit for bit that of a check that
    # evaluates every marched row
    if case == "headline-unrestricted":
        (phi, spec, T), restrict = headline(), False
    else:
        phi, spec, T, restrict, _ = LATTICE_CASES[case]()
    rows = []                    # rows of each dense evaluation
    evaluate = Trajectory._evaluate
    monkeypatch.setattr(Trajectory, "_evaluate", lambda self, ns, ts:
                        rows.append(ns.size) or evaluate(self, ns, ts))
    got = cascade_integrate(phi, spec, T, restrict_support=restrict)
    live_rows, rows[:] = max(rows), []
    solve_rows = cascade._solve_rows
    monkeypatch.setattr(cascade, "_solve_rows", lambda *a: solve_rows(*a)[:3]
                        + (list(range(1, a[1].size)),))
    ref = cascade_integrate(phi, spec, T, restrict_support=restrict)
    assert live_rows < max(rows) == got.modes.size - 1
    assert [tuple(map(repr, a)) for a in got.grid_attempts] \
        == [tuple(map(repr, a)) for a in ref.grid_attempts]
    assert np.array_equal(got.values.view(np.int64), ref.values.view(np.int64))


def binomial_weights(spec, c0):
    """Oracle of the forcing weights: ``a_j = sum_l lambda_l C(l+1, j)
    c^(l+1-j) / (l+1)`` for j >= 2 (the binomial terms of ``(c + w)^{l+1}``),
    zeros dropped."""
    weights = {}
    for deg, lam in spec.nonlin_coeffs.items():
        for j in range(2, deg + 2):
            weights[j] = weights.get(j, 0.0) + (
                lam * comb(deg + 1, j) * c0 ** (deg + 1 - j) / (deg + 1))
    return {j: a for j, a in weights.items() if a != 0}


WEIGHT_CASES = {
    **{case: LATTICE_CASES[case] for case in (
        "headline", "k2-truncation-64", "cross-validate-alpha3",
        "background-k1", "background-k2", "background-k3",
        "unrestricted-k1", "unrestricted-k2", "unrestricted-k3")},
    "mixed-degrees": lambda: (
        state(BACKGROUND, 12), EquationSpec(2.0, {0: 0.3, 1: -0.5j, 3: 0.8}),
        0.5, True, 64),
    "transport-and-degree-1": lambda: (
        state(BACKGROUND, 12), EquationSpec(2.0, {0: 0.3, 1: 1.0 + 0.5j}),
        0.5, True, 64),
    "transport-alone": lambda: (
        state(BACKGROUND, 12), EquationSpec(2.0, {0: 0.3}), 0.5, True, 16),
}


@pytest.mark.parametrize("case", list(WEIGHT_CASES))
def test_forcing_weights_match_the_binomial_oracle(monkeypatch, case):
    # bitwise up to degree 1; at higher degrees the recentered sums round
    # differently, within 1e-15 relative, in the weights and node values
    phi, spec, T, restrict, panels = WEIGHT_CASES[case]()
    args = solve_rows_args(monkeypatch, phi, spec, T, panels, restrict)
    weights, c0 = args[5], args[3]
    ref = binomial_weights(spec, c0)
    assert sorted(weights) == sorted(ref)
    values = cascade._solve_rows(*args)[0]
    ref_values = cascade._solve_rows(*args[:5], ref)[0]
    if spec.max_degree <= 1:
        assert all(np.array([weights[j]]).view(np.int64).tolist()
                   == np.array([ref[j]]).view(np.int64).tolist() for j in ref)
        assert np.array_equal(values.view(np.int64), ref_values.view(np.int64))
    else:
        for j in ref:
            assert abs(weights[j] - ref[j]) <= 1e-15 * abs(ref[j])
        assert np.max(np.abs(values - ref_values)) \
            <= 1e-15 * np.max(np.abs(ref_values))


def test_mean_zero_data_tracks_mode_zero_as_a_set_row():
    # row 0 is set to +0 in every bit, not marched
    phi = state({1: 0.05, 2: 0.05}, 8)
    traj = cascade_integrate(phi, EquationSpec.pure_power(1, 2.0), 1.0)
    assert traj.modes.tolist() == list(range(9))
    assert not np.any(traj.values[0].view(np.int64))


def test_data_on_the_multiples_of_three_tracks_their_lattice():
    phi = state({0: 0.2, 3: 0.1}, 12)
    traj = cascade_integrate(phi, EquationSpec.pure_power(1, 2.0), 0.6)
    assert traj.modes.tolist() == [0, 3, 6, 9, 12]


def test_gap_modes_of_the_lattice_are_exact_zeros():
    # gcd(2, 3) = 1, so every mode is tracked; mode 1 is no sum of data
    # modes and stays exactly 0, every other mode is reached
    phi = state({2: 0.05, 3: 0.03}, 12)
    traj = cascade_integrate(phi, EquationSpec.pure_power(1, 2.0), 0.5)
    assert traj.modes.tolist() == list(range(13))
    assert np.all(traj.values[1] == 0)
    assert all(np.any(traj.values[r]) for r in range(2, 13))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_unrestricted_off_semigroup_rows_are_exact_zeros(k):
    # off the semigroup every pair product has a zero factor, so the
    # forcing and the march give exact zeros; mode 0 is set, not marched
    c0 = 0.2 - 0.1j
    phi = state({0: c0, 4: 0.05}, 16)
    traj = cascade_integrate(phi, EquationSpec.pure_power(k, 2.0), 0.5,
                             restrict_support=False)
    for r, n in enumerate(traj.modes):
        if n == 0:
            assert np.max(np.abs(traj.values[r] - c0)) == 0.0
        elif n % 4:
            assert np.all(traj.values[r] == 0.0), n
        else:
            assert np.max(np.abs(traj.values[r])) > 0.0, n


def _small_data():
    return state({1: 0.1, 2: 0.05j}, 8), EquationSpec.pure_power(1, 2.0), 1.0


@pytest.mark.parametrize("data, radians, refinements, panels, condition", [
    # one rung of one panel: 24 nodes cannot resolve 200 radians
    (_small_data, 200.0, 0, [1], "Chebyshev tail"),
    # 28, 112 and 224 panels fail their tails, so the top of 446 (223
    # panels doubled once), which passes its own, has no resolved rung to
    # compare it with
    (headline, 256.0, 1, [28, 112, 224, 446],
     "no resolved coarser rung to compare it with (3 coarser rungs failed "
     "their tails; tail"),
    # 108, 426 and 431 panels: 108 fails its tail, which sizes 426; 426
    # passes its tail, and the top of 431 (the grid sized for the fastest
    # frequency) passes its own but is 2.5e-10 off 426
    (headline, 132.0, 0, [108, 426, 431], "two-rung difference"),
])
def test_last_rung_failure_names_panels_condition_and_mode(
        monkeypatch, data, radians, refinements, panels, condition):
    monkeypatch.setattr(quadrature, "RADIANS_PER_PANEL", radians)
    monkeypatch.setattr(quadrature, "MAX_REFINEMENTS", refinements)
    phi, spec, T = data()
    with pytest.raises(QuadratureError) as info:
        cascade_integrate(phi, spec, T)
    err = info.value
    message = str(err)
    assert f"on {panels[-1]} panels: {condition}" in message
    assert err.worst_mode in range(1, phi.truncation + 1)
    assert f"at mode {err.worst_mode}" in message
    assert [n for n, _, _ in err.grid_attempts] == panels


def test_dispersion_variants_pick_the_same_rung():
    phi = state({1: 0.05, 2: 0.05j, 3: 0.02}, 12)
    a, b = (cascade_integrate(
        phi, EquationSpec.pure_power(1, 3.0, kind=kind), 0.5)
        for kind in (DispersionKind.SCHRODINGER, DispersionKind.AIRY_TYPE))
    assert len(a.grid_attempts) >= 2
    assert a.grid_attempts == b.grid_attempts
    assert np.array_equal(a.grid.breaks, b.grid.breaks)
    assert a.values.tobytes() == b.values.tobytes()


def test_node_budget_ends_the_climb_with_a_typed_error(monkeypatch, capsys):
    # 9 rows x 24 nodes: 223 and 576 panels fit in the budget, 720 do not
    monkeypatch.setattr(quadrature, "NODE_BUDGET", 9 * 24 * 700)
    phi, spec, T = headline()
    with pytest.raises(QuadratureError, match="720 panels need") as info:
        cascade_integrate(phi, spec, T)
    assert [n for n, _, _ in info.value.grid_attempts] == [223, 576]
    code = dispatch(["inflate", "--N", "16", "--s", "2.5", "--sigma", "0.5",
                     "--k", "1", "--alpha", "2", "--m-max", "8"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "720 panels" in err and "Traceback" not in err


# -- linear closed forms -----------------------------------------------------------

def test_linear_norm_growth_complex_coefficient():
    N, lam = 6, 0.3 - 0.8j
    phi = state({N: 1.0}, 8)
    for t in (0.1, 0.5, 1.0):
        v = linear_solve(phi, lam, t)                 # transport frame
        assert sobolev_norm(v, 0.0) == pytest.approx(
            math.exp(-t * lam.imag * N), rel=1e-12)
        u = linear_solve(phi, lam, t, alpha=2.0)      # full equation
        assert sobolev_norm(u, 0.0) == pytest.approx(
            math.exp(-t * lam.imag * N), rel=1e-12)


def test_linear_zero_coefficient_is_free_evolution():
    phi = state({2: 1.0}, 4)
    v = linear_solve(phi, 0.0, 0.7)
    assert np.array_equal(v.coeffs, phi.coeffs)


def test_linear_real_coefficient_preserves_l2():
    phi = state({1: 0.5, 3: 0.25j}, 4)
    for t in (0.2, 0.9):
        v = linear_solve(phi, 0.7, t, alpha=2.0)
        assert sobolev_norm(v, 0.0) == pytest.approx(
            sobolev_norm(phi, 0.0), rel=1e-14)


def test_linear_matches_cascade_degree_zero():
    lam = 0.2 - 0.5j
    phi = state({1: 0.3, 4: 0.1j}, 6)
    spec = EquationSpec(2.0, {0: lam})
    traj = cascade_integrate(phi, spec, 1.0)
    for t in (0.3, 1.0):
        direct = linear_solve(phi, lam, t, alpha=2.0)
        assert np.max(np.abs(traj.coeffs_at(t) - direct.coeffs)) < 1e-11


# -- weak residual -----------------------------------------------------------------

def reference_weak_residual(traj, m, window):
    """Scalar oracle of ``weak_residual``: the residual of one test mode m
    by a loop over panels, and the magnitude of its largest term."""
    spec, grid = traj.spec, traj.grid
    times = grid.node_times()
    degs = sorted(spec.nonlin_coeffs)
    int_theta = int_dtheta = 0.0 + 0.0j
    int_pow = dict.fromkeys(degs, 0.0 + 0.0j)
    # modes above m cannot reach mode m of a one-sided product
    rows = traj.modes <= m
    for p in range(grid.n_panels):
        wq = 0.5 * grid.h * grid.scheme.weights
        th = window.value(times[p])
        dense = np.zeros((m + 1, grid.q), dtype=complex)
        dense[traj.modes[rows]] = traj.values[rows, p]
        int_theta += np.sum(wq * th * dense[m])
        int_dtheta += np.sum(wq * window.derivative(times[p]) * dense[m])
        for deg in degs:
            int_pow[deg] += np.sum(wq * th * power(dense, deg + 1)[m])
    mu_m = dispersion_mu(spec.alpha, m, spec.dispersion_kind)
    theta0 = complex(window.value(np.array([0.0]))[0])
    terms = [-int_dtheta, -complex(traj.initial_state.coeffs[m]) * theta0,
             -1j * mu_m * int_theta]
    terms += [-spec.nonlin_coeffs[deg] * (1j * m / (deg + 1)) * int_pow[deg]
              for deg in degs]
    return complex(sum(terms)), max(abs(t) for t in terms)


def closed_form_trajectory():
    """Criterion 9's degree-0 single-mode solution."""
    phi = state({4: 1.0}, 12)
    return cascade_integrate(phi, EquationSpec(2.0, {0: 0.3 - 0.6j}), 1.0)


def nonlinear_trajectory():
    phi = state({0: 0.2, 1: 0.1}, 8)
    return cascade_integrate(phi, EquationSpec.pure_power(1, 2.0), 1.0)


def cubic_trajectory():
    """k = 3 at alpha = 3 on a constant background."""
    phi = state({0: 0.25 * np.exp(-0.4j), 1: 0.06, 2: 0.04j}, 10)
    return cascade_integrate(phi, EquationSpec.pure_power(3, 3.0), 0.5)


def gauge_trajectory():
    """The gauge pipeline's u."""
    phi = state({1: 0.05}, 10)
    psi = compatible_gauge_data(phi, 1)
    return gauge_picard_solve(phi, psi, 1, 0.5, tol=1e-12)[0]


def headline_trajectory():
    phi, spec, T = headline()
    return cascade_integrate(phi, spec, T)


# the oracle costs ~0.2 s per mode and window on the headline's 1777
# panels, so there it checks the supported modes 0, 16, 32 and 128, one
# mode off the support, on one window
@pytest.mark.parametrize("make, modes, windows", [
    (closed_form_trajectory, None, None),
    (nonlinear_trajectory, None, None),
    (cubic_trajectory, None, None),
    (gauge_trajectory, None, None),
    (headline_trajectory, (0, 5, 16, 32, 128), ("bump",)),
], ids=["closed-form", "nonlinear", "cubic", "gauge", "headline"])
def test_weak_residual_matches_per_mode_oracle(make, modes, windows):
    traj = make()
    if modes is None:
        modes = range(traj.truncation + 1)
    for window in standard_windows(traj.horizon):
        if windows is not None and window.name not in windows:
            continue
        got = weak_residual(traj, window)
        assert got.shape == (traj.truncation + 1,)
        # the oracle integrates on the grid weak_residual resolves the
        # window on
        grid = cascade._window_grid(traj, window)
        on = traj if grid is traj.grid else traj.resampled(grid)
        ref = [reference_weak_residual(on, m, window) for m in modes]
        scale = max(largest for _, largest in ref)
        gaps = [abs(got[m] - r) for m, (r, _) in zip(modes, ref)]
        assert max(gaps) <= 1e-13 * scale, window.name


def dense_weak_residual(traj, window):
    """Oracle of ``weak_residual`` in its form before the lattice: each
    power taken on the dense rows of every mode ``0..truncation``."""
    grid = cascade._window_grid(traj, window)
    if grid is not traj.grid:
        traj = traj.resampled(grid)
    spec, grid = traj.spec, traj.grid
    n = np.arange(traj.truncation + 1)
    times = grid.node_times()
    wq = 0.5 * grid.h * grid.scheme.weights
    theta = wq * window.value(times)
    int_theta = np.zeros(n.size, dtype=complex)
    int_dtheta = np.zeros(n.size, dtype=complex)
    int_theta[traj.modes] = np.tensordot(traj.values, theta, axes=2)
    int_dtheta[traj.modes] = np.tensordot(
        traj.values, wq * window.derivative(times), axes=2)
    nonlin = np.zeros(n.size, dtype=complex)
    for start in range(0, grid.n_panels, quadrature.BLOCK_PANELS):
        blk = slice(start, start + quadrature.BLOCK_PANELS)
        dense = np.zeros((n.size,) + theta[blk].shape, dtype=complex)
        dense[traj.modes] = traj.values[:, blk]
        for deg, lam in spec.nonlin_coeffs.items():
            nonlin += (lam / (deg + 1)) * np.tensordot(
                power(dense, deg + 1), theta[blk], axes=2)
    theta0 = float(window.value(np.array([0.0]))[0])
    mu = dispersion_mu(spec.alpha, n, spec.dispersion_kind)
    lhs = -int_dtheta - traj.initial_state.coeffs * theta0 - 1j * mu * int_theta
    return lhs - 1j * n * nonlin


def multiples_of_three_trajectory():
    """Mean-zero data on the multiples of 3: lattice rows 0, 3, ..., 18."""
    phi = state({3: 0.05, 6: -0.02j}, 18)
    return cascade_integrate(phi, EquationSpec.pure_power(2, 2.0), 0.5)


@pytest.mark.parametrize("make, step", [
    (closed_form_trajectory, 4),
    (nonlinear_trajectory, 1),
    (cubic_trajectory, 1),
    (gauge_trajectory, 1),
    (multiples_of_three_trajectory, 3),
    (headline_trajectory, 16),
], ids=["closed-form", "nonlinear", "cubic", "gauge", "multiples-of-3",
        "headline"])
def test_weak_residual_on_the_lattice_matches_dense_rows_bitwise(make, step):
    # the powers on the rows g j give the dense rows' bits there, and the
    # modes off the lattice read exactly 0
    traj = make()
    on = np.arange(0, traj.truncation + 1, step)
    assert np.gcd.reduce(traj.modes) == step
    for window in standard_windows(traj.horizon):
        got = weak_residual(traj, window)
        ref = dense_weak_residual(traj, window)
        assert np.array_equal(got[on].view(np.int64), ref[on].view(np.int64))
        assert np.all(np.delete(got, on) == 0), window.name


def test_weak_residual_closed_form_single_mode():
    traj = closed_form_trajectory()
    for window in standard_windows(1.0):
        assert np.max(np.abs(weak_residual(traj, window))) < 1e-9, window.name


def test_weak_residual_zero_trajectory():
    traj = cascade_integrate(SpectralState(np.zeros(7, dtype=complex)),
                             EquationSpec.pure_power(1, 2.0), 1.0)
    for window in standard_windows(1.0):
        assert np.all(weak_residual(traj, window) == 0)


def test_weak_residual_nonlinear_trajectory():
    traj = nonlinear_trajectory()
    for window in standard_windows(1.0):
        assert np.max(np.abs(weak_residual(traj, window))) < 1e-9


def test_weak_residual_detects_violation():
    traj = nonlinear_trajectory()
    tampered_values = traj.values.copy()
    r1 = int(np.searchsorted(traj.modes, 1))
    tampered_values[r1] *= 2.0
    tampered = Trajectory(spec=traj.spec, grid=traj.grid, modes=traj.modes,
                          values=tampered_values,
                          quadrature_tolerance=traj.quadrature_tolerance,
                          initial_state=traj.initial_state)
    window = standard_windows(1.0)[2]
    assert abs(weak_residual(tampered, window)[1]) > 1e-3


def test_weak_residual_of_the_headline():
    # every test mode and window reads round-off (1.7e-16); scaling the
    # mode-32 row by 1.001 moves the cosine window's residual to 5.9e-10
    traj = headline_trajectory()
    windows = standard_windows(traj.horizon)
    # the headline's own panels resolve every window
    assert all(cascade._window_grid(traj, w) is traj.grid for w in windows)
    assert max(np.max(np.abs(weak_residual(traj, w))) for w in windows) \
        <= 1e-13
    values = traj.values.copy()
    values[int(np.searchsorted(traj.modes, 32))] *= 1.001
    tampered = dataclasses.replace(traj, values=values)
    assert max(np.max(np.abs(weak_residual(tampered, w))) for w in windows) \
        > 1e-11


def test_weak_residual_resolves_its_window(monkeypatch):
    # the gauge solve accepts one panel, where the bump window's tail reads
    # 1.3e-5 and its residual 1.3e-7; 32 panels resolve the window to the
    # trajectory's tol 1e-12.  The polynomial quartic window needs no more
    # panels
    traj = gauge_trajectory()
    bump, quartic, _ = standard_windows(traj.horizon)
    assert traj.n_panels == 1
    assert cascade._window_grid(traj, bump).n_panels == 32
    assert cascade._window_grid(traj, quartic) is traj.grid
    assert np.max(np.abs(weak_residual(traj, bump))) <= 1e-14
    monkeypatch.setattr(cascade, "WINDOW_DOUBLINGS", 4)
    with pytest.raises(QuadratureError,
                       match="window 'bump' not resolved on 16 panels"):
        weak_residual(traj, bump)


@pytest.mark.parametrize("broken", ["value", "derivative"])
def test_a_window_that_is_not_a_number_is_never_resolved(broken):
    # a NaN window value used to drop out of the tail (NaN > 0 is false):
    # the 3 panels read a tail of 5.7e-17 and every residual mode read NaN
    T = 0.5
    traj = cascade_integrate(state({1: 0.1, 2: 0.05j}, 8),
                             EquationSpec.pure_power(1, 2.0), T)
    assert traj.n_panels == 3
    bump = standard_windows(T)[0]

    def nan_past(f):
        def g(t):
            out = np.array(f(t), dtype=float)
            out[np.atleast_1d(t) > 0.7 * T] = np.nan
            return out
        return g

    parts = {"value": bump.value, "derivative": bump.derivative}
    parts[broken] = nan_past(parts[broken])
    window = cascade.TimeWindow("nan-tail", T, parts["value"],
                                parts["derivative"])
    assert cascade._window_tail(window, traj.grid) == math.inf
    top = traj.n_panels << cascade.WINDOW_DOUBLINGS
    with pytest.raises(QuadratureError,
                       match=f"^window 'nan-tail' not resolved on {top} "
                             "panels: Chebyshev tail inf > tol"):
        weak_residual(traj, window)


def test_window_rungs_keep_the_trajectorys_scheme_and_grid():
    # on 12 nodes per panel the window's rungs are made on the trajectory's
    # own scheme, and a grid that resolves the window is the trajectory's
    # grid object itself
    traj = gauge_trajectory()
    on12 = traj.resampled(quadrature.PanelGrid(traj.horizon, 1,
                                               quadrature.panel_scheme(12)))
    bump, quartic, _ = standard_windows(traj.horizon)
    grid = cascade._window_grid(on12, bump)
    assert grid.scheme is on12.grid.scheme and grid.horizon == traj.horizon
    assert grid.n_panels > 32 and grid.n_panels & (grid.n_panels - 1) == 0
    assert cascade._window_tail(bump, grid) <= traj.quadrature_tolerance
    half = quadrature.PanelGrid(traj.horizon, grid.n_panels // 2, grid.scheme)
    assert cascade._window_tail(bump, half) > traj.quadrature_tolerance
    assert cascade._window_grid(on12, quartic) is on12.grid


def test_weak_residual_refuses_a_window_of_another_horizon():
    traj = nonlinear_trajectory()
    with pytest.raises(ValueError, match="horizon"):
        weak_residual(traj, standard_windows(0.5)[0])


# -- mean-zero frame ----------------------------------------------------------------

def test_transform_at_time_zero_subtracts_mean():
    phi = state({0: 0.3 - 0.2j, 2: 0.1}, 8)
    traj = cascade_integrate(phi, EquationSpec.pure_power(1, 2.0), 0.5)
    w = mean_zero_transform(traj)
    w0 = w.state_at(0.0)
    assert abs(w0.coeffs[0]) < 1e-13
    assert w0.coeffs[2] == pytest.approx(phi.coeffs[2], abs=1e-13)


def test_transform_round_trip():
    phi = state({0: 0.3 * np.exp(-1.2j), 2: 0.1}, 10)
    spec = EquationSpec.pure_power(2, 2.0)
    traj = cascade_integrate(phi, spec, 0.8)
    w = mean_zero_transform(traj)
    back = mean_zero_inverse(w, phi.coeffs[0], spec)
    assert np.max(np.abs(back.values - traj.values)) < 1e-13


@pytest.mark.parametrize("k", [1, 2, 3])
def test_recentered_trajectory_solves_recentered_equation(k):
    # w must satisfy its own mode ODEs with the binomial coefficient
    # nonlinearity sum_j C(k,j) m0^{k-j} w^j w_x -- checked per degree j,
    # which pins the 1/(j+1) forcing factors
    phi = state({0: 0.25 * np.exp(-0.4j), 1: 0.06, 2: 0.04j}, 10)
    spec = EquationSpec.pure_power(k, 3.0)
    traj = cascade_integrate(phi, spec, 0.5)
    w = mean_zero_transform(traj)
    expected = {j: math.comb(k, j) * phi.coeffs[0] ** (k - j)
                for j in range(1, k + 1)}
    assert set(w.spec.nonlin_coeffs) == set(expected)
    for j, lam in expected.items():
        assert w.spec.nonlin_coeffs[j] == pytest.approx(lam)
    times = w.grid.node_times()
    mu = np.array([float(n) ** 3 for n in range(11)])
    for p in (0, w.n_panels // 2, w.n_panels - 1):
        # d/dt of every tracked mode at the panel's nodes
        dws = (2.0 / w.grid.h) * (w.values[:, p] @ w.grid.scheme.deriv_nodes.T)
        for i in (0, w.grid.q // 2):
            dense = np.zeros(w.truncation + 1, dtype=complex)
            dense[w.modes] = w.values[:, p, i]
            ws = SpectralState(dense, time=times[p, i])
            for n, dw in zip(w.modes, dws[:, i]):
                n = int(n)
                rhs = (1j * mu[n] * dense[n]
                       + nonlinear_forcing(ws, w.spec, n))
                assert abs(dw - rhs) < 1e-7


def test_transform_warns_on_growing_multiplier():
    phi = state({0: 0.3j, 1: 0.05}, 6)   # Im(m0^1) > 0
    traj = cascade_integrate(phi, EquationSpec.pure_power(1, 2.0), 0.2)
    with pytest.warns(UserWarning):
        mean_zero_transform(traj)
