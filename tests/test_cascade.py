"""Cascade solver: forcing values, closed forms, residuals, transforms."""

import dataclasses
import math

import numpy as np
import pytest

from halfline_dnls import (DispersionKind, EquationSpec, OverflowGuardError,
                           QuadratureError, SpectralState, Trajectory,
                           cascade_integrate, compatible_gauge_data,
                           dispersion_mu, gauge_picard_solve, linear_solve,
                           mean_zero_inverse, mean_zero_transform,
                           nonlinear_forcing, power, sobolev_norm,
                           standard_windows, weak_residual)
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


def fixed_grid_solve(monkeypatch, phi, spec, T, n_panels, **kwargs):
    """The cascade on one fixed grid of ``n_panels``: the grid twice as the
    ladder, so the two-rung difference is 0 and the tail check decides."""
    grid = quadrature.PanelGrid.uniform(T, n_panels)
    with monkeypatch.context() as m:
        m.setattr(cascade, "refined_ladder", lambda *_: iter([grid, grid]))
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

def test_headline_matches_a_fine_fixed_grid(monkeypatch):
    # the ladder accepts 1777 panels, under a third of the 5921 sized for
    # the fastest frequency, after trying 889
    phi, spec, T = headline()
    traj = cascade_integrate(phi, spec, T)
    assert [n for n, _, _ in traj.grid_attempts] == [889, 1777]
    reference = fixed_grid_solve(monkeypatch, phi, spec, T, 11842)
    ts = np.linspace(0.0, T, cascade.AGREEMENT_TIMES)
    ref = reference.dense_at(ts)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(traj.dense_at(ts) - ref)) <= 1e-10 * scale


def test_alpha2_regime_passes_on_the_same_rungs():
    # s = 2 and s = 3 bound the regime of the N=16, alpha=2 run; without
    # cascade.LADDER_MARGIN, s below 2.104 needed a third rung.  One panel
    # phase table for the whole grid keeps the accepted rung's tail at
    # round-off (1.9e-16); per-panel phases left 1.25e-14 to 1.75e-14
    for s in (2.0, 2.5, 3.0):
        phi = build_inflation_data(16, s, 1, 128)
        T = inflation_time(16, s, s - 2.0, 1)
        traj = cascade_integrate(phi, EquationSpec.pure_power(1, 2.0), T)
        assert [n for n, _, _ in traj.grid_attempts] == [889, 1777], s
        assert traj.grid_attempts[-1][1] <= 1e-15, s


def test_two_rung_check_rejects_a_rung_whose_tail_passes(monkeypatch):
    # at 16 radians per panel the headline ladder starts at 445 panels; 445
    # and 889 both pass their tails, but 445 is 2.9e-10 off, so 889 differs
    # from it by more than tol and is refused; 1777 agrees with 889
    monkeypatch.setattr(quadrature, "RADIANS_PER_PANEL", 16.0)
    phi, spec, T = headline()
    traj = cascade_integrate(phi, spec, T)
    (n1, t1, d1), (n2, t2, d2), (n3, t3, d3) = traj.grid_attempts
    assert (n1, n2, n3) == (445, 889, 1777) and traj.n_panels == n3
    assert max(t1, t2, t3) <= 1e-10
    assert d1 is None
    assert d2 > 1e-10 >= d3


def _small_data():
    return state({1: 0.1, 2: 0.05j}, 8), EquationSpec.pure_power(1, 2.0), 1.0


@pytest.mark.parametrize("data, radians, refinements, panels, condition", [
    # one rung of one panel: 24 nodes cannot resolve 200 radians
    (_small_data, 200.0, 0, [1], "Chebyshev tail"),
    # 223, 445 and 890 panels: every tail but 223's passes, and 890 is
    # 2.9e-10 off 445
    (headline, 128.0, 1, [223, 445, 890], "two-rung difference"),
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
    # 9 rows x 24 nodes: 889 panels fit in the budget, 1777 do not
    monkeypatch.setattr(quadrature, "NODE_BUDGET", 9 * 24 * 1000)
    phi, spec, T = headline()
    with pytest.raises(QuadratureError, match="1777 panels need") as info:
        cascade_integrate(phi, spec, T)
    assert [n for n, _, _ in info.value.grid_attempts] == [889]
    code = dispatch(["inflate", "--N", "16", "--s", "2.5", "--sigma", "0.5",
                     "--k", "1", "--alpha", "2", "--m-max", "8"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "1777 panels" in err and "Traceback" not in err


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
    times, widths = grid.node_times(), grid.widths()
    degs = sorted(spec.nonlin_coeffs)
    int_theta = int_dtheta = 0.0 + 0.0j
    int_pow = dict.fromkeys(degs, 0.0 + 0.0j)
    # modes above m cannot reach mode m of a one-sided product
    rows = traj.modes <= m
    for p in range(grid.n_panels):
        wq = 0.5 * widths[p] * grid.scheme.weights
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
        ref = [reference_weak_residual(traj, m, window) for m in modes]
        scale = max(largest for _, largest in ref)
        gaps = [abs(got[m] - r) for m, (r, _) in zip(modes, ref)]
        assert max(gaps) <= 1e-13 * scale, window.name


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
                          values=tampered_values, truncation=traj.truncation,
                          quadrature_tolerance=traj.quadrature_tolerance,
                          initial_state=traj.initial_state)
    window = standard_windows(1.0)[2]
    assert abs(weak_residual(tampered, window)[1]) > 1e-3


def test_weak_residual_of_the_headline():
    # every test mode and window reads round-off (1.7e-16); scaling the
    # mode-32 row by 1.001 moves the cosine window's residual to 5.9e-10
    traj = headline_trajectory()
    windows = standard_windows(traj.horizon)
    assert max(np.max(np.abs(weak_residual(traj, w))) for w in windows) \
        <= 1e-13
    values = traj.values.copy()
    values[int(np.searchsorted(traj.modes, 32))] *= 1.001
    tampered = dataclasses.replace(traj, values=values)
    assert max(np.max(np.abs(weak_residual(tampered, w))) for w in windows) \
        > 1e-11


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
    h = w.grid.widths()
    mu = np.array([float(n) ** 3 for n in range(11)])
    for p in (0, w.n_panels // 2, w.n_panels - 1):
        # d/dt of every tracked mode at the panel's nodes
        dws = (2.0 / h[p]) * (w.values[:, p] @ w.grid.scheme.deriv_nodes.T)
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
