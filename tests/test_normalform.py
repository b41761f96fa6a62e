"""Normal-form operators, the fixed-point map, and the Picard solver."""

import dataclasses

import numpy as np
import pytest

from halfline_dnls import (ContractionThresholdError, EquationSpec,
                           MaxIterationsError, NormalFormOperators, PanelGrid,
                           SpectralState, Trajectory, cascade_integrate,
                           compatible_gauge_data, gauge_picard_solve,
                           picard_solve, sobolev_norm)
from halfline_dnls import normalform, quadrature
from halfline_dnls.gauge import gauge_system_rhs
from halfline_dnls.normalform import (PicardLog, _weighted_contract,
                                      iterate_fixed_point)
from halfline_dnls.quadrature import (BLOCK_PANELS, QuadratureError,
                                      oscillatory_march, panel_scheme)
from halfline_dnls.spectral import _product, dispersion_mu
from halfline_dnls.trajectory import sup_sobolev_diff


def state(modes, M, time=0.0):
    return SpectralState.from_modes(modes, M, time)


# -- boundary operator -------------------------------------------------------------

@pytest.mark.parametrize("alpha", [3.0, 4.0])
def test_boundary_single_mode_pair(alpha):
    # only decomposition of 2 is (1,1): (2/2) e^{it Phi}/Phi a^2,
    # Phi = 2 - 2^alpha
    a, t = 0.3 - 0.1j, 0.7
    ops = NormalFormOperators(EquationSpec.pure_power(1, alpha), 6)
    out = ops.boundary_term(state({1: a}, 6), t)
    phase = 2.0 - 2.0**alpha
    assert out[2] == pytest.approx(np.exp(1j * t * phase) / phase * a**2,
                                   rel=1e-13)


def test_boundary_zero_state():
    ops = NormalFormOperators(EquationSpec.pure_power(2, 3.0), 8)
    out = ops.boundary_term(np.zeros(9, dtype=complex), 0.3)
    assert np.all(out == 0)


def test_boundary_mode_one_always_empty():
    # 1 has no decomposition into k+1 >= 2 positive parts
    ops = NormalFormOperators(EquationSpec.pure_power(1, 3.0), 6)
    rng = np.random.default_rng(2)
    v = 0.1 * (rng.standard_normal(7) + 1j * rng.standard_normal(7))
    v[0] = 0.0
    assert ops.boundary_term(v, 0.5)[1] == 0


def test_boundary_brute_force_oracle():
    # independent enumeration of ordered compositions, k = 2
    alpha, M, t = 3.0, 8, 0.4
    rng = np.random.default_rng(9)
    v = 0.1 * (rng.standard_normal(M + 1) + 1j * rng.standard_normal(M + 1))
    v[0] = 0.0
    ops = NormalFormOperators(EquationSpec.pure_power(2, alpha), M)
    got = ops.boundary_term(v, t)
    for n in (3, 5, 8):
        total = 0.0
        for n1 in range(1, n):
            for n2 in range(1, n - n1):
                n3 = n - n1 - n2
                if n3 < 1:
                    continue
                phase = -float(n)**alpha + float(n1)**alpha \
                    + float(n2)**alpha + float(n3)**alpha
                total += (np.exp(1j * t * phase) / phase
                          * v[n1] * v[n2] * v[n3])
        total *= n / 3.0
        assert got[n] == pytest.approx(total, rel=1e-12)


# -- bulk operator -------------------------------------------------------------------

def test_bulk_zero_state():
    ops = NormalFormOperators(EquationSpec.pure_power(1, 3.0), 6)
    assert np.all(ops.bulk_term(np.zeros(7, dtype=complex), 0.2) == 0)


def test_bulk_low_modes_empty_for_k1():
    # outer sum needs n >= 3, inner needs the last slot >= 2
    ops = NormalFormOperators(EquationSpec.pure_power(1, 3.0), 8)
    rng = np.random.default_rng(4)
    v = 0.1 * (rng.standard_normal(9) + 1j * rng.standard_normal(9))
    v[0] = 0.0
    out = ops.bulk_term(v, 0.9)
    assert out[1] == 0 and out[2] == 0


def test_bulk_single_mode_hand_value():
    # k=1, v = a delta_1, alpha = 3, mode 3: outer tuples (1,2) and (2,1);
    # only (1,2) survives, inner (1,1):
    #   -(3/2) (e^{it Phi(1,2)}/Phi(1,2)) a * 2i e^{it Phi(1,1)} a^2
    #   = (i a^3 / 6) e^{-24 i t}
    a, t = 0.2 + 0.05j, 0.6
    ops = NormalFormOperators(EquationSpec.pure_power(1, 3.0), 6)
    out = ops.bulk_term(state({1: a}, 6), t)
    assert out[3] == pytest.approx((1j * a**3 / 6) * np.exp(-24j * t),
                                   rel=1e-13)
    phi12, phi11 = -18.0, -6.0
    direct = (-(3 / 2) * (np.exp(1j * t * phi12) / phi12) * a
              * 1j * 2 * np.exp(1j * t * phi11) * a * a)
    assert out[3] == pytest.approx(direct, rel=1e-13)


def velocity_oracle(ops, U):
    """The per-column np.convolve loop that _velocity_from_u batches."""
    M1, nt = U.shape
    pos = np.array(U)
    pos[0] = 0.0
    out = np.zeros_like(U)
    for deg, lam in ops.spec.nonlin_coeffs.items():
        for i in range(nt):
            col = pos[:, i]
            acc = col
            for _ in range(deg):
                acc = np.convolve(acc, col)[:M1]
            out[:, i] += lam / (deg + 1) * acc
    return 1j * ops.n_vec[:, None] * out


def test_velocity_matches_per_column_oracle():
    M = 12
    ops = NormalFormOperators(EquationSpec(3.0, {1: 1.0, 2: -0.5j, 3: 0.25}), M)
    rng = np.random.default_rng(21)
    U = 0.2 * (rng.standard_normal((M + 1, 24))
               + 1j * rng.standard_normal((M + 1, 24)))
    ref = velocity_oracle(ops, U)
    assert np.max(np.abs(ops._velocity_from_u(U) - ref)) <= 1e-13 * np.max(np.abs(ref))


# -- weighted contraction -------------------------------------------------------------

def composition_table(ops, deg):
    """Every ordered composition ``n = n_1 + ... + n_{deg+1}`` into
    positive parts, ``n <= M``, in lexicographic order: target, parts and
    resonance phase per row."""
    def comps(n, k):
        if k == 1:
            yield (n,)
            return
        for first in range(1, n - k + 2):
            for rest in comps(n - first, k - 1):
                yield (first,) + rest
    rows = [(n,) + c for n in range(deg + 1, ops.truncation + 1)
            for c in comps(n, deg + 1)]
    table = np.array(rows, dtype=int).reshape(-1, deg + 2)
    target, parts = table[:, 0], table[:, 1:]
    phi = -ops.mu[target] + np.sum(ops.mu[parts], axis=1)
    return target, parts, phi


def contract_oracle(ops, deg, U, last):
    """The gather contraction: ``U[parts]`` per composition, a product, a
    multiply by 1/Phi and a segmented sum per target."""
    target, parts, phi = composition_table(ops, deg)
    out = np.zeros_like(U)
    if target.size:
        contrib = ((1.0 / phi)[:, None] * np.prod(U[parts[:, :-1]], axis=1)
                   * last[parts[:, -1]])
        starts = np.flatnonzero(np.r_[True, target[1:] != target[:-1]])
        out[target[starts]] = np.add.reduceat(contrib, starts, axis=0)
    return out


def _random_columns(rng, M, cols, sparse):
    U = (rng.standard_normal((M + 1, cols))
         + 1j * rng.standard_normal((M + 1, cols)))
    U[0] = 0.0
    if sparse:
        # two generators: modes outside their semigroup are reached by no
        # composition
        keep = np.zeros(M + 1, dtype=bool)
        keep[[2, 3]] = True
        U[~keep] = 0.0
    return U


@pytest.mark.parametrize("coeffs", [{1: 1.0}, {2: 1.0}, {3: 1.0},
                                    {1: 1.0, 2: -0.5j}])
@pytest.mark.parametrize("M", [4, 10, 16])
@pytest.mark.parametrize("sparse", [False, True])
def test_contract_matches_gather_oracle(coeffs, M, sparse):
    ops = NormalFormOperators(EquationSpec(3.0, coeffs), M)
    rng = np.random.default_rng(M + 7 * len(coeffs))
    U = _random_columns(rng, M, 20, sparse)
    for last in (U, _random_columns(rng, M, 20, sparse)):
        for deg in coeffs:
            ref = contract_oracle(ops, deg, U, last)
            got = _weighted_contract(ops.weights[deg], U, last)
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref),
                                                               initial=0.0)
            # no composition reaches these modes: exact zeros
            reached = np.zeros(M + 1, dtype=bool)
            target, parts, _ = composition_table(ops, deg)
            live = np.all(np.any(U[parts[:, :-1]], axis=2), axis=1) \
                & np.any(last[parts[:, -1]], axis=1)
            reached[target[live]] = True
            assert np.all(got[~reached] == 0)


def _batch(rng, M, B, step):
    """(M+1, B) draws supported on the multiples of ``step``, with a few
    whole columns zeroed."""
    a = rng.standard_normal((M + 1, B)) + 1j * rng.standard_normal((M + 1, B))
    a[np.arange(M + 1) % step != 0] = 0.0
    a[:, rng.random(B) < 0.2] = 0.0
    return a


@pytest.mark.parametrize("seed", range(4))
def test_weighted_contract_all_ones_is_the_plain_product_bitwise(seed):
    # degree 1 with every weight 1 multiplies U[a] by 1.0 * last[n - a]:
    # the truncated product's terms, summed in its order
    rng = np.random.default_rng(seed)
    M = 12
    U, last = _batch(rng, M, 7, 1 + seed % 3), _batch(rng, M, 7, 1)
    got = _weighted_contract(np.ones((M + 1, M + 1)), U, last)
    assert np.array_equal(got.view(np.uint64), _product(U, last).view(np.uint64))


def test_weighted_contract_degree_1_matches_direct_sum():
    rng = np.random.default_rng(5)
    M = 9
    U, last = _batch(rng, M, 4, 1), _batch(rng, M, 4, 1)
    W = rng.standard_normal((M + 1, M + 1))
    W[:, 3] = 0.0                      # a zero weight column is skipped
    ref = np.zeros_like(U)
    for n in range(M + 1):
        for m in range(n + 1):
            if m != 3:
                ref[n] += W[n, m] * U[m] * last[n - m]
    got = _weighted_contract(W, U, last)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    # a delta at 3 meets only the zero weight column: exactly zero
    delta3 = np.zeros((M + 1, 1), dtype=complex)
    delta3[3] = 1.0
    assert np.all(_weighted_contract(W, delta3, last[:, :1]) == 0)


@pytest.mark.parametrize("coeffs", [{1: 1.0}, {2: 1.0}, {3: 1.0},
                                    {1: 1.0, 2: -0.5j}])
@pytest.mark.parametrize("alpha", [3.0, 3.25, 4.5])
def test_young_constants_match_composition_table(coeffs, alpha):
    # the smallness check accepts or refuses data through these constants,
    # so reading them from the weight tensor must not move a bit (at
    # alpha = 3.25, k = 1, taking Phi as 1/W moves kappa by one ulp)
    M = 16
    ops = NormalFormOperators(EquationSpec(alpha, coeffs), M)
    n = ops.n_vec
    jap = np.sqrt(1.0 + n**2)
    ell1 = float(np.sqrt(np.sum(1.0 / (1.0 + n[1:] ** 2))))
    c_boundary, kappa_bulk, got_ell1 = ops.young_constants()
    assert got_ell1 == ell1
    for deg, lam in coeffs.items():
        target, parts, phi = composition_table(ops, deg)
        rho = np.max(target * jap[target]
                     / ((deg + 1) * np.abs(phi) * jap[np.max(parts, axis=1)]))
        kappa = np.max(target * jap[target] / np.abs(phi))
        assert c_boundary[deg] == float(abs(lam) * rho * (deg + 1) * ell1**deg)
        assert kappa_bulk[deg] == float(kappa)


# -- fixed-point map -----------------------------------------------------------------

def _constant_trajectory(phi, T, freq):
    grid = PanelGrid.for_frequency(T, freq)
    vals = np.broadcast_to(
        np.asarray(phi.coeffs)[:, None, None],
        (phi.coeffs.size, grid.n_panels, grid.q)).copy()
    return Trajectory(spec=EquationSpec.pure_power(1, 3.0), grid=grid,
                      modes=np.arange(phi.coeffs.size), values=vals,
                      quadrature_tolerance=1e-10,
                      initial_state=phi, variable="v")


def _map_trajectory(ops, traj, phi):
    """One application of the fixed-point map to the trajectory ``traj``
    of v (every mode tracked), as the trajectory of its image."""
    values = ops._apply_map_tensor(traj.values, traj.grid,
                                   np.asarray(phi.coeffs, dtype=complex))
    return dataclasses.replace(traj, values=values, initial_state=phi)


def test_integral_map_on_constant_data():
    # the first Picard iterate: value phi at t = 0, boundary-term increment
    # at later times
    phi = state({1: 0.04, 2: 0.03}, 8)
    ops = NormalFormOperators(EquationSpec.pure_power(1, 3.0), 8)
    traj = _constant_trajectory(phi, 0.5, 2 * 8.0**3)
    out = _map_trajectory(ops, traj, phi)
    assert np.max(np.abs(out.coeffs_at(0.0) - phi.coeffs)) < 1e-12
    t = 0.3
    direct = (np.asarray(phi.coeffs)
              + ops.boundary_term(phi, t) - ops.boundary_term(phi, 0.0))
    # the bulk integral of a constant state is not zero but fourth order
    assert np.max(np.abs(out.coeffs_at(t) - direct)) < 5e-6


def apply_map_oracle(ops, v_vals, grid, phi):
    """The per-panel map: one panel's (M+1, q) node values at a time, with
    the bulk integral carried across panels as a running sum."""
    sch = grid.scheme
    times = grid.node_times()
    widths = grid.widths()
    n_phi0 = ops.boundary_term(phi, 0.0)
    out = np.empty_like(v_vals)
    carry = np.zeros(ops.truncation + 1, dtype=complex)
    for p in range(grid.n_panels):
        E = np.exp(1j * np.outer(ops.mu, times[p]))
        U = v_vals[:, p, :] * E
        Ec = np.conj(E)
        n_vals = ops._boundary_from_u(U) * Ec
        b_vals = ops._bulk_from_u(U, ops._velocity_from_u(U)) * Ec
        J = 0.5 * widths[p] * (b_vals @ sch.antideriv_nodes.T)
        out[:, p, :] = (phi[:, None] + n_vals - n_phi0[:, None]
                        + carry[:, None] + J)
        carry = carry + 0.5 * widths[p] * (b_vals @ sch.antideriv_end)
    return out


# fewer panels than one block, exact multiples of the block, remainders
@pytest.mark.parametrize("n_panels", sorted({
    5, 32, 37, 64, 69, BLOCK_PANELS, BLOCK_PANELS + 5, 2 * BLOCK_PANELS,
    2 * BLOCK_PANELS + 5}))
def test_apply_map_matches_per_panel_oracle(n_panels):
    M = 10
    ops = NormalFormOperators(EquationSpec(3.0, {1: 1.0, 2: -0.5j}), M)
    grid = PanelGrid(0.3, n_panels, panel_scheme(12))
    rng = np.random.default_rng(n_panels)
    shape = (M + 1, n_panels, grid.q)
    v = 0.05 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    v[0] = 0.0
    phi = v[:, 0, 0].copy()
    ref = apply_map_oracle(ops, v, grid, phi)
    got = ops._apply_map_tensor(v, grid, phi)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_integral_map_zero_data():
    phi = SpectralState(np.zeros(7, dtype=complex))
    ops = NormalFormOperators(EquationSpec.pure_power(1, 3.0), 6)
    out = _map_trajectory(ops, _constant_trajectory(phi, 0.4, 500.0), phi)
    assert np.max(np.abs(out.values)) == 0.0


# -- picard solver --------------------------------------------------------------------

def test_picard_zero_data_one_iteration():
    phi = SpectralState(np.zeros(9, dtype=complex))
    traj, log = picard_solve(phi, EquationSpec.pure_power(1, 3.0), 1.0)
    assert log.converged
    assert len(log.iterations) == 1
    assert np.max(np.abs(traj.values)) == 0.0


def test_picard_agrees_with_cascade_k2():
    # independent pipelines on the same truncated system, cubic nonlinearity
    phi = state({1: 0.05}, 10)
    spec = EquationSpec.pure_power(2, 3.0)
    u_traj = cascade_integrate(phi, spec, 0.5)
    v_traj, log = picard_solve(phi, spec, 0.5, tol=1e-12)
    assert log.converged
    mu = dispersion_mu(3.0, np.arange(11))
    for t in np.linspace(0.0, 0.5, 9):
        u_from_v = v_traj.coeffs_at(t) * np.exp(1j * mu * t)
        assert np.max(np.abs(u_from_v - u_traj.coeffs_at(t))) < 1e-10


def _solve_normal_form(tol, max_iter=40):
    """The trajectory of v and the log."""
    phi = state({1: 0.05, 2: 0.05}, 12)
    return picard_solve(phi, EquationSpec.pure_power(1, 3.0), 1.0, tol=tol,
                        max_iter=max_iter)


def _solve_gauge(tol, max_iter=60):
    """The trajectory of u and the log."""
    phi = state({1: 0.05, 2: 0.02}, 12)
    psi = compatible_gauge_data(phi, 1)
    traj_u, _, log = gauge_picard_solve(phi, psi, 1, 1.0, tol=tol,
                                        max_iter=max_iter)
    return traj_u, log


@pytest.mark.parametrize("solve", [_solve_normal_form, _solve_gauge])
def test_picard_fixed_point_residual(solve, monkeypatch):
    # the residual is one more map application after convergence, so for a
    # contraction it lies below the last recorded increment
    tol = 1e-10
    traj, log = solve(tol)
    assert log.converged
    assert log.final_residual <= 10 * tol
    assert log.final_residual < log.iterations[-1][1]
    assert 0.0 <= log.tail <= tol
    # the same solve on the ladder's earlier floor (55 and 5 panels), whose
    # tails read round-off, agrees with it to 2.5e-14 and 1.9e-14
    monkeypatch.setattr(quadrature, "PICARD_DEPTH", 3)
    floor, floor_log = solve(tol)
    assert floor_log.grid_attempts[0][0] == {_solve_normal_form: 55,
                                             _solve_gauge: 5}[solve]
    assert traj.n_panels < floor.n_panels
    ts = np.linspace(0.0, 1.0, 201)
    assert np.max(np.abs(traj.dense_at(ts) - floor.dense_at(ts))) <= 1e-13


@pytest.mark.parametrize("solve, worst", [(_solve_normal_form, "mode 6 of v"),
                                           (_solve_gauge, "mode 6 of gu")])
def test_picard_under_resolved_grid_raises_naming_mode(solve, worst,
                                                       monkeypatch):
    # 1000 radians of the fastest oscillation per panel (4 panels for the
    # normal form, 1 for the gauge pair): the iteration still converges,
    # the grid does not resolve the iterate
    monkeypatch.setattr(quadrature, "RADIANS_PER_PANEL", 1000.0)
    with pytest.raises(QuadratureError, match=f"at {worst}$") as info:
        solve(1e-10)
    assert info.value.worst_mode == 6 and info.value.tail > 1e-10


def test_picard_final_residual_is_the_eager_one_bit_for_bit():
    # read lazily from the read-only converged iterate, the residual is the
    # increment of one more map application, as an eager one computes it
    phi = state({1: 0.05, 2: 0.05}, 12)
    spec = EquationSpec.pure_power(1, 3.0)
    traj, log = picard_solve(phi, spec, 1.0)
    x = traj.values
    assert not x.flags.writeable
    ops = NormalFormOperators(spec, 12)
    eager = sup_sobolev_diff(ops._apply_map_tensor(
        x, traj.grid, np.asarray(phi.coeffs, dtype=complex)), x)
    assert np.array([log.final_residual]).view(np.int64) \
        == np.array([eager]).view(np.int64)


def test_gauge_final_residual_is_the_eager_one_bit_for_bit():
    # the gauge map marched by the one-shot form, as before the setup
    phi = state({1: 0.05, 2: 0.02}, 12)
    psi = compatible_gauge_data(phi, 1)
    traj_u, traj_g, log = gauge_picard_solve(phi, psi, 1, 1.0)
    grid = traj_u.grid
    mu = dispersion_mu(2.0, np.arange(13)).astype(complex)
    x = np.stack([traj_u.values, traj_g.values], axis=1)
    f_rhs, g_rhs = gauge_system_rhs(x[:, 0], x[:, 1], 1)
    applied = np.stack([
        oscillatory_march(grid, mu, f_rhs, np.asarray(phi.coeffs, complex)),
        oscillatory_march(grid, mu, g_rhs, np.asarray(psi.coeffs, complex))],
        axis=1)
    eager = sup_sobolev_diff(applied, x)
    assert np.array([log.final_residual]).view(np.int64) \
        == np.array([eager]).view(np.int64)


def test_a_log_that_did_not_converge_reads_no_residual():
    assert np.isnan(PicardLog(smallness=None).final_residual)
    with pytest.raises(MaxIterationsError) as info:
        _solve_normal_form(1e-10, max_iter=1)
    assert np.isnan(info.value.log.final_residual)


@pytest.mark.parametrize("solve", [_solve_normal_form, _solve_gauge])
def test_picard_max_iterations(solve):
    with pytest.raises(MaxIterationsError, match="after 1 iterations"):
        solve(1e-10, max_iter=1)


# -- grid ladder -------------------------------------------------------------------------

def _fixed_grid_normal_form(phi, spec, T, tol=1e-10):
    """Oracle: the normal-form iteration on the one grid sized for the
    fastest frequency, with no ladder."""
    M = phi.truncation
    ops = NormalFormOperators(spec, M)
    grid = PanelGrid.for_frequency(T, 2.0 * float(np.max(ops.mu)) + 1.0)
    phi_c = np.asarray(phi.coeffs, dtype=complex)
    log = PicardLog(smallness=ops.smallness_report(phi, T))
    v = iterate_fixed_point(
        lambda x: ops._apply_map_tensor(x, grid, phi_c),
        np.broadcast_to(phi_c[:, None, None],
                        (M + 1, grid.n_panels, grid.q)).copy(),
        log, tol, 40)
    return Trajectory(spec=spec, grid=grid, modes=np.arange(M + 1), values=v,
                      quadrature_tolerance=tol,
                      initial_state=phi, variable="v")


def _fixed_grid_gauge(phi, psi, k, T, tol=1e-10):
    """Oracle: the gauge Duhamel iteration on the one grid sized for the
    fastest frequency, with no ladder; returns the trajectory of u."""
    M = phi.truncation
    mu = dispersion_mu(2.0, np.arange(M + 1)).astype(complex)
    grid = PanelGrid.for_frequency(T, 2.0 * float(mu[-1].real) + 1.0)
    phi_c = np.asarray(phi.coeffs, dtype=complex)
    psi_c = np.asarray(psi.coeffs, dtype=complex)

    def apply(x):
        f_rhs, g_rhs = gauge_system_rhs(x[:, 0], x[:, 1], k)
        return np.stack([oscillatory_march(grid, mu, f_rhs, phi_c),
                         oscillatory_march(grid, mu, g_rhs, psi_c)], axis=1)

    x0 = (np.stack([phi_c, psi_c], axis=1)[:, :, None, None]
          * np.exp(1j * mu[:, None, None, None] * grid.node_times()))
    x = iterate_fixed_point(apply, x0, PicardLog(smallness=None), tol, 60)
    return Trajectory(spec=EquationSpec.pure_power(k, 2.0), grid=grid,
                      modes=np.arange(M + 1), values=x[:, 0],
                      quadrature_tolerance=tol, initial_state=phi,
                      variable="u")


def test_ladder_normal_form_matches_fixed_grid_oracle():
    phi = state({1: 0.05, 2: 0.05}, 16)
    spec = EquationSpec.pure_power(1, 3.0)
    traj, log = picard_solve(phi, spec, 1.0)
    oracle = _fixed_grid_normal_form(phi, spec, 1.0)
    assert oracle.n_panels == 1025
    assert traj.n_panels < oracle.n_panels
    assert log.grid_attempts[-1] == (traj.n_panels, log.tail)
    ts = np.linspace(0.0, 1.0, 201)
    assert np.max(np.abs(traj.dense_at(ts) - oracle.dense_at(ts))) <= 1e-13


def test_ladder_gauge_matches_fixed_grid_oracle():
    phi = state({1: 0.05, 2: 0.02}, 16)
    psi = compatible_gauge_data(phi, 1)
    traj_u, _, log = gauge_picard_solve(phi, psi, 1, 1.0)
    oracle = _fixed_grid_gauge(phi, psi, 1, 1.0)
    assert oracle.n_panels == 65
    assert traj_u.n_panels < oracle.n_panels
    assert log.grid_attempts[-1] == (traj_u.n_panels, log.tail)
    ts = np.linspace(0.0, 1.0, 201)
    assert np.max(np.abs(traj_u.dense_at(ts) - oracle.dense_at(ts))) <= 1e-13


def test_truncation_16_is_solved_on_the_ladder_floor():
    # the benchmark's truncation-16 data: the normal form accepts its first
    # rung, 33 of the top rung's 1025 panels, and the gauge pair one of its
    # first two, at most 5 of 65
    phi = state({1: 0.045, 2: 0.045j}, 16)
    spec = EquationSpec.pure_power(1, 3.0)
    traj, log = picard_solve(phi, spec, 1.0)
    assert [n for n, _ in log.grid_attempts] == [33]
    ts = np.linspace(0.0, 1.0, 201)
    oracle = _fixed_grid_normal_form(phi, spec, 1.0)
    assert oracle.n_panels == 1025
    assert np.max(np.abs(traj.dense_at(ts) - oracle.dense_at(ts))) <= 1e-13
    phi = state({1: 0.045, 2: 0.015j}, 16)
    psi = compatible_gauge_data(phi, 1)
    traj_u, _, log = gauge_picard_solve(phi, psi, 1, 1.0)
    assert traj_u.n_panels <= 5 and log.grid_attempts[0][0] == 3
    oracle = _fixed_grid_gauge(phi, psi, 1, 1.0)
    assert oracle.n_panels == 65
    assert np.max(np.abs(traj_u.dense_at(ts) - oracle.dense_at(ts))) <= 1e-13


def _climbing_normal_form():
    """The normal form on rungs of 3, 5 and 9 panels that leave tails above
    tol = 1e-13, and 17 that resolve the iterate."""
    return picard_solve(state({1: 0.05, 2: 0.05}, 8),
                        EquationSpec.pure_power(1, 3.0), 0.5, tol=1e-13)


def _climbing_gauge():
    """The gauge pair on a rung of 1 panel that leaves a tail of ~9e-10 >
    tol = 1e-10, and 2 that resolve the iterate."""
    phi = state({1: 0.05, 2: 0.02}, 4)
    return gauge_picard_solve(phi, compatible_gauge_data(phi, 1), 1, 1.0)


def test_ladder_climbs_past_an_unresolved_coarse_grid():
    _, nf_log = _climbing_normal_form()
    _, traj_g, g_log = _climbing_gauge()
    for log, tol, panels in ((nf_log, 1e-13, [3, 5, 9, 17]),
                             (g_log, 1e-10, [1, 2])):
        assert [n for n, _ in log.grid_attempts] == panels
        *coarse, (_, fine) = log.grid_attempts
        assert all(tail > tol for _, tail in coarse)
        assert tol >= fine == log.tail
        assert log.converged
    assert traj_g.n_panels == 2


def test_ladder_raises_from_the_top_rung(monkeypatch):
    # rungs of 1, 2 and 4 panels all under-resolve the iterate: the error is
    # the one the top rung, the grid sized for the fastest frequency, raises
    monkeypatch.setattr(quadrature, "RADIANS_PER_PANEL", 1000.0)
    with pytest.raises(QuadratureError, match="not resolved on 4 panels"):
        _solve_normal_form(1e-10)


def test_picard_ladders_have_no_node_budget(monkeypatch):
    # the node budget bounds cascade rungs only: with a budget no rung fits
    # in, both Picard solvers try and accept the rungs they did before
    solvers = (_solve_normal_form, _solve_gauge)
    before = [solve(1e-10)[1].grid_attempts for solve in solvers]
    monkeypatch.setattr(quadrature, "NODE_BUDGET", 0)
    assert [solve(1e-10)[1].grid_attempts for solve in solvers] == before
    assert all(before)


@pytest.mark.parametrize("solve", [_solve_normal_form, _solve_gauge])
def test_iteration_error_stops_the_ladder_and_carries_its_log(solve):
    with pytest.raises(MaxIterationsError) as info:
        solve(1e-10, max_iter=1)
    log = info.value.log
    assert not log.converged and len(log.iterations) == 1
    assert log.grid_attempts == []        # raised on the coarsest rung


@pytest.mark.parametrize("solve, panels", [(_solve_normal_form, [1, 2, 4]),
                                           (_solve_gauge, [1])])
def test_top_rung_error_carries_every_rung_tried(solve, panels, monkeypatch):
    # 1000 radians per panel: no rung resolves the iterate, and the error
    # of the top rung records all of them, its own last
    monkeypatch.setattr(quadrature, "RADIANS_PER_PANEL", 1000.0)
    with pytest.raises(QuadratureError) as info:
        solve(1e-10)
    err = info.value
    assert [n for n, _ in err.grid_attempts] == panels
    assert all(tail > 1e-10 for _, tail in err.grid_attempts)
    assert err.grid_attempts[-1][1] == err.tail


@pytest.mark.parametrize("solve, first", [(_climbing_normal_form, 3),
                                          (_climbing_gauge, 1)])
def test_iteration_error_on_a_later_rung_carries_the_earlier_rungs(
        solve, first, monkeypatch):
    # the second rung's iteration gets one application, and gives up: its
    # log holds that iteration and the record of the first rung
    iterate = normalform.iterate_fixed_point
    calls = []

    def one_step_after_the_first(apply, x, log, tol, max_iter):
        calls.append(log)
        return iterate(apply, x, log, tol, max_iter if len(calls) == 1 else 1)

    unresolved = solve()[-1].grid_attempts[0]
    monkeypatch.setattr(normalform, "iterate_fixed_point",
                        one_step_after_the_first)
    with pytest.raises(MaxIterationsError) as info:
        solve()
    log = info.value.log
    assert len(calls) == 2 and log is calls[1]
    assert not log.converged and len(log.iterations) == 1
    assert log.grid_attempts == [unresolved] and unresolved[0] == first
    assert calls[0].grid_attempts is log.grid_attempts


def test_picard_ratios_shrink_with_data():
    spec = EquationSpec.pure_power(1, 3.0)
    _, log_big = picard_solve(state({1: 0.06, 2: 0.06}, 10), spec, 1.0)
    _, log_small = picard_solve(state({1: 0.03, 2: 0.03}, 10), spec, 1.0)
    assert max(log_small.ratios) < max(log_big.ratios)
    assert all(r < 1 for r in log_big.ratios + log_small.ratios)


def test_picard_support_preservation():
    # data on mode 2 only: every iterate lives on even modes
    phi = state({2: 0.05}, 12)
    traj, _ = picard_solve(phi, EquationSpec.pure_power(1, 3.0), 0.5)
    odd = traj.values[1::2]
    assert np.max(np.abs(odd)) == 0.0


def test_picard_rejects_large_data():
    with pytest.raises(ContractionThresholdError):
        picard_solve(state({1: 0.8}, 8), EquationSpec.pure_power(1, 3.0), 1.0)


def test_picard_rejects_low_alpha_without_flag():
    with pytest.raises(ValueError, match="alpha"):
        picard_solve(state({1: 0.01}, 8), EquationSpec.pure_power(1, 2.0), 0.5)


def test_picard_unsafe_flag_runs_low_alpha():
    phi = state({1: 0.01}, 8)
    spec = EquationSpec.pure_power(1, 2.5)
    traj, log = picard_solve(phi, spec, 0.2, allow_unsafe=True)
    assert log.converged
    u_traj = cascade_integrate(phi, spec, 0.2)
    mu = dispersion_mu(2.5, np.arange(9))
    t = 0.2
    u_from_v = traj.coeffs_at(t) * np.exp(1j * mu * t)
    assert np.max(np.abs(u_from_v - u_traj.coeffs_at(t))) < 1e-9


def test_picard_dispersion_kind_irrelevant_on_one_sided_data():
    from halfline_dnls import DispersionKind
    phi = state({1: 0.04, 2: 0.04}, 8)
    sch = EquationSpec.pure_power(1, 3.0, kind=DispersionKind.SCHRODINGER)
    odd = EquationSpec.pure_power(1, 3.0, kind=DispersionKind.AIRY_TYPE)
    va, _ = picard_solve(phi, sch, 0.5)
    vb, _ = picard_solve(phi, odd, 0.5)
    assert np.array_equal(va.values, vb.values)


def test_picard_requires_mean_zero():
    with pytest.raises(ValueError, match="mean-zero"):
        picard_solve(state({0: 0.1, 1: 0.01}, 6),
                     EquationSpec.pure_power(1, 3.0), 0.5)


# -- certified estimates ----------------------------------------------------------------

def test_operator_norms_within_certified_constants():
    # |N(v)|_{H1} <= C_N |v|^{k+1} and |B(v)|_{H1} <= bulk-bound(|v|),
    # with constants certified from the phase table
    M, k = 12, 1
    spec = EquationSpec.pure_power(k, 3.0)
    ops = NormalFormOperators(spec, M)
    c_boundary, kappa_bulk, ell1 = ops.young_constants()
    rng = np.random.default_rng(17)
    for _ in range(25):
        v = 0.05 * (rng.standard_normal(M + 1) + 1j * rng.standard_normal(M + 1))
        v[0] = 0.0
        r = sobolev_norm(v, 1.0)
        t = float(rng.uniform(0, 1))
        n_val = sobolev_norm(ops.boundary_term(v, t), 1.0)
        assert n_val <= c_boundary[k] * r ** (k + 1) * (1 + 1e-9)
        b_val = sobolev_norm(ops.bulk_term(v, t), 1.0)
        bulk_bound = (kappa_bulk[k] * (ell1 * r) ** k
                      * (k + 1) * (ell1 * r) ** k * r)
        assert b_val <= bulk_bound * (1 + 1e-9)


def test_smallness_report_fields():
    ops = NormalFormOperators(EquationSpec.pure_power(1, 3.0), 16)
    rep = ops.smallness_report(state({1: 0.05, 2: 0.05}, 16), 1.0)
    assert rep.accepted
    assert rep.lhs < rep.rhs
    d = rep.to_dict()
    assert set(d) >= {"accepted", "phi_h1", "ball_lhs", "ball_rhs"}
