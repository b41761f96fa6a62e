"""Panel scheme exactness and the oscillatory integrating-factor march."""

import dataclasses
import math
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfline_dnls import (EquationSpec, OverflowGuardError, PanelGrid,
                           QuadratureError, SpectralState, cascade,
                           cascade_integrate, compatible_gauge_data,
                           gauge_picard_solve, quadrature)
from halfline_dnls.inflation import build_inflation_data, inflation_time
from halfline_dnls.normalform import picard_on_ladder
from halfline_dnls.quadrature import (OVERFLOW_GUARD, OscillatoryMarch,
                                      oscillatory_march, panel_scheme,
                                      solve_on_ladder, tail_ratio)
from halfline_dnls.spectral import dispersion_symbol


def reference_march(grid, omega, forcing, init):
    """Scalar oracle: the panel-by-panel integrating-factor march, which
    stops at the first panel end where a row passes OVERFLOW_GUARD."""
    sch = grid.scheme
    out = np.empty_like(forcing)
    carry = np.array(init, dtype=complex)
    times = grid.node_times()
    h = grid.h
    for p in range(grid.n_panels):
        dt = times[p] - grid.breaks[p]
        ph = np.exp(1j * omega[:, None] * dt[None, :])
        psi = forcing[:, p, :] / ph
        J = 0.5 * h * (psi @ sch.antideriv_nodes.T)
        Jend = 0.5 * h * (psi @ sch.antideriv_end)
        out[:, p, :] = ph * (carry[:, None] + J)
        carry = np.exp(1j * omega * h) * (carry + Jend)
        if np.abs(carry).max() > OVERFLOW_GUARD:
            raise OverflowGuardError(
                f"(mode row {int(np.argmax(np.abs(carry)))})",
                time=float(grid.breaks[p + 1]))
    return out


def dividing_march(grid, omega, forcing, init):
    """Oracle of the multiply-only march: the same closed-form carry, with
    the slow factor formed as ``forcing / ph``, each panel's antiderivative
    scaled by ``0.5 * h`` on the node array, and each block's factors ``E``
    made anew from ``grid.break_phases``."""
    sch = grid.scheme
    h = grid.h
    ph = np.exp(1j * omega[:, None, None] * grid.offsets)
    psi = forcing / ph
    J = psi @ sch.antideriv_nodes.T
    J *= 0.5 * h
    Jend = 0.5 * h * (psi @ sch.antideriv_end)
    growth = float(np.max(np.abs(omega.imag), initial=0.0) * h)
    n = grid.n_panels
    block = n if growth == 0.0 else int(
        min(n, max(1, np.log(OVERFLOW_GUARD) // growth)))
    carry = np.empty_like(Jend)
    c = np.array(init, dtype=complex)
    for s in range(0, n, block):
        e = min(s + block, n)
        E = grid.break_phases(1j * omega, np.arange(e - s + 1))
        ends = np.cumsum(Jend[:, s:e] / E[:, :-1], axis=1)
        ends += c[:, None]
        ends *= E[:, 1:]
        carry[:, s] = c
        carry[:, s + 1:e] = ends[:, :-1]
        c = ends[:, -1]
    J += carry[:, :, None]
    J *= ph
    return J


def rowwise_tail_ratio(values, scheme):
    """Oracle of ``tail_ratio``: Chebyshev coefficients in (panels, q)
    layout, ``row @ coeff_map.T``, reduced along each panel's q values."""
    tails = np.empty(values.shape[:2])
    scale = np.zeros(values.shape[1])
    for r, row in enumerate(values):
        mag = np.abs(row @ scheme.coeff_map.T)
        tails[r] = np.max(mag[:, -2:], axis=1)
        np.maximum(scale, np.max(mag, axis=1), out=scale)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(scale > 1e-290, tails / np.maximum(scale, 1e-300), 0.0)
    return np.max(ratio, axis=1, initial=0.0)


def full_transform_tail_ratio(values, scheme):
    """Bitwise oracle of ``tail_ratio``: every row's full Chebyshev
    coefficients, ``coeff_map @ row.T`` in (q, panels) layout, one row at a
    time, with the tail read off the full transform (the implementation
    before rows that cannot set a panel's scale skipped it).  Finite input
    only: a non-finite panel reads 0 here and inf in ``tail_ratio``."""
    tails = np.empty(values.shape[:2])
    scale = np.zeros(values.shape[1])
    for r, row in enumerate(values):
        mag = np.abs(scheme.coeff_map @ row.T)
        np.maximum(mag[-2], mag[-1], out=tails[r])
        np.maximum(scale, mag.max(axis=0), out=scale)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(scale > 1e-290, tails / np.maximum(scale, 1e-300), 0.0)
    return np.max(ratio, axis=1, initial=0.0)


def test_antiderivative_of_polynomial_is_exact():
    sch = panel_scheme(12)
    x = sch.nodes
    f = 3 * x**4 - x + 2
    exact = (3 / 5) * (x**5 + 1) - (x**2 - 1) / 2 + 2 * (x + 1)
    got = sch.antideriv_nodes @ f
    assert np.max(np.abs(got - exact)) < 1e-13
    end = sch.antideriv_end @ f
    assert end == pytest.approx((3 / 5) * 2 + 4.0, rel=1e-14)


def test_antiderivative_of_oscillation():
    # resolved oscillation: omega * h = 8 radians over the panel
    sch = panel_scheme(24)
    w = 4.0
    f = np.exp(1j * w * sch.nodes)
    got = sch.antideriv_end @ f
    exact = (np.exp(1j * w) - np.exp(-1j * w)) / (1j * w)
    assert abs(got - exact) < 1e-13


def test_derivative_matrix():
    sch = panel_scheme(16)
    x = sch.nodes
    f = x**5 - 2 * x**2
    got = sch.deriv_nodes @ f
    assert np.max(np.abs(got - (5 * x**4 - 4 * x))) < 1e-11


def unit_vector_maps(q):
    """Oracle of ``panel_scheme``'s coefficient maps: ``chebint`` (vanishing
    at -1) and ``chebder`` of each unit vector, one column at a time."""
    cheb = np.polynomial.chebyshev
    S = np.zeros((q + 1, q))
    D = np.zeros((q, q))
    for j in range(q):
        e = np.zeros(q)
        e[j] = 1.0
        S[:, j] = cheb.chebint(e, lbnd=-1)
        if j:
            D[: q - 1, j] = cheb.chebder(e)
    return S, D


@pytest.mark.parametrize("q", [4, 12, 16, 24])
def test_panel_maps_match_the_unit_vector_oracle_bitwise(q):
    cheb = np.polynomial.chebyshev
    sch = panel_scheme(q)
    S, D = unit_vector_maps(q)
    A = sch.coeff_map
    P = cheb.chebvander(sch.nodes, q) @ S @ A
    end = (cheb.chebvander(np.array([1.0]), q) @ S @ A)[0]
    DN = cheb.chebvander(sch.nodes, q - 1) @ D @ A
    for got, ref in ((sch.antideriv_nodes, P), (sch.antideriv_end, end),
                     (sch.deriv_nodes, DN)):
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_tail_ratio_flags_unresolved():
    # one row on one panel
    sch = panel_scheme(24)
    smooth = np.exp(1j * 3.0 * sch.nodes)[None, None]
    rough = np.exp(1j * 60.0 * sch.nodes)[None, None]
    assert tail_ratio(smooth, sch).max() < 1e-12
    assert tail_ratio(rough, sch).max() > 1e-3


def test_tail_ratio_ignores_negligible_rows():
    # a row of size ~1e-300 is round-off, not an unresolved function
    sch = panel_scheme(24)
    rough = np.exp(1j * 60.0 * sch.nodes)[None, None]
    smooth = np.exp(1j * 3.0 * sch.nodes)[None, None]
    assert tail_ratio(1e-300 * rough, sch).max() == 0.0
    assert tail_ratio(np.concatenate([1e-300 * rough, smooth]),
                      sch).max() < 1e-12


def test_tail_ratio_scale_is_per_panel():
    # rows are measured against all rows on the same panel, not on others:
    # row 0 is rough on panel 1, where every row is of size 1e-6
    sch = panel_scheme(24)
    smooth = np.exp(1j * 3.0 * sch.nodes)
    rough = np.exp(1j * 60.0 * sch.nodes)
    values = np.array([[smooth, 1e-6 * rough],
                       [1e-6 * rough, 1e-6 * smooth]])
    ratios = tail_ratio(values, sch)
    assert ratios.shape == (2,)
    assert ratios[0] > 1e-3 and ratios[1] < 1e-5
    with pytest.raises(ValueError, match="rows, panels, q"):
        tail_ratio(values[0], sch)


def _tail_inputs():
    """Smooth, rough, negligible and per-panel-scale inputs of 3 rows on
    40 panels, and the rows of ``test_tail_ratio_scale_is_per_panel``."""
    sch = panel_scheme(24)
    rng = np.random.default_rng(5)
    grid = PanelGrid(2.0, 40)
    t = grid.node_times()
    smooth = np.stack([np.exp(1j * b * t) for b in (3.0, -7.0, 11.0)])
    rough = np.stack([np.exp(1j * b * t) for b in (900.0, -1300.0, 1700.0)])
    noise = (rng.standard_normal(smooth.shape)
             + 1j * rng.standard_normal(smooth.shape))
    scaled = smooth * np.logspace(-8, 4, 40)[None, :, None]
    scaled[1] *= 1e-9
    scaled[2, ::3] += 1e-3 * noise[2, ::3] * np.logspace(-8, 4, 40)[::3, None]
    per_panel = np.array([
        [np.exp(3j * sch.nodes), 1e-6 * np.exp(60j * sch.nodes)],
        [1e-6 * np.exp(60j * sch.nodes), 1e-6 * np.exp(3j * sch.nodes)]])
    return sch, {"smooth": smooth, "rough": rough, "noise": noise,
                 "negligible": 1e-300 * rough,
                 "negligible_and_smooth": np.concatenate([1e-300 * rough,
                                                          smooth]),
                 "per_panel_scale": scaled, "per_panel": per_panel}


@pytest.mark.parametrize("case", ["smooth", "rough", "noise", "negligible",
                                  "negligible_and_smooth", "per_panel_scale",
                                  "per_panel"])
def test_tail_ratio_matches_rowwise_oracle(case):
    # the coefficients come from the same 24-term sums in another layout,
    # so the ratios agree to a few ulps: relative where the tail is
    # resolved, and of the panel scale where it is round-off
    sch, inputs = _tail_inputs()
    values = inputs[case]
    got = tail_ratio(values, sch)
    ref = rowwise_tail_ratio(values, sch)
    eps = np.finfo(float).eps
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 4 * eps * np.maximum(ref, 4 * eps))
    if case == "negligible":
        assert np.all(got == 0.0)


def _scale_inputs():
    """The inputs of ``_tail_inputs`` and inputs of ``tail_ratio`` that
    stress the bound on each row's largest coefficient: a headline-sized
    rung of 8 rows on 1777 panels, a dominant row that changes from panel
    to panel, a row that dominates one panel only, rows whose squares
    underflow (near 1e-200 and 1e-300) or overflow (near 1e160), exact
    zero rows, one row and one panel."""
    sch = panel_scheme(24)
    rng = np.random.default_rng(23)
    grid = PanelGrid(3.0, 1777)
    t = grid.node_times()
    decay = np.exp(-2.5 * np.arange(8))[:, None, None]
    headline = decay * np.stack([np.exp(1j * b * t)
                                 for b in 40.0 * np.arange(8)])
    few = PanelGrid(2.0, 40).node_times()
    waves = np.stack([np.exp(1j * b * few) for b in (3.0, -7.0, 11.0, 500.0)])
    # row p % 4 leads panel p by 1e6
    rotating = waves * np.where(np.arange(40)[None, :, None] % 4
                                == np.arange(4)[:, None, None], 1e6, 1.0)
    # row 3 leads panel 17 alone, row 0 every other panel
    one_panel = waves * np.array([1.0, 1e-3, 1e-6, 1e-9])[:, None, None]
    one_panel[3, 17] *= 1e12
    noise = (rng.standard_normal(waves.shape)
             + 1j * rng.standard_normal(waves.shape))
    tiny = np.stack([1e-200 * waves[0], 1e-300 * noise[1],
                     3e-308 * waves[2], 1e-310 * noise[3]])
    zeros = waves.copy()
    zeros[[0, 2]] = 0.0
    huge = np.stack([1e150 * waves[0], 1e160 * noise[1], waves[2],
                     1e155 * waves[3]])
    return sch, {
        **_tail_inputs()[1],
        "headline": headline, "rotating": rotating, "one_panel": one_panel,
        "underflow": tiny, "underflow_beside_one": np.concatenate(
            [tiny, waves[:1]]),
        "zero_rows": zeros, "all_zero": np.zeros_like(waves),
        "overflow": huge, "one_row": waves[3:], "one_panel_only":
            noise[:, 5:6] * np.logspace(-3, 3, 4)[:, None, None]}


SCALE_CASES = list(_scale_inputs()[1])


@pytest.mark.parametrize("case", SCALE_CASES)
def test_tail_ratio_matches_the_full_transform_oracle_bitwise(case):
    # skipping the full transform of rows whose bound is below the scale
    # changes no bit: rows that cannot set a panel's scale do not, and every
    # tail is the last two coefficients of the same product
    sch, inputs = _scale_inputs()
    values = inputs[case]
    got = tail_ratio(values, sch)
    ref = full_transform_tail_ratio(values, sch)
    assert got.shape == ref.shape == (values.shape[0],)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


class _CountingMap(np.ndarray):
    """A ``coeff_map`` that counts the full (q x q) transforms it makes."""

    full = 0

    def __matmul__(self, other):
        if self.shape[0] == self.shape[1]:
            _CountingMap.full += 1
        return np.asarray(self) @ other


@pytest.mark.parametrize("case", SCALE_CASES)
def test_tail_ratio_does_not_depend_on_which_rows_are_skipped(case):
    # an infinite bound sends every row through its full transform
    sch, inputs = _scale_inputs()
    values = inputs[case]
    full = tail_ratio(values, dataclasses.replace(sch, coeff_bound=np.inf))
    got = tail_ratio(values, sch)
    assert np.array_equal(got.view(np.int64), full.view(np.int64))


def test_tail_ratio_transforms_only_rows_that_can_set_a_scale():
    sch, inputs = _scale_inputs()
    counting = dataclasses.replace(
        sch, coeff_map=sch.coeff_map.view(_CountingMap))
    for case, transforms in (("headline", 1), ("rotating", 4),
                             ("one_panel", 2), ("zero_rows", 2)):
        _CountingMap.full = 0
        tail_ratio(inputs[case], counting)
        assert _CountingMap.full == transforms, case


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0)])
def test_tail_ratio_reports_a_non_finite_panel_as_unresolved(bad):
    # a NaN or inf used to give its panel a scale that fails ``> 1e-290``
    # and so the ratio 0; now every row on that panel reads inf
    sch = panel_scheme(24)
    values = np.stack([np.exp(1j * b * PanelGrid(1.0, 5).node_times())
                       for b in (2.0, 5.0)])
    node = values.copy()
    node[1, 3, 7] = bad
    whole = values.copy()
    whole[0] = bad
    with np.errstate(invalid="ignore"):
        assert np.all(tail_ratio(node, sch) == np.inf)
        assert np.all(tail_ratio(whole, sch) == np.inf)
    assert np.all(np.isfinite(tail_ratio(values, sch)))


def full_transform_panel_ratios(values, scheme):
    """``full_transform_tail_ratio`` with the non-finite rule of
    ``tail_ratio``: every row reads inf on a panel whose scale is not
    finite."""
    tails = np.empty(values.shape[:2])
    scale = np.zeros(values.shape[1])
    for r, row in enumerate(values):
        mag = np.abs(scheme.coeff_map @ row.T)
        np.maximum(mag[-2], mag[-1], out=tails[r])
        np.maximum(scale, mag.max(axis=0), out=scale)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(scale > 1e-290, tails / np.maximum(scale, 1e-300), 0.0)
    ratio[:, ~np.isfinite(scale)] = np.inf
    return np.max(ratio, axis=1, initial=0.0)


def _spectrum_nodes(rows, panels):
    """Node values of a decaying spectrum: row r is e^{i r^2 t} / 4^r on
    ``panels`` panels over [0, 1]."""
    t = PanelGrid(1.0, panels).node_times()
    return np.stack([np.exp(1j * r * r * t) / 4.0**r for r in range(rows)])


# (rows, panels): one value of one row; the benchmark's truncation-16
# Picard floor and cascade rungs, in one chunk of tails; rungs whose tails
# take several chunks (7 rows per chunk at 100 panels) or one row each
TAIL_SHAPES = [(1, 1), (16, 3), (16, 39), (16, 100), (3, 800)]


@pytest.mark.parametrize("rows, panels", TAIL_SHAPES)
@pytest.mark.parametrize("kind", ["spectrum", "noise", "not_finite"])
def test_tail_ratio_in_chunks_matches_the_full_transform_oracle_bitwise(
        rows, panels, kind):
    # the last two coefficients of several rows in one stacked product give
    # the bits of each row's own full transform
    sch = panel_scheme(24)
    values = _spectrum_nodes(rows, panels)
    if kind == "noise":
        rng = np.random.default_rng(rows * panels)
        values = (rng.standard_normal(values.shape)
                  + 1j * rng.standard_normal(values.shape))
    elif kind == "not_finite":
        values[rows // 2, panels // 2, 5] = np.nan
    with np.errstate(invalid="ignore"):
        got = tail_ratio(values, sch)
        ref = full_transform_panel_ratios(values, sch)
    assert got.shape == ref.shape == (rows,)
    assert got.tobytes() == ref.tobytes()
    if kind == "not_finite":
        assert np.all(got == np.inf)


@pytest.mark.parametrize("horizon,freq,name", [
    (float("inf"), 10.0, "horizon"), (float("nan"), 10.0, "horizon"),
    (-1.0, 10.0, "horizon"), (1.0, float("nan"), "max_frequency"),
    (1.0, float("inf"), "max_frequency"), (1.0, 0.0, "max_frequency"),
])
def test_grid_sizing_refuses_a_bad_horizon_or_frequency(horizon, freq, name):
    message = f"^{name} must be positive and finite"
    with pytest.raises(ValueError, match=message):
        PanelGrid.for_frequency(horizon, freq)
    with pytest.raises(ValueError, match=message):
        picard_ladder_sized_for(horizon, freq)


def test_grid_sizing_refuses_a_panel_count_past_the_largest_float():
    # int(np.ceil(inf)) raised OverflowError
    message = r"horizon 1e\+306 at frequency 1e\+20 needs more panels"
    with pytest.raises(ValueError, match=message):
        PanelGrid.for_frequency(1e306, 1e20)
    # the Picard floor, for 1e20 / 2**5, is sized first
    message = r"horizon 1e\+306 at frequency 3\.125e\+18 needs more panels"
    with pytest.raises(ValueError, match=message):
        picard_ladder_sized_for(1e306, 1e20)


def picard_ladder_sized_for(horizon, freq):
    """``normalform.picard_on_ladder`` sized for ``freq`` over ``horizon``,
    on a map that no rung may reach: the sizing decides before any rung."""
    def setup(grid):
        raise AssertionError(f"rung of {grid.n_panels} panels solved")

    return picard_on_ladder(EquationSpec.pure_power(1, 3.0), {}, horizon,
                            freq, types.SimpleNamespace(accepted=True),
                            1e-10, 1, setup)


def test_grid_locate_and_refine():
    grid = PanelGrid.for_frequency(2.0, 100.0)
    p, x = grid.locate(0.0)
    assert p == 0 and x == -1.0
    p, x = grid.locate(2.0)
    assert p == grid.n_panels - 1 and x == 1.0
    fine = grid.refined()
    assert fine.n_panels == 2 * grid.n_panels
    assert fine.horizon == grid.horizon


def climbed(first, top, tails, tol=1e-10):
    """The rungs ``solve_on_ladder`` climbs from ``first`` to ``top`` when
    every rung fails, the i-th with the tail ``tails[i]`` (None: an error
    with no tail), and every rung past ``tails`` with its last."""
    grids = []

    def fail(grid):
        grids.append(grid)
        tail = tails[min(len(grids), len(tails)) - 1]
        raise QuadratureError(f"{grid.n_panels} panels", tail=tail)

    with pytest.raises(QuadratureError, match=f"^{top} panels$"):
        solve_on_ladder(first, top, tol, fail, [])
    return grids


def picard_rungs(horizon, freq):
    """Every rung of a Picard climb whose tails all read 1, sized as
    ``normalform.picard_on_ladder`` sizes it: the first rung's tail
    predicts the largest step, four times its panels."""
    return climbed(
        PanelGrid.for_frequency(horizon, freq / 2**quadrature.PICARD_DEPTH),
        PanelGrid.for_frequency(horizon, freq).n_panels, [1.0])


def cascade_rungs(horizon, freq):
    """Every rung of a cascade climb whose tails are all NaN, sized as
    ``cascade.cascade_integrate`` sizes it for ``freq`` (margin included)."""
    depth = quadrature.MAX_REFINEMENTS
    return climbed(PanelGrid.for_frequency(horizon, freq / 2**(depth + 2)),
                   PanelGrid.for_frequency(horizon, freq).n_panels << depth,
                   [float("nan")])


@pytest.mark.parametrize("horizon, freq, panels", [
    (1.0, 2 * 16**3 + 1, [33, 132, 264, 528, 1025]),       # normal form, M=16
    (1.0, 2 * 16**2 + 1, [3, 12, 24, 48, 65]),             # gauge pair, M=16
    (0.5, 2 * 4**3 + 1, [1, 4, 8, 9]),
    (1.0, 2 * 4**2 + 1, [1, 4, 5]),
])
def test_grid_ladder_rungs(horizon, freq, panels):
    # the Picard floor, four times it, then doubled up to the grid sized
    # for the frequency
    rungs = picard_rungs(horizon, freq)
    assert [g.n_panels for g in rungs] == panels
    top = PanelGrid.for_frequency(horizon, freq)
    assert np.array_equal(rungs[-1].breaks, top.breaks)
    assert all(grid.horizon == horizon for grid in rungs)


@pytest.mark.parametrize("radians, panels", [(1000.0, [1]), (200.0, [1, 2])])
def test_grid_ladder_collapses_equal_rungs_and_keeps_the_top(monkeypatch,
                                                             radians, panels):
    # gauge pair at M=12: 289 radians per unit time over T=1.  A floor
    # sized as the top is the one rung, and no rung is climbed twice
    monkeypatch.setattr(quadrature, "RADIANS_PER_PANEL", radians)
    rungs = picard_rungs(1.0, 289.0)
    assert [g.n_panels for g in rungs] == panels
    assert rungs[-1].n_panels == PanelGrid.for_frequency(1.0, 289.0).n_panels


@pytest.mark.parametrize("horizon, freq, depth, panels", [
    # the N=16, alpha=2 headline's cascade: T and LADDER_MARGIN * freq.  The
    # cascade's rungs are those of a climb whose every tail is NaN: the
    # floor MAX_REFINEMENTS + 2 halvings deep, doubled up to the grid sized
    # for the frequency doubled MAX_REFINEMENTS times
    (1.441359041754604, 1.2 * 32861.33248261689, "cascade",
     [223, 446, 892, 1784, 3568, 7136, 14272, 28544, 56840]),
    (1.0, 2 * 16**3 + 1, "cascade",
     [33, 66, 132, 264, 528, 1056, 2112, 4224, 8200]),
    (1.0, 2 * 12**3 + 1, "cascade",
     [14, 28, 56, 112, 224, 448, 896, 1792, 3464]),
    # verify's truncation-16 normal form and gauge pair, and truncation 12
    (1.0, 2 * 16**3 + 1, "picard", [33, 132, 264, 528, 1025]),
    (1.0, 2 * 16**2 + 1, "picard", [3, 12, 24, 48, 65]),
    (1.0, 2 * 12**3 + 1, "picard", [14, 56, 112, 224, 433]),
])
def test_ladder_keeps_both_solvers_rungs(horizon, freq, depth, panels):
    # the rungs the one climber makes for the cascade and the Picard
    # solvers, and the breaks of every rung bit for bit
    rungs = (cascade_rungs if depth == "cascade" else picard_rungs)(horizon,
                                                                   freq)
    assert [g.n_panels for g in rungs] == panels
    for grid in rungs:
        assert grid.horizon == horizon and grid.scheme is panel_scheme()
        assert np.array_equal(grid.breaks,
                              np.linspace(0.0, horizon, grid.n_panels + 1))


def test_climb_doubles_after_an_error_with_no_tail():
    # an error that carries no tail, like one whose tail fails, doubles
    rungs = climbed(PanelGrid(1.0, 3), 40, [None])
    assert [g.n_panels for g in rungs] == [3, 6, 12, 24, 40]
    rungs = climbed(PanelGrid(1.0, 3), 40, [1e-12, None, 1e-12, 1e-12])
    assert [g.n_panels for g in rungs] == [3, 4, 8, 10, 13, 17, 22, 28, 35, 40]


def test_only_the_first_rungs_failing_tail_predicts_the_step():
    # from n panels a finite tail t > tol predicts ceil(n (n t / tol)^(1/12))
    # panels, clamped to 2n and 4n: 100 panels at 1e-9, 1e-6 and 1e-3 give
    # factors 1.78, 3.16 and 5.62.  A tail that is not finite predicts
    # nothing, and doubles, as does the same tail on a later rung
    nan, inf = float("nan"), float("inf")
    for tail, second in ((1e-9, 200), (1e-6, 317), (1e-3, 400), (nan, 200),
                         (inf, 200)):
        rungs = climbed(PanelGrid(1.0, 100), 10_000, [tail])
        assert [g.n_panels for g in rungs] == [100, second] + [
            second << i for i in range(1, 10) if second << i < 10_000] \
            + [10_000]
    # a tail that passes first, then fails, is not predicted from
    rungs = climbed(PanelGrid(1.0, 100), 1000, [1e-12, 1e-3])
    assert [g.n_panels for g in rungs] == [100, 125, 250, 500, 1000]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10**6),
       tail=st.floats(1.01e-10, 1e300),
       top=st.integers(1, 10**7))
def test_first_step_is_clamped_to_two_to_four_times_and_to_top(n, tail, top):
    rungs = [g.n_panels for g in climbed(PanelGrid(1.0, n), max(n, top),
                                         [tail])]
    if n >= top:
        assert rungs == [n]
    else:
        assert min(top, 2 * n) <= rungs[1] <= min(top, 4 * n)


def test_climb_stops_at_top_and_keeps_the_first_grid_and_scheme():
    # the first rung is the grid given, each later one is made on its
    # scheme, and the rung of top panels is the last, whose error propagates
    first = PanelGrid(2.0, 3, panel_scheme(8))
    for tails, panels in (([1.0], [3, 7]), ([0.0], [3, 4, 5, 7])):
        rungs = climbed(first, 7, tails)
        assert [g.n_panels for g in rungs] == panels
        assert rungs[0] is first
        assert all(g.scheme is first.scheme and g.horizon == 2.0
                   for g in rungs)
    # a first grid at the top is the only rung
    assert climbed(first, 3, [1.0]) == [first]


def test_node_times_are_computed_once_and_read_only():
    grid = PanelGrid.for_frequency(2.0, 100.0)
    times = grid.node_times()
    assert grid.node_times() is times
    assert not times.flags.writeable
    assert np.array_equal(times, grid.breaks[:-1, None] + grid.offsets)


def test_offsets_are_computed_once_and_read_only():
    grid = PanelGrid.for_frequency(2.0, 100.0)
    offsets = grid.offsets
    assert grid.offsets is offsets
    assert not offsets.flags.writeable
    assert offsets.shape == (grid.q,)
    # the node times of every panel relative to its left break
    rel = grid.node_times() - grid.breaks[:-1, None]
    eps = np.finfo(float).eps
    assert np.max(np.abs(rel - offsets)) <= 4 * eps * grid.horizon


@pytest.mark.parametrize("rate", [
    80j, -35j,                          # oscillating
    40.0 - 300j, 3.0,                   # growing
    -25.0 + 120j, -7.5,                 # decaying
])
@pytest.mark.parametrize("panels", [slice(None), slice(17, 41)])
def test_node_phases_match_exp_on_node_times(rate, panels):
    grid = PanelGrid.for_frequency(1.5, 2 * 300.0)
    rates = np.array([rate, 0.5 * rate], dtype=complex)
    got = grid.node_phases(rates, panels)
    exact = np.exp(rates[:, None, None] * grid.node_times()[panels])
    assert got.shape == exact.shape
    for r in range(rates.size):
        bound = abs(rates[r]) * grid.horizon * 8 * np.finfo(float).eps
        assert np.max(np.abs(got[r] - exact[r]) / np.abs(exact[r])) <= bound


def test_break_phases_are_exact_at_a_large_phase():
    # row 8N of the N = 149 case turns through 2.4e5 rad over the horizon,
    # where one ulp of a rounded phase j h omega is 2.9e-11 rad.  The
    # oracle takes the float theta = Im(rate h) exactly, times j, reduced
    # by a 40-digit pi
    pi = Fraction("3.141592653589793238462643383279502884197")
    grid = PanelGrid(math.log(149) ** 2 / 149, 44780)
    omega = 1192.0 ** 2
    rates = 1j * np.array([omega, omega + 0.25j, omega - 1e-3j, 3.0])
    j = np.array([0, 1, 2, 12345, 44779, 44780])
    got = grid.break_phases(rates, j)
    assert got.shape == (rates.size, j.size)
    assert grid.h * omega * j[-1] > 2.3e5
    for r, step in enumerate(rates * grid.h):
        for i, jj in enumerate(j.tolist()):
            x = Fraction(float(step.imag)) * jj
            x -= round(x / (2 * pi)) * 2 * pi
            want = (math.exp(float(step.real) * jj)
                    * complex(math.cos(float(x)), math.sin(float(x))))
            assert abs(got[r, i] - want) <= 1e-15 * abs(want), (r, jj)


def test_break_phases_take_every_index_below_two_to_the_27():
    # j head is exact up to 2^27 - 1, the last index taken, with the same
    # 40-digit reduction as above
    pi = Fraction("3.141592653589793238462643383279502884197")
    grid = PanelGrid(1.0, 1000)
    step = 1j * 0.37 * grid.h
    j = 2**27 - 1
    got = grid.break_phases(np.array([0.37j]), np.array([j]))
    x = Fraction(float(step.imag)) * j
    x -= round(x / (2 * pi)) * 2 * pi
    want = complex(math.cos(float(x)), math.sin(float(x)))
    assert got.shape == (1, 1)
    assert abs(got[0, 0] - want) <= 1e-15


@pytest.mark.parametrize("bad", [2**27, -1])
def test_break_phases_refuse_an_index_outside_the_exact_range(bad):
    grid = PanelGrid(1.0, 10)
    with pytest.raises(ValueError, match=rf"^break index {bad} outside "):
        grid.break_phases(np.array([2.0j]), np.array([0, 5, bad, 3, -2]))


def all_low_factors_break_phases(grid, rate, j):
    """Bitwise oracle of ``PanelGrid.break_phases``: the factors at ``64 a``
    for the a that ``j`` spans, times all 64 factors at ``b < 64`` in one
    table, whichever b ``j`` uses."""
    step = np.asarray(rate)[:, None] * grid.h
    split = step.imag * (2.0**27 + 1.0)
    head = split - (split - step.imag)

    def exact(k):
        phases = np.exp(1j * (head * k))
        phases *= np.exp(step.real * k + 1j * ((step.imag - head) * k))
        return phases

    high, low = np.divmod(j, 64)
    base = high.min(initial=2**21)
    above = exact(64 * np.arange(base, high.max(initial=base) + 1))
    return above[:, high - base] * exact(np.arange(64))[:, low]


# oscillating, growing and decaying rows, at the benchmark's truncation-16
# frequencies and at the headline's fastest
BREAK_RATES = 1j * np.concatenate([np.arange(17.0) ** 2, [1.7e4 - 3.0j,
                                                          5e3 + 0.25j]])
BREAK_INDICES = {"zero": np.array([0]), "0..4": np.arange(5),
                 "0..63": np.arange(64), "0..64": np.arange(65),
                 "0..65": np.arange(66), "100..170": np.arange(100, 171),
                 "0..720": np.arange(721), "63,64": np.array([63, 64]),
                 "unsorted": np.array([130, 7, 66, 7, 0])}


@pytest.mark.parametrize("indices", list(BREAK_INDICES))
@pytest.mark.parametrize("n_panels", [4, 720])
def test_break_phases_match_the_all_low_factors_oracle_bitwise(indices,
                                                                n_panels):
    # tabling only the low factors that the indices use changes no bit:
    # each factor is elementwise in its row and index
    grid = PanelGrid(1.25, n_panels)
    j = BREAK_INDICES[indices]
    with np.errstate(over="ignore", invalid="ignore"):
        got = grid.break_phases(BREAK_RATES, j)
        ref = all_low_factors_break_phases(grid, BREAK_RATES, j)
    assert got.shape == ref.shape == (BREAK_RATES.size, j.size)
    assert got.tobytes() == ref.tobytes()


def test_break_phases_of_no_index_are_an_empty_table():
    got = PanelGrid(1.0, 4).break_phases(BREAK_RATES, np.arange(0))
    assert got.shape == (BREAK_RATES.size, 0) and got.dtype == complex


@pytest.mark.parametrize("panels", [slice(None), slice(5, 30), slice(64, 100)])
@pytest.mark.parametrize("into_out", [False, True])
def test_node_phases_match_the_broadcast_product_oracle_bitwise(panels,
                                                                into_out):
    # the break factors copied into the result and multiplied there in
    # place give the bits of their broadcast product with the offsets'
    grid = PanelGrid(1.25, 100)
    rates = BREAK_RATES[:17]
    j = np.arange(grid.n_panels)[panels]
    ref = np.multiply(
        all_low_factors_break_phases(grid, rates, j)[:, :, None],
        np.exp(rates[:, None] * grid.offsets)[:, None, :])
    if into_out:
        out = np.full(ref.shape, np.nan, dtype=complex)
        got = grid.node_phases(rates, panels, out=out)
        assert got is out
    else:
        got = grid.node_phases(rates, panels)
    assert got.shape == (rates.size, j.size, grid.q)
    assert got.tobytes() == ref.tobytes()


def test_node_phases_write_into_a_strided_out():
    # the normal-form map hands in a block of a wider work array
    grid = PanelGrid(1.0, 33)
    rates = BREAK_RATES[:17]
    work = np.zeros((rates.size, 64 * grid.q), dtype=complex)
    out = work[:, :grid.n_panels * grid.q].reshape(rates.size,
                                                   grid.n_panels, grid.q)
    grid.node_phases(rates, out=out)
    assert np.array_equal(out, grid.node_phases(rates))
    assert not work[:, grid.n_panels * grid.q:].any()


@pytest.mark.parametrize("n_panels", [0, -3])
def test_grid_refuses_fewer_than_one_panel(n_panels):
    with pytest.raises(ValueError, match="at least one panel"):
        PanelGrid(1.0, n_panels)


@pytest.mark.parametrize("horizon", [float("nan"), float("inf"), 0.0, -1.0])
def test_grid_refuses_a_horizon_not_positive_and_finite(horizon):
    with pytest.raises(ValueError, match="horizon must be positive"):
        PanelGrid(horizon, 4)


def test_grid_breaks_are_linspace_computed_once_and_read_only():
    grid = PanelGrid(1.44, 7)
    breaks = grid.breaks
    assert grid.breaks is breaks
    assert not breaks.flags.writeable
    assert np.array_equal(breaks, np.linspace(0.0, 1.44, 8))
    assert breaks[-1] == grid.horizon and grid.scheme is panel_scheme()


def _passing_from(n_pass, attempts, solve):
    """A rung function that solves with ``solve``, then records the rung
    and checks it, passing from ``n_pass`` panels."""
    def rung(grid):
        solution = solve(grid)
        attempts.append((grid.n_panels, solution))
        if grid.n_panels < n_pass:
            raise QuadratureError(f"{grid.n_panels} panels too coarse",
                                  worst_mode=grid.n_panels, tail=1.0)
        return solution
    return rung


def test_solve_on_ladder_returns_the_first_rung_that_passes():
    attempts = []
    solution = solve_on_ladder(
        PanelGrid(1.0, 1), 8, 1e-10,
        _passing_from(4, attempts, lambda g: -g.n_panels), attempts)
    assert solution == -4
    assert attempts == [(1, -1), (4, -4)]


def test_solve_on_ladder_raises_the_last_rungs_error_with_the_record():
    attempts = []
    with pytest.raises(QuadratureError, match="^8 panels too coarse") as info:
        solve_on_ladder(PanelGrid(1.0, 1), 8, 1e-10,
                        _passing_from(100, attempts, lambda g: g.n_panels),
                        attempts)
    assert info.value.worst_mode == 8
    assert info.value.grid_attempts is attempts
    assert [n for n, _ in attempts] == [1, 4, 8]


def test_solve_on_ladder_stops_at_the_node_budget_before_solving(monkeypatch):
    # 3 rows x 4 panels x 24 nodes = 288 node values pass a budget of 200;
    # the first rung's tail of 1 makes the rung after it 4 panels
    monkeypatch.setattr(quadrature, "NODE_BUDGET", 200)
    attempts, solved = [], []
    with pytest.raises(QuadratureError) as info:
        solve_on_ladder(PanelGrid(1.0, 1), 8, 1e-10,
                        _passing_from(100, attempts,
                                      lambda g: solved.append(g.n_panels)),
                        attempts, rows=3)
    err = info.value
    assert solved == [1]               # neither 4 nor 8 panels is solved
    assert str(err).startswith("4 panels need 288 node values")
    assert "1 panels too coarse" in str(err)
    assert (err.worst_mode, err.tail) == (1, 1.0)
    assert err.grid_attempts is attempts


def test_solve_on_ladder_ends_the_climb_at_a_rung_out_of_memory():
    # a rung that cannot be allocated names its panel count, and no larger
    # rung is tried
    attempts, solved = [], []

    def solve(grid):
        solved.append(grid.n_panels)
        if grid.n_panels == 4:
            raise MemoryError("Unable to allocate 1. TiB")
        return grid.n_panels

    with pytest.raises(QuadratureError) as info:
        solve_on_ladder(PanelGrid(1.0, 1), 8, 1e-10,
                        _passing_from(100, attempts, solve), attempts)
    err = info.value
    assert solved == [1, 4]
    assert str(err) == ("4 panels: out of memory: Unable to allocate 1. TiB; "
                        "the rung before failed: 1 panels too coarse")
    assert err.grid_attempts is attempts


@settings(max_examples=60, deadline=None)
@given(n_panels=st.integers(1, 300),
       horizon=st.floats(1e-3, 1e3, allow_nan=False),
       at_breaks=st.lists(st.integers(0, 300), max_size=12),
       inside=st.lists(st.floats(0.0, 1.0), max_size=12))
def test_locate_array_matches_each_scalar(n_panels, horizon, at_breaks,
                                          inside):
    # breaks, both endpoints (the right one also just past it, within the
    # accepted round-off) and interior times: the array result equals the
    # scalar one element by element, bit for bit
    grid = PanelGrid(horizon, n_panels)
    breaks = grid.breaks
    ts = np.concatenate([[0.0, horizon, horizon * (1 + 1e-13)],
                         breaks[np.array(at_breaks, dtype=int) % breaks.size],
                         horizon * np.array(inside)])
    ps, xs = grid.locate(ts)
    assert ps.shape == xs.shape == ts.shape
    for t, p, x in zip(ts, ps, xs):
        q, y = grid.locate(float(t))
        assert type(q) is int and type(y) is float
        assert p == q
        assert np.float64(x).tobytes() == np.float64(y).tobytes()
    assert grid.locate(0.0) == (0, -1.0)
    assert grid.locate(horizon) == (n_panels - 1, 1.0)


def test_locate_maps_node_times_to_the_scheme_nodes_with_the_one_width():
    # the N = 149 case's 44,780 panels: the rounded width b - a moved x by
    # up to 1.45e-11 at the node times; the one width h moves it by less
    # than 1e-11
    grid = PanelGrid(math.log(149) ** 2 / 149, 44780)
    times = grid.node_times()
    ps, xs = grid.locate(times.ravel())
    assert np.array_equal(ps, np.repeat(np.arange(grid.n_panels), grid.q))
    assert np.max(np.abs(xs.reshape(times.shape) - grid.scheme.nodes)) <= 1e-11


def test_locate_rejects_times_outside_and_names_them():
    grid = PanelGrid.for_frequency(2.0, 100.0)
    with pytest.raises(ValueError, match="time -0.5 outside"):
        grid.locate(-0.5)
    with pytest.raises(ValueError, match="time 2.5 outside"):
        grid.locate(np.array([1.0, 2.5, -1.0]))


def test_march_pure_oscillation():
    # u' = i w u, closed form e^{iwt}
    grid = PanelGrid.for_frequency(1.5, 2 * 40.0)
    omega = np.array([40.0, -7.0], dtype=complex)
    forcing = np.zeros((2, grid.n_panels, grid.q), dtype=complex)
    init = np.array([1.0, 2.0j])
    vals = oscillatory_march(grid, omega, forcing, init)
    times = grid.node_times()
    for r in range(2):
        exact = init[r] * np.exp(1j * omega[r] * times)
        assert np.max(np.abs(vals[r] - exact)) < 1e-12


def test_march_forced_mode_against_closed_form():
    # u' = i w u + e^{i b t}: u = e^{iwt} u0 + (e^{ibt} - e^{iwt})/(i(b-w))
    w, bfreq = 30.0, 11.0
    grid = PanelGrid.for_frequency(2.0, 2 * max(w, bfreq))
    times = grid.node_times()
    forcing = np.exp(1j * bfreq * times)[None, :, :].astype(complex)
    init = np.array([0.5 + 0.0j])
    vals = oscillatory_march(grid, np.array([w], dtype=complex), forcing, init)
    exact = (init[0] * np.exp(1j * w * times)
             + (np.exp(1j * bfreq * times) - np.exp(1j * w * times))
             / (1j * (bfreq - w)))
    assert np.max(np.abs(vals[0] - exact)) < 1e-12


def test_march_growing_mode_and_overflow_guard():
    # Im omega < 0 grows as e^{|Im| t}
    grid = PanelGrid.for_frequency(1.0, 10.0)
    omega = np.array([1.0 - 5.0j])
    forcing = np.zeros((1, grid.n_panels, grid.q), dtype=complex)
    vals = oscillatory_march(grid, omega, forcing, np.array([1.0 + 0j]))
    t_last = grid.node_times()[-1, -1]
    assert abs(vals[0, -1, -1]) == pytest.approx(np.exp(5.0 * t_last), rel=1e-12)
    with pytest.raises(OverflowGuardError):
        oscillatory_march(grid, np.array([-500.0j]), forcing,
                          np.array([1.0 + 0j]))


def test_guard_names_a_carry_that_is_not_a_number():
    # a NaN fails ``> OVERFLOW_GUARD``; the guard asks ``<=`` instead
    grid = PanelGrid(1.0, 8)
    forcing = np.zeros((2, grid.n_panels, grid.q), dtype=complex)
    forcing[1, 5, 3] = np.nan
    with pytest.raises(OverflowGuardError,
                       match=r"^mode magnitude is not a number at t=0\.75 "
                       r"\(mode row 1\)") as info:
        oscillatory_march(grid, np.array([1.0, 2.0]), forcing,
                          np.array([1.0, 0.0], dtype=complex))
    assert info.value.time == grid.breaks[6]
    assert info.value.breach == "is not a number"


@pytest.mark.parametrize("omega", [
    [40.0, -7.0, 0.0],                      # real
    [12.0 - 3.0j, -5.0 - 1.5j, 2.0 - 6.0j],  # growing, Im omega < 0
    [12.0 + 3.0j, -5.0 + 1.5j, 2.0 + 6.0j],  # decaying, Im omega > 0
])
def test_march_matches_scalar_reference(omega):
    rng = np.random.default_rng(11)
    omega = np.array(omega, dtype=complex)
    grid = PanelGrid.for_frequency(1.5, 2 * 40.0)
    times = grid.node_times()
    forcing = np.stack([
        (0.3 + 0.1j) * np.exp(1j * b * times) + 0.2 * np.cos(times)
        for b in rng.uniform(-20.0, 20.0, size=omega.size)])
    init = np.array([1.0, 2.0j, -0.5 + 0.5j])
    ref = reference_march(grid, omega, forcing, init)
    got = oscillatory_march(grid, omega, forcing, init)
    for r in range(omega.size):
        assert np.max(np.abs(got[r] - ref[r])) <= 1e-13 * np.max(np.abs(ref[r]))


@pytest.mark.parametrize("omega", [
    [40.0, -7.0, 0.0, 150.0],                         # real
    [12.0 - 3.0j, -5.0 - 1.5j, 2.0 - 6.0j, 90.0 - 0.5j],  # growing
    [12.0 + 3.0j, -5.0 + 1.5j, 2.0 + 6.0j, 90.0 + 0.5j],  # decaying
])
def test_march_matches_dividing_oracle(omega):
    # the slow factor as a product with the conjugate phase, the uniform
    # half-width and the carry and phase inside one (q + 1, q) matrix give
    # the dividing march's values to round-off, row by row
    rng = np.random.default_rng(23)
    omega = np.array(omega, dtype=complex)
    grid = PanelGrid.for_frequency(1.44, 2 * 150.0)
    times = grid.node_times()
    forcing = np.stack([
        (0.3 + 0.1j) * np.exp(1j * b * times) + 0.2 * np.cos(times)
        for b in rng.uniform(-60.0, 60.0, size=omega.size)])
    init = np.array([1.0, 2.0j, -0.5 + 0.5j, 0.0])
    ref = dividing_march(grid, omega, forcing, init)
    got = oscillatory_march(grid, omega, forcing, init)
    for r in range(omega.size):
        assert np.max(np.abs(got[r] - ref[r])) <= 1e-14 * np.max(np.abs(ref[r]))


@pytest.mark.parametrize("omega", [
    [40.0, -7.0, 0.0, 150.0],                         # real
    [12.0 - 3.0j, -5.0 - 1.5j, 2.0 - 6.0j, 90.0 - 0.5j],  # growing
    [12.0 + 3.0j, -5.0 + 1.5j, 2.0 + 6.0j, 90.0 + 0.5j],  # decaying
])
def test_weighted_march_matches_the_dividing_oracle_of_the_weighted_forcing(
        omega):
    # the weight w folded into the march's tables gives the march of the
    # forcing w F to round-off, row by row
    rng = np.random.default_rng(29)
    omega = np.array(omega, dtype=complex)
    grid = PanelGrid.for_frequency(1.44, 2 * 150.0)
    times = grid.node_times()
    forcing = np.stack([
        (0.3 + 0.1j) * np.exp(1j * b * times) + 0.2 * np.cos(times)
        for b in rng.uniform(-60.0, 60.0, size=omega.size)])
    weight = np.array([2.0j * 16 * 0.7, -3.5 + 0.25j, 1e-3, 40.0])
    init = np.array([1.0, 2.0j, -0.5 + 0.5j, 0.0])
    ref = dividing_march(grid, omega, weight[:, None, None] * forcing, init)
    got = OscillatoryMarch(grid, omega, weight).apply(forcing, init)
    for r in range(omega.size):
        assert np.max(np.abs(got[r] - ref[r])) <= 1e-14 * np.max(np.abs(ref[r]))


def test_march_writes_into_out():
    grid = PanelGrid.for_frequency(1.0, 40.0)
    omega = np.array([7.0 - 0.3j, -3.0])
    forcing = np.stack([np.cos(2.0 * grid.node_times())] * 2).astype(complex)
    init = np.array([1.0, 0.5j])
    out = np.full_like(forcing, np.nan)
    assert oscillatory_march(grid, omega, forcing, init, out=out) is out
    assert np.array_equal(out, oscillatory_march(grid, omega, forcing, init))


@pytest.mark.parametrize("omega", [300.0 - 0.5j, 300.0 + 0.5j])
def test_march_modulus_accuracy(omega):
    # integrating factors e^{i omega j h} taken directly keep |u| at
    # e^{-Im(omega) t} to round-off over 1500 panels; a product of 1500
    # rounded panel steps drifts by 1e-13.  One panel phase table for every
    # panel keeps the Chebyshev tails at round-off too (per-panel phases
    # read 3.3e-13)
    grid = PanelGrid.for_frequency(20.0, 600.0)
    assert grid.n_panels == 1500
    forcing = np.zeros((1, grid.n_panels, grid.q), dtype=complex)
    vals = oscillatory_march(grid, np.array([omega]), forcing,
                             np.array([1.0 + 0j]))
    exact = np.exp(-omega.imag * grid.node_times())
    assert np.max(np.abs(np.abs(vals[0]) - exact) / exact) <= 1e-14
    assert tail_ratio(vals, grid.scheme)[0] <= 1e-15


def test_guard_names_first_crossing_inside_a_block():
    # row 1 sets the block length (52 panels of h = 0.08).  Row 0 reaches
    # 1.5e100 at panel end 51, where row 1 is at 0.8e100; at the block's
    # last end row 1 is the larger, but row 0 passed the guard first
    grid = PanelGrid.for_frequency(6.0, 100.0)
    omega = np.array([3.0 - 40.0j, -2.0 - 55.0j, 1.0])
    times = grid.node_times()
    forcing = np.stack([0.1 * np.cos(3.0 * times)] * 3).astype(complex)
    t51 = grid.breaks[51]
    init = np.array([1.5e100 * np.exp(-40.0 * t51),
                     0.8e100 * np.exp(-55.0 * t51), 1.0], dtype=complex)
    with pytest.raises(OverflowGuardError, match=r"\(mode row 0\)") as ref:
        reference_march(grid, omega, forcing, init)
    block = int(np.log(OVERFLOW_GUARD) // (55.0 * grid.h))
    p_ref = int(np.searchsorted(grid.breaks, ref.value.time))
    assert block < grid.n_panels and p_ref % block != 0
    with pytest.raises(OverflowGuardError, match=r"\(mode row 0\)") as got:
        oscillatory_march(grid, omega, forcing, init)
    assert got.value.time == ref.value.time


def test_march_strong_decay_in_blocks():
    # Im(omega) h ~ 4 per panel: whole-grid factors 1/E would overflow, so
    # the march runs in blocks shorter than the grid
    grid = PanelGrid.for_frequency(5.0, 4001.0)
    assert grid.n_panels == 2501
    omega = np.array([1.0 + 2000.0j, 3.0])
    times = grid.node_times()
    forcing = np.stack([(0.5 + 0.2j) * np.exp(7.0j * times),
                        np.cos(2.0 * times)]).astype(complex)
    init = np.array([1.0 + 1.0j, -0.5 + 0j])
    got = oscillatory_march(grid, omega, forcing, init)
    ref = reference_march(grid, omega, forcing, init)
    assert np.all(np.isfinite(got))
    for r in range(omega.size):
        assert np.max(np.abs(got[r] - ref[r])) <= 1e-13 * np.max(np.abs(ref[r]))


def one_shot_march(grid, omega, forcing, init, weight=None):
    """Bitwise oracle of ``OscillatoryMarch.apply``: the march as one call
    that builds its own phase tables, panel-end rows and lift matrices for
    the rows it is given, with the weight ``weight`` (ones when None) and
    the half-width folded into the slow phase, ``sw = w (h/2) e^{-i omega
    (t-a)}``, and the forcing copied into a fresh ``[F | carry]`` array."""
    sch = grid.scheme
    rows, n, q = omega.size, grid.n_panels, grid.q
    h = grid.horizon / n
    phase = 1j * omega[:, None] * grid.offsets
    w = np.ones(rows) if weight is None else weight
    sw = np.exp(-phase) * (0.5 * h * w)[:, None]
    slow = np.empty((rows, n, q + 1), dtype=complex)
    slow[:, :, :q] = forcing
    Jend = np.matmul(forcing, (sw * sch.antideriv_end)[:, :, None])[:, :, 0]
    growth = float(np.max(np.abs(omega.imag), initial=0.0) * h)
    block = n if growth == 0.0 else int(
        min(n, max(1, np.log(OVERFLOW_GUARD) // growth)))
    carry = slow[:, :, q]
    c = np.array(init, dtype=complex)
    for s in range(0, n, block):
        e = min(s + block, n)
        E = grid.break_phases(1j * omega, np.arange(e - s + 1))
        ends = np.cumsum(Jend[:, s:e] / E[:, :-1], axis=1)
        ends += c[:, None]
        ends *= E[:, 1:]
        if not np.all(np.abs(ends) <= OVERFLOW_GUARD):
            raise OverflowGuardError("past the guard")
        carry[:, s] = c
        carry[:, s + 1:e] = ends[:, :-1]
        c = ends[:, -1]
    ph = np.exp(phase)
    lift = np.empty((rows, q + 1, q), dtype=complex)
    np.multiply(sw[:, :, None] * sch.antideriv_nodes.T, ph[:, None, :],
                out=lift[:, :q])
    lift[:, q] = ph
    return np.matmul(slow, lift)


def recorded_applications(monkeypatch):
    """Every ``OscillatoryMarch.apply`` from here on, as (grid, omega of
    the rows marched, forcing, init, their weights, result), copied when it
    returns."""
    calls = []
    apply = OscillatoryMarch.apply

    def spy(self, forcing, init, rows=slice(None), out=None):
        got = apply(self, forcing, init, rows, out)
        calls.append((self.grid, self.omega[rows].copy(), forcing.copy(),
                      np.array(init), self.weight[rows].copy(), got.copy()))
        return got

    monkeypatch.setattr(OscillatoryMarch, "apply", spy)
    return calls


def assert_one_shot_bits(calls):
    assert calls
    for grid, omega, forcing, init, weight, got in calls:
        want = one_shot_march(grid, omega, forcing, init, weight)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_headline_rung_marches_row_by_row_with_the_one_shot_bits(
        monkeypatch):
    # one setup for the rung's nine rows, applied to one row at a time
    phi, spec = build_inflation_data(16, 2.5, 1, 128), \
        EquationSpec.pure_power(1, 2.0)
    T = inflation_time(16, 2.5, 0.5, 1)
    grid = PanelGrid(T, 889)

    def climb_twice(first, top, tol, solve, attempts, rows=None):
        # the grid with no rung before it is refused, then accepted
        with pytest.raises(QuadratureError, match=(
                r"no resolved coarser rung to compare it with \(0 coarser "
                r"rungs failed their tails; tail")):
            solve(grid)
        return solve(grid)

    monkeypatch.setattr(cascade, "solve_on_ladder", climb_twice)
    calls = recorded_applications(monkeypatch)
    cascade_integrate(phi, spec, T)
    assert len(calls) == 2 * 8
    assert all(omega.size == 1 for _, omega, *_ in calls)
    assert_one_shot_bits(calls)


def test_a_row_marched_again_into_out_allocates_no_node_array():
    # the [F | carry] buffer is the setup's, made on the first apply: the
    # second march of one row of the headline's 720-panel rung, written
    # into ``out``, allocates less than one node array of its row (276 KB)
    phi = build_inflation_data(16, 2.5, 1, 128)
    spec = EquationSpec.pure_power(1, 2.0)
    support = np.arange(0, 129, 16)
    omega = (dispersion_symbol(spec, support)
             + support * spec.self_coupling(phi.coeffs[0])).astype(complex)
    grid = PanelGrid(inflation_time(16, 2.5, 0.5, 1), 720)
    march = OscillatoryMarch(grid, omega, 1j * support)
    forcing = np.cos(3.0 * grid.node_times())[None].astype(complex)
    out = np.empty_like(forcing)
    init = np.array([0.25 + 0.5j])
    march.apply(forcing, init, slice(4, 5), out=out)
    tracemalloc.start()
    try:
        march.apply(forcing, init, slice(4, 5), out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert np.array_equal(out, march.apply(forcing, init, slice(4, 5)))


def test_growing_rows_march_in_blocks_with_the_one_shot_bits():
    # the block length is that of the rows marched: row 0 alone takes the
    # whole grid in one block; the growing row 1 takes two, and the fast
    # decaying row 2, alone or with others, takes blocks of 57 panels
    rng = np.random.default_rng(5)
    grid = PanelGrid.for_frequency(5.0, 4001.0)
    omega = np.array([3.0, 1.0 - 60.0j, 2.0 + 2000.0j, -7.0])
    blocks = [-(-grid.n_panels // int(min(grid.n_panels, np.log(
        OVERFLOW_GUARD) // (abs(w.imag) * 5.0 / grid.n_panels))))
        if w.imag else 1 for w in omega]
    assert blocks == [1, 2, 44, 1]
    times = grid.node_times()
    forcing = np.stack([(0.5 + 0.2j) * np.exp(1j * b * times)
                        for b in rng.uniform(-9.0, 9.0, omega.size)])
    # row 1 grows by e^300 over the horizon: small enough to stay finite
    forcing[1] *= 1e-150
    init = np.array([1.0 + 1.0j, -0.5e-150, 0.25j, 2.0])
    march = OscillatoryMarch(grid, omega)
    for rows in (slice(0, 1), slice(1, 2), slice(2, 3), slice(1, 3),
                 slice(None)):
        got = march.apply(forcing[rows], init[rows], rows)
        want = one_shot_march(grid, omega[rows], forcing[rows], init[rows])
        assert np.all(np.isfinite(got))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("rows", [1, 17])
def test_march_setup_builds_its_lift_with_the_broadcast_product_bits(rows):
    # the lift is multiplied in place in its own array, in the order of
    # the (rows, q, q) product it replaces
    grid = PanelGrid(1.0, 39)
    omega = np.arange(rows, dtype=float) ** 2 + 0.5j * np.arange(rows)
    weight = 1j * np.arange(rows)
    march = OscillatoryMarch(grid, omega, weight)
    phase = 1j * omega[:, None] * grid.offsets
    sw = np.exp(-phase) * (0.5 * grid.h * weight)[:, None]
    ph = np.exp(phase)
    want = np.multiply(sw[:, :, None] * grid.scheme.antideriv_nodes.T,
                       ph[:, None, :])
    assert march.lift.shape == (rows, grid.q + 1, grid.q)
    assert march.lift[:, :grid.q].tobytes() == want.tobytes()
    assert march.lift[:, grid.q].tobytes() == ph.tobytes()


def test_gauge_marches_every_row_with_the_one_shot_bits(monkeypatch):
    # the gauge applies one setup per rung to all rows, twice an iteration
    phi = SpectralState.from_modes({1: 0.03, 2: 0.02j}, 8)
    calls = recorded_applications(monkeypatch)
    *_, log = gauge_picard_solve(phi, compatible_gauge_data(phi, 1), 1, 1.0)
    # the failed rungs' iterations are not in the log
    assert len(calls) % 2 == 0 and len(calls) >= 2 * len(log.iterations)
    assert all(omega.size == 9 for _, omega, *_ in calls)
    assert_one_shot_bits(calls)
