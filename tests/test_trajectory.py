"""Trajectory container: dense output, samples, norms, serialization."""

import io
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval, chebvander

from halfline_dnls import (EquationSpec, PanelGrid, SpectralState, Trajectory,
                           cascade_integrate, picard_solve, sobolev_norm,
                           trajectory)
from halfline_dnls.inflation import build_inflation_data, inflation_time
from halfline_dnls.trajectory import sup_sobolev_diff


@pytest.fixture(scope="module")
def traj():
    phi = SpectralState.from_modes({0: 0.2, 1: 0.1, 3: 0.05j}, 8)
    return cascade_integrate(phi, EquationSpec.pure_power(1, 2.0), 1.0)


@pytest.mark.parametrize("modes", [[3, 1], [1, 1], [1, 9], [-1, 1]])
def test_modes_out_of_order_or_range_are_refused(traj, modes):
    # dense output indexes rows by mode, so such a list would lose or
    # misplace rows without an error ([3, 1] read all zeros)
    values = np.ones((2, traj.n_panels, traj.grid.q), dtype=complex)
    with pytest.raises(ValueError, match=rf"modes \[{modes[0]}, {modes[1]}\]"):
        Trajectory(spec=traj.spec, grid=traj.grid, modes=np.array(modes),
                   values=values, quadrature_tolerance=1e-10,
                   initial_state=traj.initial_state)


def test_truncation_is_the_initial_states(traj):
    # a field of its own could disagree with the data: a replace() that set
    # it to 8 on a truncation-16 solve failed later in weak_residual
    assert traj.truncation == traj.initial_state.truncation == 8
    with pytest.raises(TypeError):
        replace(traj, truncation=4)


def test_dense_output_matches_nodes(traj):
    # evaluating the interpolant at a node reproduces the stored value
    p = traj.n_panels // 2
    times = traj.grid.node_times()[p]
    for i in (0, traj.grid.q - 1):
        dense = traj.coeffs_at(times[i])
        assert np.max(np.abs(dense[traj.modes] - traj.values[:, p, i])) < 1e-11


def test_dense_output_continuous_across_breaks(traj):
    t = traj.grid.breaks[traj.n_panels // 3]
    left = traj.coeffs_at(t * (1 - 1e-13))
    right = traj.coeffs_at(t * (1 + 1e-13))
    assert np.max(np.abs(left - right)) < 1e-10


def coeffs_at_oracle(traj, t):
    # the coefficient path: the panel's Chebyshev coefficients, then chebval
    p, x = traj.grid.locate(t)
    coeffs = traj.values[:, p, :] @ traj.grid.scheme.coeff_map.T
    dense = np.zeros(traj.truncation + 1, dtype=complex)
    dense[traj.modes] = [chebval(x, c) for c in coeffs]
    return dense


def test_dense_output_matches_coefficient_oracle(traj):
    ts = np.concatenate([np.linspace(0.0, traj.horizon, 37),
                         traj.grid.breaks[1:-1:7]])
    ref = np.stack([coeffs_at_oracle(traj, t) for t in ts], axis=1)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(traj.dense_at(ts) - ref)) <= 1e-14 * scale
    for n in traj.modes:
        got = traj.mode_values(int(n), ts)
        assert np.max(np.abs(got - ref[n])) <= 1e-14 * scale


def test_resampled_holds_the_same_interpolants(traj):
    # on the doubled grid the stored nodes are the old interpolants' values
    fine = traj.resampled(traj.grid.refined())
    assert fine.n_panels == 2 * traj.n_panels
    assert np.array_equal(fine.modes, traj.modes)
    ts = np.linspace(0.0, traj.horizon, 101)
    scale = np.max(np.abs(traj.values))
    assert np.max(np.abs(fine.dense_at(ts) - traj.dense_at(ts))) \
        <= 1e-14 * scale
    with pytest.raises(ValueError, match="horizon"):
        traj.resampled(PanelGrid(0.5, 4))


def mode_values_oracle(traj, n, ts):
    # one time at a time: locate, then one Chebyshev row through chebvander
    r = int(np.searchsorted(traj.modes, n))
    out = []
    for t in ts:
        p, x = traj.grid.locate(float(t))
        row = chebvander(np.array([x]), traj.grid.q - 1)[0]
        out.append(traj.values[r, p] @ (row @ traj.grid.scheme.coeff_map))
    return np.array(out)


def test_mode_values_match_per_time_oracle(traj):
    # breaks, their neighbours and both endpoints, in no particular order
    breaks = traj.grid.breaks
    ts = np.concatenate([breaks[::5], breaks[1:-1:9] * (1 + 1e-13),
                         breaks[1:-1:11] * (1 - 1e-13),
                         np.random.default_rng(3).uniform(0.0, traj.horizon, 40)])
    for n in traj.modes:
        ref = mode_values_oracle(traj, int(n), ts)
        got = traj.mode_values(int(n), ts)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_batched_values_equal_one_time_values_bitwise(traj):
    # a time gives the same bits alone as in a batch of times, on every
    # output path that evaluates the same modes
    ts = np.concatenate([traj.grid.breaks[::3],
                         np.random.default_rng(4).uniform(0.0, traj.horizon,
                                                          25)])
    batch = traj.dense_at(ts)
    modes = traj.mode_values(traj.modes, ts)
    assert modes.shape == (traj.modes.size, ts.size)
    for i, t in enumerate(ts):
        alone = traj.coeffs_at(t)
        assert np.array_equal(batch[:, i], alone)
        assert np.array_equal(modes[:, i], alone[traj.modes])
    for state, t in zip(traj.samples, traj.sample_times):
        assert np.array_equal(state.coeffs, traj.coeffs_at(t))


def recurrence_values(traj, ns, ts):
    """Oracle of ``Trajectory._evaluate``: the Chebyshev rows by the
    three-term recurrence ``T_j = 2 x T_{j-1} - T_{j-2}``, written out."""
    p, x = traj.grid.locate(np.asarray(ts, dtype=float))
    tx = [np.ones_like(x), x]
    for _ in range(2, traj.grid.q):
        tx.append(2.0 * x * tx[-1] - tx[-2])
    cheb = np.array(tx).T[:, None, :] @ traj.grid.scheme.coeff_map
    rows = traj.values[np.searchsorted(traj.modes, ns)[None, :], p[:, None]]
    return np.ascontiguousarray((rows * cheb).sum(axis=-1).T)


def test_dense_values_match_the_recurrence_oracle_bitwise(traj):
    breaks = traj.grid.breaks
    ts = np.concatenate([breaks[::4], breaks[1:-1:7] * (1 + 1e-13),
                         np.random.default_rng(6).uniform(0.0, traj.horizon,
                                                          30)])
    got = np.ascontiguousarray(traj.mode_values(traj.modes, ts))
    ref = recurrence_values(traj, traj.modes, ts)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    for t in ts[:5]:
        alone = traj.mode_values(traj.modes, [t])
        assert np.array_equal(alone, recurrence_values(traj, traj.modes, [t]))


@pytest.mark.parametrize("rows", [slice(None), slice(1, None), slice(4, 5)])
def test_dense_blocks_match_the_recurrence_oracle_bitwise(traj, rows):
    # times go through dense output in blocks of DENSE_BLOCK_BYTES: one
    # time, a block less one, a block, and a block plus one give the bits
    # of the one-shot oracle
    modes = traj.modes[rows]
    block = trajectory.DENSE_BLOCK_BYTES // (modes.size * traj.grid.q * 16)
    rng = np.random.default_rng(block)
    for count in (1, block - 1, block, block + 1):
        ts = rng.uniform(0.0, traj.horizon, count)
        got = traj.mode_values(modes, ts)
        ref = recurrence_values(traj, modes, ts)
        assert got.tobytes() == ref.tobytes()


def test_dense_output_allocates_little_beyond_its_output():
    # 17 modes at 201 times of the normal form's 33-panel solve: the output
    # is 55 KB.  A call reuses one array of at most DENSE_BLOCK_BYTES (96
    # KiB) for every block of times, besides the Chebyshev rows and panel
    # indices of all times, a copy of the output and numpy's ufunc buffer
    # for the broadcast multiply: 274 KB beyond the output with numpy 2.4,
    # against 1.1 MB with 512 KiB blocks gathered afresh
    phi = SpectralState.from_modes({1: 0.045, 2: 0.045j}, 16)
    traj, _ = picard_solve(phi, EquationSpec.pure_power(1, 3.0), 1.0)
    assert traj.n_panels == 33
    ts = np.linspace(0.0, 1.0, 201)
    tracemalloc.start()
    try:
        values = traj.mode_values(traj.modes, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.nbytes == 54_672
    assert peak < values.nbytes + 320 * 1024


def test_resampled_on_a_doubled_headline_grid_keeps_temporaries_small():
    # 9 rows at 34,560 node times: the values alone are 5.0 MB, and the
    # Chebyshev rows of all times 6.6 MB (twice, while they are made); one
    # (times, rows, q) complex array of the whole grid would be 119 MB
    phi = build_inflation_data(16, 2.5, 1, 128)
    head = cascade_integrate(phi, EquationSpec.pure_power(1, 2.0),
                             inflation_time(16, 2.5, 0.5, 1))
    grid = head.grid.refined()
    assert (head.modes.size, grid.n_panels) == (9, 1440)
    tracemalloc.start()
    try:
        fine = head.resampled(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    # the values are the interpolants at the nodes, whatever their block
    panels = slice(None, None, 97)
    assert fine.values[:, panels].reshape(9, -1).tobytes() == head.mode_values(
        head.modes, grid.node_times()[panels].reshape(-1)).tobytes()


def test_mode_values_reject_times_outside_horizon(traj):
    with pytest.raises(ValueError, match="outside"):
        traj.mode_values(1, [0.5, -1e-3])
    with pytest.raises(ValueError, match="outside"):
        traj.mode_values(1, np.array([traj.horizon * 1.01, 0.2]))


def test_sample_times_cover_endpoints(traj):
    ts = traj.sample_times
    assert ts[0] == 0.0
    assert ts[-1] == traj.horizon
    assert ts.size <= 258


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10**5))
@example(256)
@example(257)
@example(513)
@example(10**5)
def test_sample_times_at_most_257_with_endpoints(n_panels):
    # only the grid matters: a trajectory with no tracked modes
    grid = PanelGrid(2.0, n_panels)
    empty = Trajectory(spec=EquationSpec.pure_power(1, 2.0), grid=grid,
                       modes=np.zeros(0, dtype=int),
                       values=np.zeros((0, n_panels, grid.q), dtype=complex),
                       quadrature_tolerance=1e-10,
                       initial_state=SpectralState(np.zeros(2)))
    ts = empty.sample_times
    assert ts.size <= 257
    assert ts[0] == 0.0 and ts[-1] == 2.0
    assert np.all(np.diff(ts) > 0)


def test_one_mode_gives_the_bits_of_all_modes():
    # a 13-mode cascade: evaluating one mode or every mode at once runs the
    # same arithmetic, so the two dense-output paths agree bit for bit
    phi = SpectralState.from_modes({0: 0.2, 1: 0.1, 2: 0.03j, 5: 0.02}, 12)
    traj13 = cascade_integrate(phi, EquationSpec.pure_power(1, 2.0), 0.75)
    assert traj13.modes.size == 13
    breaks = traj13.grid.breaks
    ts = np.concatenate([breaks[::3], breaks[1:-1:5] * (1 + 1e-13),
                         np.random.default_rng(5).uniform(0.0, 0.75, 30)])
    dense = traj13.dense_at(ts)
    for n in range(traj13.truncation + 1):
        assert np.array_equal(traj13.mode_values(n, ts), dense[n])


def test_state_at_endpoints(traj):
    s0 = traj.state_at(0.0)
    assert np.max(np.abs(s0.coeffs - traj.initial_state.coeffs)) < 1e-12
    assert traj.state_at(traj.horizon).time == traj.horizon


def test_sup_norm_vs_samples(traj):
    sup = traj.sup_sobolev_norm(1.0)
    sampled = max(sobolev_norm(s, 1.0) for s in traj.samples)
    assert sampled <= sup * (1 + 1e-12)
    assert sup <= sampled * 1.5


def test_mode_values_outside_support_are_zero():
    phi = SpectralState.from_modes({0: 0.2, 4: 0.1}, 8)
    sparse = cascade_integrate(phi, EquationSpec.pure_power(1, 2.0), 0.5)
    assert sorted(sparse.modes) == [0, 4, 8]
    assert np.all(sparse.mode_values(5, [0.1, 0.5]) == 0)
    assert np.all(sparse.coeffs_at(0.3)[[1, 2, 3, 5, 6, 7]] == 0)


def test_json_shape(traj):
    doc = json.loads(json.dumps(traj.to_dict()))
    assert doc["truncation"] == 8
    assert doc["tracked_modes"] == [0, 1, 2, 3, 4, 5, 6, 7, 8]
    first = doc["samples"][0]
    assert set(first) == {"time", "coeffs"}
    assert len(first["coeffs"]) == 9


def test_csv_output(traj):
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,n,abs,arg"
    assert len(lines) == 1 + len(traj.sample_times) * traj.modes.size
    # plain numbers under every numpy, never reprs like np.float64(0.1)
    for line in lines[1:]:
        t, n, a, arg = line.split(",")
        float(t), int(n), float(a), float(arg)


def sup_sobolev_diff_oracle(a, b, s=1.0):
    # whole-tensor einsum of the weighted squared moduli
    n = np.arange(a.shape[0], dtype=float)
    sq = np.einsum("m,m...->...", (1.0 + n * n) ** s, np.abs(a - b) ** 2)
    return float(np.sqrt(np.max(sq)))


@pytest.mark.parametrize("shape", [(9,), (9, 5), (17, 33, 24)])
@pytest.mark.parametrize("s", [0.0, 1.0, 2.5])
def test_sup_sobolev_diff_matches_einsum_oracle(shape, s):
    rng = np.random.default_rng(len(shape))
    a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(2))
    b[3] = a[3]
    ref = sup_sobolev_diff_oracle(a, b, s)
    assert sup_sobolev_diff(a, b, s) == pytest.approx(ref, rel=1e-14)
    assert sup_sobolev_diff(a, a, s) == 0.0


def per_mode_sup_sobolev_diff(a, b, s=1.0):
    """Bitwise oracle of ``sup_sobolev_diff``: one mode at a time, each
    weighted square added to a running sum from mode 0."""
    n = np.arange(a.shape[0], dtype=float)
    w = (1.0 + n * n) ** float(s)
    sq = np.zeros(a.shape[1:])
    for m in range(a.shape[0]):
        d = a[m] - b[m]
        sq += w[m] * (d.real * d.real + d.imag * d.imag)
    return float(np.sqrt(np.max(sq)))


# blocks of 8 modes for a (32, 24) panel block of node values
@pytest.mark.parametrize("modes", [1, 7, 8, 9, 17])
@pytest.mark.parametrize("entries", ["finite", "inf", "nan", "inf_minus_inf"])
def test_sup_sobolev_diff_in_blocks_matches_the_per_mode_oracle_bitwise(
        modes, entries):
    shape = (modes, 1, 32, 24)
    assert trajectory.DENSE_BLOCK_BYTES // (16 * 32 * 24) == 8
    rng = np.random.default_rng(modes)
    a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(2))
    a *= np.logspace(0, -12, modes)[:, None, None, None]
    if entries == "inf":
        a[modes - 1, 0, 3, 5] = complex(np.inf, 1.0)
    elif entries == "nan":
        b[modes // 2, 0, 7, 2] = complex(0.0, np.nan)
    elif entries == "inf_minus_inf":
        a[0, 0, 1, 1] = b[0, 0, 1, 1] = np.inf
    for s in (0.0, 1.0, 2.5):
        with np.errstate(invalid="ignore", over="ignore"):
            got = sup_sobolev_diff(a, b, s)
            ref = per_mode_sup_sobolev_diff(a, b, s)
        assert np.float64(got).tobytes() == np.float64(ref).tobytes()
    assert math.isfinite(got) == (entries == "finite")
