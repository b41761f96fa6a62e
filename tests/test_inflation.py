"""Inflation experiments: data construction, timing, the identity chain."""

import json
import math
import time

import numpy as np
import pytest

from halfline_dnls import (EquationSpec, ExperimentConfig,
                           NonContractionError, NormalFormOperators,
                           SpectralState, build_inflation_data, choose_N,
                           cross_validate, inflation_time, run_experiment,
                           sobolev_norm)
from halfline_dnls import gauge, inflation, normalform


# -- data -----------------------------------------------------------------------

def test_data_mean_power_is_negative_imaginary():
    for k in (1, 2, 3):
        phi = build_inflation_data(16, 2.0, k, 32)
        m0 = complex(phi.coeffs[0])
        mk = m0**k
        # m0^k = -i/(log N)^k
        assert mk == pytest.approx(-1j / math.log(16) ** k, abs=1e-15)
        assert mk.imag < 0


def test_data_norm_closed_form_and_bound():
    N, s, k = 16, 2.0, 1
    phi = build_inflation_data(N, s, k, 8 * N)
    val = sobolev_norm(phi, s)
    explicit = math.sqrt(1 + (1 + N * N) ** s * N ** (-2 * s)) / math.log(N)
    assert val == pytest.approx(explicit, rel=1e-14)
    assert val <= 2 / math.log(N)


def test_data_support():
    phi = build_inflation_data(8, 2.0, 1, 24)
    nz = np.flatnonzero(phi.coeffs)
    assert list(nz) == [0, 8]


# -- timing ----------------------------------------------------------------------

def test_inflation_time_headline_value():
    # 3 (log 16)^2 / 16
    T = inflation_time(16, 2.0, 0.0, 1)
    assert T == pytest.approx(3 * math.log(16) ** 2 / 16, rel=1e-15)
    assert T == pytest.approx(1.4414, abs=5e-5)


def test_inflation_time_equal_regularities():
    assert inflation_time(20, 1.5, 1.5, 2) == pytest.approx(
        math.log(20) ** 3 / 20, rel=1e-15)


def test_inflation_time_vanishes_for_large_N():
    ts = [inflation_time(N, 2.0, 0.0, 1) for N in (100, 10_000, 1_000_000)]
    assert ts[2] < ts[1] < ts[0]
    assert ts[2] < 1e-3


# -- choose_N ---------------------------------------------------------------------

def test_choose_N_satisfies_all_conditions():
    for eps in (1.0, 0.5, 0.25):
        N = choose_N(eps, 2.0, 0.0, 1)
        assert 2 / math.log(N) < eps
        assert inflation_time(N, 2.0, 0.0, 1) < min(eps, 1.0)
        assert N / math.log(N) > 1 / eps


def test_choose_N_monotone_in_epsilon():
    prev = None
    for eps in (1.0, 0.5, 0.25, 0.125):
        N = choose_N(eps, 2.0, 0.0, 1)
        if prev is not None:
            assert N >= prev
        prev = N


def choose_N_by_scan(eps, s, sig, k):
    """The first N >= 3 that passes all three conditions, by a scan from
    3."""
    N = 3
    while not (2 / math.log(N) < eps
               and inflation_time(N, s, sig, k) < min(eps, 1.0)
               and N / math.log(N) > 1 / eps):
        N += 1
    return N


def test_choose_N_minimality():
    for s, sig, k in ((2.0, 0.0, 1), (2.5, 0.5, 2), (3.0, 1.0, 3)):
        for eps in (1.0, 0.5, 0.25):
            assert choose_N(eps, s, sig, k) == choose_N_by_scan(eps, s, sig,
                                                                k)


def test_choose_N_starts_at_the_first_condition():
    # 2/log N < eps fails for every N < exp(2/eps), so the scan starts
    # there: eps = 0.1 answers without stepping through 4.85e8 values
    N = choose_N(0.1, 2.0, 0.0, 1)
    assert N == 485_165_196
    assert 2 / math.log(N) < 0.1 <= 2 / math.log(N - 1)
    assert inflation_time(N, 2.0, 0.0, 1) < 0.1 and N / math.log(N) > 10


@pytest.mark.parametrize("eps", [0.05, 0.03])
def test_choose_N_answers_small_epsilon_at_once(eps):
    # the first condition alone leaves about 1e-9 exp(2/eps) candidates
    # after the start (2.4e8 at eps = 0.05); galloping and bisecting on the
    # monotone conditions checks under a hundred
    start = time.perf_counter()
    N = choose_N(eps, 2.0, 0.0, 1)
    assert time.perf_counter() - start < 0.1
    assert N > math.exp(2 / eps) * (1 - 1e-9)
    assert 2 / math.log(N) < eps and N / math.log(N) > 1 / eps
    assert inflation_time(N, 2.0, 0.0, 1) < eps
    assert not 2 / math.log(N - 1) < eps


def test_choose_N_past_the_peak_of_T():
    # at k = 3 T(N) peaks near e^4 = 55 and first falls below 1 far past
    # it; the answer is the first N after the peak, as the scan finds it
    for s, sig in ((2.0, 0.0), (3.0, 1.0)):
        N = choose_N(1.0, s, sig, 3)
        assert N > math.exp(4)
        assert N == choose_N_by_scan(1.0, s, sig, 3)


@pytest.mark.parametrize("eps", [1e-3, 0.0, -1.0, math.nan])
def test_choose_N_refuses_epsilon(eps):
    # 1e-3 would need exp(2000), which overflows a float
    with pytest.raises(ValueError, match="epsilon"):
        choose_N(eps, 2.0, 0.0, 1)


@pytest.mark.parametrize("s, sigma, k, name", [
    (math.nan, 0.0, 1, "s"), (math.inf, 0.0, 1, "s"),
    (2.0, math.nan, 1, "sigma"), (2.0, -math.inf, 1, "sigma"),
    (2.0, 0.0, 0, "k"), (2.0, 0.0, -1, "k"), (2.0, 0.0, 1.5, "k"),
    (2.0, 0.0, 1.0, "k"),
])
def test_choose_N_refuses_s_sigma_and_k(s, sigma, k, name):
    # a NaN s galloped into an OverflowError, and k = 0 gave an N whose
    # data build_inflation_data cannot make
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        choose_N(0.5, s, sigma, k)


def test_choose_N_accepts_a_numpy_integer_k():
    assert choose_N(0.5, 2.0, 0.0, np.int64(2)) == choose_N(0.5, 2.0, 0.0, 2)


# -- config validation ---------------------------------------------------------------

def test_config_runs_alpha_between_2_and_3():
    # the window 2 < alpha < 3 is open for uniqueness only: the inflation
    # chain runs the cascade alone, and it passes there
    assert run_experiment(ExperimentConfig(N=8, s=2.0, sigma=0.0, k=1,
                                           alpha=2.5)).passed


def test_config_runs_s_below_the_uniqueness_floor():
    # the uniqueness theorem's floor (s >= 2 at alpha = 2, s >= 1 at
    # alpha >= 3) bounds its witnesses, not inflation
    for s, alpha in ((1.0, 2.0), (0.5, 3.0)):
        assert run_experiment(ExperimentConfig(N=8, s=s, sigma=0.0, k=1,
                                               alpha=alpha)).passed


@pytest.mark.parametrize("alpha", [0.5, 0.0, -2.0])
def test_config_refuses_alpha_below_1(alpha):
    # the domain of EquationSpec, checked before any run
    with pytest.raises(ValueError, match="^alpha must be >= 1, got "):
        ExperimentConfig(N=8, s=2.0, sigma=0.0, k=1, alpha=alpha)


@pytest.mark.parametrize("name", ["identity_tol", "value_tol",
                                  "exponent_tol", "quadrature_tol"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, "abc",
                                   None])
def test_config_refuses_a_tolerance_not_positive_and_finite(name, value):
    # a string tolerance ended the run in a TypeError, and a negative one
    # failed its solve or its check
    with pytest.raises(ValueError,
                       match=f"^{name} must be positive and finite, got "):
        ExperimentConfig(N=8, s=2.0, sigma=0.0, k=1, alpha=2.0,
                         **{name: value})


# -- experiments -----------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_report():
    return run_experiment(ExperimentConfig(N=8, s=2.0, sigma=0.0, k=1,
                                           alpha=2.0, m_max=4))


def test_experiment_all_checks_pass(small_report):
    for name, check in small_report.checks.items():
        assert check.passed, f"{name}: defect {check.defect}"
    assert small_report.passed


def test_experiment_frozen_carrier_value(small_report):
    N, s = 8, 2.0
    target = N ** (-s) / math.log(N)
    assert small_report.carrier_target_abs == pytest.approx(target, rel=1e-14)
    mags = np.array([m for _, m in small_report.wN_magnitudes])
    assert np.max(np.abs(mags - target) / target) < 1e-9


def test_experiment_growth_and_lower_bound(small_report):
    N = 8
    # at sigma = 0, s = 2: |u(T, N)| = N / log N and the H^0 bound follows
    assert small_report.carrier_final_abs == pytest.approx(
        N / math.log(N), rel=1e-9)
    assert small_report.uT_norm_hsigma_lower >= N / math.log(N) * (1 - 1e-12)
    assert (small_report.uT_norm_hsigma_full
            >= small_report.uT_norm_hsigma_lower)


def test_experiment_sigma_equals_s():
    # the lower bound N/log N is independent of s when sigma = s
    rep = run_experiment(ExperimentConfig(N=8, s=2.0, sigma=2.0, k=1,
                                          alpha=2.0, m_max=2))
    N = 8
    assert rep.growth_exponent_expected == pytest.approx(math.log(N), rel=1e-14)
    assert rep.uT_norm_hsigma_lower >= N / math.log(N) * (1 - 1e-12)
    assert rep.passed


def test_experiment_alpha3(small_report):
    rep = run_experiment(ExperimentConfig(N=8, s=1.0, sigma=0.0, k=1,
                                          alpha=3.0, m_max=2))
    assert rep.passed
    # same frozen-carrier magnitude law, different dispersion
    assert rep.carrier_target_abs == pytest.approx(
        8 ** (-1.0) / math.log(8), rel=1e-14)


def test_experiment_epsilon_conditions():
    # N chosen by choose_N must satisfy its own conditions in the report
    eps = 0.5
    N = choose_N(eps, 2.0, 2.0, 1)
    rep = run_experiment(ExperimentConfig(N=N, s=2.0, sigma=2.0, k=1,
                                          alpha=2.0, m_max=2, epsilon=eps))
    assert rep.checks["epsilon_conditions"].passed
    # a deliberately small N fails the largeness condition
    rep_bad = run_experiment(ExperimentConfig(N=8, s=2.0, sigma=2.0, k=1,
                                              alpha=2.0, m_max=2,
                                              epsilon=0.05))
    assert not rep_bad.checks["epsilon_conditions"].passed
    assert not rep_bad.passed


def test_experiment_unrestricted_support(small_report):
    rep = run_experiment(ExperimentConfig(N=5, s=2.0, sigma=0.0, k=1,
                                          alpha=2.0, m_max=3),
                         restrict_support=False)
    assert rep.passed
    assert rep.checks["support_containment"].note == "all modes integrated"


@pytest.mark.parametrize("config", [
    dict(alpha=2.0, k=1, s=1.0, sigma=1.0),
    dict(alpha=2.0, k=1, s=-2.0, sigma=-2.0),
    dict(alpha=2.0, k=1, s=-1.0, sigma=0.5),
    dict(alpha=3.0, k=1, s=0.0, sigma=0.0, m_max=4),
    dict(alpha=3.0, k=1, s=-1.0, sigma=-1.0, m_max=4),
    dict(alpha=1.0, k=1, s=2.5, sigma=0.5),
    dict(alpha=2.5, k=1, s=2.5, sigma=0.5),
    dict(alpha=2.0, k=2, s=0.5, sigma=0.5),
    dict(alpha=2.0, k=3, s=-1.0, sigma=-1.0),
    dict(alpha=2.0, k=1, s=-1.0, sigma=-1.0, N=149, epsilon=0.4),
], ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items()))
def test_inflation_passes_over_the_papers_range(config):
    # the paper proves norm inflation in H^s for every real s: the chain
    # holds below the uniqueness floors, at every alpha >= 1 and k up to 3
    config = ExperimentConfig(**{"N": 16, **config})
    report = run_experiment(config)
    assert report.passed, {n: c.defect for n, c in report.checks.items()
                           if not c.passed}
    if config.epsilon is not None:
        # N = 149 = choose_N(0.4, -1, -1, 1)
        assert config.N == choose_N(config.epsilon, config.s, config.sigma,
                                    config.k)
        assert report.checks["epsilon_conditions"].passed


# -- cross-pipeline validation -------------------------------------------------------

def test_cross_validate_zero_data():
    from halfline_dnls import SpectralState, cross_validate
    z = SpectralState(np.zeros(9, dtype=complex))
    for alpha in (2.0, 3.0):
        rep = cross_validate(z, alpha=alpha, k=1, T=0.5)
        assert rep.max_disagreement == 0.0
        assert rep.passed


def test_cross_validate_recentered_route():
    # nonzero mean forces the recentering detour through the polynomial
    # nonlinearity; the two pipelines must still agree in the original frame
    from halfline_dnls import SpectralState, cross_validate
    phi = SpectralState.from_modes({0: 0.25 * np.exp(-0.3j), 1: 0.04}, 10)
    rep = cross_validate(phi, alpha=3.0, k=1, T=0.8)
    assert rep.pipelines == ("cascade", "normal-form-recentered")
    assert rep.max_disagreement <= 1e-8
    assert rep.passed


def test_cross_validate_mean_zero_is_the_m0_zero_case():
    # mean-zero data runs the recentered route at m0 = 0; it must give the
    # bits of the direct route (normal form of the equation itself)
    from halfline_dnls import (EquationSpec, SpectralState, cascade_integrate,
                               cross_validate, picard_solve)
    from halfline_dnls.cascade import AGREEMENT_TIMES
    from halfline_dnls.inflation import CASCADE_TOL, PICARD_TOL
    from halfline_dnls.spectral import dispersion_symbol
    phi = SpectralState.from_modes({1: 0.04, 2: 0.03j}, 8)
    spec, T = EquationSpec.pure_power(1, 3.0), 0.5
    rep = cross_validate(phi, alpha=3.0, k=1, T=T)
    assert rep.pipelines == ("cascade", "normal-form")
    ts = np.linspace(0.0, T, AGREEMENT_TIMES)
    u = cascade_integrate(phi, spec, T, tol=CASCADE_TOL).dense_at(ts)
    v, _ = picard_solve(phi, spec, T, tol=PICARD_TOL)
    mu = dispersion_symbol(spec, np.arange(9))
    direct = v.dense_at(ts) * np.exp(1j * np.outer(mu, ts))
    assert rep.max_disagreement == float(np.max(np.abs(u - direct)))


def test_cross_validate_alpha3_k2_runs_the_degree_2_normal_form():
    # k = 2 contracts the normal form's degree-2 weights (two levels of
    # _weighted_contract) end to end; on the console-script check's
    # truncation-16 data the pipelines agree to 8.9e-14
    from halfline_dnls import SpectralState, cross_validate
    phi = SpectralState.from_modes({1: 0.045, 2: 0.045j}, 16)
    rep = cross_validate(phi, alpha=3.0, k=2, T=1.0)
    assert rep.pipelines == ("cascade", "normal-form")
    assert rep.passed
    assert rep.max_disagreement <= 1e-8


@pytest.mark.parametrize("mean, pipeline", [
    (0.0, "normal-form"),                          # degree 3 alone
    (0.03 - 0.02j, "normal-form-recentered"),      # degrees 1, 2 and 3
])
def test_cross_validate_alpha3_k3_runs_the_degree_3_normal_form(mean,
                                                                pipeline):
    # the console-script check's truncation-16 data, with and without a
    # mean: both routes agree to 2.2e-14
    from halfline_dnls import SpectralState, cross_validate
    phi = SpectralState.from_modes({0: mean, 1: 0.045, 2: 0.045j}, 16)
    rep = cross_validate(phi, alpha=3.0, k=3, T=1.0)
    assert rep.pipelines == ("cascade", pipeline)
    assert rep.passed
    assert rep.max_disagreement <= 1e-8


@pytest.mark.parametrize("alpha, modes, evaluations", [
    (3.0, {1: 0.045, 2: 0.045j}, 2),     # v, then the cascade's u
    (2.0, {1: 0.03, 2: 0.02j}, 3),       # u and gu, then the cascade's u
])
def test_cross_validate_evaluations_are_pinned(monkeypatch, alpha, modes,
                                               evaluations):
    # each dense evaluation of a cross-validation is counted: the other
    # pipeline's trajectories, and the accepted cascade at the compared
    # times; the cascade accepts its rung on its error estimate, with no
    # dense output of its own
    from halfline_dnls import SpectralState, Trajectory, cross_validate
    phi = SpectralState.from_modes(modes, 16)
    calls = []
    evaluate = Trajectory._evaluate

    def counted(self, ns, ts):
        calls.append(self.variable)
        return evaluate(self, ns, ts)

    monkeypatch.setattr(Trajectory, "_evaluate", counted)
    assert cross_validate(phi, alpha=alpha, k=1, T=1.0).passed
    assert len(calls) == evaluations and calls[-1] == "u"


@pytest.mark.parametrize("alpha, modes, owner, name, arg", [
    # the position of the map's (M+1, panels, q) node values among its
    # arguments, self included
    (3.0, {1: 0.045, 2: 0.045j}, normalform.NormalFormOperators,
     "_apply_map_tensor", 1),
    (2.0, {1: 0.03, 2: 0.02j}, gauge, "gauge_system_rhs", 0),
])
def test_cross_validate_applies_the_map_once_per_iteration(
        monkeypatch, alpha, modes, owner, name, arg):
    # a cross-validation never reads the log's final residual, so the
    # accepted rung applies the map once per recorded iteration; the first
    # read of the residual applies it once more, and later reads do not
    from halfline_dnls import SpectralState, cross_validate
    original = getattr(owner, name)
    panels = []

    def counted(*args):
        panels.append(args[arg].shape[1])
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    log = cross_validate(SpectralState.from_modes(modes, 16), alpha=alpha,
                         k=1, T=1.0).log
    accepted = log.grid_attempts[-1][0]
    assert log.converged
    assert panels.count(accepted) == len(log.iterations)
    residual = log.final_residual
    assert 0.0 <= residual < log.iterations[-1][1]
    assert panels.count(accepted) == len(log.iterations) + 1
    assert log.final_residual == residual
    assert panels.count(accepted) == len(log.iterations) + 1


def test_cross_validate_alpha2_with_a_mean_takes_the_recentered_normal_form():
    # the gauge weight needs mean-zero data; the normal form does not
    phi = SpectralState.from_modes({0: 0.1, 1: 0.02}, 8)
    rep = cross_validate(phi, alpha=2.0, k=1, T=0.5)
    assert rep.pipelines == ("cascade", "normal-form-recentered")
    assert rep.tolerance == 1e-8 and rep.passed


def _forbid(monkeypatch, *names):
    """Make each named solver of ``inflation`` fail its test if called."""
    for name in names:
        def called(*args, name=name, **kwargs):
            raise AssertionError(f"{name} called")
        monkeypatch.setattr(inflation, name, called)


@pytest.mark.parametrize("alpha, modes, M, T", [
    (3.0, {1: 5.0}, 6, 0.5),            # the normal form
    (2.0, {1: 1.0, 2: 1.0}, 8, 1.0),    # the gauge
])
def test_cross_validate_refuses_before_any_cascade_solve(monkeypatch, alpha,
                                                         modes, M, T):
    # the independent pipeline runs first: data whose iterates stop
    # contracting costs no cascade solve, and its log keeps the verdict
    _forbid(monkeypatch, "cascade_integrate")
    phi = SpectralState.from_modes(modes, M)
    with pytest.raises(NonContractionError, match="iteration 3") as info:
        cross_validate(phi, alpha=alpha, k=1, T=T)
    assert not info.value.log.smallness.accepted


@pytest.mark.parametrize("alpha, k, match", [
    (2.0, 0, "k must be >= 1"),
    (3.0, 0, "k must be >= 1"),
    (1.0, 1, r"normal form requires alpha > 1 \(nonzero phases\)"),
])
def test_cross_validate_refuses_k_and_alpha_before_any_solve(monkeypatch,
                                                            alpha, k, match):
    # k < 1 is refused alike at every alpha, before any solve; alpha = 1
    # is refused by the normal form's operators, before any cascade solve
    _forbid(monkeypatch, "cascade_integrate",
            *(("compatible_gauge_data", "gauge_picard_solve", "picard_solve")
              if k < 1 else ()))
    phi = SpectralState.from_modes({1: 0.045, 2: 0.045j}, 16)
    with pytest.raises(ValueError, match=f"^{match}$"):
        cross_validate(phi, alpha=alpha, k=k, T=1.0)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("m0, alpha", [
    (m0, alpha) for m0 in (0.0, 0.1) for alpha in (1.25, 1.5, 2.0, 2.5)
    if alpha != 2.0 or m0 != 0.0])     # mean-zero data at 2 takes the gauge
def test_cross_validate_runs_the_normal_form_at_every_alpha_above_1(m0, alpha,
                                                                    k):
    # every resonance phase is nonzero at finite truncation for alpha > 1,
    # so the normal form is defined there, certified or not (the verdict
    # accepts 3 of these 14 cases); the report carries the verdict of the
    # equation it solved
    phi = SpectralState.from_modes({0: m0, 1: 0.05, 2: 0.05j}, 16)
    rep = cross_validate(phi, alpha=alpha, k=k, T=1.0)
    assert rep.pipelines == ("cascade", "normal-form-recentered" if m0
                             else "normal-form")
    assert rep.tolerance == 1e-8 and rep.passed
    ops = NormalFormOperators(EquationSpec.pure_power(k, alpha).recentered(m0),
                              16)
    w = SpectralState.from_modes({1: 0.05, 2: 0.05j}, 16)
    assert (rep.to_dict()["smallness"]
            == ops.smallness_report(w, 1.0).to_dict())


def test_report_serialization(small_report):
    doc = json.loads(json.dumps(small_report.to_dict()))
    assert doc["passed"] is True
    assert doc["config"]["N"] == 8
    assert len(doc["wN_magnitudes"]) >= 2
    row = small_report.csv_row()
    assert row.startswith("8,2.0,0.0,1,2.0,")
    assert row.endswith(",pass")
    assert len(row.split(",")) == len(small_report.CSV_HEADER.split(","))
