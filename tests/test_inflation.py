"""Inflation experiments: data construction, timing, the identity chain."""

import json
import math

import numpy as np
import pytest

from halfline_dnls import (ExperimentConfig, UnsupportedRegimeError,
                           build_inflation_data, choose_N, inflation_time,
                           minimum_regularity, run_experiment, sobolev_norm)


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


@pytest.mark.parametrize("eps", [1e-3, 0.0, -1.0, math.nan])
def test_choose_N_refuses_epsilon(eps):
    # 1e-3 would need exp(2000), which overflows a float
    with pytest.raises(ValueError, match="epsilon"):
        choose_N(eps, 2.0, 0.0, 1)


# -- config validation ---------------------------------------------------------------

def test_config_rejects_open_regime():
    with pytest.raises(UnsupportedRegimeError, match="open problem"):
        ExperimentConfig(N=8, s=2.0, sigma=0.0, k=1, alpha=2.5)


def test_config_rejects_low_regularity():
    with pytest.raises(UnsupportedRegimeError, match="below the required"):
        ExperimentConfig(N=8, s=1.0, sigma=0.0, k=1, alpha=2.0)
    with pytest.raises(UnsupportedRegimeError, match="below the required"):
        ExperimentConfig(N=8, s=0.5, sigma=0.0, k=1, alpha=3.0)


def test_minimum_regularity_values():
    assert minimum_regularity(2.0) == 2.0
    assert minimum_regularity(3.0) == 1.0
    assert minimum_regularity(4.5) == 1.0


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


# -- cross-pipeline validation -------------------------------------------------------

def test_cross_validate_zero_data():
    from halfline_dnls import CrossValidationConfig, SpectralState, cross_validate
    z = SpectralState(np.zeros(9, dtype=complex))
    for alpha in (2.0, 3.0):
        rep = cross_validate(CrossValidationConfig(phi=z, alpha=alpha, k=1,
                                                   T=0.5))
        assert rep.max_disagreement == 0.0
        assert rep.passed


def test_cross_validate_recentered_route():
    # nonzero mean forces the recentering detour through the polynomial
    # nonlinearity; the two pipelines must still agree in the original frame
    from halfline_dnls import CrossValidationConfig, SpectralState, cross_validate
    phi = SpectralState.from_modes({0: 0.25 * np.exp(-0.3j), 1: 0.04}, 10)
    rep = cross_validate(CrossValidationConfig(phi=phi, alpha=3.0, k=1, T=0.8))
    assert rep.pipelines == ("cascade", "normal-form-recentered")
    assert rep.max_disagreement <= 1e-8
    assert rep.passed


def test_cross_validate_mean_zero_is_the_m0_zero_case():
    # mean-zero data runs the recentered route at m0 = 0; it must give the
    # bits of the direct route (normal form of the equation itself)
    from halfline_dnls import (CrossValidationConfig, EquationSpec,
                               SpectralState, cascade_integrate,
                               cross_validate, picard_solve)
    from halfline_dnls.inflation import CASCADE_TOL, N_COMPARE, PICARD_TOL
    from halfline_dnls.spectral import dispersion_symbol
    phi = SpectralState.from_modes({1: 0.04, 2: 0.03j}, 8)
    spec, T = EquationSpec.pure_power(1, 3.0), 0.5
    rep = cross_validate(CrossValidationConfig(phi=phi, alpha=3.0, k=1, T=T))
    assert rep.pipelines == ("cascade", "normal-form")
    ts = np.linspace(0.0, T, N_COMPARE)
    u = cascade_integrate(phi, spec, T, tol=CASCADE_TOL).dense_at(ts)
    v, _ = picard_solve(phi, spec, T, tol=PICARD_TOL)
    mu = dispersion_symbol(spec, np.arange(9))
    direct = v.dense_at(ts) * np.exp(1j * np.outer(mu, ts))
    assert rep.max_disagreement == float(np.max(np.abs(u - direct)))


def test_cross_validate_alpha2_requires_mean_zero():
    from halfline_dnls import CrossValidationConfig, SpectralState, cross_validate
    phi = SpectralState.from_modes({0: 0.1, 1: 0.02}, 8)
    with pytest.raises(ValueError, match="mean-zero"):
        cross_validate(CrossValidationConfig(phi=phi, alpha=2.0, k=1, T=0.5))


def test_report_serialization(small_report):
    doc = json.loads(json.dumps(small_report.to_dict()))
    assert doc["passed"] is True
    assert doc["config"]["N"] == 8
    assert len(doc["wN_magnitudes"]) >= 2
    row = small_report.csv_row()
    assert row.startswith("8,2.0,0.0,1,2.0,")
    assert row.endswith(",pass")
    assert len(row.split(",")) == len(small_report.CSV_HEADER.split(","))
