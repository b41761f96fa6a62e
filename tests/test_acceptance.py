"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run pytest with -s to see them all);
the assertions carry the same tolerances, nothing is deferred.
"""

import math
import time

import numpy as np
import pytest

from halfline_dnls import (DispersionKind, EquationSpec, ExperimentConfig,
                           SpectralState, cascade_integrate,
                           certify_phase_bound, conjugation_defect,
                           cross_validate, linear_solve, run_experiment,
                           sobolev_norm, standard_windows, weak_residual)
from halfline_dnls.inflation import build_inflation_data, inflation_time


def _report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def headline():
    """The N = 16 experiment shared by criteria 2 and 3."""
    config = ExperimentConfig(N=16, s=2.0, sigma=0.0, k=1, alpha=2.0, m_max=8)
    assert config.truncation == 128
    t0 = time.perf_counter()
    report = run_experiment(config)
    return report, time.perf_counter() - t0


def test_01_phase_bound_certification():
    t0 = time.perf_counter()
    checked = 0
    for alpha in (2, 3, 4):
        for k in (1, 2, 3):
            cert = certify_phase_bound(alpha, k, 20)
            assert cert.passed and cert.counterexample is None, (alpha, k)
            checked += cert.tuples_checked
    elapsed = time.perf_counter() - t0
    _report("criterion 1 (phase bound certification)",
            elapsed < 60.0,
            f"alpha in {{2,3,4}} x k in {{1,2,3}}, entries <= 20, "
            f"{checked} sorted tuples, zero violations, {elapsed:.2f}s < 60s")


def test_02_frozen_mode_identity(headline):
    report, elapsed = headline
    target = 16.0 ** (-2) / math.log(16.0)
    mags = np.array([m for _, m in report.wN_magnitudes])
    dev = float(np.max(np.abs(mags - target)) / target)
    node_dev = report.checks["frozen_carrier"].defect
    ok = dev <= 1e-9 and node_dev <= 1e-9 and elapsed < 30.0
    _report("criterion 2 (frozen recentered carrier)", ok,
            f"|w(t,16)| = {target:.6e} with max rel dev {dev:.2e} over "
            f"{mags.size} samples (node-level {node_dev:.2e}), "
            f"runtime {elapsed:.2f}s < 30s")


def test_03_norm_inflation_number(headline):
    report, _ = headline
    expected_final = 16.0 / math.log(16.0)
    rel = abs(report.carrier_final_abs - expected_final) / expected_final
    exp_dev = abs(report.growth_exponent_measured - 3.0 * math.log(16.0))
    ok = rel <= 1e-6 and exp_dev <= 1e-8
    _report("criterion 3 (norm inflation number)", ok,
            f"|u(T,16)| = {report.carrier_final_abs:.10f} vs N/log N = "
            f"{expected_final:.10f} (rel {rel:.2e} <= 1e-6); growth exponent "
            f"off by {exp_dev:.2e} <= 1e-8 from 3 log 16; H^0 lower bound "
            f"{report.uT_norm_hsigma_lower:.4f}")


def test_04_growth_trend_across_N():
    worst = 0.0
    details = []
    for N in (8, 16, 32):
        report = run_experiment(ExperimentConfig(N=N, s=2.0, sigma=0.0, k=1,
                                                 alpha=2.0, m_max=4))
        expected = 3.0 * math.log(N)     # (|sigma - s| + 1) log N
        dev = abs(report.growth_exponent_measured - expected)
        worst = max(worst, dev)
        details.append(f"N={N}: dev {dev:.2e}")
    _report("criterion 4 (growth-exponent trend)", worst <= 1e-8,
            "; ".join(details) + " (tol 1e-8)")


def test_05_uniqueness_witness_alpha3():
    phi = SpectralState.from_modes({1: 0.05, 2: 0.05}, 16)
    report = cross_validate(phi, alpha=3.0, k=1, T=1.0)
    ratios = report.log.ratios
    geometric = all(r < 1.0 for r in ratios) and max(ratios) < 0.5
    ok = report.max_disagreement <= 1e-8 and geometric
    _report("criterion 5 (cascade vs normal form, alpha=3)", ok,
            f"max mode-wise sup-in-time difference "
            f"{report.max_disagreement:.2e} <= 1e-8; contraction ratios "
            f"{[f'{r:.3f}' for r in ratios]} all < 1 and geometric")


def test_06_uniqueness_witness_alpha2():
    phi = SpectralState.from_modes({1: 0.05}, 16)
    report = cross_validate(phi, alpha=2.0, k=1, T=1.0)
    ok = report.max_disagreement <= 1e-6 and report.gauge_defect <= 1e-6
    _report("criterion 6 (cascade vs gauge, alpha=2)", ok,
            f"difference {report.max_disagreement:.2e} <= 1e-6; twisted-"
            f"derivative identity defect {report.gauge_defect:.2e} <= 1e-6")


def test_07_structural_invariants():
    spec = EquationSpec.pure_power(1, 2.0)
    # mode-0 conservation, exact
    phi = SpectralState.from_modes({0: 0.2, 5: 0.1}, 20)
    traj = cascade_integrate(phi, spec, 0.5, restrict_support=False)
    r0 = int(np.searchsorted(traj.modes, 0))
    mode0 = float(np.max(np.abs(traj.values[r0] - phi.coeffs[0])))
    # support containment with every mode integrated
    allowed = {0, 5, 10, 15, 20}
    off = max((float(np.max(np.abs(traj.values[r])))
               for r, n in enumerate(traj.modes) if int(n) not in allowed),
              default=0.0)
    # truncation exactness M = 8 vs 16
    lo = cascade_integrate(SpectralState.from_modes({0: 0.2, 2: 0.1}, 8),
                           spec, 1.0)
    hi = cascade_integrate(SpectralState.from_modes({0: 0.2, 2: 0.1}, 16),
                           spec, 1.0)
    trunc = max(float(np.max(np.abs(lo.coeffs_at(t) - hi.coeffs_at(t)[:9])))
                for t in np.linspace(0, 1, 9))
    # dispersion variants agree bit for bit on one-sided data
    pa = cascade_integrate(SpectralState.from_modes({0: 0.2, 1: 0.1}, 6),
                           EquationSpec.pure_power(1, 3.0,
                                                   kind=DispersionKind.SCHRODINGER),
                           0.5)
    pb = cascade_integrate(SpectralState.from_modes({0: 0.2, 1: 0.1}, 6),
                           EquationSpec.pure_power(1, 3.0,
                                                   kind=DispersionKind.AIRY_TYPE),
                           0.5)
    bitwise = np.array_equal(pa.values, pb.values)
    ok = mode0 == 0.0 and off <= 1e-14 and trunc <= 1e-9 and bitwise
    _report("criterion 7 (structural invariants)", ok,
            f"mode-0 defect {mode0:.1e} (exact); off-support mass {off:.1e} "
            f"<= 1e-14; truncation M vs 2M {trunc:.1e} <= quadrature tol; "
            f"dispersion variants bit-identical: {bitwise}")


def test_08_linear_closed_form():
    N, lam, M = 6, 0.4 - 0.9j, 12
    phi = SpectralState.from_modes({N: 1.0}, M)
    traj = cascade_integrate(phi, EquationSpec(2.0, {0: lam}), 1.0)
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 11):
        expected = math.exp(-t * lam.imag * N)
        for vec in (linear_solve(phi, lam, t).coeffs, traj.coeffs_at(t)):
            worst = max(worst, abs(sobolev_norm(vec, 0.0) - expected) / expected)
    _report("criterion 8 (linear closed form)", worst <= 1e-10,
            f"|v(t)|_L2 = e^(-t Im(lam) N) to rel {worst:.2e} <= 1e-10, "
            "closed form and quadrature solver")


def test_09_weak_formulation_residual():
    N, lam, T, M = 4, 0.3 - 0.6j, 1.0, 12
    phi = SpectralState.from_modes({N: 1.0}, M)
    traj = cascade_integrate(phi, EquationSpec(2.0, {0: lam}), T)
    worst = max(float(np.max(np.abs(weak_residual(traj, window))))
                for window in standard_windows(T))
    _report("criterion 9 (weak-formulation residual)", worst <= 1e-8,
            f"closed-form single-mode solution, residual <= {worst:.2e} over "
            f"modes m <= {M} and 3 windows (tol 1e-8)")


def test_10_conjugation_identity():
    rng = np.random.default_rng(11)
    M, worst = 12, 0.0
    for _ in range(100):
        draw = lambda: 0.3 * (rng.standard_normal(M + 1)
                              + 1j * rng.standard_normal(M + 1))
        f0, f1, f2 = draw(), draw(), draw()
        l0, l1, l2 = draw(), draw(), draw()
        t = float(rng.uniform(0.0, 1.0))
        worst = max(worst, conjugation_defect(
            f0 + t * f1 + t * t * f2, f1 + 2 * t * f2,
            l0 + t * l1 + t * t * l2, l1 + 2 * t * l2))
    _report("criterion 10 (conjugation identity)", worst <= 1e-10,
            f"100 random polynomial-in-time pairs, max defect {worst:.2e} "
            "<= 1e-10")


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the independent pipelines measure their Picard "
    "increment and tails in the mean-zero frame, so on the inflation data "
    "at truncation 48 they disagree with the cascade by 2.12e-6 at mode 48"))
def test_11_cross_validation_on_the_inflation_data():
    T = inflation_time(16, 2.5, 0.5, 1)
    report = cross_validate(build_inflation_data(16, 2.5, 1, 48), 3.0, 1, T)
    _report("cross-validation on the inflation data (alpha=3, M=48)",
            report.passed,
            f"max disagreement {report.max_disagreement:.3e} "
            f"(tol {report.tolerance:.0e})")
