"""Norm-inflation experiments: small data, short time, large low-regularity norm.

The construction: two-mode data

    phi = ( e^{i 3 pi / (2k)} + N^{-s} e^{iNx} ) / log N,

whose H^s norm is at most 2/log N.  Its mean m0 has Im(m0^k) = -1/(log N)^k
< 0, so in the mean-zero frame the carrier mode N is frozen
(|w(t, N)| = N^{-s}/log N for all t: N admits no decomposition into two or
more supported frequencies) while in the original frame it grows like
``e^{t N / (log N)^k}``.  Running to

    T = (|sigma - s| + 1) (log N)^{k+1} / N

gives ``N^sigma |u(T, N)| >= N / log N``, which beats any prescribed
``1/epsilon`` for N large: arbitrarily small data, arbitrarily short time,
arbitrarily large H^sigma norm.  Experiments verify every identity in that
chain on the truncated system and tabulate the norms.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .cascade import AGREEMENT_TIMES, cascade_integrate, mean_zero_transform
from .gauge import compatible_gauge_data, compatibility_defects, gauge_picard_solve
from .normalform import picard_solve
from .quadrature import require_positive
from .spectral import (EquationSpec, SpectralState, dispersion_symbol,
                       sobolev_norm)

__all__ = [
    "build_inflation_data",
    "inflation_time",
    "choose_N",
    "ExperimentConfig",
    "CheckResult",
    "NormReport",
    "run_experiment",
    "CrossReport",
    "cross_validate",
]

SCOPE_NOTE = (
    "All identities are verified on the truncated system, which always has a "
    "solution; existence for the untruncated flow is not numerically "
    "decidable.  The reported H^sigma lower bound is the single carrier-mode "
    "contribution N^sigma |u(T, N)|.")


def build_inflation_data(N: int, s: float, k: int, truncation: int
                         ) -> SpectralState:
    """phi with phi(0) = e^{i 3 pi/(2k)}/log N and phi(N) = N^{-s}/log N."""
    if N < 3:
        raise ValueError("N must be >= 3 (log N must exceed 1)")
    if truncation < N:
        raise ValueError("truncation must be at least N")
    log_n = math.log(N)
    c = np.zeros(truncation + 1, dtype=complex)
    c[0] = np.exp(1j * 3 * np.pi / (2 * k)) / log_n
    c[N] = N ** (-float(s)) / log_n
    return SpectralState(c, time=0.0)


def inflation_time(N: int, s: float, sigma: float, k: int) -> float:
    """(|sigma - s| + 1) (log N)^{k+1} / N."""
    return (abs(sigma - s) + 1.0) * math.log(N) ** (k + 1) / N


def choose_N(epsilon: float, s: float, sigma: float, k: int) -> int:
    """Smallest N >= 3 with 2/log N < eps, T(N) < min(eps, 1), and
    N/log N > 1/eps.

    The first and third conditions, once true, stay true as N grows, and so
    does their conjunction: its first N comes from a gallop and a bisection
    starting just below ``exp(2/eps)``, where the first condition starts to
    hold (the margin absorbs the rounding of exp).  ``T(N)`` rises up to
    ``N = e^{k+1}`` and falls after it, so past an N where the second
    condition fails it fails until T falls below ``min(eps, 1)``, and then
    holds for good: a second gallop and bisection from that N find the
    answer.  No N is scanned one at a time.  A non-finite ``s`` or
    ``sigma``, or a ``k`` that is not an integer >= 1, raises ValueError."""
    require_positive(epsilon=epsilon)
    for name, x in (("s", s), ("sigma", sigma)):
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x!r}")
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    try:
        start = max(3, math.floor(math.exp(2.0 / epsilon) * (1.0 - 1e-9)))
    except OverflowError:
        raise ValueError(f"epsilon = {epsilon!r} is too small: exp(2/eps) "
                         "overflows a float") from None
    N = _first_true(lambda n: 2.0 / math.log(n) < epsilon
                    and n / math.log(n) > 1.0 / epsilon, start)
    return _first_true(
        lambda n: inflation_time(n, s, sigma, k) < min(epsilon, 1.0), N)


def _first_true(holds, lo: int) -> int:
    """Smallest n >= lo with ``holds(n)``, for a ``holds`` that stays true
    once true: doubling steps find an n where it holds, then a bisection."""
    if holds(lo):
        return lo
    hi = lo + 1                   # holds(lo) is false, and stays so
    while not holds(hi):
        lo, hi = hi, hi + 2 * (hi - lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class ExperimentConfig:
    """One inflation run; truncation is m_max * N (harmonics of the carrier)."""

    N: int
    s: float
    sigma: float
    k: int
    alpha: float
    m_max: int = 8
    epsilon: Optional[float] = None
    identity_tol: float = 1e-9
    value_tol: float = 1e-6
    exponent_tol: float = 1e-8
    quadrature_tol: float = 1e-10

    def __post_init__(self):
        for name in ("N", "k", "m_max"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got "
                                 f"{getattr(self, name)!r}") from None
        if self.N < 3:
            raise ValueError("N must be >= 3")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.m_max < 1:
            raise ValueError("m_max must be >= 1")
        for name in ("s", "sigma", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha!r}")
        if self.epsilon is not None:
            require_positive(epsilon=self.epsilon)
        require_positive(identity_tol=self.identity_tol,
                         value_tol=self.value_tol,
                         exponent_tol=self.exponent_tol,
                         quadrature_tol=self.quadrature_tol)

    @property
    def truncation(self) -> int:
        return self.m_max * self.N

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Inverse of ``to_dict``; keys that name no field are ignored."""
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    defect: float
    tolerance: float
    note: str = ""

    def to_dict(self) -> dict:
        d = {"passed": self.passed, "defect": self.defect,
             "tolerance": self.tolerance}
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class NormReport:
    """Everything one experiment asserts, with per-identity pass/fail."""

    config: ExperimentConfig
    T: float
    phi_norm_hs: float
    carrier_target_abs: float
    carrier_final_abs: float
    growth_exponent_measured: float
    growth_exponent_expected: float
    uT_norm_hsigma_lower: float
    uT_norm_hsigma_full: float
    wN_magnitudes: list = field(default_factory=list)   # (t, |w_N(t)|)
    checks: dict = field(default_factory=dict)
    # the cascade's (n_panels, tail, error estimate) per rung tried
    grid_attempts: list = field(default_factory=list)
    scope_note: str = SCOPE_NOTE

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "T": self.T,
            "phi_norm_hs": self.phi_norm_hs,
            "carrier_target_abs": self.carrier_target_abs,
            "carrier_final_abs": self.carrier_final_abs,
            "growth_exponent_measured": self.growth_exponent_measured,
            "growth_exponent_expected": self.growth_exponent_expected,
            "uT_norm_hsigma_lower": self.uT_norm_hsigma_lower,
            "uT_norm_hsigma_full": self.uT_norm_hsigma_full,
            "wN_magnitudes": [[t, m] for t, m in self.wN_magnitudes],
            "checks": {k: v.to_dict() for k, v in self.checks.items()},
            "grid_attempts": [list(a) for a in self.grid_attempts],
            "passed": self.passed,
            "scope_note": self.scope_note,
        }

    CSV_HEADER = ("N,s,sigma,k,alpha,T,phi_norm_hs,w_carrier_abs,"
                  "u_norm_hsigma_lower,status")

    def csv_row(self) -> str:
        cfg = self.config
        status = "pass" if self.passed else "fail"
        return (f"{cfg.N},{cfg.s!r},{cfg.sigma!r},{cfg.k},{cfg.alpha!r},"
                f"{self.T!r},{self.phi_norm_hs!r},{self.carrier_target_abs!r},"
                f"{self.uT_norm_hsigma_lower!r},{status}")


def run_experiment(config: ExperimentConfig,
                   restrict_support: bool = True) -> NormReport:
    """Evolve the inflation data, pass to the mean-zero frame, and verify:

    (a) mode 0 is conserved exactly;
    (b) the support stays inside the multiples of N;
    (c) the recentered carrier magnitude is frozen at N^{-s}/log N;
    (d) the carrier growth exponent is T N/(log N)^k and the final
        magnitude matches its closed form;
    (e) N^sigma |u(T, N)| realizes the advertised H^sigma lower bound.
    """
    N, k = config.N, config.k
    M = config.truncation
    log_n = math.log(N)
    T = inflation_time(N, config.s, config.sigma, k)
    phi = build_inflation_data(N, config.s, k, M)
    spec = EquationSpec.pure_power(k, config.alpha)
    traj = cascade_integrate(phi, spec, T, tol=config.quadrature_tol,
                             restrict_support=restrict_support)
    m0 = complex(phi.coeffs[0])
    # the mean-zero frame is read only at the carrier, so recenter row N alone
    rN = traj._row(N)
    w_traj = mean_zero_transform(
        replace(traj, modes=traj.modes[rN:rN + 1],
                values=traj.values[rN:rN + 1]), m0)
    checks = {}

    # (a) mode-0 conservation, on the solver's node values
    r0 = traj._row(0)
    defect0 = float(np.max(np.abs(traj.values[r0] - m0))) if r0 is not None else 0.0
    checks["mode0_conservation"] = CheckResult(defect0 == 0.0, defect0, 0.0)

    # (b) support containment in {0, N, 2N, ...}
    off_rows = np.flatnonzero(traj.modes % N).tolist()
    # one row at a time: a fancy index would copy every off-semigroup row
    off_mass = max((float(np.max(np.abs(traj.values[r]))) for r in off_rows),
                   default=0.0)
    note = ("solver restricted to the support semigroup"
            if restrict_support else "all modes integrated")
    checks["support_containment"] = CheckResult(off_mass <= 1e-14, off_mass,
                                                1e-14, note)

    # (c) frozen recentered carrier, on every panel node
    target = N ** (-float(config.s)) / log_n
    w_abs = np.abs(w_traj.values[0])
    frozen_dev = float(np.max(np.abs(w_abs - target)) / target)
    checks["frozen_carrier"] = CheckResult(frozen_dev <= config.identity_tol,
                                           frozen_dev, config.identity_tol)

    # (d) carrier growth
    uT = traj.state_at(T)
    a_final = abs(complex(uT.coeffs[N]))
    growth_expected = T * N / log_n**k
    growth_measured = math.log(a_final) - math.log(target)
    exp_defect = abs(growth_measured - growth_expected)
    checks["growth_exponent"] = CheckResult(exp_defect <= config.exponent_tol,
                                            exp_defect, config.exponent_tol)
    value_expected = target * math.exp(growth_expected)
    value_defect = abs(a_final - value_expected) / value_expected
    checks["carrier_final_value"] = CheckResult(
        value_defect <= config.value_tol, value_defect, config.value_tol)

    # (e) H^sigma lower bound and its closed form
    lower = N ** float(config.sigma) * a_final
    bound = N / log_n
    checks["sigma_lower_bound"] = CheckResult(
        lower >= bound * (1.0 - 1e-12), max(0.0, (bound - lower) / bound),
        1e-12, f"N^sigma |u(T,N)| = {lower:.6g} vs N/log N = {bound:.6g}")
    formula = (N ** (abs(config.sigma - config.s) + 1.0)
               * N ** (config.sigma - config.s) / log_n)
    formula_defect = abs(lower - formula) / formula
    checks["lower_bound_formula"] = CheckResult(
        formula_defect <= config.value_tol, formula_defect, config.value_tol)

    # optional: does this N realize a requested smallness/largeness target?
    if config.epsilon is not None:
        eps = config.epsilon
        conds = (2.0 / log_n < eps, T < min(eps, 1.0), N / log_n > 1.0 / eps)
        checks["epsilon_conditions"] = CheckResult(
            all(conds), float(sum(not c for c in conds)), 0.0,
            f"2/log N < eps: {conds[0]}; T < min(eps,1): {conds[1]}; "
            f"N/log N > 1/eps: {conds[2]}")

    full = sobolev_norm(uT, config.sigma)
    ts = w_traj.sample_times
    w_mags = [(float(t), float(m))
              for t, m in zip(ts, np.abs(w_traj.mode_values(N, ts)))]
    return NormReport(
        config=config, T=T,
        phi_norm_hs=sobolev_norm(phi, config.s),
        carrier_target_abs=target,
        carrier_final_abs=a_final,
        growth_exponent_measured=growth_measured,
        growth_exponent_expected=growth_expected,
        uT_norm_hsigma_lower=lower,
        uT_norm_hsigma_full=full,
        wN_magnitudes=w_mags,
        checks=checks,
        grid_attempts=list(traj.grid_attempts),
    )


# -- cross-pipeline validation ---------------------------------------------------

# solver tolerances of the two pipelines, compared at the
# cascade.AGREEMENT_TIMES equispaced times on [0, T].  The cascade's
# tolerance bounds both its Chebyshev tails and its error estimate, which
# reads 3.9 to 640 times the error above round-off; on the benchmark's
# seed-1 verify draws the first rung passes both
CASCADE_TOL = 1e-10
PICARD_TOL = 1e-11


@dataclass
class CrossReport:
    pipelines: tuple
    max_disagreement: float
    tolerance: float
    n_compare: int
    gauge_defect: Optional[float] = None
    log: object = None

    @property
    def passed(self) -> bool:
        ok = self.max_disagreement <= self.tolerance
        if self.gauge_defect is not None:
            ok = ok and self.gauge_defect <= self.tolerance
        return ok

    def to_dict(self) -> dict:
        d = {
            "pipelines": list(self.pipelines),
            "max_disagreement": self.max_disagreement,
            "tolerance": self.tolerance,
            "n_compare": self.n_compare,
            "passed": self.passed,
            "smallness": self.log.smallness.to_dict(),
        }
        if self.gauge_defect is not None:
            d["gauge_identity_defect"] = self.gauge_defect
        return d


def cross_validate(phi: SpectralState, alpha: float, k: int, T: float,
                   tolerance: Optional[float] = None) -> CrossReport:
    """Solve ``phi`` of the equation ``u^k u_x`` at dispersion ``alpha``
    with two independent pipelines up to time ``T`` and report the max
    mode-wise sup-in-time coefficient disagreement (in the original frame)
    against ``tolerance``, by default 1e-6 for the gauge and 1e-8 for the
    normal form.  Mean-zero data at alpha = 2 routes through the gauge
    system, every other alpha > 1 through the normal form (recentering
    first when the data has nonzero mean); at alpha <= 1 the phases vanish
    and the normal form refuses.  The independent pipeline runs first, so
    data it cannot solve costs no cascade solve.  The report carries that
    pipeline's smallness verdict.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m0 = complex(phi.coeffs[0])
    gauge_route = alpha == 2 and m0 == 0
    if tolerance is None:
        tolerance = 1e-6 if gauge_route else 1e-8
    require_positive(tolerance=tolerance)
    spec = EquationSpec.pure_power(k, alpha)
    ts = np.linspace(0.0, T, AGREEMENT_TIMES)
    n = np.arange(phi.truncation + 1)

    if gauge_route:
        psi = compatible_gauge_data(phi, k)
        gu_traj, gg_traj, log = gauge_picard_solve(
            phi, psi, k, T, tol=PICARD_TOL)
        u_other = gu_traj.dense_at(ts)
        defect = float(np.max(compatibility_defects(
            u_other, gg_traj.dense_at(ts), k)))
        pipelines = ("cascade", "gauge")
    else:
        # recenter, solve for w in normal form, then map back to the
        # original frame; mean-zero data is the case m0 = 0
        w_spec = spec.recentered(m0)
        w0 = np.array(phi.coeffs)
        w0[0] = 0.0
        v_traj, log = picard_solve(SpectralState(w0, phi.time), w_spec, T,
                                   tol=PICARD_TOL)
        v_vals = v_traj.dense_at(ts)
        mu = dispersion_symbol(w_spec, n)
        w_vals = v_vals * np.exp(1j * np.outer(mu, ts))
        shift = spec.self_coupling(m0)
        u_other = w_vals * np.exp(1j * shift * np.outer(n, ts))
        u_other[0, :] += m0
        defect = None
        pipelines = ("cascade", "normal-form" if m0 == 0
                     else "normal-form-recentered")

    u_cascade = cascade_integrate(phi, spec, T, tol=CASCADE_TOL).dense_at(ts)
    disagreement = float(np.max(np.abs(u_cascade - u_other)))
    return CrossReport(pipelines=pipelines, max_disagreement=disagreement,
                       tolerance=tolerance, n_compare=AGREEMENT_TIMES,
                       gauge_defect=defect, log=log)
