"""Workloads of the halfline-dnls benchmark.

Each workload turns a seed into a fixed list of instances.  One op runs an
instance as one or more ``halfline-dnls`` CLI calls (``calls``); each call
pairs its parameters with a ``Command`` from ``COMMANDS``, which builds its
argv and checks its parsed output.  The generator rejects draws outside the documented solver regime
before any timing, so a failed op always means the program got it wrong.

Instances are plain dicts so they can be recorded verbatim with each result.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from halfline_dnls.gauge import compatible_gauge_data
from halfline_dnls.inflation import ExperimentConfig
from halfline_dnls.normalform import NormalFormOperators
from halfline_dnls.spectral import EquationSpec, SpectralState, sobolev_norm

# default ``smallness_threshold`` of gauge_picard_solve: |phi|_H1 + |psi|_H1
GAUGE_SMALLNESS = 0.25
MAX_REDRAWS = 200

# sizes: "full" is what the benchmark measures, "tiny" is the smoke test
SIZES = {
    "full": {"inflate_N": 16, "inflate_m_max": 8, "xval_modes": 16,
             "xval_T": 1.0, "phase_cap": 30, "instances": 4,
             "phase_pairs": 9},
    "tiny": {"inflate_N": 4, "inflate_m_max": 2, "xval_modes": 4,
             "xval_T": 0.25, "phase_cap": 6, "instances": 1,
             "phase_pairs": 1},
}


class RegimeError(ValueError):
    """No draw inside the documented solver regime."""


@dataclass(frozen=True)
class Command:
    """One ``halfline-dnls`` subcommand: its argv and its output check."""
    argv: Callable[[dict], list]
    verify: Callable[[dict, dict], Optional[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    notes: str
    generate: Callable[[random.Random, dict], list]
    # the (Command, parameters) pairs of one op
    calls: Callable[[dict], list]


def _in_stratum(rng: random.Random, lo: float, hi: float, i: int,
                count: int) -> float:
    return lo + (i + rng.random()) * (hi - lo) / count


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> list:
    """One uniform draw in each of ``count`` equal strata of [lo, hi],
    shuffled: every seed covers the range evenly, so per-instance costs mix
    the same way from seed to seed."""
    draws = [_in_stratum(rng, lo, hi, i, count) for i in range(count)]
    rng.shuffle(draws)
    return draws


def _redraw(stratum_draw: Callable[[], dict], accept: Callable[[dict], bool],
            what: str) -> dict:
    for _ in range(MAX_REDRAWS):
        inst = stratum_draw()
        if accept(inst):
            return inst
    raise RegimeError(f"{what}: no draw inside the solver regime after "
                      f"{MAX_REDRAWS} tries")


def _state_json(coeffs: np.ndarray) -> str:
    return json.dumps({"time": 0.0,
                       "coeffs": [[float(z.real), float(z.imag)]
                                  for z in coeffs]})


def _two_mode_state(inst: dict) -> SpectralState:
    return SpectralState.from_dict(json.loads(inst["phi"]))


def _phase(rng: random.Random) -> complex:
    return complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def _check_report(doc: dict, key: str) -> dict:
    report = doc.get(key)
    if not isinstance(report, dict):
        raise KeyError(f"output has no {key!r} object")
    return report


# -- inflate ---------------------------------------------------------------------

def _inflate_generate(rng: random.Random, size: dict) -> list:
    out = []
    for s in _stratified(rng, 2.0, 3.0, size["instances"]):
        s = round(s, 4)
        # sigma = s - 2 keeps |sigma - s| = 2, so T and the panel grid are
        # the same for every draw
        inst = {"N": size["inflate_N"], "s": s, "sigma": s - 2.0, "k": 1,
                "alpha": 2.0, "m_max": size["inflate_m_max"]}
        try:
            ExperimentConfig(**inst)      # rejects s below the alpha = 2 regime
        except ValueError as exc:
            raise RegimeError(f"inflate: {exc}")
        out.append(inst)
    return out


def _inflate_argv(inst: dict) -> list:
    return ["inflate", "--N", str(inst["N"]), "--s", repr(inst["s"]),
            "--sigma", repr(inst["sigma"]), "--k", str(inst["k"]),
            "--alpha", repr(inst["alpha"]), "--m-max", str(inst["m_max"])]


def _inflate_verify(inst: dict, doc: dict) -> Optional[str]:
    report = _check_report(doc, "report")
    if report.get("passed") is not True:
        failed = [k for k, c in report.get("checks", {}).items()
                  if not c.get("passed")]
        return f"report failed checks {failed}"
    N = inst["N"]
    target = N / math.log(N)
    tol = report["config"]["value_tol"]
    carrier = report["uT_norm_hsigma_lower"]
    if not abs(carrier - target) <= tol * target:
        return (f"carrier N^sigma |u(T,N)| = {carrier!r} misses "
                f"N/log N = {target!r} by more than {tol}")
    return None


# -- cross-validate ----------------------------------------------------------------

def _two_mode_instances(rng: random.Random, size: dict, alpha: int,
                        range1: tuple, range2: tuple,
                        accept: Callable[[dict], bool]) -> list:
    """Data on modes 1 and 2 with stratified magnitudes and random phases;
    a draw outside the solver regime is redrawn in the same strata."""
    M, count, T = size["xval_modes"], size["instances"], size["xval_T"]
    strata2 = list(range(count))
    rng.shuffle(strata2)
    out = []
    for i1, i2 in zip(range(count), strata2):
        def draw(i1=i1, i2=i2):
            r1 = _in_stratum(rng, *range1, i1, count)
            r2 = _in_stratum(rng, *range2, i2, count)
            c = np.zeros(M + 1, dtype=complex)
            c[1] = r1 * _phase(rng)
            c[2] = r2 * _phase(rng)
            return {"alpha": alpha, "k": 1, "T": T, "modes": M,
                    "abs_a1": r1, "abs_a2": r2, "phi": _state_json(c)}
        out.append(_redraw(draw, accept, f"alpha={alpha} data"))
    rng.shuffle(out)
    return out


def _xval_gauge_generate(rng: random.Random, size: dict) -> list:
    def accept(inst):
        phi = _two_mode_state(inst)
        psi = compatible_gauge_data(phi, 1)
        inst["h1_sum"] = sobolev_norm(phi, 1.0) + sobolev_norm(psi, 1.0)
        return inst["h1_sum"] <= GAUGE_SMALLNESS

    return _two_mode_instances(rng, size, 2, (0.04, 0.05), (0.0, 0.02),
                               accept)


def _xval_nf_generate(rng: random.Random, size: dict) -> list:
    ops = NormalFormOperators(EquationSpec.pure_power(1, 3.0),
                              size["xval_modes"])

    def accept(inst):
        report = ops.smallness_report(_two_mode_state(inst), inst["T"])
        inst["ball_lhs"], inst["ball_rhs"] = report.lhs, report.rhs
        return report.accepted

    return _two_mode_instances(rng, size, 3, (0.04, 0.05), (0.04, 0.05),
                               accept)


def _xval_argv(inst: dict) -> list:
    return ["cross-validate", "--alpha", str(inst["alpha"]),
            "--k", str(inst["k"]), "--T", repr(inst["T"]),
            "--phi", inst["phi"]]


def _xval_verify(inst: dict, doc: dict) -> Optional[str]:
    report = _check_report(doc, "report")
    tol = report["tolerance"]
    if report.get("passed") is not True:
        return "report not passed"
    if not report["max_disagreement"] <= tol:
        return f"max_disagreement {report['max_disagreement']!r} > {tol!r}"
    if inst["alpha"] == 2:
        defect = report.get("gauge_identity_defect")
        if defect is None or not defect <= tol:
            return f"gauge identity defect {defect!r} > {tol!r}"
        if report["pipelines"] != ["cascade", "gauge"]:
            return f"unexpected pipelines {report['pipelines']}"
    elif report["pipelines"] != ["cascade", "normal-form"]:
        return f"unexpected pipelines {report['pipelines']}"
    return None


# -- phase-check --------------------------------------------------------------------

def _phase_sweep(rng: random.Random, size: dict) -> list:
    """Every (alpha, k) in {2,3,4}x{1,2,3} at one cap, in the seed's order;
    single pairs differ in cost by ~70x, so an op always runs the sweep."""
    pairs = [(a, k) for a in (2, 3, 4) for k in (1, 2, 3)]
    rng.shuffle(pairs)
    return [{"alpha": a, "k": k, "cap": size["phase_cap"]}
            for a, k in pairs[: size["phase_pairs"]]]


def _phase_argv(inst: dict) -> list:
    return ["phase-check", "--alpha", str(inst["alpha"]), "--k",
            str(inst["k"]), "--cap", str(inst["cap"])]


def _phase_verify(inst: dict, doc: dict) -> Optional[str]:
    cert = _check_report(doc, "certificate")
    if cert.get("pass") is not True:
        return f"certificate failed: counterexample {cert.get('counterexample')}"
    expected = math.comb(inst["cap"] + inst["k"], inst["k"] + 1)
    if cert["tuples_checked"] != expected:
        return f"tuples_checked {cert['tuples_checked']} != C(cap+k, k+1) = {expected}"
    return None


def _verify_generate(rng: random.Random, size: dict) -> list:
    gauge = _xval_gauge_generate(rng, size)
    nf = _xval_nf_generate(rng, size)
    return [{"gauge": g, "normal_form": n, "phase": _phase_sweep(rng, size)}
            for g, n in zip(gauge, nf)]


def _verify_calls(inst: dict) -> list:
    xval, phase = COMMANDS["cross-validate"], COMMANDS["phase-check"]
    return ([(xval, inst["gauge"]), (xval, inst["normal_form"])]
            + [(phase, call) for call in inst["phase"]])


COMMANDS = {
    "inflate": Command(_inflate_argv, _inflate_verify),
    "cross-validate": Command(_xval_argv, _xval_verify),
    "phase-check": Command(_phase_argv, _phase_verify),
}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="inflate",
        why="headline norm-inflation run; the cascade takes ~96% of each op "
            "on a sparse support (9 rows), no spectral kernel, gauge or "
            "normal-form code runs",
        notes="N=16, k=1, alpha=2, m_max=8 (truncation 128, restricted "
              "support); s drawn in [2,3], sigma = s-2, so T and the panel "
              "grid are identical for every draw",
        generate=_inflate_generate,
        calls=lambda inst: [(COMMANDS["inflate"], inst)]),
    Workload(
        name="verify",
        why="the checks behind the paper's claims: cascade vs gauge (alpha=2) "
            "and vs normal form (alpha=3) at truncation 16, then the phase "
            "bound for nine (alpha,k) at cap 30",
        notes="one op is three kinds of call.  cross-validate --alpha 2: "
              "gauge_system_rhs dominates via many tiny truncated products, "
              "plus the cascade on a dense support; mean-zero data on modes "
              "1 and 2, |a1| in [0.04,0.05], |a2| in [0,0.02], random "
              "phases, draws with |phi|_H1 + |psi|_H1 > 0.25 (gauge "
              "smallness threshold) redrawn.  cross-validate --alpha 3: "
              "picard_solve dominates (table gathers, np.convolve in the "
              "velocity term), dense cascade at 1025 panels; modes 1 and 2 "
              "with |a| in [0.04,0.05], random phases, draws outside the "
              "certified contraction ball redrawn; every instance shares "
              "(alpha, k, M) = (3, 1, 16), so a cache of phase tables "
              "across calls would hit on every op.  phase-check: nine "
              "calls, the only calls that reach the phase layer; the seed "
              "only orders the pairs",
        generate=_verify_generate, calls=_verify_calls),
)}

LEFT_OUT = {
    "xval-gauge, xval-nf, phase-check as workloads of their own": "folded "
        "into verify: with 20 s runs their medians spread past the 25% "
        "bound on a shared 2-core host whose speed changes in phases; the "
        "time limit for all runs allows 45 s runs, which average over more "
        "phases, for two workloads",
    "inflate-unrestricted": "31.6 s per op; dense supports are already "
                            "covered by both xval workloads",
    "batch": "at one thread it is a loop over inflate",
    "cascade-M56-QuadratureError": "about 51 s per op; it stays the "
                                   "regression test of the robust tail check",
}


def generate(workload: Workload, seed: int, size: str = "full") -> list:
    """The instance list for ``seed``: the same seed gives the same list."""
    rng = random.Random(f"{workload.name}:{seed}")
    return workload.generate(rng, SIZES[size])
