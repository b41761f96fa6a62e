"""Command-line front door.

Subcommands map one-to-one onto the library pipelines:

    simulate        cascade solver, Trajectory JSON + mode-magnitude CSV
    picard          normal-form fixed point, convergence log CSV
    gauge           gauge system, both trajectories + gauge-identity defects
    phase-check     exhaustive lower-bound certification
    inflate         one norm-inflation experiment, NormReport JSON + CSV row
    cross-validate  cascade vs the independent pipeline
    batch           a JSON list of inflate configs -> summary CSV

Data goes to stdout or files, logs to stderr.  Every output embeds its
RunManifest (parameters, version, tolerances, wall-clock).  Exit codes:
0 all checks passed, 1 an identity failed or a solver gave up, 2 usage
error or refused input (bad values, unsupported regime, malformed or
unreadable files).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import __version__
from .cascade import cascade_integrate
from .gauge import (compatibility_defects, compatible_gauge_data,
                    gauge_picard_solve)
from .inflation import (CrossValidationConfig, ExperimentConfig,
                        UnsupportedRegimeError, cross_validate,
                        run_experiment)
from .normalform import picard_solve
from .phase import certify_phase_bound
from .spectral import DispersionKind, EquationSpec, SpectralState

__all__ = ["RunManifest", "dispatch", "main"]


@dataclass
class RunManifest:
    """Reproducibility record embedded in every output file."""

    subcommand: str
    parameters: dict
    version: str = __version__
    tolerances: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    duration_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "parameters": self.parameters,
            "version": self.version,
            "tolerances": self.tolerances,
            "outputs": self.outputs,
            "duration_seconds": self.duration_seconds,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        return cls(subcommand=d["subcommand"], parameters=d["parameters"],
                   version=d["version"], tolerances=d["tolerances"],
                   outputs=d["outputs"],
                   duration_seconds=d["duration_seconds"])

    def csv_lines(self) -> list:
        return [f"manifest: {json.dumps(self.to_dict(), sort_keys=True)}"]


def _log(msg: str):
    print(msg, file=sys.stderr)


def _load_state(arg: str, modes: int | None = None) -> SpectralState:
    """Parse a state from inline JSON (an object, starting with ``{``) or
    else from the file at that path; optionally pad to a requested
    truncation."""
    if arg.lstrip().startswith("{"):
        doc = json.loads(arg)
    else:
        with open(arg, encoding="utf-8") as fh:
            doc = json.load(fh)
    try:
        state = SpectralState.from_dict(doc)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state {arg!r}: {exc!r}") from exc
    if modes is not None and state.truncation != modes:
        if state.truncation < modes:
            c = np.zeros(modes + 1, dtype=complex)
            c[: state.coeffs.size] = state.coeffs
            state = SpectralState(c, state.time)
        else:
            extra = state.coeffs[modes + 1:]
            if np.any(extra != 0):
                raise ValueError(
                    f"state carries nonzero modes above the requested "
                    f"truncation {modes}")
            state = SpectralState(state.coeffs[: modes + 1], state.time)
    return state


def _emit_json(doc: dict, manifest: RunManifest, out: str | None):
    doc = {"manifest": manifest.to_dict(), **doc}
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        _log(f"wrote {out}")
    else:
        print(text)


# -- subcommand bodies -----------------------------------------------------------


def _cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    phi = _load_state(args.phi, args.modes)
    spec = EquationSpec.pure_power(args.k, args.alpha,
                                   kind=DispersionKind(args.dispersion))
    traj = cascade_integrate(phi, spec, args.T, tol=args.tol)
    manifest = RunManifest(
        subcommand="simulate",
        parameters={"alpha": args.alpha, "k": args.k,
                    "dispersion": args.dispersion, "T": args.T,
                    "modes": phi.truncation},
        tolerances={"quadrature": args.tol},
        outputs=[p for p in (args.out, args.csv) if p],
        duration_seconds=time.perf_counter() - t0)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            traj.write_csv(fh, manifest.csv_lines())
        _log(f"wrote {args.csv}")
    _emit_json({"trajectory": traj.to_dict()}, manifest, args.out)
    return 0


def _cmd_picard(args) -> int:
    t0 = time.perf_counter()
    phi = _load_state(args.phi)
    spec = EquationSpec.pure_power(args.k, args.alpha)
    traj, log = picard_solve(phi, spec, args.T, tol=args.tol,
                             max_iter=args.max_iter,
                             allow_unsafe=args.allow_unsafe)
    manifest = RunManifest(
        subcommand="picard",
        parameters={"alpha": args.alpha, "k": args.k, "T": args.T,
                    "max_iter": args.max_iter},
        tolerances={"picard": args.tol},
        outputs=[p for p in (args.out, args.log_csv) if p],
        duration_seconds=time.perf_counter() - t0)
    if args.log_csv:
        with open(args.log_csv, "w", encoding="utf-8") as fh:
            log.write_csv(fh, manifest.csv_lines())
        _log(f"wrote {args.log_csv}")
    _emit_json({
        "trajectory": traj.to_dict(),
        "converged": log.converged,
        "final_residual": log.final_residual,
        "chebyshev_tail": log.tail,
        "smallness": log.smallness.to_dict(),
        "iterations": [[i, d, r] for i, d, r in log.iterations],
    }, manifest, args.out)
    return 0 if log.converged else 1


def _cmd_gauge(args) -> int:
    t0 = time.perf_counter()
    phi = _load_state(args.phi)
    psi = (_load_state(args.psi, phi.truncation) if args.psi
           else compatible_gauge_data(phi, args.k))
    traj_u, traj_g, log = gauge_picard_solve(phi, psi, args.k, args.T,
                                             tol=args.tol,
                                             allow_unsafe=args.allow_unsafe)
    ts = traj_u.sample_times
    defects = compatibility_defects(traj_u, traj_g, args.k, ts)
    manifest = RunManifest(
        subcommand="gauge",
        parameters={"k": args.k, "T": args.T, "modes": phi.truncation},
        tolerances={"picard": args.tol},
        outputs=[args.out] if args.out else [],
        duration_seconds=time.perf_counter() - t0)
    _emit_json({
        "u": traj_u.to_dict(),
        "gu": traj_g.to_dict(),
        "gauge_identity_defects": [[float(t), float(d)]
                                   for t, d in zip(ts, defects)],
        "converged": log.converged,
        "final_residual": log.final_residual,
        "chebyshev_tail": log.tail,
        "smallness": log.smallness.to_dict(),
        "iterations": [[i, d, r] for i, d, r in log.iterations],
    }, manifest, args.out)
    return 0 if log.converged else 1


def _cmd_phase_check(args) -> int:
    t0 = time.perf_counter()
    cert = certify_phase_bound(args.alpha, args.k, args.cap)
    manifest = RunManifest(
        subcommand="phase-check",
        parameters={"alpha": args.alpha, "k": args.k, "cap": args.cap},
        outputs=[args.out] if args.out else [],
        duration_seconds=time.perf_counter() - t0)
    _emit_json({"certificate": cert.to_dict()}, manifest, args.out)
    return 0 if cert.passed else 1


def _cmd_inflate(args) -> int:
    t0 = time.perf_counter()
    config = ExperimentConfig(N=args.N, s=args.s, sigma=args.sigma, k=args.k,
                              alpha=args.alpha, m_max=args.m_max,
                              epsilon=args.epsilon)
    report = run_experiment(config)
    manifest = RunManifest(
        subcommand="inflate",
        parameters=config.to_dict(),
        tolerances={"identity": config.identity_tol,
                    "value": config.value_tol,
                    "quadrature": config.quadrature_tol},
        outputs=[p for p in (args.out, args.csv) if p],
        duration_seconds=time.perf_counter() - t0)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            for line in manifest.csv_lines():
                fh.write(f"# {line}\n")
            fh.write(report.CSV_HEADER + "\n")
            fh.write(report.csv_row() + "\n")
        _log(f"wrote {args.csv}")
    _emit_json({"report": report.to_dict()}, manifest, args.out)
    return 0 if report.passed else 1


def _cmd_cross_validate(args) -> int:
    t0 = time.perf_counter()
    phi = _load_state(args.phi)
    config = CrossValidationConfig(phi=phi, alpha=args.alpha, k=args.k,
                                   T=args.T, tolerance=args.tolerance)
    report = cross_validate(config)
    manifest = RunManifest(
        subcommand="cross-validate",
        parameters={"alpha": args.alpha, "k": args.k, "T": args.T},
        tolerances={"disagreement": report.tolerance},
        outputs=[args.out] if args.out else [],
        duration_seconds=time.perf_counter() - t0)
    _emit_json({"report": report.to_dict()}, manifest, args.out)
    return 0 if report.passed else 1


def _run_batch_entry(entry):
    index, doc = entry
    try:
        config = ExperimentConfig.from_dict(doc)
    except UnsupportedRegimeError:
        return index, doc, "unsupported-regime"
    except (KeyError, TypeError, ValueError) as exc:
        return index, None, f"malformed: {exc}"
    try:
        report = run_experiment(config)
    except RuntimeError as exc:
        return index, doc, f"error: {exc}"
    return index, report, "pass" if report.passed else "fail"


def _cmd_batch(args) -> int:
    t0 = time.perf_counter()
    try:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
        experiments = doc["experiments"] if isinstance(doc, dict) else doc
        if not isinstance(experiments, list):
            raise TypeError("expected a list of experiment configs")
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        _log(f"batch config error: {exc}")
        return 2
    results = [_run_batch_entry(item) for item in enumerate(experiments)]

    malformed = [(i, status) for i, rep, status in results
                 if status.startswith("malformed")]
    if malformed:
        for i, status in malformed:
            _log(f"experiment {i}: {status}")
        return 2

    from .inflation import NormReport
    manifest = RunManifest(
        subcommand="batch",
        parameters={"config": args.config, "n_experiments": len(experiments)},
        outputs=[args.csv] if args.csv else [],
        duration_seconds=time.perf_counter() - t0)
    lines = [f"# {line}" for line in manifest.csv_lines()]
    lines.append(NormReport.CSV_HEADER)
    any_fail = False
    for i, report, status in results:
        if status == "unsupported-regime" or status.startswith("error"):
            # flagged or crashed: reported in place of a data row
            doc = report
            tag = "unsupported-regime" if status == "unsupported-regime" \
                else "error"
            lines.append(f"{doc.get('N')},{doc.get('s')},{doc.get('sigma')},"
                         f"{doc.get('k')},{doc.get('alpha')},,,,,{tag}")
            _log(f"experiment {i}: {status}")
            any_fail = any_fail or tag == "error"
            continue
        any_fail = any_fail or status == "fail"
        lines.append(report.csv_row(status))
    text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
        _log(f"wrote {args.csv}")
    else:
        sys.stdout.write(text)
    return 1 if any_fail else 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once and shared by every ``dispatch``."""
    p = argparse.ArgumentParser(
        prog="halfline-dnls",
        description="Coefficient-space solvers and verification lab for "
                    "one-sided derivative NLS on the circle")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="cascade reference solver")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--dispersion", choices=[k.value for k in DispersionKind],
                    default="schrodinger")
    sp.add_argument("--phi", required=True, help="state JSON or path")
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--modes", type=int, default=None,
                    help="pad/validate the data to this truncation")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--out", default=None)
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=_cmd_simulate)

    pp = sub.add_parser("picard", help="normal-form fixed point solver")
    pp.add_argument("--alpha", type=float, required=True)
    pp.add_argument("--k", type=int, required=True)
    pp.add_argument("--phi", required=True)
    pp.add_argument("--T", type=float, required=True)
    pp.add_argument("--tol", type=float, default=1e-10)
    pp.add_argument("--max-iter", type=int, default=40)
    pp.add_argument("--allow-unsafe", action="store_true")
    pp.add_argument("--out", default=None)
    pp.add_argument("--log-csv", default=None)
    pp.set_defaults(func=_cmd_picard)

    gp = sub.add_parser("gauge", help="gauge pipeline (alpha = 2)")
    gp.add_argument("--k", type=int, required=True)
    gp.add_argument("--phi", required=True)
    gp.add_argument("--psi", default=None,
                    help="twisted data; defaults to the compatible one")
    gp.add_argument("--T", type=float, required=True)
    gp.add_argument("--tol", type=float, default=1e-10)
    gp.add_argument("--allow-unsafe", action="store_true")
    gp.add_argument("--out", default=None)
    gp.set_defaults(func=_cmd_gauge)

    cp = sub.add_parser("phase-check", help="certify the phase lower bound")
    cp.add_argument("--alpha", type=float, required=True)
    cp.add_argument("--k", type=int, required=True)
    cp.add_argument("--cap", type=int, required=True)
    cp.add_argument("--out", default=None)
    cp.set_defaults(func=_cmd_phase_check)

    ip = sub.add_parser("inflate", help="one norm-inflation experiment")
    ip.add_argument("--N", type=int, required=True)
    ip.add_argument("--s", type=float, required=True)
    ip.add_argument("--sigma", type=float, required=True)
    ip.add_argument("--k", type=int, required=True)
    ip.add_argument("--alpha", type=float, required=True)
    ip.add_argument("--epsilon", type=float, default=None)
    ip.add_argument("--m-max", type=int, default=8)
    ip.add_argument("--out", default=None)
    ip.add_argument("--csv", default=None)
    ip.set_defaults(func=_cmd_inflate)

    xp = sub.add_parser("cross-validate",
                        help="cascade vs the independent pipeline")
    xp.add_argument("--alpha", type=float, required=True)
    xp.add_argument("--k", type=int, required=True)
    xp.add_argument("--phi", required=True)
    xp.add_argument("--T", type=float, required=True)
    xp.add_argument("--tolerance", type=float, default=None)
    xp.add_argument("--out", default=None)
    xp.set_defaults(func=_cmd_cross_validate)

    bp = sub.add_parser("batch", help="run a JSON list of inflate configs")
    bp.add_argument("config")
    bp.add_argument("--csv", default=None)
    bp.set_defaults(func=_cmd_batch)
    return p


def dispatch(argv) -> int:
    """Route argv to a subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # refused input (including UnsupportedRegimeError) or a file that
        # cannot be read or written
        _log(f"error: {exc}")
        return 2
    except RuntimeError as exc:
        _log(f"error: {exc}")
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
