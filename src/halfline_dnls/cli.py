"""Command-line front door.

Subcommands map one-to-one onto the library pipelines:

    simulate        cascade solver, Trajectory JSON + mode-magnitude CSV
    picard          normal-form fixed point, convergence log CSV
    gauge           gauge system, both trajectories + gauge-identity defects
    phase-check     exhaustive lower-bound certification
    inflate         one norm-inflation experiment, NormReport JSON + CSV row
    cross-validate  cascade vs the independent pipeline
    batch           a JSON list of inflate configs -> summary CSV

Each subcommand body only computes: it returns a ``_Result`` and one
runner, ``_run``, does all output work.  Data goes to stdout or files, logs
to stderr.  Every output embeds its RunManifest (parameters, version,
tolerances, output files, wall-clock); a CSV carries it as its one
``# manifest:`` first line.  Exit codes:
0 all checks passed, 1 an identity failed, a solver gave up or memory ran
out, 2 usage error or refused input (bad values, unsupported regime,
malformed or unreadable files).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from typing import Callable, Optional, TextIO

import numpy as np

from . import __version__
from .cascade import cascade_integrate
from .gauge import (compatibility_defects, compatible_gauge_data,
                    gauge_picard_solve)
from .inflation import (ExperimentConfig, NormReport, UnsupportedRegimeError,
                        cross_validate, run_experiment)
from .normalform import MaxIterationsError, NonContractionError, picard_solve
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
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        """Inverse of ``to_dict``; keys that name no field are ignored."""
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


@dataclass
class _Result:
    """What a subcommand body hands the runner: its verdict, the manifest's
    parameters and tolerances, the JSON document (None when the CSV is the
    output) and a writer of the CSV body."""

    passed: bool
    parameters: dict
    tolerances: dict = field(default_factory=dict)
    doc: Optional[dict] = None
    csv: Optional[Callable[[TextIO], None]] = None


def _log(msg: str):
    print(msg, file=sys.stderr)


def _parse_json(text: str, where: str):
    """``json.loads`` whose syntax errors are ValueErrors naming ``where``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: invalid JSON: {exc}") from exc


def _load_state(arg: str, modes: int | None = None) -> SpectralState:
    """Parse a state from inline JSON (an object, starting with ``{``) or
    else from the file at that path; optionally pad to a requested
    truncation."""
    if arg.lstrip().startswith("{"):
        doc = _parse_json(arg, "inline --phi")
    else:
        with open(arg, encoding="utf-8") as fh:
            doc = _parse_json(fh.read(), f"state file {arg}")
    try:
        state = SpectralState.from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
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


def _write(path: str | None, write: Callable[[TextIO], None]) -> None:
    """``write`` to the file at ``path``, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
        _log(f"wrote {path}")
    else:
        write(sys.stdout)


def _run(args) -> int:
    """Run one subcommand body and do its output work: time it, build the
    RunManifest, write the CSV (``--csv``/``--log-csv``, or stdout for a
    body without a JSON document) after one ``# manifest:`` line, write the
    JSON with the manifest to ``--out`` or stdout, and return 0 when the
    body passed, else 1."""
    t0 = time.perf_counter()
    result = args.func(args)
    out = getattr(args, "out", None)
    csv_path = getattr(args, "csv", None) or getattr(args, "log_csv", None)
    manifest = RunManifest(
        subcommand=args.command, parameters=result.parameters,
        tolerances=result.tolerances,
        outputs=[p for p in (out, csv_path) if p],
        duration_seconds=time.perf_counter() - t0).to_dict()

    def write_csv(fh):
        fh.write(f"# manifest: {json.dumps(manifest, sort_keys=True)}\n")
        result.csv(fh)

    if result.csv is not None and (csv_path or result.doc is None):
        _write(csv_path, write_csv)
    if result.doc is not None:
        text = json.dumps({"manifest": manifest, **result.doc}, indent=2,
                          sort_keys=True)
        _write(out, lambda fh: fh.write(text + "\n"))
    return 0 if result.passed else 1


# -- subcommand bodies -----------------------------------------------------------


# solver failures that carry the PicardLog of the iteration that gave up
_FAILED_SOLVE = (MaxIterationsError, NonContractionError)


def _finite_or_none(x: float):
    """``x``, or None (JSON null) for the NaN of a value never measured."""
    return None if math.isnan(x) else x


def _log_doc(log) -> dict:
    """The JSON fields of a Picard solver's log; a failed solve has no
    residual or tail, and they read null."""
    return {
        "converged": log.converged,
        "final_residual": _finite_or_none(log.final_residual),
        "chebyshev_tail": _finite_or_none(log.tail),
        "grid_attempts": [[n, tail] for n, tail in log.grid_attempts],
        "smallness": log.smallness.to_dict(),
        "iterations": [[i, d, r] for i, d, r in log.iterations],
    }


def _cmd_simulate(args) -> _Result:
    phi = _load_state(args.phi, args.modes)
    spec = EquationSpec.pure_power(args.k, args.alpha,
                                   kind=DispersionKind(args.dispersion))
    traj = cascade_integrate(phi, spec, args.T, tol=args.tol)
    return _Result(
        passed=True,
        parameters={"alpha": args.alpha, "k": args.k,
                    "dispersion": args.dispersion, "T": args.T,
                    "modes": phi.truncation},
        tolerances={"quadrature": args.tol},
        doc={"trajectory": traj.to_dict()}, csv=traj.write_csv)


def _cmd_picard(args) -> _Result:
    phi = _load_state(args.phi)
    spec = EquationSpec.pure_power(args.k, args.alpha)
    try:
        traj, log = picard_solve(phi, spec, args.T, tol=args.tol,
                                 max_iter=args.max_iter,
                                 allow_unsafe=args.allow_unsafe)
        doc = {"trajectory": traj.to_dict()}
    except _FAILED_SOLVE as exc:
        # a failed solve still reports its iteration history
        _log(f"error: {exc}")
        log, doc = exc.log, {}
    return _Result(
        passed=log.converged,
        parameters={"alpha": args.alpha, "k": args.k, "T": args.T,
                    "max_iter": args.max_iter},
        tolerances={"picard": args.tol},
        doc={**doc, **_log_doc(log)}, csv=log.write_csv)


def _cmd_gauge(args) -> _Result:
    phi = _load_state(args.phi)
    psi = (_load_state(args.psi, phi.truncation) if args.psi
           else compatible_gauge_data(phi, args.k))
    try:
        traj_u, traj_g, log = gauge_picard_solve(
            phi, psi, args.k, args.T, tol=args.tol,
            allow_unsafe=args.allow_unsafe)
    except _FAILED_SOLVE as exc:
        _log(f"error: {exc}")
        log, doc = exc.log, {}
    else:
        ts = traj_u.sample_times
        defects = compatibility_defects(traj_u.dense_at(ts),
                                        traj_g.dense_at(ts), args.k)
        doc = {"u": traj_u.to_dict(), "gu": traj_g.to_dict(),
               "gauge_identity_defects": [[float(t), float(d)]
                                          for t, d in zip(ts, defects)]}
    return _Result(
        passed=log.converged,
        parameters={"k": args.k, "T": args.T, "modes": phi.truncation},
        tolerances={"picard": args.tol},
        doc={**doc, **_log_doc(log)})


def _cmd_phase_check(args) -> _Result:
    cert = certify_phase_bound(args.alpha, args.k, args.cap)
    return _Result(
        passed=cert.passed,
        parameters={"alpha": args.alpha, "k": args.k, "cap": args.cap},
        doc={"certificate": cert.to_dict()})


def _cmd_inflate(args) -> _Result:
    config = ExperimentConfig(N=args.N, s=args.s, sigma=args.sigma, k=args.k,
                              alpha=args.alpha, m_max=args.m_max,
                              epsilon=args.epsilon)
    report = run_experiment(config)
    return _Result(
        passed=report.passed,
        parameters=config.to_dict(),
        tolerances={"identity": config.identity_tol,
                    "value": config.value_tol,
                    "quadrature": config.quadrature_tol},
        doc={"report": report.to_dict()},
        csv=lambda fh: fh.write(f"{report.CSV_HEADER}\n{report.csv_row()}\n"))


def _cmd_cross_validate(args) -> _Result:
    report = cross_validate(_load_state(args.phi), args.alpha, args.k, args.T,
                            args.tolerance)
    return _Result(
        passed=report.passed,
        parameters={"alpha": args.alpha, "k": args.k, "T": args.T},
        tolerances={"disagreement": report.tolerance},
        doc={"report": report.to_dict()})


def _flagged_row(entry: dict, tag: str) -> str:
    """A summary row for an experiment that gave no report."""
    keys = ("N", "s", "sigma", "k", "alpha")
    return ",".join([str(entry.get(key)) for key in keys] + [""] * 4 + [tag])


def _cmd_batch(args) -> _Result:
    with open(args.config, encoding="utf-8") as fh:
        doc = _parse_json(fh.read(), f"batch config {args.config}")
    entries = doc.get("experiments") if isinstance(doc, dict) else doc
    if not isinstance(entries, list):
        raise ValueError(f"batch config {args.config}: expected a list of "
                         "experiment configs")
    # every entry is parsed before any runs; None flags an unsupported regime
    configs = []
    for i, entry in enumerate(entries):
        try:
            configs.append(ExperimentConfig.from_dict(entry))
        except UnsupportedRegimeError:
            configs.append(None)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"experiment {i}: malformed config: {exc}") \
                from exc

    rows, passed = [NormReport.CSV_HEADER], True
    for i, (entry, config) in enumerate(zip(entries, configs)):
        if config is None:
            _log(f"experiment {i}: unsupported-regime")
            rows.append(_flagged_row(entry, "unsupported-regime"))
            continue
        try:
            report = run_experiment(config)
        except (RuntimeError, ValueError) as exc:
            # the entry's own failure (a solver that gave up, or a value
            # such as mu(n) that overflows): its row, not the batch's
            _log(f"experiment {i}: error: {exc}")
            rows.append(_flagged_row(entry, "error"))
            passed = False
            continue
        rows.append(report.csv_row())
        passed = passed and report.passed
    return _Result(
        passed=passed,
        parameters={"config": args.config, "n_experiments": len(entries)},
        csv=lambda fh: fh.write("\n".join(rows) + "\n"))


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
        return _run(args)
    except (ValueError, OSError) as exc:
        # refused input (including UnsupportedRegimeError) or a file that
        # cannot be read or written
        _log(f"error: {exc}")
        return 2
    except RuntimeError as exc:
        _log(f"error: {exc}")
        return 1
    except MemoryError as exc:
        # a solve that fits quadrature.NODE_BUDGET but not the machine
        _log(f"error: out of memory: {exc}" if str(exc)
             else "error: out of memory")
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
