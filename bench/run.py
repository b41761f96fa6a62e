#!/usr/bin/env python3
"""Benchmark of halfline-dnls through its CLI front door.

Run from the repository root:

    python3 bench/run.py --workload inflate --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45

Each op is one or more ``halfline_dnls.cli.dispatch(argv)`` calls (eleven
for ``verify``), run in process in a closed loop with one client, with
``HALFLINE_DNLS_THREADS=1`` and the BLAS thread counts pinned to 1.  An op
counts only when every call returns 0 and its parsed output verifies;
failed ops are never retried.  After one untimed warm-up op, the run cycles
through the workload's instance list until ``--seconds`` of loop time (ops
and the calibration kernel, not set-up samples) have elapsed.  Set-up is
sampled in fresh interpreters spread over the run, so that set-up samples
and ops see the same host speed.  The bounded timings are scaled to a
reference host speed by a calibration kernel run after every CLI call and
set-up sample (see ``hostspeed.py``); the raw timings are printed and
recorded beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops, and prints the per-layer metrics derived
from spans recorded around the package's layer boundaries (see
``tracing.py``), plus the tracing overhead.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record (seed, instances, per-op latencies, machine) is
written to ``bench/results/``.  Exit code 0 means every op verified, 1 that
some op failed, 2 that the benchmark could not run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

PINNED_ENV = {
    "HALFLINE_DNLS_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_REPEATS = {"full": 9, "tiny": 1}
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "latency_p50_s": "s",
    "throughput_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class CannotRun(RuntimeError):
    """The package is missing from this checkout, or no inputs can be made."""


def import_program():
    """Import the package from this checkout, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import halfline_dnls
        from halfline_dnls import cli, quadrature
    except ImportError as exc:
        raise CannotRun(f"cannot import halfline_dnls from {SRC}: {exc}")
    location = Path(halfline_dnls.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise CannotRun(f"halfline_dnls imported from {location}, "
                        f"not from {SRC}")
    return cli, quadrature


def setup_probe(args) -> int:
    """What a fresh CLI process pays before its first op: import the CLI,
    build the parser and the panel scheme, and generate the inputs."""
    cli, quadrature = import_program()
    import workloads
    cli.build_parser()
    quadrature.panel_scheme(quadrature.DEFAULT_POINTS)
    workloads.generate(workloads.WORKLOADS[args.workload], args.seed,
                       args.size)
    return 0


def measure_setup(args) -> float:
    """Seconds one fresh interpreter takes for ``setup_probe``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    t0 = time.perf_counter()
    try:
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S)
    except subprocess.CalledProcessError as exc:
        raise CannotRun(f"set-up probe failed: {exc.stderr.decode()}")
    except subprocess.TimeoutExpired:
        raise CannotRun(f"set-up probe took over {SETUP_TIMEOUT_S} s")
    return time.perf_counter() - t0


# -- the closed loop ---------------------------------------------------------------

def run_op(cli, workload, inst: dict, op: int, rec=None,
           clock=None) -> dict:
    """Run one instance, timing its CLI calls, then check them.  With a
    ``clock``, each call is also scaled to the reference host speed; the
    clock's kernel runs between calls, outside their timing."""
    captured = []
    latency = scaled = 0.0
    span = rec.begin_op(op) if rec is not None else None
    for command, call in workload.calls(inst):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code, crash = cli.dispatch(command.argv(call)), None
            except Exception:    # a crashing op is a failed op, not a crash
                code, crash = None, traceback.format_exc()
        seconds = time.perf_counter() - t0
        latency += seconds
        if clock is not None:
            scaled += clock.scale(seconds)
        captured.append((command, call, code, crash, out.getvalue(),
                         err.getvalue()))
    if rec is not None:
        rec.close(span)
        rec.counters["cli.output_bytes"] += sum(len(c[4].encode())
                                                for c in captured)
    reasons = [r for r in (verdict(*c) for c in captured) if r]
    result = {"raw_s": latency, "ok": not reasons,
              "reason": "; ".join(reasons) or None}
    if clock is not None:
        result["scaled_s"] = scaled
    return result


def verdict(command, call: dict, code, crash, text: str,
            err: str) -> Optional[str]:
    """Why one CLI call failed, or None when it verifies."""
    if crash is not None:
        return f"dispatch raised: {crash.strip().splitlines()[-1]}"
    try:
        reason = command.verify(call, json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        reason = f"malformed output: {exc!r}"
    if code != 0:
        reason = (f"exit code {code}; {reason or 'output verifies'}; "
                  f"stderr: {err.strip()[-300:]}")
    return reason


def warm_up(cli, workload, instances: list) -> list:
    """One untimed op, so lazy caches fill before timing."""
    return [{"instance": 0, "warm_up": True,
             **run_op(cli, workload, instances[0], -1)}]


def closed_loop(cli, workload, instances: list, budget_s: float,
                probe, repeats: int, clock) -> tuple:
    """Ops cycling through ``instances`` until ``budget_s`` of loop time
    has elapsed, with a set-up sample from ``probe`` after every
    ``budget_s / repeats`` of it.  Returns the ops and the set-up samples,
    raw and scaled by ``clock``."""
    ops, setup = [], []
    loop_s = 0.0
    while True:
        i = len(ops) % len(instances)
        t0 = time.perf_counter()
        ops.append({"instance": i, **run_op(cli, workload, instances[i],
                                            len(ops), clock=clock)})
        loop_s += time.perf_counter() - t0
        if len(setup) * budget_s <= loop_s * repeats:
            seconds = probe()
            setup.append({"raw_s": seconds, "scaled_s": clock.scale(seconds)})
        if loop_s >= budget_s:
            return ops, setup


def traced_loop(cli, workload, instances: list, budget_s: float,
                rec) -> tuple:
    """Untraced and traced runs of each instance in turn until
    ``budget_s`` has elapsed, so both halves see the same host speed;
    returns both op lists."""
    plain, traced = [], []
    t0 = time.perf_counter()
    while True:
        i = len(plain) % len(instances)
        plain.append({"instance": i, **run_op(cli, workload, instances[i],
                                              len(plain))})
        rec.install()
        try:
            traced.append({"instance": i,
                           **run_op(cli, workload, instances[i],
                                    len(traced), rec)})
        finally:
            rec.uninstall()
        if time.perf_counter() - t0 >= budget_s:
            return plain, traced


def tail(latencies: list) -> dict:
    """p90, interpolated, with the number of samples beyond it.  A run has
    too few ops for the highest percentile with ten samples beyond it to
    lie above the median."""
    xs = sorted(latencies)
    value = (statistics.quantiles(xs, n=10, method="inclusive")[-1]
             if len(xs) > 1 else xs[0])
    return {"value": value, "beyond": sum(x > value for x in xs),
            "samples": len(xs)}


def end_to_end(ops: list, setup: list, clock) -> tuple:
    """The bounded metrics, with times at the reference host speed, and
    the unbounded ones: the same times raw, the tail and the fail ratio."""
    ok = sum(op["ok"] for op in ops)

    def timings(key):
        lat = [op[key] for op in ops]
        return {"latency_p50_s": statistics.median(lat),
                "throughput_ops_per_s": ok / sum(lat),
                "setup_s": statistics.median(s[key] for s in setup),
                "latency_tail_s": tail(lat)}

    scaled, raw = timings("scaled_s"), timings("raw_s")
    metrics = {
        "latency_p50_s": scaled["latency_p50_s"],
        "throughput_ops_per_s": scaled["throughput_ops_per_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": scaled["setup_s"],
    }
    extra = {"tail": scaled["latency_tail_s"], "raw": raw,
             "fail_ratio": (len(ops) - ok) / len(ops),
             "host_speed": clock.speed()}
    return metrics, extra


# -- one workload ---------------------------------------------------------------------

def run_workload(args) -> int:
    cli, _ = import_program()
    import numpy as np
    import hostspeed
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    try:
        instances = workloads.generate(workload, args.seed, args.size)
    except workloads.RegimeError as exc:
        raise CannotRun(str(exc))

    record = {
        "workload": workload.name, "why": workload.why,
        "notes": workload.notes, "left_out": workloads.LEFT_OUT,
        "seed": args.seed, "size": args.size, "seconds": args.seconds,
        "trace": args.trace, "instances": instances,
        "machine": {"nproc": os.cpu_count(), "python": sys.version,
                    "numpy": np.__version__, "platform": platform.platform(),
                    "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV}},
        "closed_loop": {"clients": 1},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}"

    warm = warm_up(cli, workload, instances)
    if not args.trace:
        clock = hostspeed.HostClock()
        ops, setup = closed_loop(
            cli, workload, instances, args.seconds,
            lambda: measure_setup(args), SETUP_REPEATS[args.size], clock)
        metrics, extra = end_to_end(ops, setup, clock)
        units = END_TO_END_UNITS
        record.update(extra, setup_samples=setup,
                      clock_samples_s=clock.samples)
        raw = extra["raw"]
        lines = [f"fail_ratio {extra['fail_ratio']!r} of {len(ops)} ops",
                 f"latency_tail_s {extra['tail']['value']!r} s (p90, "
                 f"{extra['tail']['beyond']} of {extra['tail']['samples']} "
                 f"samples beyond it)",
                 f"host_speed {extra['host_speed']!r} (1 = reference); raw "
                 f"latency_p50_s {raw['latency_p50_s']!r} s, "
                 f"throughput_ops_per_s {raw['throughput_ops_per_s']!r} 1/s, "
                 f"setup_s {raw['setup_s']!r} s"]
    else:
        rec = tracing.SpanRecorder()
        plain, traced = traced_loop(cli, workload, instances, args.seconds,
                                    rec)
        metrics = tracing.layer_metrics(rec, len(traced))
        metrics["trace.overhead"] = (
            statistics.median(o["raw_s"] for o in traced)
            / statistics.median(o["raw_s"] for o in plain))
        units = tracing.LAYER_UNITS
        ops = plain + traced
        record["untraced_ops"] = len(plain)
        record["trace_points_missing"] = rec.skipped
        rec.write(stem.with_suffix(".spans.csv.gz"))
        lines = [f"{len(rec.start)} spans over {len(traced)} traced ops"]

    ops = warm + ops
    failed = sum(not op["ok"] for op in ops)
    record["ops"] = ops
    record["metrics"] = metrics
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    for name, value in metrics.items():
        print(f"{workload.name} {name} {value!r} {units[name]}")
    lines.append(f"seed {args.seed}, {len(instances)} instances, nproc "
                 f"{os.cpu_count()}, Python {platform.python_version()}, "
                 f"numpy {np.__version__}, threads pinned to 1; record "
                 f"{stem.with_suffix('.json').relative_to(ROOT)}")
    for line in lines:
        print(f"{workload.name} {line}")
    for op in ops:
        if not op["ok"]:
            print(f"{workload.name} FAILED instance {op['instance']}: "
                  f"{op['reason']}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    import_program()
    import workloads
    code = 0
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = None
        if proc.returncode != 0 or not (results[name] or {}).get("correct"):
            code = max(code, proc.returncode or 1)
    print(json.dumps({"correct": code == 0, "workloads": results}))
    return code


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["inflate", "verify", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=sorted(SETUP_REPEATS), default="full",
                   help="tiny runs one small instance per workload")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(PINNED_ENV)     # before numpy loads
    try:
        if args.setup_probe:
            return setup_probe(args)
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except CannotRun as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
