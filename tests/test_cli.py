"""CLI dispatch, exit codes, output schemas, batch runs, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from halfline_dnls import cli
from halfline_dnls.cli import RunManifest, build_parser, dispatch
from halfline_dnls.inflation import NormReport


def _phi_file(tmp_path, modes, M, name="phi.json"):
    coeffs = [[0.0, 0.0] for _ in range(M + 1)]
    for n, (re, im) in modes.items():
        coeffs[n] = [re, im]
    path = tmp_path / name
    path.write_text(json.dumps({"time": 0.0, "coeffs": coeffs}))
    return str(path)


def test_no_arguments_is_usage_error(capsys):
    assert dispatch([]) == 2
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert dispatch(["phase-check", "--alpha", "2", "--k", "1",
                     "--cap", "10", "--bogus"]) == 2
    capsys.readouterr()


def test_phase_check_pass(capsys):
    code = dispatch(["phase-check", "--alpha", "2", "--k", "1", "--cap", "30"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["pass"] is True
    assert doc["manifest"]["subcommand"] == "phase-check"
    assert "counterexample" not in doc["certificate"]


def _file_run(tmp_path, command):
    """argv of a small ``command`` run and its file options, in the order
    the manifest lists their files."""
    phi = _phi_file(tmp_path, {1: (0.02, 0.0), 2: (0.0, 0.02)}, 6)
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps({"experiments": [
        {"N": 4, "s": 2.0, "sigma": 0.0, "k": 1, "alpha": 2.0, "m_max": 2}]}))
    return {
        "phase-check": (["phase-check", "--alpha", "2", "--k", "1",
                         "--cap", "10"], ["--out"]),
        "cross-validate": (["cross-validate", "--alpha", "3", "--k", "1",
                            "--T", "0.25", "--phi", phi], ["--out"]),
        "simulate": (["simulate", "--alpha", "2", "--k", "1", "--T", "0.25",
                      "--phi", phi], ["--out", "--csv"]),
        "picard": (["picard", "--alpha", "3", "--k", "1", "--T", "0.25",
                    "--phi", phi], ["--out", "--log-csv"]),
        "gauge": (["gauge", "--k", "1", "--T", "0.25", "--phi", phi],
                  ["--out"]),
        "inflate": (["inflate", "--N", "5", "--s", "2", "--sigma", "0",
                     "--k", "1", "--alpha", "2", "--m-max", "2"],
                    ["--out", "--csv"]),
        "batch": (["batch", str(batch)], ["--csv"]),
    }[command]


def _manifest_line(text):
    """The CSV's one manifest line, parsed; no other line is a comment."""
    lines = text.splitlines()
    assert lines[0].startswith("# manifest: ")
    assert not any(line.startswith("#") for line in lines[1:])
    return json.loads(lines[0][len("# manifest: "):])


COMMANDS = ["phase-check", "cross-validate", "simulate", "picard", "gauge",
            "inflate", "batch"]


@pytest.mark.parametrize("command", COMMANDS)
def test_out_file_listed_in_manifest(tmp_path, capsys, command):
    argv, options = _file_run(tmp_path, command)
    paths = [str(tmp_path / f"file{i}") for i in range(len(options))]
    files = [a for pair in zip(options, paths) for a in pair]
    assert dispatch(argv + files) == 0
    assert capsys.readouterr().out == ""
    if command == "batch":
        manifest = _manifest_line((tmp_path / "file0").read_text())
    else:
        manifest = json.loads((tmp_path / "file0").read_text())["manifest"]
    assert manifest["subcommand"] == command
    assert manifest["outputs"] == paths
    # on stdout, the same run lists no files
    assert dispatch(argv) == 0
    out = capsys.readouterr().out
    manifest = (_manifest_line(out) if command == "batch"
                else json.loads(out)["manifest"])
    assert manifest["outputs"] == []


@pytest.mark.parametrize("command", ["simulate", "picard", "inflate"])
def test_csv_manifest_line_is_the_json_manifest(tmp_path, capsys, command):
    argv, _ = _file_run(tmp_path, command)
    out, csv = tmp_path / "out.json", tmp_path / "out.csv"
    csv_flag = "--log-csv" if command == "picard" else "--csv"
    assert dispatch(argv + ["--out", str(out), csv_flag, str(csv)]) == 0
    manifest = json.loads(out.read_text())["manifest"]
    assert _manifest_line(csv.read_text()) == manifest
    assert manifest["outputs"] == [str(out), str(csv)]
    capsys.readouterr()


@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "batch"])
def test_json_on_stdout_is_one_line_of_the_indented_document(
        tmp_path, capsys, monkeypatch, command):
    # the document is written on one line, which json.loads to the object
    # of its old indent=2 encoding: same keys, key order and float reprs
    argv, _ = _file_run(tmp_path, command)
    dumps, docs = json.dumps, []

    def recording_dumps(obj, **kwargs):
        docs.append(obj)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", recording_dumps)
    assert dispatch(argv) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    assert (dumps(json.loads(out), indent=2, sort_keys=True)
            == dumps(docs[-1], indent=2, sort_keys=True))


def test_dispatch_reuses_one_parser(tmp_path, capsys):
    assert build_parser() is build_parser()
    # the shared parser keeps nothing from one call to the next
    out = tmp_path / "cert.json"
    args = ["phase-check", "--alpha", "2", "--k", "1", "--cap", "8"]
    assert dispatch(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert dispatch(args) == 0
    assert json.loads(capsys.readouterr().out)["certificate"]["pass"] is True


def test_simulate_outputs(tmp_path, capsys):
    phi = _phi_file(tmp_path, {0: (0.2, 0.0), 1: (0.1, 0.0)}, 6)
    out = tmp_path / "traj.json"
    csv = tmp_path / "traj.csv"
    code = dispatch(["simulate", "--alpha", "2", "--k", "1", "--phi", phi,
                     "--T", "0.5", "--tol", "1e-10",
                     "--out", str(out), "--csv", str(csv)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["trajectory"]["truncation"] == 6
    assert doc["manifest"]["parameters"]["T"] == 0.5
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("# manifest:")
    assert lines[1] == "t,n,abs,arg"
    # every data cell is a plain number under every numpy
    for line in lines[2:]:
        t, n, a, arg = line.split(",")
        float(t), int(n), float(a), float(arg)
    capsys.readouterr()


def test_simulate_airy_dispersion(tmp_path, capsys):
    phi = _phi_file(tmp_path, {0: (0.2, 0.0), 1: (0.1, 0.0)}, 6)
    code = dispatch(["simulate", "--alpha", "3", "--k", "1",
                     "--dispersion", "airy_type", "--phi", phi,
                     "--T", "0.25"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["trajectory"]["spec"]["dispersion_kind"] == "airy_type"


def test_picard_outputs(tmp_path, capsys):
    phi = _phi_file(tmp_path, {1: (0.05, 0.0)}, 6)
    log_csv = tmp_path / "log.csv"
    code = dispatch(["picard", "--alpha", "3", "--k", "1", "--phi", phi,
                     "--T", "0.5", "--log-csv", str(log_csv)])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["smallness"]["accepted"] is True
    assert 0.0 <= doc["chebyshev_tail"] <= 1e-10
    # the accepted grid is the last one tried and the trajectory's grid
    n_panels, tail = doc["grid_attempts"][-1]
    assert n_panels == doc["trajectory"]["n_panels"]
    assert tail == doc["chebyshev_tail"]
    rows = log_csv.read_text().splitlines()
    assert rows[1] == "iteration,sup_h1_difference,ratio"
    assert len(rows) >= 3


def test_gauge_outputs(tmp_path, capsys):
    phi = _phi_file(tmp_path, {1: (0.05, 0.0)}, 8)
    code = dispatch(["gauge", "--k", "1", "--phi", phi, "--T", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    defects = [d for _, d in doc["gauge_identity_defects"]]
    assert max(defects) < 1e-8
    # the same solver log as `picard`: residual, smallness report, history
    assert 0.0 <= doc["final_residual"] < 1e-10
    assert 0.0 <= doc["chebyshev_tail"] <= 1e-10
    assert doc["smallness"]["accepted"] is True
    assert doc["smallness"]["ball_lhs"] < doc["smallness"]["ball_rhs"]
    iters = doc["iterations"]
    assert [i for i, _, _ in iters] == list(range(1, len(iters) + 1))
    assert iters[-1][1] <= 1e-10 and iters[0][2] is None
    assert doc["grid_attempts"][-1] == [doc["u"]["n_panels"],
                                        doc["chebyshev_tail"]]


def test_failed_picard_solve_prints_its_log(tmp_path, capsys):
    phi = _phi_file(tmp_path, {1: (0.05, 0.0), 2: (0.05, 0.0)}, 4)
    log_csv = tmp_path / "log.csv"
    code = dispatch(["picard", "--alpha", "3", "--k", "1", "--phi", phi,
                     "--T", "0.5", "--max-iter", "1",
                     "--log-csv", str(log_csv)])
    captured = capsys.readouterr()
    assert code == 1
    assert "no convergence after 1 iterations" in captured.err
    doc = json.loads(captured.out)
    assert doc["converged"] is False
    assert "trajectory" not in doc
    assert len(doc["iterations"]) == 1 and doc["iterations"][0][1] > 1e-10
    # nothing was measured after the failure: null, not NaN
    assert doc["final_residual"] is None and doc["chebyshev_tail"] is None
    assert doc["grid_attempts"] == []
    assert doc["smallness"]["accepted"] is True
    rows = log_csv.read_text().splitlines()
    manifest = json.dumps(doc["manifest"], sort_keys=True)
    assert rows[0] == f"# manifest: {manifest}"
    assert rows[1:] == ["iteration,sup_h1_difference,ratio",
                        f"1,{doc['iterations'][0][1]!r},"]


def test_failed_gauge_solve_prints_its_log(tmp_path, capsys):
    # far outside the smallness ball the iterates stop contracting
    phi = _phi_file(tmp_path, {1: (1.0, 0.0), 2: (1.0, 0.0)}, 8)
    code = dispatch(["gauge", "--k", "1", "--phi", phi, "--T", "1",
                     "--allow-unsafe"])
    captured = capsys.readouterr()
    assert code == 1
    assert "stopped contracting" in captured.err
    doc = json.loads(captured.out)
    assert doc["converged"] is False
    assert not {"u", "gu", "gauge_identity_defects"} & set(doc)
    assert doc["smallness"]["accepted"] is False
    assert doc["iterations"][-1][2] >= 1.0


def test_inflate_headline_number(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = dispatch(["inflate", "--N", "8", "--s", "2", "--sigma", "0",
                     "--k", "1", "--alpha", "2", "--m-max", "2",
                     "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    rep = doc["report"]
    assert rep["passed"] is True
    assert rep["carrier_final_abs"] == pytest.approx(8 / math.log(8),
                                                     rel=1e-9)
    capsys.readouterr()


def test_inflate_reports_the_cascade_rungs(capsys):
    code = dispatch(["inflate", "--N", "8", "--s", "2", "--sigma", "0",
                     "--k", "1", "--alpha", "2", "--m-max", "2"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    tol = rep["config"]["quadrature_tol"]
    *refused, (n_last, tail_last, estimate_last) = rep["grid_attempts"]
    # 5 panels fail their tails, 20 their estimate, and 40 pass both
    assert [n for n, _, _ in refused] == [5, 20] and n_last == 40
    assert all(max(tail, estimate) > tol for _, tail, estimate in refused)
    assert max(tail_last, estimate_last) <= tol


def test_inflate_lists_every_rung_with_its_tail_and_estimate(capsys):
    # the headline climbs from 223 panels, whose tail fails and sizes the
    # next rung; 576 panels pass their tail but not their estimate
    # (9.8e-10), and 720 pass both.  Every rung records both, none null
    code = dispatch(["inflate", "--N", "16", "--s", "2.5", "--sigma", "0.5",
                     "--k", "1", "--alpha", "2", "--m-max", "8"])
    assert code == 0
    text = capsys.readouterr().out
    rep = json.loads(text)["report"]
    tol = rep["config"]["quadrature_tol"]
    attempts = rep["grid_attempts"]
    assert [n for n, _, _ in attempts] == [223, 576, 720]
    assert attempts[0][1] > tol and attempts[0][2] > tol
    assert attempts[1][1] <= tol < attempts[1][2]
    assert max(attempts[2][1:]) <= tol
    assert all(x is not None for attempt in attempts for x in attempt)


def test_cross_validate(tmp_path, capsys):
    phi = _phi_file(tmp_path, {1: (0.05, 0.0), 2: (0.05, 0.0)}, 8)
    code = dispatch(["cross-validate", "--alpha", "3", "--k", "1",
                     "--phi", phi, "--T", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["passed"] is True
    assert doc["report"]["max_disagreement"] < 1e-8


def test_simulate_negative_horizon_is_input_error(tmp_path, capsys):
    phi = _phi_file(tmp_path, {1: (0.1, 0.0)}, 4)
    assert dispatch(["simulate", "--alpha", "2", "--k", "1", "--phi", phi,
                     "--T", "-1"]) == 2
    assert "T must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("modes", ["-3", "0"])
def test_simulate_modes_below_one_is_input_error(tmp_path, capsys, modes):
    # a negative truncation used to slice the data from its end: -3 on
    # truncation-4 data whose modes 3 and 4 are zero ran at truncation 2
    phi = _phi_file(tmp_path, {0: (0.2, 0.0), 1: (0.1, 0.0),
                               2: (0.05, 0.0)}, 4)
    assert dispatch(["simulate", "--alpha", "2", "--k", "1", "--T", "0.25",
                     "--modes", modes, "--phi", phi]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --modes must be >= 1, got {modes}\n"


# NaN fails every comparison, so a check written as ``x <= 0`` lets it
# through; a NaN tol would pass every rung, an infinite T or sigma
# overflows, and a NaN epsilon is not valid JSON
@pytest.mark.parametrize("argv, message", [
    (["simulate", "--alpha", "2", "--k", "1", "--T", "0.25",
      "--tol", "nan"], "tol must be positive and finite"),
    (["simulate", "--alpha", "2", "--k", "1", "--T", "inf"],
     "T must be positive and finite"),
    (["simulate", "--alpha", "2", "--k", "1", "--T", "nan"],
     "T must be positive and finite"),
    (["picard", "--alpha", "3", "--k", "1", "--T", "nan"],
     "T must be positive and finite"),
    (["picard", "--alpha", "3", "--k", "1", "--T", "1", "--tol", "inf"],
     "tol must be positive and finite"),
    (["gauge", "--k", "1", "--T", "inf"], "T must be positive and finite"),
    (["gauge", "--k", "1", "--T", "0.5", "--tol", "nan"],
     "tol must be positive and finite"),
    (["inflate", "--N", "16", "--s", "2.5", "--sigma", "inf", "--k", "1",
      "--alpha", "2"], "sigma must be finite"),
    (["inflate", "--N", "16", "--s", "nan", "--sigma", "0.5", "--k", "1",
      "--alpha", "2"], "s must be finite"),
    (["inflate", "--N", "16", "--s", "2.5", "--sigma", "0.5", "--k", "1",
      "--alpha", "2", "--epsilon", "nan"],
     "epsilon must be positive and finite"),
])
def test_non_finite_input_is_input_error(tmp_path, capsys, argv, message):
    if argv[0] != "inflate":
        argv = argv + ["--phi", _phi_file(tmp_path, {1: (0.05, 0.0)}, 4)]
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_missing_phi_file_is_input_error(tmp_path, capsys):
    missing = str(tmp_path / "nonexistent.json")
    assert dispatch(["simulate", "--alpha", "2", "--k", "1", "--phi", missing,
                     "--T", "0.5"]) == 2
    err = capsys.readouterr().err
    assert missing in err
    assert "Expecting value" not in err


def test_malformed_phi_is_input_error(capsys):
    assert dispatch(["simulate", "--alpha", "2", "--k", "1",
                     "--phi", '{"time": 0}', "--T", "0.5"]) == 2
    assert "malformed state" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [[0.1], [0.1, 0, 3]])
@pytest.mark.parametrize("flag", ["--phi", "--psi"])
def test_coefficient_entry_that_is_not_a_pair_is_named(capsys, entry, flag):
    # --psi is read after --phi, so a bad --phi is refused first
    bad = json.dumps({"time": 0, "coeffs": [[0, 0], entry]})
    good = '{"time": 0, "coeffs": [[0, 0], [0.01, 0]]}'
    data = {"--phi": good, "--psi": good, flag: bad}
    assert dispatch(["gauge", "--k", "1", "--T", "0.5",
                     "--phi", data["--phi"], "--psi", data["--psi"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: malformed state {bad!r}: ValueError("
                            f"'coeffs entry 1 is not a [re, im] pair: "
                            f"{entry!r}')\n")


def test_phi_file_with_invalid_json_names_the_file(tmp_path, capsys):
    phi = tmp_path / "phi.json"
    phi.write_text("{not json")
    assert dispatch(["simulate", "--alpha", "2", "--k", "1",
                     "--phi", str(phi), "--T", "0.5"]) == 2
    err = capsys.readouterr().err
    assert f"state file {phi}: invalid JSON: Expecting property name" in err


@pytest.mark.parametrize("alpha", ["nan", "inf", "1e400"])
def test_phase_check_non_finite_alpha_is_input_error(capsys, alpha):
    assert dispatch(["phase-check", "--alpha", alpha, "--k", "1",
                     "--cap", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: alpha must be finite, got " \
        f"{float(alpha)}\n"


def test_phase_check_huge_integer_alpha_is_input_error(capsys):
    # refused before any power is computed: with exact terms of 3e8 bits
    # the check was still running after 30 s
    assert dispatch(["phase-check", "--alpha", "1e8", "--k", "1",
                     "--cap", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: integer alpha=100000000 needs ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    # 3e5 bits are within the limit and are still certified exactly
    assert dispatch(["phase-check", "--alpha", "1e5", "--k", "1",
                     "--cap", "3"]) == 0
    cert = json.loads(capsys.readouterr().out)["certificate"]
    assert cert["pass"] is True and cert["tuples_checked"] == 6


@pytest.mark.parametrize("exc,message", [
    (MemoryError("Unable to allocate 311. GiB for an array with shape "
                 "(9, 96727985, 24) and data type complex128"),
     "error: out of memory: Unable to allocate 311. GiB"),
    (MemoryError(), "error: out of memory"),
])
def test_out_of_memory_is_one_error_line(monkeypatch, capsys, exc, message):
    def run_experiment(config):
        raise exc

    # a solve that fits the node budget but not the machine
    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    assert dispatch(["inflate", "--N", "5", "--s", "2", "--sigma", "0",
                     "--k", "1", "--alpha", "2", "--m-max", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_inline_phi_with_invalid_json_says_inline(capsys):
    assert dispatch(["simulate", "--alpha", "2", "--k", "1",
                     "--phi", "{not json", "--T", "0.5"]) == 2
    assert ("inline --phi: invalid JSON: Expecting property name"
            in capsys.readouterr().err)


def test_inline_phi_json(capsys):
    phi = json.dumps({"time": 0.0, "coeffs": [[0, 0], [0.1, 0], [0, 0]]})
    assert dispatch(["simulate", "--alpha", "2", "--k", "1", "--phi", phi,
                     "--T", "0.25"]) == 0
    assert json.loads(capsys.readouterr().out)["trajectory"]["truncation"] == 2


def test_cross_validate_unsupported_regime(tmp_path, capsys):
    phi = _phi_file(tmp_path, {1: (0.05, 0.0)}, 8)
    assert dispatch(["cross-validate", "--alpha", "2.5", "--k", "1",
                     "--phi", phi, "--T", "0.5"]) == 2
    assert "outside the supported regimes" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["1.5", "2.5"])
def test_inflate_runs_where_cross_validate_refuses_the_regime(
        tmp_path, capsys, alpha):
    # the regime check guards the uniqueness pipelines alone
    phi = _phi_file(tmp_path, {1: (0.05, 0.0)}, 8)
    assert dispatch(["cross-validate", "--alpha", alpha, "--k", "1",
                     "--phi", phi, "--T", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: alpha = {float(alpha)} is outside the "
                          "supported regimes") and err.count("\n") == 1
    assert dispatch(["inflate", "--N", "16", "--s", "2.5", "--sigma", "0.5",
                     "--k", "1", "--alpha", alpha]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["passed"] is True


def test_batch_empty_list(tmp_path, capsys):
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({"experiments": []}))
    code = dispatch(["batch", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines == ["N,s,sigma,k,alpha,T,phi_norm_hs,w_carrier_abs,"
                     "u_norm_hsigma_lower,status"]


def test_batch_three_rows(tmp_path, capsys):
    entries = [{"N": n, "s": 2.0, "sigma": 0.0, "k": 1, "alpha": 2.0,
                "m_max": 2} for n in (4, 5, 6)]
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({"experiments": entries}))
    csv = tmp_path / "summary.csv"
    code = dispatch(["batch", str(cfg), "--csv", str(csv)])
    assert code == 0
    rows = [ln for ln in csv.read_text().splitlines()
            if ln and not ln.startswith("#")]
    assert len(rows) == 4      # header + 3 experiments
    assert all(row.endswith(",pass") for row in rows[1:])
    capsys.readouterr()


def test_batch_runs_an_entry_between_alpha_2_and_3(tmp_path, capsys):
    # 2 < alpha < 3 is open for uniqueness, not for the inflation chain
    entries = [
        {"N": 4, "s": 2.0, "sigma": 0.0, "k": 1, "alpha": 2.0, "m_max": 2},
        {"N": 4, "s": 2.0, "sigma": 0.0, "k": 1, "alpha": 2.5, "m_max": 2},
    ]
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({"experiments": entries}))
    code = dispatch(["batch", str(cfg)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    rows = [ln for ln in captured.out.splitlines()
            if ln and not ln.startswith("#")]
    assert len(rows) == 3
    assert all(row.endswith(",pass") for row in rows[1:])
    assert rows[2].startswith("4,2.0,0.0,1,2.5,")


def test_batch_malformed_config(tmp_path, capsys):
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({"experiments": [{"s": 2.0}]}))
    assert dispatch(["batch", str(cfg)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("field,value", [("N", 16.5), ("N", "NaN"),
                                         ("k", 1.5), ("m_max", 2.0)])
def test_batch_refuses_a_non_integer_field(tmp_path, capsys, field, value):
    # a float N used to reach np.zeros(truncation + 1) and end in a
    # TypeError traceback with exit 1
    entry = {"N": 16, "s": 2.5, "sigma": 0.5, "k": 1, "alpha": 2.0,
             "m_max": 2}
    entry[field] = value
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps([entry]).replace('"NaN"', "NaN"))
    assert dispatch(["batch", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert f"experiment 0: malformed config: {field} must be an integer" in err


@pytest.mark.parametrize("field, value", [("identity_tol", "abc"),
                                          ("quadrature_tol", -1),
                                          ("value_tol", 0),
                                          ("exponent_tol", "NaN")])
def test_batch_refuses_a_tolerance_not_positive_and_finite(
        tmp_path, capsys, monkeypatch, field, value):
    # "abc" ended in a TypeError traceback, and -1 in an error row, both
    # with exit 1 after the entries before had run
    runs = []
    monkeypatch.setattr(cli, "run_experiment", runs.append)
    entry = {"N": 16, "s": 2.5, "sigma": 0.5, "k": 1, "alpha": 2.0}
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps([entry, {**entry, field: value}])
                   .replace('"NaN"', "NaN"))
    assert dispatch(["batch", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert runs == [] and captured.out == ""
    assert captured.err.startswith(f"error: experiment 1: malformed config: "
                                   f"{field} must be positive and finite")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("alpha", ["Infinity", "NaN"])
def test_batch_refuses_a_non_finite_alpha_before_running_any_entry(
        tmp_path, capsys, monkeypatch, alpha):
    # a non-finite alpha used to pass ExperimentConfig, so the first entry
    # ran in full before the second ended the batch with exit 2 and no CSV
    runs = []
    monkeypatch.setattr(cli, "run_experiment", runs.append)
    entry = {"N": 16, "s": 2.5, "sigma": 0.5, "k": 1, "alpha": 2.0}
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps([entry, {**entry, "alpha": "ALPHA"}])
                   .replace('"ALPHA"', alpha))
    assert dispatch(["batch", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert runs == [] and captured.out == ""
    assert captured.err == ("error: experiment 1: malformed config: alpha "
                            "must be finite\n")


def test_batch_refuses_an_alpha_below_1_before_running_any_entry(
        tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(cli, "run_experiment", runs.append)
    entry = {"N": 16, "s": 2.5, "sigma": 0.5, "k": 1, "alpha": 2.0}
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps([entry, {**entry, "alpha": 0.5}]))
    assert dispatch(["batch", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert runs == [] and captured.out == ""
    assert captured.err == ("error: experiment 1: malformed config: alpha "
                            "must be >= 1, got 0.5\n")


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
def test_cross_validate_refuses_a_tolerance_not_positive_and_finite(
        tmp_path, capsys, tolerance):
    # a NaN, zero or negative tolerance failed every solve with exit 1,
    # and an infinite one passed any disagreement
    phi = _phi_file(tmp_path, {1: (0.05, 0.0), 2: (0.05, 0.0)}, 8)
    assert dispatch(["cross-validate", "--alpha", "3", "--k", "1", "--phi",
                     phi, "--T", "0.5", "--tolerance", tolerance]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tolerance must be positive and "
                                   "finite")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("alpha, modes, M", [
    ("3", {1: (0.3, 0.0), 2: (0.3, 0.0)}, 48),
    ("2", {1: (0.3, 0.0)}, 16),
])
def test_cross_validate_refuses_data_outside_the_contraction_ball(
        tmp_path, capsys, alpha, modes, M):
    # cross-validate cannot override the check, so the refusal must not
    # tell its user to "pass allow_unsafe=True"
    phi = _phi_file(tmp_path, modes, M)
    assert dispatch(["cross-validate", "--alpha", alpha, "--k", "1",
                     "--phi", phi, "--T", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.count("error:") == 1 and "contraction ball" in err
    assert "allow_unsafe" not in err and "Traceback" not in err


_ALPHA_300 = ["--k", "1", "--alpha", "300"]


@pytest.mark.parametrize("argv, message", [
    (["inflate", "--N", "16", "--s", "2.5", "--sigma", "0.5"] + _ALPHA_300,
     "mu(n) of mode n = 128 overflows a float at alpha = 300.0"),
    (["inflate", "--N", "16", "--s", "2.5", "--sigma", "0.5", "--k", "1",
      "--alpha", "300.5"],
     "mu(n) of mode n = 128 overflows a float at alpha = 300.5"),
    (["simulate", "--T", "1"] + _ALPHA_300,
     "mu(n) of mode n = 16 overflows a float at alpha = 300.0"),
    (["picard", "--T", "1"] + _ALPHA_300,
     "mu(n) of mode n = 16 overflows a float at alpha = 300.0"),
    (["cross-validate", "--T", "1"] + _ALPHA_300,
     "mu(n) of mode n = 16 overflows a float at alpha = 300.0"),
    (["inflate", "--N", "16", "--s", "2.5", "--sigma", "1e306", "--k", "1",
      "--alpha", "2"], "horizon 4.8"),
])
def test_overflowing_input_is_input_error(tmp_path, capsys, argv, message):
    # each ended in an uncaught OverflowError (exit 1, a traceback)
    if argv[0] != "inflate":
        argv = argv + ["--phi", _phi_file(tmp_path, {1: (0.05, 0.0)}, 16)]
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_batch_entry_that_fails_is_its_own_error_row(tmp_path, capsys):
    # mu(n) overflowing at alpha = 300 is the second entry's failure: the
    # first entry's row is still written, and the batch exits 1
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps([
        {"N": 4, "s": 2.0, "sigma": 0.0, "k": 1, "alpha": 2.0, "m_max": 2},
        {"N": 16, "s": 2.5, "sigma": 0.5, "k": 1, "alpha": 300}]))
    assert dispatch(["batch", str(cfg)]) == 1
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[1:]
    assert rows[0] == NormReport.CSV_HEADER and len(rows) == 3
    assert rows[1].endswith(",pass")
    assert rows[2] == "16,2.5,0.5,1,300,,,,,error"
    assert captured.err == ("experiment 1: error: mu(n) of mode n = 128 "
                            "overflows a float at alpha = 300.0\n")


_PHI8 = {1: (0.05, 0.0)}


@pytest.mark.parametrize("command, refusal", [
    ("simulate", "7.92e+268 panels need 1.71e+271 node values (9 rows x 24 "
                 "per panel), above the node budget 5e+07"),
    ("picard", "6.6e+268 panels of 24 nodes: more complex node values than "
               "a numpy array can address"),
    ("cross-validate", "6.6e+268 panels of 24 nodes: more complex node "
                       "values than a numpy array can address")])
def test_huge_solve_is_refused_naming_its_rung(tmp_path, capsys, command,
                                               refusal):
    # at truncation 8, mu(8) = 8^300 is a float, but its first rung fits
    # neither the cascade's node budget nor, for the Picard climbs, an
    # array: each climb refuses it before allocating it, and names its
    # 270-digit panel count to 3 significant digits
    phi = _phi_file(tmp_path, _PHI8, 8)
    assert dispatch([command, "--phi", phi, "--T", "1"] + _ALPHA_300) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {refusal}\n"


def test_simulate_that_overflows_to_nan_is_a_failed_solve(tmp_path, capsys):
    # valid data whose forcing overflows to NaN: the overflow guard names
    # the mode (exit 1), where the NaN trajectory used to be accepted and
    # its output refused as malformed (exit 2)
    phi = _phi_file(tmp_path, {1: (1e80, 0.0), 2: (1e80, 0.0)}, 8)
    with np.errstate(all="ignore"):
        code = dispatch(["simulate", "--alpha", "2", "--k", "3", "--T",
                         "0.001", "--modes", "8", "--phi", phi])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: mode 4 is not a number at t=")
    assert captured.err.count("\n") == 1


def test_simulate_that_overflows_prints_only_its_error_line(tmp_path):
    # in a fresh interpreter, with numpy's default error handling: the
    # overflow to inf and the NaN it leads to print no RuntimeWarning
    phi = _phi_file(tmp_path, {1: (1e80, 0.0), 2: (1e80, 0.0)}, 8)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "halfline_dnls.cli", "simulate", "--alpha",
         "2", "--k", "3", "--T", "0.001", "--modes", "8", "--phi", phi],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: mode 4 is not a number at t=")
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_unsafe_picard_that_overflows_prints_only_its_error_line(tmp_path):
    # in a fresh interpreter, with numpy's default error handling: iterates
    # that overflow to inf and then NaN end the solve with one error line
    # and no RuntimeWarning from the map or the increments
    phi = _phi_file(tmp_path, {1: (1e40, 0.0), 2: (0.0, 1e40)}, 8)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "halfline_dnls.cli", "picard",
         "--allow-unsafe", "--alpha", "3", "--k", "1", "--T", "0.5",
         "--phi", phi], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: iterates stopped contracting")
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert json.loads(proc.stdout)["converged"] is False


def test_unsafe_gauge_on_data_that_overflows_prints_only_its_error_line(
        tmp_path):
    # in a fresh interpreter, with numpy's default error handling: the
    # compatible data e^{-Lambda(phi)} phi_x of finite data overflows, which
    # is a typed solver error (exit 1), not an input error, and no
    # RuntimeWarning is written on the way
    phi = _phi_file(tmp_path, {1: (1e40, 0.0), 2: (0.0, 1e40)}, 8)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "halfline_dnls.cli", "gauge",
         "--allow-unsafe", "--k", "1", "--T", "0.5", "--phi", phi],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: compatible gauge data "), \
        proc.stderr
    assert "is not finite at mode" in proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_a_tolerance_below_round_off_ends_on_the_first_rung(tmp_path,
                                                            capsys):
    # the alpha = 2 headline at quadrature_tol 1e-14 climbed 21 rungs to
    # 56,840 panels before it failed; the round-off part of its first
    # rung's estimate reads 8.2e-14, so its climb ends there, naming that
    # figure as the smallest tolerance it can meet
    config = tmp_path / "tight.json"
    config.write_text(json.dumps([{"N": 16, "s": 2.5, "sigma": 0.5, "k": 1,
                                   "alpha": 2, "quadrature_tol": 1e-14}]))
    assert dispatch(["batch", str(config)]) == 1
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("experiment 0: error: cascade cannot meet tol "
                          "1.000e-14: on 223 panels "), err
    assert err.count("error:") == 1 and err.count("\n") == 1
    floor = float(err.split("bounds the error by ")[1].split(",")[0])
    assert 1e-14 < floor < 1e-13
    assert err.rstrip().endswith("the smallest tolerance it can meet")
    assert "Traceback" not in err
    assert captured.out.splitlines()[-1].endswith(",error")


@pytest.mark.parametrize("alpha, window", [("1.5", False), ("2.5", True)])
def test_cross_validate_names_the_open_window_only_inside_it(tmp_path, capsys,
                                                            alpha, window):
    phi = _phi_file(tmp_path, {1: (0.05, 0.0)}, 8)
    assert dispatch(["cross-validate", "--alpha", alpha, "--k", "1",
                     "--phi", phi, "--T", "0.5"]) == 2
    refusal = (f"error: alpha = {alpha} is outside the supported regimes "
               "(2 or >= 3)")
    if window:
        refusal += "; the window 2 < alpha < 3 is an open problem"
    assert capsys.readouterr().err == refusal + "\n"


def test_picard_alpha_refusal_names_no_library_keyword(tmp_path, capsys):
    phi = _phi_file(tmp_path, {1: (0.05, 0.0)}, 2)
    assert dispatch(["picard", "--alpha", "2.5", "--k", "1", "--T", "1",
                     "--phi", phi]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: alpha = 2.5: the normal-form contraction "
                            "is certified only for alpha >= 3\n")
    assert "allow_unsafe=True" not in captured.err


def test_batch_config_with_invalid_json_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "batch.json"
    cfg.write_text("{not json")
    assert dispatch(["batch", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"batch config {cfg}: invalid JSON: Expecting property name" in err


def test_batch_unreadable_config(tmp_path, capsys):
    assert dispatch(["batch", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_determinism_modulo_duration(tmp_path, capsys):
    args = ["inflate", "--N", "5", "--s", "2", "--sigma", "0", "--k", "1",
            "--alpha", "2", "--m-max", "2"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert dispatch(args + ["--out", str(out1)]) == 0
    assert dispatch(args + ["--out", str(out2)]) == 0
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    for d in (d1, d2):
        d["manifest"].pop("duration_seconds")
        d["manifest"].pop("outputs")
    assert d1 == d2
    capsys.readouterr()


def test_manifest_round_trip():
    m = RunManifest(subcommand="inflate", parameters={"N": 16},
                    tolerances={"identity": 1e-9}, outputs=["x.json"],
                    duration_seconds=1.25)
    again = RunManifest.from_dict(json.loads(json.dumps(m.to_dict())))
    assert again == m
