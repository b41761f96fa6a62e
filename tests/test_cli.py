"""CLI dispatch, exit codes, output schemas, batch runs, determinism."""

import json
import math

import pytest

from halfline_dnls.cli import RunManifest, dispatch


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


def test_batch_flags_unsupported_regime(tmp_path, capsys):
    entries = [
        {"N": 4, "s": 2.0, "sigma": 0.0, "k": 1, "alpha": 2.0, "m_max": 2},
        {"N": 4, "s": 2.0, "sigma": 0.0, "k": 1, "alpha": 2.5, "m_max": 2},
    ]
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({"experiments": entries}))
    code = dispatch(["batch", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0           # flagged, not failed
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert rows[1].endswith(",pass")
    assert rows[2].endswith(",unsupported-regime")


def test_batch_malformed_config(tmp_path, capsys):
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({"experiments": [{"s": 2.0}]}))
    assert dispatch(["batch", str(cfg)]) == 2
    capsys.readouterr()


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
