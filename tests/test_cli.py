import json
import subprocess
import sys
import time

import pytest

from polsqueeze.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_state_json(capsys):
    code, out, _ = run_cli(["state", "--nc", "4", "--ns", "0", "--nth", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["s0"] == 2.0
    assert doc["sx"] == 2.0
    assert doc["var_sz"] == 1.0
    assert doc["wineland"] is False
    assert doc["schema_version"] == 1
    assert "config" in doc


def test_corr_plain_value(capsys):
    code, out, _ = run_cli(["corr", "--ns", "0.3", "--nth", "0", "--m", "1", "--n", "1"], capsys)
    assert code == 0
    assert abs(float(out.strip()) - 0.3) < 1e-15


def test_reduced_flagship_values(capsys):
    code, out, _ = run_cli(
        ["reduced", "--nc", "100", "--ns", "0.3", "--nth", "0", "--n", "100"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    m = doc["matrix"]
    assert abs(m[0][0] - 0.9440) < 5e-5
    assert abs(abs(m[0][3]) - 0.0293) < 5e-5
    assert abs(doc["concurrence"] - 0.00468) < 1e-5


def test_odm_json(capsys):
    code, out, _ = run_cli(
        ["odm", "--nc", "1", "--ns", "0.3", "--nth", "0", "--n", "2"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["matrix"]) == 4


def test_entangle_report(capsys):
    code, out, _ = run_cli(
        ["entangle", "--nc", "2", "--ns", "0.2", "--nth", "0", "--n", "4",
         "--negativity-cut", "2"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["concurrence"] > 0
    assert doc["negativity"] > 0


def test_depth_json(capsys):
    code, out, _ = run_cli(["depth", "--nc", "100", "--ns", "0.3", "--nth", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] > 1
    assert doc["macroscopic_fraction"] == pytest.approx(1.0, abs=1e-9)


def test_depth_contour_csv(tmp_path, capsys):
    out_file = tmp_path / "contour.csv"
    code, _, _ = run_cli(["depth-contour", "--resolution", "5", "--out", str(out_file)], capsys)
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("# schema_version=")
    header = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header == "ns,nth,fraction,is_grey"


def test_sweep_csv(capsys):
    code, out, _ = run_cli(
        ["sweep", "--nc", "4", "--ns-grid", "0.1,0.3", "--n-grid", "2,3"], capsys
    )
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == "nc,ns,n,concurrence,c_max,ratio,delta"
    assert len(rows) == 5


def test_oracle_corr(capsys):
    code, out, _ = run_cli(
        ["oracle", "corr", "--ns", "0.3", "--nth", "0", "--m", "1", "--n", "1"], capsys
    )
    assert code == 0
    assert abs(float(out.strip()) - 0.3) < 1e-9


def test_validation_error_exit_code(capsys):
    code, _, err = run_cli(["state", "--nc", "-1", "--ns", "0", "--nth", "0"], capsys)
    assert code == 2
    assert "error" in json.loads(err)


def test_domain_error_exit_code(capsys):
    # too-thermal state cannot be purified: library-domain error -> 3
    code, _, err = run_cli(["state", "--nc", "1", "--ns", "0.01", "--nth", "0.5"], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "NonPurifiable"


def test_simulate_beyond_the_moment_limit_is_a_domain_error(capsys):
    # ns = 20 puts detected photon numbers above the count-table order limit
    start = time.perf_counter()
    code, _, err = run_cli(["simulate", "--nc", "0.5", "--ns", "20", "--shots", "5"], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "OrderTooLarge"
    assert time.perf_counter() - start < 30.0


def test_byte_identical_reruns(capsys):
    args = ["simulate", "--nc", "6", "--ns", "0.2", "--nth", "0", "--shots", "40",
            "--seed", "5", "--m", "4096", "--bootstrap", "20"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "polsqueeze.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
