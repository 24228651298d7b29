import json
import subprocess
import sys
import time

import pytest

from polsqueeze.acceptance import CriterionResult, print_table
from polsqueeze.cli import main
from polsqueeze.detect import DEFAULT_SCHEDULE, scan_photon_numbers


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
    # ns = 30 puts detected photon numbers (up to 1276) above the count-law order limit
    start = time.perf_counter()
    code, _, err = run_cli(["simulate", "--nc", "0.5", "--ns", "30", "--shots", "5"], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "OrderTooLarge"
    assert time.perf_counter() - start < 30.0


def test_simulate_scans_photon_numbers_past_the_born_rule_limit(capsys):
    # N = 128 at ns = 0.3, where the Born-rule DA law was lost to cancellation
    code, out, _ = run_cli(
        ["simulate", "--nc", "1", "--ns", "0.3", "--scan-n", "128", "--shots", "5",
         "--bootstrap", "2"], capsys,
    )
    assert code == 0
    header, row = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    assert dict(zip(header, row))["n"] == "128"


def test_simulate_refuses_a_schedule_that_repeats_a_setting(tmp_path, capsys):
    sched = tmp_path / "schedule.txt"
    sched.write_text("HV\nDA\nRL\nRL\n")
    code, out, err = run_cli(
        ["simulate", "--nc", "6", "--ns", "0.3", "--m", "16", "--shots", "400",
         "--schedule", str(sched)], capsys,
    )
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "RepeatedSetting"


def test_scan_row_without_a_signal_needs_infinite_shots(capsys):
    # unsqueezed light: delta_hat = 0 on these shots
    code, out, _ = run_cli(
        ["simulate", "--nc", "1", "--ns", "0", "--scan-n", "2", "--shots", "2",
         "--bootstrap", "2", "--seed", "9"], capsys,
    )
    assert code == 0
    header, row = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    assert dict(zip(header, row))["shots_to_1sigma"] == "inf"


@pytest.mark.parametrize("n", ["1", "0"])
def test_averaged_monogamy_ceiling_below_two_photons_is_a_domain_error(n, capsys):
    code, out, err = run_cli(
        ["reduced", "--nc", "3", "--ns", "0.3", "--averaged", "--n", n], capsys
    )
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "TooFewPhotons"


def test_averaged_state_without_two_photon_weight_is_a_domain_error(capsys):
    code, _, err = run_cli(
        ["reduced", "--nc", "1e-9", "--ns", "0", "--n", "2", "--averaged"], capsys
    )
    assert code == 3
    assert json.loads(err)["error"] == "TooFewPhotons"


def test_scan_rows_are_the_shared_photon_number_scan(capsys):
    code, out, _ = run_cli(
        ["simulate", "--nc", "1", "--ns", "0.3", "--scan-n", "16,32", "--shots", "50",
         "--bootstrap", "2"], capsys,
    )
    assert code == 0
    header, *rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    scan = scan_photon_numbers(
        0.3, 0.0, (16, 32), m=2**20, efficiency=1.0, seed=0, shots=50,
        schedule=DEFAULT_SCHEDULE, bootstrap=2,
    )
    assert len(rows) == len(scan) == 2
    for row, res in zip(rows, scan):
        cells = dict(zip(header, row))
        assert cells["single_shot_err"] == f"{res.single_shot_err:.12g}"
        assert cells["shots_to_1sigma"] == f"{res.shots_to_1sigma:.12g}"


def _result(cid, passed, runtime_s, limit_s=None, known_defect=None):
    return CriterionResult(
        cid=cid, name=f"case {cid}", limit_s=limit_s, known_defect=known_defect,
        passed=passed, runtime_s=runtime_s, detail=f"detail {cid}",
    )


_PASS = _result("1", True, 1.23, limit_s=10.0)
_FAIL = _result("2", False, 0.5)
_OVER_LIMIT = _result("3", True, 12.0, limit_s=10.0)
_KNOWN_DEFECT = _result("4a", False, 0.3, known_defect="reference is inconsistent")
_UNEXPECTED_PASS = _result("4b", True, 0.3, known_defect="reference is inconsistent")


def test_print_table_lines_and_verdict(capsys):
    assert print_table([_PASS, _FAIL, _OVER_LIMIT, _KNOWN_DEFECT, _UNEXPECTED_PASS]) is False
    assert capsys.readouterr().out.splitlines() == [
        "criterion   1  case 1    PASS [1.2s/10s]",
        "              detail 1",
        "criterion   2  case 2    FAIL [0.5s]",
        "              detail 2",
        "criterion   3  case 3    FAIL [12.0s/10s]",
        "              detail 3",
        "criterion  4a  case 4a   FAIL (known reference defect) [0.3s]",
        "              detail 4a",
        "criterion  4b  case 4b   UNEXPECTED PASS (known reference defect) [0.3s]",
        "              detail 4b",
    ]
    assert print_table([_PASS, _KNOWN_DEFECT]) is True
    for blocking in (_FAIL, _OVER_LIMIT, _UNEXPECTED_PASS):
        assert print_table([_PASS, _KNOWN_DEFECT, blocking]) is False


@pytest.mark.parametrize("results, code", [
    ([_PASS, _KNOWN_DEFECT], 0),
    ([_PASS, _UNEXPECTED_PASS], 1),
    ([_OVER_LIMIT], 1),
])
def test_verify_exit_code(results, code, monkeypatch, capsys):
    monkeypatch.setattr("polsqueeze.acceptance.run_all", lambda skip_slow, shots, seed: results)
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == code


@pytest.mark.parametrize("bootstrap", ["1", "0", "-3"])
def test_simulate_refuses_fewer_than_two_bootstrap_resamples(bootstrap, capsys):
    code, out, err = run_cli(
        ["simulate", "--nc", "4", "--ns", "0.3", "--shots", "50", "--bootstrap", bootstrap],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "InvalidShotCount"


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
