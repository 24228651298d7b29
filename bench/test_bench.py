"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py -q

They check the benchmark, not the library: inputs are a pure function of the
seed, no timed op repeats an (ns, nth), every named metric is printed with a
valid name, BENCHMARK.json keeps to its size caps, and the harness
refuses to run without the library.  The end-to-end runs use shrunken
rounds so the file finishes in about a minute.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

wl = run.import_library()

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    assert wl.make_round(workload, 7, 2) == wl.make_round(workload, 7, 2)
    assert wl.make_round(workload, 7, 2) != wl.make_round(workload, 8, 2)
    assert wl.make_round(workload, 7, 2) != wl.make_round(workload, 7, 3)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_work_per_round_does_not_depend_on_the_seed(workload):
    def shape(ops):
        return sorted((op.kind, op.n, op.extra.get("shots"), op.extra.get("fixed_n"))
                      for op in ops)

    assert shape(wl.make_round(workload, 1, 0)) == shape(wl.make_round(workload, 99, 5))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_timed_ops_never_repeat_an_input(workload):
    cold = wl.ColdKeys()
    cold.claim(wl.warm_up_ops(workload) + [wl.crit1_op()])
    for index in range(20):
        cold.claim(wl.make_round(workload, 3, index))
    with pytest.raises(wl.RepeatedInput):
        cold.claim(wl.make_round(workload, 3, 4))


def test_tail_keeps_ten_ops_beyond_it_and_a_fixed_percentile():
    round_len = 9
    n_min = run.MIN_ROUNDS * round_len
    for n in (n_min, n_min + 5, 4 * n_min):
        lat = [float(i) for i in range(n)]
        value, pct = run.tail(lat, round_len)
        assert sum(x > value for x in lat) >= run.TAIL_BEYOND
        assert pct == pytest.approx(100.0 * (n_min - run.TAIL_BEYOND) / n_min)
    assert sum(x > run.tail(list(range(n_min)), round_len)[0] for x in range(n_min)) == 10


def test_benchmark_json_names_and_caps():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert list(SPEC["command"]) == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    e2e = [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    assert all(b in ("lower", "higher") for _, _, b in e2e + layers)
    names = [n for n, _, _ in e2e + layers] + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for _, u, _ in e2e + layers)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert ("setup_s", "s", "lower") in e2e and bounds["setup_s"] == max(bounds.values())


def test_wick_reference_agrees_with_the_library():
    import reference
    from polsqueeze.state import StateParams

    for nc, ns, nth, n in ((3.0, 0.2, 0.0, 6), (50.0, 1.3, 0.05, 20)):
        got = wl.reduced_two_body(StateParams(nc, ns * math.pi / 3, nth), n).matrix
        ref = reference.reduced_two_body_ref(nc, ns * math.pi / 3, nth, n)
        assert reference.max_rel_diff(got, ref) < run.WICK_RTOL


def _shrunk(make_round):
    """Rounds cut to a second or two: the cheap ops, with few shots."""

    def small(workload, seed, index):
        ops = make_round(workload, seed, index)
        keep = [op for op in ops if op.kind in ("odm", "min_jx2", "tomography")
                or (op.kind == "reduce" and op.n <= 12)]
        for op in keep:
            if op.kind == "tomography":
                op.extra.update(shots=40, bootstrap=5)
        return keep[:2]

    return small


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_named_metric_is_printed(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(wl, "make_round", _shrunk(wl.make_round))
    monkeypatch.setattr(wl, "check_crit1", lambda: "ok")  # 7 s; run by its own test
    monkeypatch.setattr(run, "MIN_ROUNDS", 2)
    monkeypatch.setattr(run, "TAIL_BEYOND", 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    argv = ["--workload", workload, "--seed", "4", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    health = json.loads(lines[-2])["health"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, health
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in expected]
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert health["gates"]["replay"] == "ok"  # traced: the decomposition is exact
    assert health["fingerprint"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_flagship_values():
    assert wl.check_crit1() == "ok"


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reduce", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
