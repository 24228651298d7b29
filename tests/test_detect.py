import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polsqueeze import StateParams, build_odm, correlators, purify, reduced_two_body
from polsqueeze.detect import (
    DEFAULT_SCHEDULE,
    DetectorArray,
    SETTING_BASES,
    _CountSampler,
    _thinned_pulse_pmf,
    exact_pair_probabilities,
    reconstruct_two_body,
    run_pair_tomography,
    simulate_shots,
    _x_state_design,
    _theta_to_matrix,
)
from polsqueeze.errors import IncompleteSchedule, InvalidShotCount
from polsqueeze.reduced import default_n_cutoff, pulse_number_pmf


def test_shot_validation():
    arr = DetectorArray(m=16, rng_seed=1)
    with pytest.raises(InvalidShotCount):
        list(simulate_shots(StateParams(1.0, 0.1, 0.0), arr, 0))
    with pytest.raises(ValueError):
        DetectorArray(m=0)
    with pytest.raises(ValueError):
        DetectorArray(m=4, efficiency=0.0)


def test_determinism_and_replay():
    p = StateParams(8.0, 0.2, 0.0)
    arr = DetectorArray(m=1024, rng_seed=99)
    a = list(simulate_shots(p, arr, 40))
    b = list(simulate_shots(p, arr, 40))
    assert a == b
    # different seed, different stream
    c = list(simulate_shots(p, DetectorArray(m=1024, rng_seed=100), 40))
    assert a != c


def test_no_squeezing_all_h():
    recs = list(simulate_shots(StateParams(4.0, 0.0, 0.0), DetectorArray(m=64, rng_seed=3), 60))
    assert all(bit == 0 for rec in recs for _, bit in rec.outcomes)


def test_mean_detected_number_tracks_flux_and_efficiency():
    p = StateParams(20.0, 0.3, 0.0)
    for eta in (1.0, 0.5):
        arr = DetectorArray(m=2**16, efficiency=eta, rng_seed=11)
        ns_detected = [r.n_detected for r in simulate_shots(p, arr, 3000)]
        mean = np.mean(ns_detected)
        expect = eta * (20.0 + 0.3)
        sigma = np.std(ns_detected, ddof=1) / np.sqrt(len(ns_detected))
        assert abs(mean - expect) < 4 * sigma + 0.05


def test_mean_detected_number_thermal_routed_through_purification():
    p = StateParams(10.0, 0.3, 0.1)
    arr = DetectorArray(m=2**16, efficiency=0.8, rng_seed=5)
    ns_detected = [r.n_detected for r in simulate_shots(p, arr, 4000)]
    expect = 0.8 * (10.0 + p.vmode_mean)
    sigma = np.std(ns_detected, ddof=1) / np.sqrt(len(ns_detected))
    assert abs(np.mean(ns_detected) - expect) < 4 * sigma + 0.05


def test_vcount_statistics_match_observable_diagonal():
    # empirical P(v | N) within multinomial bands
    n = 24
    p = StateParams(float(n), 0.3, 0.0)
    arr = DetectorArray(m=2**18, rng_seed=17)
    shots = 4000
    counts = np.zeros(n + 1)
    for rec in simulate_shots(p, arr, shots, fixed_n=n):
        counts[rec.ones] += 1
    pv = _CountSampler(p, "HV").pmf(n)
    for v in range(n + 1):
        if pv[v] * shots < 5:
            continue
        se = np.sqrt(pv[v] * (1 - pv[v]) * shots)
        assert abs(counts[v] - shots * pv[v]) < 4 * se


def test_collision_accounting():
    n = 12
    p = StateParams(float(n), 0.1, 0.0)
    m = 256  # n^2/m = 0.5625, collisions common
    arr = DetectorArray(m=m, rng_seed=23)
    recs = list(simulate_shots(p, arr, 2000, fixed_n=n))
    frac = np.mean([r.collided for r in recs])
    bound = 1 - np.exp(-n * n / (2 * m))
    assert frac < bound + 0.05
    assert frac > 0.0


def test_no_replacement_mode_has_no_collisions():
    arr = DetectorArray(m=64, rng_seed=2, assign_with_replacement=False)
    recs = list(simulate_shots(StateParams(6.0, 0.1, 0.0), arr, 200))
    assert not any(r.collided for r in recs)
    for r in recs:
        idx = [a for a, _ in r.outcomes]
        assert len(idx) == len(set(idx))


def test_design_matrix_completeness():
    assert np.linalg.matrix_rank(_x_state_design(DEFAULT_SCHEDULE)) == 6
    with pytest.raises(IncompleteSchedule):
        reconstruct_two_body({"HV": []}, schedule=("HV",))
    with pytest.raises(IncompleteSchedule):
        reconstruct_two_body({"HV": [], "DA": []}, schedule=("HV", "DA"))


def test_linear_inversion_exact_frequencies():
    # analytic pair probabilities reproduce the matrix exactly
    p = StateParams(30.0, 0.3, 0.0)
    tb = reduced_two_body(p, 30)
    design = _x_state_design(DEFAULT_SCHEDULE)
    freqs = np.concatenate(
        [exact_pair_probabilities(tb, lab) for lab in DEFAULT_SCHEDULE]
    )
    theta, *_ = np.linalg.lstsq(design, freqs, rcond=None)
    rec = _theta_to_matrix(theta)
    assert np.abs(rec - tb.matrix).max() < 1e-12


def test_reconstruction_consistency_with_statistics():
    # >= 1e6 simulated pairs; entries within 5 bootstrap SEs of the target
    n = 40
    p = StateParams(float(n), 0.3, 0.0)
    arr = DetectorArray(m=2**18, rng_seed=31)
    shots = 800  # 800 shots x ~1560 ordered pairs x 3 settings >> 1e6 pairs
    res = run_pair_tomography(p, arr, shots_per_setting=shots, fixed_n=n)
    exact = reduced_two_body(p, n).matrix
    diff = np.abs(res.matrix.matrix - exact)
    se = np.maximum(res.entry_se, 1e-6)
    assert (diff <= 5 * se).all()


def test_loss_robustness_of_reconstruction():
    # global loss changes rates, not the reconstructed normalized state
    n = 24
    p = StateParams(float(n), 0.3, 0.0)
    res = run_pair_tomography(
        p, DetectorArray(m=2**18, efficiency=0.5, rng_seed=41), 1200, fixed_n=n
    )
    exact = reduced_two_body(p, n).matrix
    diff = np.abs(res.matrix.matrix - exact)
    se = np.maximum(res.entry_se, 1e-6)
    assert (diff <= 5 * se).all()


def test_rotated_count_distributions_are_normalized_and_subshot():
    n = 30
    p = StateParams(float(n), 0.3, 0.0)
    for label in ("DA", "RL"):
        pv = _CountSampler(p, label).pmf(n)
        assert pv.sum() == pytest.approx(1.0, abs=1e-9)
        assert (pv >= 0).all()
    # the circular-basis count distribution is squeezed below binomial noise
    pv = _CountSampler(p, "RL").pmf(n)
    v = np.arange(n + 1)
    mean = (v * pv).sum()
    var = ((v - mean) ** 2 * pv).sum()
    y_var = 4 * var  # Y = n - 2v
    assert y_var < n  # sub-shot-noise: the entanglement signature
    # and matches the pair expectation from the reduced matrix
    tb = reduced_two_body(p, n)
    q = exact_pair_probabilities(tb, "RL")
    yy = q[0] - q[1] - q[2] + q[3]
    assert (y_var - n) / (n * (n - 1)) == pytest.approx(yy, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("label", ["DA", "RL"])
def test_rotated_count_law_matches_dense_born_rule(label):
    p = StateParams(3.0, 0.3, 0.05)
    sampler = _CountSampler(p, label)
    pure = purify(p)[0]
    for n in range(1, 9):
        rho = build_odm(pure, n).dense()
        u = SETTING_BASES[label]
        for _ in range(n - 1):
            u = np.kron(u, SETTING_BASES[label])
        probs = np.real(np.diag(u.conj().T @ rho @ u))
        ones = np.array([i.bit_count() for i in range(1 << n)])
        expected = np.bincount(ones, weights=probs, minlength=n + 1)
        assert sampler.pmf(n) == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_hv_count_law_fills_only_diagonal_moments():
    p = StateParams(6.0, 0.2345678, 0.0)  # ns unused elsewhere: a fresh table
    _CountSampler(p, "HV").pmf(30)
    filled = correlators.table_for(p)._values
    assert filled and all(m == n for m, n in filled)


def test_thinning_matches_binomial_sum():
    p = StateParams(4.0, 0.3, 0.0)
    eta = 0.55
    base = pulse_number_pmf(p, default_n_cutoff(p))
    direct = np.zeros(base.size)
    for n, pn in enumerate(base):
        for k in range(n + 1):
            direct[k] += pn * math.comb(n, k) * eta**k * (1 - eta) ** (n - k)
    direct /= direct.sum()
    got = _thinned_pulse_pmf(p, eta)
    keep = direct > 1e-12
    assert got[keep] == pytest.approx(direct[keep], rel=1e-13)


def test_lossy_pulse_sampling_does_not_import_scipy_stats():
    code = (
        "import sys\n"
        "from polsqueeze import StateParams\n"
        "from polsqueeze.detect import DetectorArray, simulate_shots\n"
        "arr = DetectorArray(m=64, efficiency=0.5, rng_seed=1)\n"
        "list(simulate_shots(StateParams(3.0, 0.1, 0.02), arr, 20))\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
