import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polsqueeze import (
    StateParams,
    apply_loss,
    detect,
    build_odm,
    correlators,
    purify,
    reduced_two_body,
)
from polsqueeze.detect import (
    _BLOCK,
    _MAX_COUNT_ORDER,
    DEFAULT_SCHEDULE,
    DetectorArray,
    SETTING_BASES,
    ShotRecord,
    TomographyResult,
    _count_laws,
    _detected_number_pmf,
    _pair_counts,
    _reconstruct,
    _rotated_laws,
    _shot_array,
    exact_pair_probabilities,
    reconstruct_two_body,
    run_pair_tomography,
    simulate_shots,
    _x_state_design,
    _theta_to_matrix,
)
from polsqueeze.errors import (
    IncompleteSchedule,
    InvalidShotCount,
    NonPurifiable,
    OrderTooLarge,
    RepeatedSetting,
)
from polsqueeze.odm import _odm, _scaled_moments
from polsqueeze.reduced import TwoBodyOdm, default_n_cutoff, pulse_number_pmf


def test_shot_validation():
    arr = DetectorArray(m=16, rng_seed=1)
    with pytest.raises(InvalidShotCount):
        list(simulate_shots(StateParams(1.0, 0.1, 0.0), arr, 0))
    with pytest.raises(ValueError):
        DetectorArray(m=0)
    with pytest.raises(ValueError):
        DetectorArray(m=2**52)
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
    pv = _count_laws(p, "HV", n)[n]
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


def test_records_are_prefix_stable_across_blocks():
    p = StateParams(3.0, 0.2, 0.0)
    for m in (2**20, 1000):
        arr = DetectorArray(m=m, efficiency=0.8, rng_seed=7)
        long = list(simulate_shots(p, arr, 5000))
        assert list(simulate_shots(p, arr, 40)) == long[:40]
        assert list(simulate_shots(p, arr, _BLOCK + 4)) == long[: _BLOCK + 4]


@pytest.mark.parametrize("m", [3, 2**20])
@pytest.mark.parametrize("eta", [1.0, 0.6])
def test_every_photon_has_an_outcome(m, eta):
    arr = DetectorArray(m=m, efficiency=eta, rng_seed=4)
    recs = list(simulate_shots(StateParams(6.0, 0.1, 0.0), arr, 300))
    assert all(len(r.outcomes) == r.n_detected for r in recs)
    assert all(0 <= a < m for r in recs for a, _ in r.outcomes)
    # a shot is collided exactly when two photons share an analyzer
    assert all(r.collided == (len({a for a, _ in r.outcomes}) < r.n_detected) for r in recs)


def test_design_matrix_completeness():
    assert np.linalg.matrix_rank(_x_state_design(DEFAULT_SCHEDULE)) == 6
    with pytest.raises(IncompleteSchedule):
        reconstruct_two_body({"HV": []}, schedule=("HV",))
    with pytest.raises(IncompleteSchedule):
        reconstruct_two_body({"HV": [], "DA": []}, schedule=("HV", "DA"))
    with pytest.raises(ValueError, match="unknown basis 'XY'"):
        run_pair_tomography(StateParams(2.0, 0.3, 0.0), DetectorArray(m=16), 5, ("HV", "XY"))


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


def test_reconstruction_on_hand_built_records():
    def rec(bits, analyzers=None, collided=False):
        analyzers = range(len(bits)) if analyzers is None else analyzers
        return ShotRecord(len(bits), tuple(zip(analyzers, bits)), collided)

    shots = {
        "HV": [rec((1, 0, 0)), rec((1, 1), (5, 5), collided=True), rec((0,)), rec(()),
               rec((1, 1, 0, 0)), rec((0, 0, 1))],
        "DA": [rec((0, 0)), rec((1, 0, 1)), rec((1, 0, 0), (2, 2, 7), collided=True)],
        "RL": [rec((1,)), rec((0, 1, 1, 1)), rec((1, 1, 1))],
    }
    # distinct (h(h-1), hv, vh, v(v-1)) of the usable shots in (n, ones) order,
    # h = n - ones, v = ones, and how many shots give each
    expect = {
        "HV": ([[2, 2, 2, 0], [2, 4, 4, 2]], [2, 1]),
        "DA": ([[2, 0, 0, 0], [0, 2, 2, 2]], [1, 1]),
        "RL": ([[0, 0, 0, 6], [0, 3, 3, 6]], [1, 1]),
    }
    for label, recs in shots.items():
        rows, counts, collided, excluded = _pair_counts(_shot_array(recs))
        assert (rows.tolist(), counts.tolist()) == expect[label]
        assert (collided, excluded) == {"HV": (1, 3), "DA": (1, 1), "RL": (0, 1)}[label]
    res = reconstruct_two_body(shots, bootstrap=5)
    assert res.collision_fraction == 2 / 12
    assert res.excluded_fraction == 5 / 12
    assert res.shots_per_setting == {"HV": 6, "DA": 3, "RL": 3}
    sums = {lab: np.array(expect[lab][1]) @ expect[lab][0] for lab in DEFAULT_SCHEDULE}
    freqs = np.concatenate([sums[lab] / sums[lab].sum() for lab in DEFAULT_SCHEDULE])
    assert freqs.tolist() == [
        6 / 24, 8 / 24, 8 / 24, 2 / 24, 2 / 8, 2 / 8, 2 / 8, 2 / 8, 0, 3 / 18, 3 / 18, 12 / 18
    ]
    theta, *_ = np.linalg.lstsq(_x_state_design(DEFAULT_SCHEDULE), freqs, rcond=None)
    mat = _theta_to_matrix(theta)
    assert res.matrix.matrix == pytest.approx(mat / np.trace(mat), abs=1e-14)


def _usable_rows(shots):
    """(n, ones) and the pair row (h(h-1), hv, vh, v(v-1)) of each usable shot."""
    usable = shots[(shots[:, 2] == 0.0) & (shots[:, 0] >= 2.0), :2]
    h, v = usable[:, 0] - usable[:, 1], usable[:, 1]
    return usable, np.stack([h * (h - 1.0), h * v, v * h, v * (v - 1.0)], axis=1)


def _matrices(reps, schedule):
    mats = _theta_to_matrix(np.array(reps) @ np.linalg.pinv(_x_state_design(schedule)).T)
    tr = np.trace(mats, axis1=1, axis2=2)
    mats /= np.where(tr > 0, tr, 1.0)[:, None, None]
    return mats, np.abs(mats[:, 0, 3]) - mats[:, 1, 2]


def _expanded_reconstruction(shots_by_setting, schedule, bootstrap, seed):
    """The bootstrap as sums over resampled shots: each resample's multiplicities
    of the distinct (n, ones) groups, drawn as the library draws them, are
    expanded into picks of random shots of each group."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0xB007]))
    pick = np.random.default_rng(seed)
    freqs = []
    for lab in schedule:
        pairs, rows = _usable_rows(shots_by_setting[lab])
        _, group, counts = np.unique(pairs, axis=0, return_inverse=True, return_counts=True)
        members = [np.flatnonzero(group.ravel() == g) for g in range(len(counts))]
        mult = rng.multinomial(len(rows), counts / len(rows), size=bootstrap)
        sums = np.array([rows.sum(axis=0)] + [
            rows[np.concatenate([pick.choice(m, size=k) for m, k in zip(members, ks)])].sum(axis=0)
            for ks in mult
        ])
        freqs.append(sums / sums.sum(axis=1, keepdims=True))
    mats, deltas = _matrices(np.concatenate(freqs, axis=1), schedule)
    return mats[0], mats[1:].std(axis=0, ddof=1), deltas[0], deltas[1:].std(ddof=1)


def _shot_rows(n_max):
    # (n, ones, collided) with at least one usable shot (n >= 2, not collided)
    shot = st.integers(0, n_max).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n), st.booleans())
    )
    return st.lists(shot, min_size=1, max_size=40).map(
        lambda rows: np.array(rows + [(n_max, n_max // 2, False)], dtype=float)
    )


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    shots=st.tuples(_shot_rows(3), _shot_rows(12), _shot_rows(40)),
    schedule=st.sampled_from([DEFAULT_SCHEDULE, ("RL", "HV", "DA")]),
    bootstrap=st.integers(2, 12),
    seed=st.integers(0, 2**32),
)
def test_multinomial_bootstrap_equals_sums_over_resampled_shots(shots, schedule, bootstrap, seed):
    by_label = dict(zip(("HV", "DA", "RL"), shots))
    res = _reconstruct(by_label, schedule, bootstrap, seed)
    matrix, entry_se, delta_hat, delta_se = _expanded_reconstruction(
        by_label, schedule, bootstrap, seed
    )
    assert res.matrix.matrix.tobytes() == matrix.tobytes()
    assert res.entry_se.tobytes() == entry_se.tobytes()
    assert (res.delta_hat, res.delta_se) == (delta_hat, delta_se)


def test_multinomial_bootstrap_has_the_law_of_index_resampling():
    # Efron's bootstrap draws S shot indices with replacement per resample; with
    # B = 4000 resamples each se estimate scatters by about 1/sqrt(2B) = 1.1 %
    # relative, so the two differ by about 1.6 %.  Over six seed pairs on this
    # data the gap read at most 1.6 % on delta_se and 4.2 % on the diagonal
    # entries, whose bootstrap laws have heavier tails.
    p = StateParams(6.0, 0.3, 0.0)
    shots = {
        lab: _shot_array(simulate_shots(p, DetectorArray(64, 0.7, lab, 11 + k), 300))
        for k, lab in enumerate(DEFAULT_SCHEDULE)
    }
    bootstrap = 4000
    res = _reconstruct(shots, DEFAULT_SCHEDULE, bootstrap, seed=2)
    rng = np.random.default_rng(3)
    rows = {lab: _usable_rows(shots[lab])[1] for lab in DEFAULT_SCHEDULE}
    reps = []
    for _ in range(bootstrap):
        sums = [rows[lab][rng.integers(0, len(rows[lab]), size=len(rows[lab]))].sum(axis=0)
                for lab in DEFAULT_SCHEDULE]
        reps.append(np.concatenate([x / x.sum() for x in sums]))
    mats, deltas = _matrices(reps, DEFAULT_SCHEDULE)
    assert res.delta_se == pytest.approx(deltas.std(ddof=1), rel=0.05)
    assert res.entry_se[[0, 1, 3], [0, 1, 3]] == pytest.approx(
        mats.std(axis=0, ddof=1)[[0, 1, 3], [0, 1, 3]], rel=0.08
    )


@pytest.mark.parametrize(
    "params, array, shots, fixed_n",
    [
        (StateParams(16.0, 0.3, 0.0), DetectorArray(m=4096, rng_seed=3), 300, 16),
        (StateParams(4.0, 0.2, 0.0), DetectorArray(m=64, efficiency=0.6, rng_seed=8), 400, None),
        (StateParams(3.0, 0.2, 0.05), DetectorArray(m=2**16, efficiency=0.9, rng_seed=2), 300, None),
        (StateParams(2.0, 0.1, 0.0), DetectorArray(m=2**20, rng_seed=6), _BLOCK + 50, None),
    ],
    ids=["fixed-n", "lossy", "thermal", "two-blocks"],
)
def test_tomography_equals_reconstruction_of_simulated_records(params, array, shots, fixed_n):
    res = run_pair_tomography(params, array, shots, bootstrap=20, fixed_n=fixed_n)
    records = {
        lab: list(simulate_shots(
            params,
            DetectorArray(array.m, array.efficiency, lab, array.rng_seed + 7919 * (k + 1)),
            shots,
            fixed_n=fixed_n,
        ))
        for k, lab in enumerate(DEFAULT_SCHEDULE)
    }
    ref = reconstruct_two_body(records, bootstrap=20, seed=array.rng_seed)
    assert res.matrix.matrix.tobytes() == ref.matrix.matrix.tobytes()
    assert res.entry_se.tobytes() == ref.entry_se.tobytes()
    assert (res.delta_hat, res.delta_se) == (ref.delta_hat, ref.delta_se)
    assert res.collision_fraction == ref.collision_fraction
    assert res.excluded_fraction == ref.excluded_fraction
    assert res.shots_per_setting == ref.shots_per_setting
    assert res.shots_per_setting == dict.fromkeys(DEFAULT_SCHEDULE, shots)


def test_pair_tomography_builds_no_records(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a ShotRecord was built")

    monkeypatch.setattr(detect, "ShotRecord", refuse)
    res = run_pair_tomography(StateParams(6.0, 0.3, 0.0), DetectorArray(m=256, rng_seed=1), 200)
    assert np.isfinite(res.delta_se)
    with pytest.raises(AssertionError):
        next(simulate_shots(StateParams(6.0, 0.3, 0.0), DetectorArray(m=256, rng_seed=1), 2))


def test_schedule_repeating_a_setting_is_refused_before_any_shot(monkeypatch):
    schedule = ("HV", "DA", "RL", "RL")
    p, arr = StateParams(6.0, 0.3, 0.0), DetectorArray(m=16, rng_seed=1)
    records = {lab: list(simulate_shots(p, arr, 20)) for lab in DEFAULT_SCHEDULE}
    with pytest.raises(RepeatedSetting):
        reconstruct_two_body(records, schedule=schedule)

    def refuse(*args, **kwargs):
        raise AssertionError("a shot was drawn")

    monkeypatch.setattr(detect, "_shot_blocks", refuse)
    with pytest.raises(RepeatedSetting):
        run_pair_tomography(p, arr, 400, schedule=schedule)


@pytest.mark.parametrize("bootstrap", [1, 0, -3])
def test_bootstrap_needs_two_resamples(bootstrap):
    p, arr = StateParams(4.0, 0.3, 0.0), DetectorArray(m=256, rng_seed=1)
    with pytest.raises(InvalidShotCount):
        run_pair_tomography(p, arr, 50, bootstrap=bootstrap)
    records = {lab: list(simulate_shots(p, arr, 50)) for lab in DEFAULT_SCHEDULE}
    with pytest.raises(InvalidShotCount):
        reconstruct_two_body(records, bootstrap=bootstrap)


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
        pv = _count_laws(p, label, n)[n]
        assert pv.sum() == pytest.approx(1.0, abs=1e-9)
        assert (pv >= 0).all()
    # the circular-basis count distribution is squeezed below binomial noise
    pv = _count_laws(p, "RL", n)[n]
    v = np.arange(n + 1)
    mean = (v * pv).sum()
    var = ((v - mean) ** 2 * pv).sum()
    y_var = 4 * var  # Y = n - 2v
    assert y_var < n  # sub-shot-noise: the entanglement signature


@pytest.mark.parametrize("n", [30, 100])
@pytest.mark.parametrize("label", ["DA", "RL"])
def test_rotated_count_law_factorial_moments_match_the_pair_law(label, n):
    # E[v] = N p1 and E[v (v - 1)] = N (N - 1) p11 for v photons with outcome 1
    p = StateParams(float(n), 0.3, 0.0)
    pv = _count_laws(p, label, n)[n]
    q = exact_pair_probabilities(reduced_two_body(p, n), label)  # index 2 o1 + o2
    v = np.arange(n + 1)
    assert (v * pv).sum() == pytest.approx(n * (q[2] + q[3]), rel=1e-6)
    assert (v * (v - 1) * pv).sum() == pytest.approx(n * (n - 1) * q[3], rel=1e-6)


def _wick_two_body(p, n):
    """R2 of N photons from the float Wick table: R2[r, s] ~ sum_m C(N-2, m) S[r+m, s+m]."""
    s = _scaled_moments(p, n)
    m = np.arange(n - 1)
    binom = np.array([float(math.comb(n - 2, k)) for k in m])
    hh, hv, vv, hhvv = (binom @ s[r + m, t + m] for r, t in ((0, 0), (1, 1), (2, 2), (0, 2)))
    mat = np.array([[hh, 0, 0, hhvv], [0, hv, hv, 0], [0, hv, hv, 0], [hhvv, 0, 0, vv]])
    return TwoBodyOdm(mat / np.trace(mat), n)


@pytest.mark.parametrize(
    "nc, ns, n", [(128.0, 0.3, 128), (300.0, 3.0, 100), (160.0, 0.3, 160), (256.0, 0.3, 256)]
)
@pytest.mark.parametrize("label", ["DA", "RL"])
def test_rotated_count_law_factorial_moments_at_large_n(label, nc, ns, n):
    # where the Born-rule sums lost the law to cancellation (N >= 128)
    p = StateParams(nc, ns, 0.0)
    pv = _count_laws(p, label, n)[n]
    q = exact_pair_probabilities(_wick_two_body(p, n), label)
    v = np.arange(n + 1)
    assert (v * pv).sum() == pytest.approx(n * (q[2] + q[3]), rel=1e-9)
    assert (v * (v - 1) * pv).sum() == pytest.approx(n * (n - 1) * q[3], rel=1e-9)


def test_count_laws_at_a_thousand_photons():
    n = 1000
    p = StateParams(float(n), 0.3, 0.0)
    v = np.arange(n + 1)
    for label in ("DA", "RL"):
        raw = _rotated_laws(p, label, n)[n]
        assert raw.real.min() >= -1e-12
        assert np.abs(raw.imag).max() <= 1e-12
        assert (v * raw.real).sum() == pytest.approx(n / 2, rel=1e-12)
    hv = _count_laws(p, "HV", n)[n]
    assert np.abs(hv - _odm(p, n).vcount_probabilities()).max() <= 1e-12


def test_non_purifiable_state_simulates():
    p = StateParams(1.0, 0.01, 0.5)
    with pytest.raises(NonPurifiable):
        purify(p)
    res = run_pair_tomography(p, DetectorArray(m=2**20, efficiency=0.8, rng_seed=2), 200)
    assert np.isfinite(res.matrix.matrix).all()
    assert np.isfinite(res.delta_se)


@pytest.mark.parametrize("label", ["DA", "RL"])
def test_rotated_count_law_matches_dense_born_rule(label):
    p = StateParams(3.0, 0.3, 0.05)
    laws = _count_laws(p, label, 8)
    pure = purify(p)[0]
    for n in range(1, 9):
        rho = build_odm(pure, n).dense()
        u = SETTING_BASES[label]
        for _ in range(n - 1):
            u = np.kron(u, SETTING_BASES[label])
        probs = np.real(np.diag(u.conj().T @ rho @ u))
        ones = np.array([i.bit_count() for i in range(1 << n)])
        expected = np.bincount(ones, weights=probs, minlength=n + 1)
        assert laws[n, : n + 1] == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_count_laws_build_no_correlator_tables():
    before = correlators._table.cache_info()
    for label in ("HV", "DA", "RL"):
        _count_laws(StateParams(6.0, 0.2345678, 0.0123), label, 30)
    assert correlators._table.cache_info() == before


def _born_law_mpmath(p, label, n, dps=80):
    """C(N, r) times the Born probability of one product outcome with r ones, 80 digits."""
    with mp.workdps(dps):
        x, y = mp.mpf(p.vmode_mean), mp.sqrt(mp.mpf(p.ns) * (p.ns + 1)) * (1 + 2 * mp.mpf(p.nth))
        e = [[mp.mpf(0)] * (n + 1) for _ in range(n + 1)]  # <(a^dag)^v a^w>
        e[0][0] = mp.mpf(1)
        for k in range(2, n + 1, 2):
            e[0][k] = (k - 1) * y * e[0][k - 2]
        for m in range(n):
            for w in range(n + 1):
                e[m + 1][w] = (w * x * e[m][w - 1] if w else 0) + (m * y * e[m - 1][w] if m else 0)
        alpha = mp.sqrt(p.nc)
        half = 1 / mp.sqrt(2)
        col0, col1 = {"DA": ((half, half), (half, -half)),
                      "RL": ((half, 1j * half), (half, -1j * half))}[label]
        out = []
        for r in range(n + 1):
            amp = [mp.mpc(1)]  # conjugated product amplitude by vertical count
            for h, v in [col0] * (n - r) + [col1] * r:
                h, v = mp.conj(h), mp.conj(v)
                amp = [a * h + b * v for a, b in zip(amp + [0], [0] + amp)]
            val = mp.fsum(
                mp.conj(amp[i]) * alpha ** (2 * n - i - j) * e[i][j] * amp[j]
                for i in range(n + 1) for j in range(n + 1)
            )
            out.append(math.comb(n, r) * mp.re(val))
        total = mp.fsum(out)
        return np.array([float(o / total) for o in out])


@pytest.mark.parametrize("label", ["DA", "RL"])
def test_batched_count_law_matches_per_outcome_born_rule(label):
    n = 30
    p = StateParams(float(n), 0.3, 0.0)
    ref = _born_law_mpmath(p, label, n)
    assert _count_laws(p, label, n)[n] == pytest.approx(ref, abs=1e-15)


def _hv_law_mpmath(p, n):
    """P(v | n) from the Wick recurrence in 60-digit arithmetic."""
    with mp.workdps(60):
        x, y = mp.mpf(p.vmode_mean) / p.nc, mp.mpf(p.anomalous_moment) / p.nc
        s = [[mp.mpf(0)] * (n + 1) for _ in range(n + 1)]
        s[0][0] = mp.mpf(1)
        for k in range(2, n + 1, 2):
            s[0][k] = (k - 1) * y * s[0][k - 2]
        for m in range(n):
            for w in range(n + 1):
                s[m + 1][w] = (w * x * s[m][w - 1] if w else 0) + (m * y * s[m - 1][w] if m else 0)
        weights = [math.comb(n, v) * s[v][v] for v in range(n + 1)]
        total = mp.fsum(weights)
        return np.array([float(w / total) for w in weights])


@pytest.mark.parametrize("nc, n", [(0.5, 146), (1e-3, 144)])
def test_count_laws_stay_finite_where_moments_pass_the_float_range(nc, n):
    # the largest moment is about 2^1379 at nc = 0.5 and 2^2648 at nc = 1e-3
    p = StateParams(nc, 3.0, 0.0)
    for label in ("HV", "DA", "RL"):
        pv = _count_laws(p, label, n)[n]
        assert np.isfinite(pv).all()
        assert pv.sum() == pytest.approx(1.0, abs=1e-12)
    ref = _hv_law_mpmath(p, n)
    keep = ref > 1e-300
    assert _count_laws(p, "HV", n)[n][keep] == pytest.approx(ref[keep], rel=1e-12)


def test_count_law_refuses_orders_beyond_the_moment_limit():
    with pytest.raises(OrderTooLarge):
        _count_laws(StateParams(2.0, 0.3, 0.0), "DA", _MAX_COUNT_ORDER + 1)


@pytest.mark.parametrize(
    "delta_hat, expected", [(0.02, 150 * 0.5**2), (0.0, math.inf), (-0.02, math.inf)]
)
def test_shots_to_1sigma_is_infinite_without_a_positive_signal(delta_hat, expected):
    res = TomographyResult(
        matrix=None, entry_se=np.zeros((4, 4)), delta_hat=delta_hat, delta_se=0.01,
        shots_per_setting={"HV": 50, "DA": 50, "RL": 50},
    )
    assert res.shots_to_1sigma == pytest.approx(expected, rel=1e-15)
    assert res.single_shot_err == pytest.approx(0.01 * math.sqrt(150), rel=1e-15)


def test_thinning_matches_binomial_sum():
    # the detected-number law is the pulse law after loss: exact binomial thinning
    eta = 0.55
    for p in (StateParams(4.0, 0.3, 0.0), StateParams(2.0, 0.1, 0.05)):
        cut = default_n_cutoff(p)
        base = pulse_number_pmf(p, 2 * cut)  # the tail past the cutoff thins into it
        direct = np.zeros(cut + 1)
        for n, pn in enumerate(base):
            for k in range(min(n, cut) + 1):
                direct[k] += pn * math.comb(n, k) * eta**k * (1 - eta) ** (n - k)
        got = _detected_number_pmf(p, eta, None)
        assert got[-1] > 1e-12 >= direct[got.size :].max()
        keep = got > 1e-300
        assert got[keep] == pytest.approx(direct[: got.size][keep], rel=1e-12)


def test_reduction_and_lossy_sampling_do_not_import_scipy():
    code = (
        "import sys\n"
        "import polsqueeze\n"
        "fft_on_import = 'numpy.fft' in sys.modules\n"
        "from polsqueeze import StateParams, reduced_two_body\n"
        "from polsqueeze.detect import DetectorArray, run_pair_tomography, simulate_shots\n"
        "reduced_two_body(StateParams(4.0, 0.3, 0.0), 8)\n"
        "arr = DetectorArray(m=64, efficiency=0.5, rng_seed=1)\n"
        "list(simulate_shots(StateParams(3.0, 0.1, 0.02), arr, 20))\n"
        "run_pair_tomography(StateParams(3.0, 0.1, 0.02), arr, 20, bootstrap=2)\n"
        "print(fft_on_import, 'scipy' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False False"
