import math

import numpy as np
import pytest

from polsqueeze import (
    StateParams,
    born_probability,
    build_odm,
    closed_form_r2,
    closed_form_r3,
    correlation,
    oracle_odm,
    phase_average,
)
from polsqueeze.errors import DimensionTooLarge, NonNormalizedSetting
from polsqueeze.odm import Odm, _scaled_moments

H = (1.0, 0.0)
V = (0.0, 1.0)


def test_coherent_only_is_all_horizontal():
    rho = build_odm(StateParams(2.0, 0.0, 0.0), 2).dense()
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(rho, expected, atol=1e-14)


def test_bell_limit():
    p = StateParams(0.01, 0.0001, 0.0)
    rho = build_odm(p, 2).dense()
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
    assert bell @ rho @ bell > 0.99


def test_three_photon_limit_state():
    # fidelity to (|HHH> + |HVV> + |VHV> + |VVH>)/2 approaches one from below
    t = np.zeros(8)
    t[0] = t[3] = t[5] = t[6] = 0.5
    fids = []
    for nc in (0.01, 0.003, 0.001):
        rho = build_odm(StateParams(nc, nc**2, 0.0), 3).dense()
        fids.append(float(t @ rho @ t))
    assert fids[0] < fids[1] < fids[2]
    assert fids[1] > 0.99


def test_matches_oracle():
    for nc in (0.1, 1.0):
        for ns in (0.1, 0.3):
            for nth in (0.0, 0.05):
                p = StateParams(nc, ns, nth)
                for n in (1, 2, 3):
                    o = oracle_odm(p, n, cutoff=80)
                    b = build_odm(p, n).dense(normalized=False)
                    on, bn = o / np.trace(o), b / np.trace(b)
                    assert np.abs(on - bn).max() < 1e-9 * np.abs(on).max()


def test_closed_forms_match_construction():
    for p in (StateParams(1.0, 0.3, 0.0), StateParams(2.0, 0.1, 0.05)):
        r2 = closed_form_r2(p)
        b2 = build_odm(p, 2).dense(normalized=False)
        assert np.abs(r2 / np.trace(r2) - b2 / np.trace(b2)).max() < 1e-12
        r3 = closed_form_r3(p)
        b3 = build_odm(p, 3).dense(normalized=False)
        assert np.abs(r3 / np.trace(r3) - b3 / np.trace(b3)).max() < 1e-12


def test_closed_form_coefficient_values():
    p = StateParams(1.0, 0.3, 0.0)
    r2 = closed_form_r2(p)
    assert r2[3, 3] == pytest.approx(3 * 0.09 + 0.3, rel=1e-14)  # 0.57
    assert r2[0, 3] == pytest.approx(math.sqrt(0.39), rel=1e-14)


def test_entry_depends_only_on_vcounts():
    p = StateParams(1.5, 0.2, 0.1)
    rho = build_odm(p, 4).dense()
    pops = [i.bit_count() for i in range(16)]
    seen = {}
    for i in range(16):
        for j in range(16):
            key = (pops[i], pops[j])
            if key in seen:
                assert rho[i, j] == seen[key]
            else:
                seen[key] = rho[i, j]


def test_parity_zeros_and_permutation_symmetry():
    p = StateParams(1.0, 0.3, 0.1)
    n = 3
    rho = build_odm(p, n).dense()
    pops = np.array([i.bit_count() for i in range(8)])
    odd = (pops[:, None] - pops[None, :]) % 2 == 1
    assert np.all(rho[odd] == 0.0)
    # swap first and last photon
    perm = [0, 4, 2, 6, 1, 5, 3, 7]
    assert np.allclose(rho, rho[np.ix_(perm, perm)], atol=1e-15)


def test_psd_on_grid():
    for nc in (0.1, 1.0, 10.0):
        for ns in (0.0, 0.1, 0.3, 1.0):
            for nth in (0.0, 0.1):
                rho = build_odm(StateParams(nc, ns, nth), 3).dense()
                assert np.linalg.eigvalsh(rho).min() >= -1e-10


def test_loss_invariance_of_normalized_matrix():
    p = StateParams(1.0, 0.5, 0.1)
    from polsqueeze import purify

    pure, _ = purify(p)
    for n in (2, 4):
        a = build_odm(p, n).dense()
        b = build_odm(pure, n).dense()
        assert np.abs(a - b).max() < 1e-10


def test_dimension_guard():
    with pytest.raises(DimensionTooLarge):
        build_odm(StateParams(1.0, 0.1, 0.0), 15)


def test_born_probability_reads_diagonal():
    p = StateParams(1.0, 0.3, 0.0)
    odm = build_odm(p, 2)
    rho = odm.dense()
    assert born_probability(odm, [H, V]) == pytest.approx(rho[1, 1], rel=1e-12)
    assert born_probability(odm, [V, V]) == pytest.approx(rho[3, 3], rel=1e-12)


def test_born_probability_all_h_on_coherent_state():
    odm = build_odm(StateParams(3.0, 0.0, 0.0), 3)
    assert born_probability(odm, [H, H, H]) == pytest.approx(1.0, abs=1e-12)


def test_born_completeness():
    p = StateParams(1.0, 0.4, 0.1)
    odm = build_odm(p, 3)
    total = 0.0
    for i in range(8):
        settings = [V if (i >> k) & 1 else H for k in range(3)]
        total += born_probability(odm, settings)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_born_probability_rotated_matches_dense():
    p = StateParams(1.0, 0.3, 0.0)
    odm = build_odm(p, 2)
    rho = odm.dense()
    plus = (1 / math.sqrt(2), 1 / math.sqrt(2))
    circ = (1 / math.sqrt(2), 1j / math.sqrt(2))
    for settings in ([plus, plus], [plus, circ], [circ, V]):
        ket = np.kron(np.asarray(settings[0]), np.asarray(settings[1]))
        expected = float(np.real(ket.conj() @ rho @ ket))
        assert born_probability(odm, settings) == pytest.approx(expected, rel=1e-12)


def test_born_rejects_unnormalized():
    odm = build_odm(StateParams(1.0, 0.3, 0.0), 2)
    with pytest.raises(NonNormalizedSetting):
        born_probability(odm, [(0.9, 0.0), H])


def test_phase_average():
    p = StateParams(1.0, 0.3, 0.0)
    odm = build_odm(p, 2)
    dec = phase_average(odm)
    rho, rho_dec = odm.dense(), dec.dense()
    assert rho_dec[0, 3] == 0.0
    assert np.allclose(np.diag(rho_dec), np.diag(rho), atol=1e-15)
    assert rho_dec[1, 2] == rho[1, 2]  # same V-count coherence survives
    again = phase_average(dec)
    assert np.allclose(again.dense(), rho_dec, atol=1e-16)


def test_vcount_probabilities_at_large_n():
    # independent photons, V with probability r/(1+r): a binomial count law
    n, r = 100, 0.25
    table = np.diag(r ** np.arange(n + 1))
    odm = Odm(n=n, table=table, trace=(1.0 + r) ** n)
    p = odm.vcount_probabilities()
    assert p.dtype == np.float64
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    q = r / (1.0 + r)
    v = np.arange(n + 1)
    binom = np.array([math.comb(n, k) * q**k * (1 - q) ** (n - k) for k in v])
    assert np.allclose(p, binom, rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize(
    "nc, ns, nth", [(1.0, 0.3, 0.0), (4.0, 1.2, 0.0), (0.5, 0.2, 0.1), (2.0, 0.0, 0.3)]
)
def test_scaled_moments_match_the_mpmath_moments(nc, ns, nth):
    p = StateParams(nc, ns, nth)
    n_max = 60
    table = _scaled_moments(p, n_max)
    # every entry up to order 12, then a spread of high orders
    pairs = [(v, w) for v in range(13) for w in range(13)]
    pairs += [(60, 60), (58, 60), (0, 60), (31, 59), (40, 44), (17, 55), (59, 60)]
    for v, w in pairs:
        ref = float(correlation(p, v, w)) / nc ** ((v + w) / 2)
        if ref == 0.0:
            assert table[v, w] == 0.0
        else:
            assert table[v, w] == pytest.approx(ref, rel=1e-13)
