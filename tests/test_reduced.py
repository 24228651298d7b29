import math

import numpy as np
import pytest

from polsqueeze import (
    StateParams,
    averaged_two_body,
    build_odm,
    photon_number_distribution,
    purify,
    reduced_two_body,
)
from polsqueeze.errors import TooFewPhotons, UnsupportedThermal
from polsqueeze.fock import build_squeezed_thermal
from polsqueeze.reduced import (
    _poisson_pmf,
    default_n_cutoff,
    pulse_number_pmf,
    squeezed_pair_distribution,
)


def _ptrace_to_pair(rho, n):
    t = rho.reshape([2] * (2 * n))
    while n > 2:
        t = np.trace(t, axis1=n - 1, axis2=2 * n - 1)
        n -= 1
    return t.reshape(4, 4)


def test_flagship_hundred_photon_values():
    tb = reduced_two_body(StateParams(100.0, 0.3, 0.0), 100)
    m = tb.matrix
    assert m[0, 0] == pytest.approx(0.9440, abs=5e-5)
    assert abs(m[0, 3]) == pytest.approx(0.0293, abs=5e-5)
    assert m[1, 1] == pytest.approx(0.0270, abs=5e-5)
    assert m[3, 3] == pytest.approx(0.0021, abs=5e-5)


def test_no_squeezing_is_all_horizontal():
    for n in (2, 7, 40):
        m = reduced_two_body(StateParams(3.0, 0.0, 0.0), n).matrix
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(m, expected, atol=1e-14)


def test_n2_equals_closed_form():
    from polsqueeze import closed_form_r2

    p = StateParams(1.0, 0.3, 0.1)
    r2 = closed_form_r2(p)
    assert np.allclose(
        reduced_two_body(p, 2).matrix, r2 / np.trace(r2), atol=1e-14
    )


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_matches_partial_trace(n):
    p = StateParams(1.0, 0.5, 0.1)
    dense = build_odm(p, n).dense()
    assert np.abs(_ptrace_to_pair(dense, n) - reduced_two_body(p, n).matrix).max() < 1e-12


def test_x_shape_and_psd_on_grid():
    for nc in (0.5, 10.0):
        for ns in (0.1, 1.0):
            for nth in (0.0, 0.1):
                m = reduced_two_body(StateParams(nc, ns, nth), 12).matrix
                assert m[0, 1] == m[0, 2] == m[1, 3] == m[2, 3] == 0.0
                assert m[1, 1] == m[2, 2] == m[1, 2]
                assert np.trace(m) == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.eigvalsh(m).min() >= -1e-10


def test_loss_invariance():
    p = StateParams(1.0, 0.5, 0.1)
    pure, _ = purify(p)
    for n in (2, 20, 60):
        a = reduced_two_body(p, n).matrix
        b = reduced_two_body(pure, n).matrix
        assert np.abs(a - b).max() < 1e-10


def test_n_stability_of_concurrence():
    # likely outcomes nc +- sqrt(nc) give similar concurrence; bound frozen
    # from the first verified run (max 5.6% at N=110, 4.3% at N=90)
    from polsqueeze import concurrence

    p = StateParams(100.0, 0.3, 0.0)
    c0 = concurrence(reduced_two_body(p, 100))
    for n in (90, 110):
        cn = concurrence(reduced_two_body(p, n))
        assert abs(cn - c0) / c0 < 0.06


def test_too_few_photons():
    with pytest.raises(TooFewPhotons):
        reduced_two_body(StateParams(1.0, 0.1, 0.0), 1)


def test_pair_distribution_normalized_and_even_only():
    ps = squeezed_pair_distribution(0.3, 400)
    assert ps.sum() == pytest.approx(1.0, abs=1e-12)
    # mean photon number of the squeezed beam is ns
    assert (2 * np.arange(401) * ps).sum() == pytest.approx(0.3, rel=1e-10)


def test_pair_distribution_matches_fock_diagonal():
    st = build_squeezed_thermal(0.3, 0.0, 40)
    diag = np.diag(st.rho_v)
    ps = squeezed_pair_distribution(0.3, 19)
    for k in range(10):
        assert ps[k] == pytest.approx(diag[2 * k], abs=1e-10)
        assert diag[2 * k + 1] == pytest.approx(0.0, abs=1e-12)


def test_photon_number_distribution():
    p0 = StateParams(0.0, 0.0, 0.0)
    assert photon_number_distribution(p0, 0) == 1.0
    p1 = StateParams(1.0, 0.0, 0.0)
    assert photon_number_distribution(p1, 1) == pytest.approx(math.exp(-1), rel=1e-12)
    with pytest.raises(UnsupportedThermal):
        photon_number_distribution(StateParams(1.0, 0.1, 0.1), 2)


def test_pulse_pmf_normalization():
    p = StateParams(9.0, 0.3, 0.0)
    n_max = int(9 + 10 * 3 + 20)
    pmf = pulse_number_pmf(p, n_max)
    assert 1.0 - pmf.sum() < 1e-10
    # mean equals total photon flux
    mean = (np.arange(n_max + 1) * pmf).sum()
    assert mean == pytest.approx(9.3, rel=1e-9)


def test_pulse_pmf_sums_in_the_order_of_the_convolution_loop():
    p = StateParams(6.0, 1.3, 0.0)
    n_max = default_n_cutoff(p)
    got = pulse_number_pmf(p, n_max)
    pois = _poisson_pmf(6.0, n_max)
    pairs = squeezed_pair_distribution(1.3, n_max // 2)
    loop = [sum(pois[n - 2 * k] * pairs[k] for k in range(n // 2 + 1)) for n in range(n_max + 1)]
    assert got.tolist() == loop


@pytest.mark.parametrize("nc, ns", [(1.0, 1.7), (0.5, 5.0), (2.0, 20.0)])
def test_default_cutoff_covers_strong_squeezing(nc, ns):
    p = StateParams(nc, ns, 0.0)
    n_max = default_n_cutoff(p)
    assert 1.0 - pulse_number_pmf(p, n_max).sum() < 1e-10
    assert n_max >= int(nc + 10.0 * math.sqrt(nc) + 20.0) + 40


def test_averaged_requires_thermal_free():
    with pytest.raises(UnsupportedThermal):
        averaged_two_body(StateParams(1.0, 0.1, 0.2))


def test_averaged_small_flux_reduces_to_mixture():
    p = StateParams(4.0, 0.2, 0.0)
    pmf = pulse_number_pmf(p, 60)
    num = np.zeros((4, 4))
    den = 0.0
    for n in range(2, 61):
        if pmf[n] < 1e-16:
            continue
        num += pmf[n] * reduced_two_body(p, n).matrix
        den += pmf[n]
    assert np.abs(averaged_two_body(p).matrix - num / den).max() < 1e-12


def test_averaged_no_squeezing():
    m = averaged_two_body(StateParams(5.0, 0.0, 0.0)).matrix
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(m, expected, atol=1e-14)


def test_averaged_weight_concentration():
    # excluding the nc +- 6 sqrt(nc) tails moves entries by at most a few
    # times the excluded probability mass
    p = StateParams(25.0, 0.3, 0.0)
    full = averaged_two_body(p).matrix
    lo, hi = int(25 - 6 * 5), int(25 + 6 * 5) + 1
    pmf = pulse_number_pmf(p, 160)
    num = np.zeros((4, 4))
    den = 0.0
    for n in range(max(2, lo), hi):
        num += pmf[n] * reduced_two_body(p, n).matrix
        den += pmf[n]
    outside = abs(1.0 - den)
    assert np.abs(full - num / den).max() < 20 * outside + 1e-12
    assert outside < 1e-6
