import math

import numpy as np
import pytest

from polsqueeze import (
    StateParams,
    depth_exact_small_j,
    depth_large_j,
    macroscopic_fraction,
    min_jx2_at_defect,
    stokes_summary,
)
from polsqueeze.depth import _MU_GRID, _admits, _ground_state, boundary_curve, contour_data
from polsqueeze.errors import NotReachable


def test_no_squeezing_gives_k1():
    r = depth_large_j(StateParams(100.0, 0.0, 0.0))
    assert r.k == 1.0


def test_defect_equals_stokes_difference():
    p = StateParams(50.0, 0.2, 0.1)
    r = depth_large_j(p)
    st = stokes_summary(p)
    assert r.defect == pytest.approx(st.s0 - st.sx, rel=1e-14)


def test_gating_at_high_noise():
    # strongly thermal: Wineland fails, depth must not report k > 1
    r = depth_large_j(StateParams(100.0, 0.01, 0.5))
    assert r.k == 1.0


def test_macroscopic_fraction_pure_states():
    # at nth = 0 the macroscopic fraction is 1 for every squeezed ns
    for ns in (1e-4, 0.01, 0.3, 2.0):
        frac, grey = macroscopic_fraction(ns, 0.0)
        assert not grey
        assert frac == pytest.approx(1.0, abs=1e-10)


def test_macroscopic_fraction_large_nc_agreement():
    # finite-nc depth fraction approaches the closed-form limit
    ns, nth = 0.2, 0.05
    frac, _ = macroscopic_fraction(ns, nth)
    r = depth_large_j(StateParams(1e8, ns, nth))
    assert r.fraction == pytest.approx(frac, rel=1e-6)


def test_fraction_monotone_toward_one_at_small_nth():
    fracs = [macroscopic_fraction(ns, 1e-3)[0] for ns in (0.001, 0.01, 0.1, 1.0, 10.0)]
    assert all(f2 > f1 for f1, f2 in zip(fracs, fracs[1:]))
    assert fracs[-1] > 0.99


def test_contour_grid_grey_boundary_and_determinism():
    rows = contour_data(resolution=11)
    for ns, nth, frac, grey in rows:
        assert grey == (ns <= nth**2 / (2 * nth + 1))
        if not grey:
            assert 0.0 < frac <= 1.0 + 1e-12
    again = contour_data(resolution=11)
    assert rows == again


def test_spin_half_boundary_is_flat():
    zeta, upsilon = boundary_curve(0.5)
    # jx^2 = 1/4 identically for a single spin-1/2
    assert np.allclose(upsilon, 0.5, atol=1e-12)
    assert depth_exact_small_j(0.5, 0.05, j_max=4) == 0.5


def test_exact_boundary_matches_direct_two_level_minimization():
    # J = 1/2 via dense 2x2 eigenvectors, swept over mu
    for mu in (0.01, 0.5, 3.0, 100.0):
        jx = np.array([[0.0, 0.5], [0.5, 0.0]])
        jz = np.diag([0.5, -0.5])
        h = jx @ jx - mu * jz
        w, v = np.linalg.eigh(h)
        vec = v[:, 0]
        jx2 = float(vec @ (jx @ jx) @ vec)
        jz_val = float(vec @ jz @ vec)
        gx2, gz = _ground_state(0.5, mu)
        assert gx2 == pytest.approx(jx2, abs=1e-12)
        assert gz == pytest.approx(jz_val, abs=1e-12)


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 7.5, 50.5, 200.0])
def test_block_ground_state_matches_dense_full_ladder(j):
    # the whole (2j+1)-level j_x^2 - mu*j_z, dense; the other block
    # (m = j-1, j-3, ...) never has the lower ground energy
    m = j - np.arange(int(round(2 * j)) + 1)
    jp = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1)  # <m+1|j_+|m>
    jx = (jp + jp.T) / 2.0
    jx2 = jx @ jx
    for mu in np.logspace(-6, 8, 15):
        h = jx2 - mu * np.diag(m)
        _, v = np.linalg.eigh(h)
        g = v[:, 0]
        gx2, gz = _ground_state(j, mu)
        assert gx2 == pytest.approx(g @ jx2 @ g, abs=1e-9)
        assert gz / j == pytest.approx(g @ (m * g) / j, abs=1e-9)
        if m.size > 1:
            assert np.linalg.eigvalsh(h[1::2, 1::2])[0] >= gx2 - mu * gz


def _upsilon_min_full(j, zeta):
    """Boundary noise at polarization zeta: the bisection run to its end."""
    lo_mu, hi_mu = float(_MU_GRID[0]), float(_MU_GRID[-1])
    jx2_lo, jz_lo = _ground_state(j, lo_mu)
    if zeta <= jz_lo / j:
        return jx2_lo / j
    jx2_hi, jz_hi = _ground_state(j, hi_mu)
    if zeta >= jz_hi / j:
        return jx2_hi / j
    for _ in range(60):
        mu = math.sqrt(lo_mu * hi_mu)
        jx2, jz = _ground_state(j, mu)
        if jz / j < zeta:
            lo_mu = mu
        else:
            hi_mu = mu
        if hi_mu / lo_mu < 1 + 1e-12:
            break
    return jx2 / j


def test_early_stopped_admission_equals_full_bisection():
    tol = 1e-9
    for j in (0.5, 1.0, 2.5, 10.0, 40.5):
        for zeta in (1e-6, 0.2, 0.7, 0.95, 0.999, 1.0):
            u_min = _upsilon_min_full(j, zeta)
            for du in (-1e-2, -1e-6, -3e-7, 0.0, 3e-7, 1e-6, 1e-2):
                upsilon = u_min + du
                assert _admits(j, upsilon, zeta, tol) == (upsilon >= u_min - tol)


def _exact_inputs(p):
    """(upsilon, zeta, j_max, tol) of depth_exact_small_j for a squeezed beam."""
    r = depth_large_j(p)
    st = stokes_summary(p)
    j_implied = r.k / 2.0
    tol = 5 * math.sqrt(r.defect) / (2 * j_implied) / 2.0
    return r.v, st.sx / st.s0, 2 * j_implied + 5, tol


@pytest.mark.parametrize(
    "nc, ns, nth, j_exact",
    [(250.0, 0.04, 0.015, 72.0), (400.0, 0.06, 0.02, 118.5), (550.0, 0.075, 0.025, 159.0)],
)
def test_exact_depth_at_fig2_anchors(nc, ns, nth, j_exact):
    upsilon, zeta, j_max, tol = _exact_inputs(StateParams(nc, ns, nth))
    assert depth_exact_small_j(upsilon, zeta, j_max=j_max, tol=tol) == j_exact


def test_footnote_error_bound():
    for j in (50, 100, 200):
        for db in (0.1, 0.7, 2.0):
            jx2 = min_jx2_at_defect(j, db)
            closed = 1 + 2 * db - 2 * math.sqrt(db * (1 + db))
            assert abs(2 * jx2 / j - closed) <= 5 * math.sqrt(db) / (2 * j)


def test_large_j_and_exact_estimators_consistent():
    # a macroscopic squeezed state whose implied cluster spin is modest
    p = StateParams(400.0, 0.05, 0.02)
    r = depth_large_j(p)
    assert r.k > 1.0
    j_implied = r.k / 2.0
    assert j_implied <= 200
    upsilon, zeta, j_max, tol = _exact_inputs(p)
    j_exact = depth_exact_small_j(upsilon, zeta, j_max=j_max, tol=tol)
    assert j_exact <= j_implied * 1.05 + 1.0


def test_not_reachable():
    with pytest.raises(NotReachable):
        depth_exact_small_j(0.001, 0.999999, j_max=1.0)
