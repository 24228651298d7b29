"""Entanglement depth from collective polarization moments.

A collective spin built from spin-1/2 constituents with measured polarization
and transverse noise admits a minimum cluster size: no partition into
independent groups of fewer than k = 2J particles can reproduce a point
(polarization, noise) outside the spin-J feasibility region.  The feasibility
boundary is traced exactly for small J by one symmetric tridiagonal solve of
``j_x^2 - mu*j_z`` on the block m = J, J - 2, ... that holds its ground
state, and in closed form for large J through the bosonic
(Holstein-Primakoff) limit, where the boundary state is squeezed vacuum in
the defect mode.

For the polarization-squeezed beam, 2<S_0>, <S_x> and var(S_z) play the roles
of particle number, polarization and transverse noise.  Solving the
boundary equation  2v = 1 + 2x - 2 sqrt(x(1+x))  for x = J(1 - zeta) gives
the minimal cluster spin

    J = (1 - 2v)^2 / (8 v (1 - zeta)),   v < 1/2,

so with the scaled noise v = var(S_z)/S_0 and the polarization defect
delta_z = <S_0 - S_x> the depth is k = 2J = 2<S_0> (1-2v)^2 / (8 v delta_z)
and the depth fraction k / (2<S_0>) has the nc-independent macroscopic limit
(1-2v)^2 / (8 v delta_z).  At nth = 0 that limit equals 1 identically: every
Wineland-squeezed pure state is entangled wall to wall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotReachable
from .state import StateParams, stokes_summary

__all__ = [
    "DepthResult",
    "depth_large_j",
    "macroscopic_fraction",
    "depth_exact_small_j",
    "min_jx2_at_defect",
    "boundary_curve",
    "contour_data",
]


@dataclass(frozen=True)
class DepthResult:
    k: float          # entangled-cluster size lower bound; 1 = nothing implied
    fraction: float   # k / (2 <S_0>)
    v: float          # scaled spin noise var(S_z)/S_0
    defect: float     # <S_0 - S_x>


def depth_large_j(params: StateParams) -> DepthResult:
    """Closed-form depth bound for the polarization-squeezed state.

    Returns k = 1 (no entanglement implied) outside the validity region,
    i.e. for non-squeezed parameters or scaled noise v >= 1/2.  k is real
    valued; callers may floor it.
    """
    st = stokes_summary(params)
    defect = st.s0 - st.sx  # = ns + nth + 2 ns nth
    v = st.var_sz / st.s0 if st.s0 > 0 else float("inf")
    if not st.wineland_squeezed or v >= 0.5 or defect <= 0.0:
        return DepthResult(k=1.0, fraction=1.0 / (2.0 * st.s0) if st.s0 else 0.0,
                           v=v, defect=defect)
    k = 2.0 * st.s0 * (1.0 - 2.0 * v) ** 2 / (8.0 * v * defect)
    k = max(k, 1.0)
    return DepthResult(k=k, fraction=k / (2.0 * st.s0), v=v, defect=defect)


def macroscopic_fraction(ns: float, nth: float) -> tuple[float, bool]:
    """(depth fraction in the nc -> infinity limit, grey flag).

    The grey flag marks the non-squeezed region where only k = 1 is implied;
    there the fraction is reported as 0.  Evaluated from the closed-form
    limit of the rational expression, not by large-nc extrapolation.
    """
    p = StateParams(nc=1.0, ns=ns, nth=nth)
    if not p.wineland_squeezed():
        return 0.0, True
    a2 = p.antisqueeze_ratio**2
    t2 = p.thermal_scale
    v = t2 / (2.0 * a2)
    if v >= 0.5:
        return 0.0, True
    defect = p.vmode_mean
    return (1.0 - 2.0 * v) ** 2 / (8.0 * v * defect), False


# ---------------------------------------------------------------------------
# exact small-J feasibility via one tridiagonal block solve


def _ground_state(j: float, mu: float) -> tuple[float, float]:
    """(<j_x^2>, <j_z>) of the ground state of j_x^2 - mu*j_z, mu > 0.

    j_x^2 couples m only to m +- 2, so the Hamiltonian splits into two
    tridiagonal blocks; for mu > 0 the ground state lies in the block
    m = j, j - 2, ..., which is solved whole, without truncation.
    """
    from scipy.linalg import eigh_tridiagonal  # imported here: scipy.linalg is ~30 MiB
    m = j - 2.0 * np.arange(int(round(2 * j)) // 2 + 1)
    c = j * (j + 1)
    diag = (c - m * m) / 2.0  # diagonal of j_x^2 on the block
    mm = m[:-1]
    off = np.sqrt((c - mm * (mm - 1)) * (c - (mm - 1) * (mm - 2))) / 4.0
    _, vec = eigh_tridiagonal(diag - mu * m, off, select="i", select_range=(0, 0))
    v = vec[:, 0]
    # <j_x^2> from the vector, not from the energy: E + mu*<j_z> cancels at large mu
    return float(v * v @ diag + 2.0 * (v[:-1] * v[1:]) @ off), float(v * v @ m)


_MU_GRID = np.logspace(-4, 4, 400)


def boundary_curve(j: float) -> tuple[np.ndarray, np.ndarray]:
    """(zeta, upsilon) samples of the spin-j feasibility boundary.

    Traced parametrically over a log-spaced grid of the multiplier mu; both
    arrays are sorted by zeta.
    """
    zetas = np.empty(_MU_GRID.size)
    upsilons = np.empty(_MU_GRID.size)
    for i, mu in enumerate(_MU_GRID):
        jx2, jz = _ground_state(j, mu)
        zetas[i] = jz / j
        upsilons[i] = jx2 / j
    order = np.argsort(zetas)
    return zetas[order], upsilons[order]


def _admits(j: float, upsilon: float, zeta: float, tol: float) -> bool:
    """Whether upsilon >= upsilon_min(zeta; j) - tol on the spin-j boundary.

    upsilon_min is <j_x^2>/j of the ground state whose polarization is
    zeta, found by bisection in the multiplier mu.  Both <j_z> and <j_x^2>
    grow with mu (d<j_x^2>/dmu = mu d<j_z>/dmu >= 0), so the bisection stops
    as soon as the noise at both bracket ends falls on one side of the test.
    Outside the swept mu range the nearest endpoint is used (below the range
    the boundary is flat toward smaller zeta, above it the state is
    essentially fully polarized).
    """
    lo_mu, hi_mu = float(_MU_GRID[0]), float(_MU_GRID[-1])
    jx2_lo, jz_lo = _ground_state(j, lo_mu)
    if zeta <= jz_lo / j:
        return upsilon >= jx2_lo / j - tol
    jx2_hi, jz_hi = _ground_state(j, hi_mu)
    if zeta >= jz_hi / j:
        return upsilon >= jx2_hi / j - tol
    for _ in range(60):
        if upsilon >= jx2_hi / j - tol:
            return True
        if upsilon < jx2_lo / j - tol:
            return False
        mu = math.sqrt(lo_mu * hi_mu)
        jx2, jz = _ground_state(j, mu)
        if jz / j < zeta:
            lo_mu, jx2_lo = mu, jx2
        else:
            hi_mu, jx2_hi = mu, jx2
        if hi_mu / lo_mu < 1 + 1e-12:
            break
    return upsilon >= jx2 / j - tol


def depth_exact_small_j(
    upsilon: float, zeta: float, j_max: float = 200.0, tol: float = 1e-9
) -> float:
    """Least spin j (half-integer steps) whose boundary admits (upsilon, zeta).

    A point is admitted when upsilon >= upsilon_min(zeta; j) - tol; the
    boundary noise at fixed zeta decreases with j, so the least admitting j
    is found by bisection over the half-integer ladder.  Raises NotReachable
    if even j_max cannot produce the point.
    """
    if not 0 < zeta <= 1:
        raise ValueError("zeta must be in (0, 1]")
    if _admits(0.5, upsilon, zeta, tol):
        return 0.5
    hi = int(round(2 * j_max))  # ladder index: j = hi / 2
    if not _admits(hi / 2.0, upsilon, zeta, tol):
        raise NotReachable(f"no j <= {j_max} admits (upsilon={upsilon}, zeta={zeta})")
    lo = 1  # j = 0.5 already rejected
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _admits(mid / 2.0, upsilon, zeta, tol):
            hi = mid
        else:
            lo = mid
    return hi / 2.0


def min_jx2_at_defect(j: float, defect: float) -> float:
    """Exact boundary <j_x^2> at a prescribed polarization defect j - <j_z>.

    Bisects the multiplier mu until the ground-state defect matches; used to
    compare the exact block diagonalization against the closed large-j form
    2<j_x^2>/j = 1 + 2 d - 2 sqrt(d (1 + d)).
    """
    lo_mu, hi_mu = 1e-6, 1e8
    jx2 = float("nan")
    for _ in range(200):
        mu = math.sqrt(lo_mu * hi_mu)
        jx2, jz = _ground_state(j, mu)
        if j - jz > defect:
            lo_mu = mu
        else:
            hi_mu = mu
        if hi_mu / lo_mu < 1 + 1e-13:
            break
    return jx2


def contour_data(resolution: int = 41) -> list[tuple[float, float, float, bool]]:
    """Macroscopic depth-fraction grid rows (ns, nth, fraction, is_grey).

    Both axes log-spaced over [1e-3, 10]; deterministic closed-form
    evaluation per cell.
    """
    axis = np.logspace(-3.0, 1.0, resolution)
    rows = []
    for nth in axis:
        for ns in axis:
            frac, grey = macroscopic_fraction(float(ns), float(nth))
            rows.append((float(ns), float(nth), frac, grey))
    return rows
