"""Independent float references the benchmark checks the library against.

The V mode is a zero-mean Gaussian state, so its normally ordered moments
follow from two-point contractions (Isserlis/Wick):

    E[m, n+1] = m * nbar * E[m-1, n] + n * M * E[m, n-1]

with nbar = ns + nth + 2 ns nth and M = sqrt(ns (ns+1)) (1 + 2 nth).  Every
term is non-negative, so plain floats are accurate to rounding.  The
two-photon reduction is then the positive sum

    R2[r, s] = sum_m C(N-2, m) nc^(1 - m - (r+s)/2) E[r+m, s+m]

normalised to unit trace.  None of this calls the library.
"""

from __future__ import annotations

import math

import numpy as np

_VCOUNTS = (0, 1, 1, 2)  # vertical photons of basis kets HH, HV, VH, VV

# crit1: N = 100, nc = 100, ns = 0.3, nth = 0
CRIT1_ENTRIES = (0.9440, 0.0293, 0.0270, 0.0021)  # rho_11, |rho_14|, rho_22, rho_44
CRIT1_CONCURRENCE = 0.00468


def wick_moments(ns: float, nth: float, order: int) -> np.ndarray:
    """E[m, n] = <(a^dag)^m a^n> for 0 <= m, n <= order (zero when m - n is odd)."""
    nbar = ns + nth + 2.0 * ns * nth
    pair = math.sqrt(ns * (ns + 1.0)) * (1.0 + 2.0 * nth)
    e = np.zeros((order + 1, order + 1))
    e[0, 0] = 1.0
    for n in range(2, order + 1, 2):
        e[0, n] = (n - 1) * pair * e[0, n - 2]
        e[n, 0] = e[0, n]
    for m in range(1, order + 1):
        for n in range(m, order + 1):
            v = n * nbar * e[m - 1, n - 1]
            if m >= 2:
                v += (m - 1) * pair * e[m - 2, n]
            e[m, n] = e[n, m] = v
    return e


def reduced_two_body_ref(nc: float, ns: float, nth: float, n_photons: int) -> np.ndarray:
    """Normalised 4x4 two-photon matrix over (HH, HV, VH, VV), in floats."""
    e = wick_moments(ns, nth, n_photons)
    vals = {}
    for r, s in ((0, 0), (0, 2), (1, 1), (2, 2)):
        vals[(r, s)] = sum(
            math.comb(n_photons - 2, m) * nc ** (1 - m - (r + s) / 2) * e[r + m, s + m]
            for m in range(n_photons - 1)
        )
    mat = np.zeros((4, 4))
    for i, r in enumerate(_VCOUNTS):
        for j, s in enumerate(_VCOUNTS):
            if (r - s) % 2 == 0:
                mat[i, j] = vals[(min(r, s), max(r, s))]
    if not np.all(np.isfinite(mat)):
        raise OverflowError("reference sum left the float range")
    return mat / np.trace(mat)


def max_rel_diff(got: np.ndarray, ref: np.ndarray) -> float:
    """Largest entry-wise relative difference; zero entries must match exactly."""
    worst = 0.0
    for g, r in zip(np.ravel(got), np.ravel(ref)):
        if r == 0.0:
            if g != 0.0:
                return math.inf
            continue
        worst = max(worst, abs(g - r) / abs(r))
    return worst
