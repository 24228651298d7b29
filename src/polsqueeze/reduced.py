"""Reduced two-photon observable density matrices for large photon numbers.

Tracing an N-photon observable matrix over all but two photons collapses, by
permutation invariance, to a single sum over the vertical-photon count of the
traced-out block::

    R2[r, s] = sum_m C(N-2, m) alpha^(2N - 2m - r - s) E[r+m, s+m]

with r, s the vertical counts of the two retained slots.  All terms are
positive, so the sum is numerically benign once each moment E is accurate;
terms are scaled by nc^-(N-1) before accumulation to keep magnitudes bounded.
The result is a 4x4 X-shaped matrix with a degenerate middle block.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from . import correlators
from .errors import OrderTooLarge, TooFewPhotons
from .state import StateParams

__all__ = [
    "TwoBodyOdm",
    "reduced_two_body",
    "photon_number_distribution",
    "averaged_two_body",
    "squeezed_pair_distribution",
]

_VCOUNTS = (0, 1, 1, 2)  # vertical photons of basis kets HH, HV, VH, VV
_WEIGHT_FLOOR = 1e-16  # photon numbers weighted below this are left out of the average


class TwoBodyOdm:
    """Normalized 4x4 two-photon matrix over the basis (HH, HV, VH, VV).

    ``n`` is the source photon number, or None for a photon-number-averaged
    matrix.
    """

    __slots__ = ("matrix", "n")

    def __init__(self, matrix: np.ndarray, n: int | None):
        self.matrix = np.asarray(matrix, dtype=float)
        self.n = n

    def __repr__(self):
        tag = "averaged" if self.n is None else f"n={self.n}"
        return f"TwoBodyOdm({tag})\n{self.matrix!r}"


def reduced_two_body(params: StateParams, n_photons: int) -> TwoBodyOdm:
    """Two-photon reduction of the N-photon observable matrix.

    Equals the partial trace of the dense construction exactly for any pair
    of retained photons.  Needs moments up to order N, so N <= 256; larger N
    raises OrderTooLarge.
    """
    if n_photons < 2:
        raise TooFewPhotons(f"need at least 2 photons, got {n_photons}")
    if n_photons > correlators.DEFAULT_MAX_ORDER:
        raise OrderTooLarge(
            f"n_photons must be <= {correlators.DEFAULT_MAX_ORDER}, got {n_photons}"
        )
    if params.nc == 0.0:
        raise ValueError("reduced_two_body needs nc > 0")
    tab = correlators.table_for(params)
    nn = n_photons
    with mp.workdps(60 + nn // 4):
        nc = mp.mpf(params.nc)
        ncpow = [nc**k for k in range(0, -(nn + 1), -1)]  # ncpow[k] = nc^-k
        vals = {}
        for r in range(3):
            for s in range(r, 3):
                if (s - r) % 2:
                    continue
                acc = mp.mpf(0)
                for m in range(nn - 1):
                    # nc^(1 - m - (r+s)/2) relative to the nc^(N-1) scale
                    e = tab.value(r + m, s + m)
                    if e:
                        acc += math.comb(nn - 2, m) * nc * ncpow[m + (r + s) // 2] * e
                vals[(r, s)] = acc
        trace = vals[(0, 0)] + 2 * vals[(1, 1)] + vals[(2, 2)]
        mat = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                r, s = _VCOUNTS[i], _VCOUNTS[j]
                if (r - s) % 2:
                    continue
                mat[i, j] = float(vals[(min(r, s), max(r, s))] / trace)
    return TwoBodyOdm(mat, n_photons)


def squeezed_pair_distribution(ns: float, k_max: int) -> np.ndarray:
    """Probability of k photon pairs from the squeezed vacuum beam.

    P(2k photons) = ns^k (2k)! / [4^k (1+ns)^(k+1/2) (k!)^2], the pulse law
    at nc = nth = 0; odd photon numbers never occur.
    """
    return pulse_number_pmf(StateParams(0.0, ns), 2 * k_max)[::2]


def _poisson_pmf(lam: float, n_max: int) -> np.ndarray:
    if lam == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    n = np.arange(n_max + 1)
    lg = np.array([math.lgamma(k + 1) for k in n])
    return np.exp(-lam + n * math.log(lam) - lg)


def _series(a1: float, a0: float, b: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """y_n = m_n 2^e_n (m_n in [1/2, 1) or 0), n <= n_max: y_0 = 1, (n+1) y_(n+1)
    = (a1 n + a0) y_n + n b y_(n-1), no negative term for a1, a0, b >= 0; (2a, a, b)
    gives (1 - 2 a s - b s^2)^(-1/2), (0, c, 0) e^(c s).  The pair is carried scaled
    by a power of two, so nothing overflows or underflows; y_n rounding below 0 is 0.
    """
    m, e = np.zeros(n_max + 1), np.zeros(n_max + 1, dtype=np.int64)
    y0, y, shift = 0.0, 1.0, 0
    for n in range(n_max + 1):
        if y and not 2.0**-500 < abs(y) < 2.0**500:
            k = math.frexp(y)[1]
            y0, y, shift = math.ldexp(y0, -k), math.ldexp(y, -k), shift + k
        if y > 0.0:
            m[n], e[n] = math.frexp(y)
            e[n] += shift
        y0, y = y, ((a1 * n + a0) * y + n * b * y0) / (n + 1)
    return m, e


def photon_number_distribution(params: StateParams, n: int) -> float:
    """P(N photons in the pulse); see `pulse_number_pmf`."""
    pmf = pulse_number_pmf(params, max(n, 0))
    return float(pmf[n]) if n >= 0 else 0.0


def pulse_number_pmf(params: StateParams, n_max: int) -> np.ndarray:
    """P(N photons in the pulse) for N = 0 .. n_max, for any (nc, ns, nth).

    Poisson(nc) convolved with the V-mode law <:exp((x - 1) a^dag a):> (Mandel)
    = (q0 - 2 nth (1 + nth) x - num x^2)^(-1/2), num = `anomalous_excess`, q0 =
    1 + 2 nbar - num: no negative term when num >= 0 (any pure state after loss).
    Loss is exact binomial thinning: a lossy beam's law is `apply_loss`'s.
    """
    num = params.anomalous_excess
    q0 = 1.0 + 2.0 * params.vmode_mean - num
    a = params.nth * (1.0 + params.nth) / q0
    vmode = np.ldexp(*_series(2.0 * a, a, num / q0, n_max)) / math.sqrt(q0)
    return np.convolve(_poisson_pmf(params.nc, n_max), vmode)[: n_max + 1]


def default_n_cutoff(params: StateParams) -> int:
    """First photon number n >= nc + 10 sqrt(nc) + 60 below which the pulse
    law holds all but 1e-10 of its mass."""
    lo = n_max = int(params.nc + 10.0 * math.sqrt(params.nc) + 20.0) + 40
    while True:
        past = np.flatnonzero(np.cumsum(pulse_number_pmf(params, n_max))[lo:] > 1.0 - 1e-10)
        if past.size:
            return lo + int(past[0])
        n_max *= 2


def averaged_two_body(params: StateParams) -> TwoBodyOdm:
    """Photon-number-averaged two-photon matrix, sum_N P_N * R2(N).

    The weights P_N are the pulse photon-number distribution (coherent
    convolved with the V-mode law) up to `default_n_cutoff`.  Weights for
    N < 2 or below `_WEIGHT_FLOOR` are dropped and the mixture renormalized
    over the retained support; a pulse law with no retained weight raises
    TooFewPhotons.
    """
    weights = pulse_number_pmf(params, default_n_cutoff(params))
    acc = np.zeros((4, 4))
    total = 0.0
    for n in range(2, weights.size):
        w = weights[n]
        if w < _WEIGHT_FLOOR:
            continue
        acc += w * reduced_two_body(params, n).matrix
        total += w
    if total == 0.0:
        raise TooFewPhotons("no photon-number weight on N >= 2")
    return TwoBodyOdm(acc / total, None)
