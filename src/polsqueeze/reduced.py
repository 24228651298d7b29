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
from .errors import OrderTooLarge, TooFewPhotons, UnsupportedThermal
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

    P(2k photons) = ns^k (2k)! / [4^k (1+ns)^(k+1/2) (k!)^2]; odd photon
    numbers never occur.  The exponent sign on (1+ns) is fixed by requiring
    the distribution to sum to one (and it matches the truncated-Fock
    diagonal).
    """
    if ns == 0.0:
        out = np.zeros(k_max + 1)
        out[0] = 1.0
        return out
    out = np.empty(k_max + 1)
    for k in range(k_max + 1):
        out[k] = math.exp(
            math.lgamma(2 * k + 1)
            + k * math.log(ns)
            - k * math.log(4.0)
            - (k + 0.5) * math.log1p(ns)
            - 2 * math.lgamma(k + 1)
        )
    return out


def _poisson_pmf(lam: float, n_max: int) -> np.ndarray:
    if lam == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    n = np.arange(n_max + 1)
    lg = np.array([math.lgamma(k + 1) for k in n])
    return np.exp(-lam + n * math.log(lam) - lg)


def photon_number_distribution(params: StateParams, n: int) -> float:
    """P(N photons in the pulse) for a thermal-free state; see `pulse_number_pmf`.

    Raises UnsupportedThermal when nth != 0.
    """
    pmf = pulse_number_pmf(params, max(n, 0))
    return float(pmf[n]) if n >= 0 else 0.0


def pulse_number_pmf(params: StateParams, n_max: int) -> np.ndarray:
    """P(N photons in the pulse) for N = 0 .. n_max, thermal-free states only.

    Convolution of the Poisson coherent distribution with the even-only
    squeezed-vacuum distribution.
    """
    if params.nth != 0.0:
        raise UnsupportedThermal("photon-number distribution defined for nth = 0 only")
    pois = _poisson_pmf(params.nc, n_max)
    pairs = squeezed_pair_distribution(params.ns, n_max // 2)
    out = np.zeros(n_max + 1)
    for k in range(n_max // 2 + 1):  # ascending k: each out[n] sums its terms in k order
        out[2 * k :] += pairs[k] * pois[: n_max + 1 - 2 * k]
    return out


def default_n_cutoff(params: StateParams) -> int:
    """Photon-number cutoff leaving < 1e-10 of pulse mass in the tail.

    Never below nc + 10 sqrt(nc) + 60, which covers the coherent part alone.
    """
    lo = int(params.nc + 10.0 * math.sqrt(params.nc) + 20.0) + 40
    if params.ns == 0.0:
        return lo
    # pairs fall off faster than q^k, q = ns/(1+ns): P(pairs > k) <= sqrt(1+ns) q^(k+1)
    k = math.ceil((0.5 * math.log1p(params.ns) - math.log(5e-11)) / math.log1p(1.0 / params.ns))
    even = np.zeros(2 * k + 1)
    even[::2] = squeezed_pair_distribution(params.ns, k)
    cdf = np.cumsum(np.convolve(_poisson_pmf(params.nc, lo + 2 * k), even)[: lo + 2 * k + 1])
    return max(lo, int(np.argmax(cdf > 1.0 - 1e-10)))


def averaged_two_body(params: StateParams) -> TwoBodyOdm:
    """Photon-number-averaged two-photon matrix, sum_N P_N * R2(N).

    The weights P_N are the pulse photon-number distribution (coherent
    convolved with squeezed pairs) up to `default_n_cutoff`.  Weights for
    N < 2 or below `_WEIGHT_FLOOR` are dropped and the mixture renormalized
    over the retained support.  Thermal-free states only.
    """
    if params.nth != 0.0:
        raise UnsupportedThermal("averaged matrix defined for nth = 0 only")
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
        raise ValueError("no photon-number weight on N >= 2")
    return TwoBodyOdm(acc / total, None)
