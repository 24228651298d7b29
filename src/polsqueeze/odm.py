"""Observable N-photon polarization density matrices.

A symmetric split of the beam to many analyzers makes the joint polarization
state of any N detected photons a function of normally ordered field moments
alone.  Because the full state is (coherent H) x (squeezed-thermal V) with a
real coherent amplitude, the matrix element between computational basis kets
with ``vi`` and ``vj`` vertical photons factors as::

    R[i, j] = alpha^((N - vi) + (N - vj)) * <(a_V^dag)^vi a_V^vj>

so the whole 2^N x 2^N matrix is determined by an (N+1) x (N+1) table of
single-mode moments, a float Wick recurrence (`_scaled_moments`).  `Odm`
stores that compressed table (scaled by nc^-N to keep magnitudes sane) and
materializes the dense matrix on demand.  Entries vanish whenever vi - vj
is odd, every entry depends on (vi, vj) only, and the matrix is invariant
under photon permutations by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, NonNormalizedSetting
from .state import StateParams

__all__ = [
    "Odm",
    "build_odm",
    "closed_form_r2",
    "closed_form_r3",
    "born_probability",
    "born_probabilities",
    "phase_average",
]

MAX_PHOTONS_DENSE = 14


@dataclass(frozen=True)
class Odm:
    """Compressed N-photon observable density matrix.

    ``table[v, w]`` holds the unnormalized entry for any basis pair with
    (v, w) vertical photons, in units of nc^N; ``trace`` is the matching
    unnormalized trace sum(C(N, v) * table[v, v]).
    """

    n: int
    table: np.ndarray
    trace: float

    def normalized_table(self) -> np.ndarray:
        return self.table / self.trace

    def dense(self, normalized: bool = True) -> np.ndarray:
        """Materialize the full 2^N x 2^N matrix (N <= 14)."""
        dim = 1 << self.n
        pop = np.array([i.bit_count() for i in range(dim)])
        out = self.table[np.ix_(pop, pop)]
        return out / self.trace if normalized else out

    def vcount_probabilities(self) -> np.ndarray:
        """P(v vertical photons) over the computational basis, length N+1."""
        binom = np.array([float(math.comb(self.n, v)) for v in range(self.n + 1)])
        p = binom * np.diag(self.table) / self.trace
        return np.clip(p, 0.0, None)


def _scaled_moments(params: StateParams, n_max: int) -> np.ndarray:
    """Float table S[v, w] = nc^(-(v+w)/2) <(a^dag)^v a^w> for v, w <= n_max.

    Wick's theorem for the Gaussian V mode, x = <a^dag a>/nc, y = <a^2>/nc:
    S[0, 2k] = (2k-1) y S[0, 2k-2], S[m+1, w] = w x S[m, w-1] + m y S[m-1, w].
    No term is negative, so nothing cancels.  Past ``top`` the next step
    (<= n_max (x + y)-fold) or the trace (weights <= 2^n_max) could overflow,
    so the table is scaled down there by a power of two.
    """
    x = params.vmode_mean / params.nc
    y = params.anomalous_moment / params.nc
    top = math.ldexp(1.0 / (n_max * (x + y) + 1.0), 1021 - n_max)
    s = np.zeros((n_max + 1, n_max + 1))
    s[0, 0] = 1.0
    for k in range(2, n_max + 1, 2):
        s[0, k] = (k - 1) * y * s[0, k - 2]
        if s[0, k] > top:
            s[0] = np.ldexp(s[0], -math.frexp(s[0, k] / top)[1])
    wx = np.arange(1, n_max + 1) * x
    for m in range(n_max):
        s[m + 1, 1:] = wx * s[m, :-1]
        if m:
            s[m + 1] += m * y * s[m - 1]
        big = s[m + 1].max()
        if big > top:
            s[: m + 2] = np.ldexp(s[: m + 2], -math.frexp(big / top)[1])
    return s


def _odm(params: StateParams, n_photons: int) -> Odm:
    """`Odm` of ``n_photons``, without `build_odm`'s size and flux checks."""
    table = _scaled_moments(params, n_photons)
    trace = float(sum(math.comb(n_photons, v) * table[v, v] for v in range(n_photons + 1)))
    return Odm(n=n_photons, table=table, trace=trace)


def build_odm(params: StateParams, n_photons: int) -> Odm:
    """Observable density matrix for ``n_photons`` detected photons."""
    if not 1 <= n_photons <= MAX_PHOTONS_DENSE:
        raise DimensionTooLarge(
            f"n_photons must be in [1, {MAX_PHOTONS_DENSE}], got {n_photons}"
        )
    if params.nc == 0.0:
        raise ValueError("build_odm needs nc > 0 (no detected H reference beam)")
    return _odm(params, n_photons)


def phase_average(odm: Odm) -> Odm:
    """Drop coherence between different H-photon numbers.

    Averaging the H-mode optical phase zeroes every entry whose two basis
    kets differ in vertical-photon count; diagonal blocks and the trace are
    untouched.  Idempotent.
    """
    table = np.diag(np.diag(odm.table))
    return Odm(n=odm.n, table=table, trace=odm.trace)


def born_probabilities(odm: Odm, settings) -> np.ndarray:
    """Detection probabilities of product polarization outcomes, in one pass.

    ``settings[r]`` is one normalized complex 2-vector (H, V amplitudes) per
    photon for outcome r; its probability is the diagonal matrix element of
    the normalized matrix in that product state, O(N^2) via the table.
    """
    settings = np.asarray(settings, dtype=complex)
    if settings.ndim != 3 or settings.shape[1:] != (odm.n, 2):
        raise ValueError(f"need {odm.n} two-component settings per outcome")
    off = np.abs(np.linalg.norm(settings, axis=-1) - 1.0)
    if (off > 1e-9).any():
        raise NonNormalizedSetting(f"a setting's norm is off 1 by {off.max():.3g}")
    # e[r, v] = sum over basis kets with v vertical photons of the conjugated
    # product amplitude of outcome r; one polynomial multiplication per photon
    h, v = np.conj(settings[..., 0]), np.conj(settings[..., 1])
    e = np.zeros((len(settings), odm.n + 1), dtype=complex)
    e[:, 0] = 1.0
    for k in range(odm.n):
        e[:, 1 : k + 2] = e[:, 1 : k + 2] * h[:, k, None] + e[:, : k + 1] * v[:, k, None]
        e[:, 0] *= h[:, k]
    val = np.einsum("ij,ij->i", np.conj(e) @ odm.normalized_table(), e)
    return np.clip(val.real, 0.0, 1.0)


def born_probability(odm: Odm, settings) -> float:
    """`born_probabilities` of the single outcome ``settings``."""
    return float(born_probabilities(odm, [settings])[0])


def closed_form_r2(params: StateParams) -> np.ndarray:
    """Unnormalized 2-photon matrix from the explicit coefficient formulas.

    Basis (HH, HV, VH, VV); used as a golden reference against `build_odm`.
    """
    nc, ns, nth = params.nc, params.ns, params.nth
    a2 = nc**2
    b2 = nc * (ns + nth + 2 * ns * nth)
    c2 = 3 * ns**2 * (1 + 2 * nth) ** 2 + ns * (1 + 8 * nth + 12 * nth**2) + 2 * nth**2
    d2 = nc * math.sqrt(ns * (ns + 1)) * (1 + 2 * nth)
    return np.array(
        [
            [a2, 0, 0, d2],
            [0, b2, b2, 0],
            [0, b2, b2, 0],
            [d2, 0, 0, c2],
        ]
    )


def closed_form_r3(params: StateParams) -> np.ndarray:
    """Unnormalized 3-photon matrix from the explicit coefficient formulas.

    Basis HHH ... VVV with bit 1 = V.  The three-V-pair coefficient carries
    (1+2*nth)^2 on its 3*ns^2 term, matching the two-photon coefficient and
    the direct moment <(a^dag)^2 a^2> = 2*nbar^2 + <a^2>^2.
    """
    nc, ns, nth = params.nc, params.ns, params.nth
    t2 = 1 + 2 * nth
    nbar = ns + nth + 2 * ns * nth
    pair = math.sqrt(ns * (ns + 1)) * t2
    a3 = nc**3
    b3 = nc**2 * nbar
    c3 = nc * (3 * ns**2 * t2**2 + ns * (1 + 8 * nth + 12 * nth**2) + 2 * nth**2)
    d3 = 3 * nbar * (2 * nth**2 + ns * t2 * (3 + 10 * nth) + 5 * (ns + 2 * ns * nth) ** 2)
    e3 = nc**2 * pair
    f3 = 3 * nc * pair * nbar
    out = np.zeros((8, 8))
    pops = [i.bit_count() for i in range(8)]
    coeff = {(0, 0): a3, (1, 1): b3, (2, 2): c3, (3, 3): d3, (0, 2): e3, (1, 3): f3}
    for i in range(8):
        for j in range(8):
            vi, vj = pops[i], pops[j]
            key = (min(vi, vj), max(vi, vj))
            out[i, j] = coeff.get(key, 0.0)
    return out
