"""Observable N-photon polarization density matrices.

A symmetric split of the beam to many analyzers makes the joint polarization
state of any N detected photons a function of normally ordered field moments
alone.  Because the full state is (coherent H) x (squeezed-thermal V) with a
real coherent amplitude, the matrix element between computational basis kets
with ``vi`` and ``vj`` vertical photons factors as::

    R[i, j] = alpha^((N - vi) + (N - vj)) * <(a_V^dag)^vi a_V^vj>

so the whole 2^N x 2^N matrix is determined by an (N+1) x (N+1) table of
single-mode moments.  `Odm` stores that compressed table (scaled by nc^-N to
keep magnitudes sane) and materializes the dense matrix on demand.  Entries
vanish whenever vi - vj is odd, every entry depends on (vi, vj) only, and the
matrix is invariant under photon permutations by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import correlators
from .errors import DimensionTooLarge, NonNormalizedSetting
from .state import StateParams

__all__ = [
    "Odm",
    "build_odm",
    "closed_form_r2",
    "closed_form_r3",
    "born_probability",
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


def _scaled_moments(params: StateParams, n_max: int, diagonal: bool = False) -> np.ndarray:
    """Float table nc^(-(v+w)/2) <(a^dag)^v a^w> for v, w <= n_max.

    No entry depends on the photon number, so the top-left (N+1) block is
    the `Odm.table` of N photons for every N <= n_max (see `_odm_block`).
    ``diagonal`` fills only the v = w moments.  Iterates grouped by the order
    difference so coefficient rows shared by those moments stay cache hot.
    """
    tab = correlators.table_for(params)
    table = np.zeros((n_max + 1, n_max + 1))
    with mp.workdps(60 + n_max):
        nc = mp.mpf(params.nc)
        for t in range(1 if diagonal else n_max // 2 + 1):
            for v in range(n_max + 1 - 2 * t):
                w = v + 2 * t
                # nc^((2N - v - w)/2) * E[v, w] scaled by nc^-N
                table[v, w] = float(tab.value(v, w) * nc ** (-(v + w) // 2))
                table[w, v] = table[v, w]
    return table


def _odm_block(table: np.ndarray, n_photons: int) -> Odm:
    """`Odm` of ``n_photons`` from the top-left block of a `_scaled_moments` table."""
    block = table[: n_photons + 1, : n_photons + 1]
    trace = float(
        sum(math.comb(n_photons, v) * block[v, v] for v in range(n_photons + 1))
    )
    return Odm(n=n_photons, table=block, trace=trace)


def build_odm(params: StateParams, n_photons: int) -> Odm:
    """Observable density matrix for ``n_photons`` detected photons."""
    if not 1 <= n_photons <= MAX_PHOTONS_DENSE:
        raise DimensionTooLarge(
            f"n_photons must be in [1, {MAX_PHOTONS_DENSE}], got {n_photons}"
        )
    if params.nc == 0.0:
        raise ValueError("build_odm needs nc > 0 (no detected H reference beam)")
    return _odm_block(_scaled_moments(params, n_photons), n_photons)


def phase_average(odm: Odm) -> Odm:
    """Drop coherence between different H-photon numbers.

    Averaging the H-mode optical phase zeroes every entry whose two basis
    kets differ in vertical-photon count; diagonal blocks and the trace are
    untouched.  Idempotent.
    """
    table = np.diag(np.diag(odm.table))
    return Odm(n=odm.n, table=table, trace=odm.trace)


def born_probability(odm: Odm, settings) -> float:
    """Detection probability of a product polarization outcome.

    ``settings`` is one normalized complex 2-vector (H, V amplitudes) per
    photon; the probability is the diagonal matrix element of the normalized
    matrix in the product state, evaluated in O(N^2) through the compressed
    table.
    """
    settings = [np.asarray(s, dtype=complex).reshape(2) for s in settings]
    if len(settings) != odm.n:
        raise ValueError(f"need {odm.n} settings, got {len(settings)}")
    for s in settings:
        if abs(np.linalg.norm(s) - 1.0) > 1e-9:
            raise NonNormalizedSetting(f"setting {s} has norm {np.linalg.norm(s):.12f}")
    # e[v] = sum over basis kets with v vertical photons of the conjugated
    # product amplitude; built by one polynomial multiplication per photon.
    e = np.zeros(odm.n + 1, dtype=complex)
    e[0] = 1.0
    for k, s in enumerate(settings):
        h, v = np.conj(s[0]), np.conj(s[1])
        e[1 : k + 2] = e[1 : k + 2] * h + e[: k + 1] * v
        e[0] *= h
    val = np.conj(e) @ odm.normalized_table() @ e
    return float(np.clip(val.real, 0.0, 1.0))


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
