"""Entanglement measures on observable density matrices.

Pairwise entanglement of the symmetric N-photon state is certified on the
reduced two-photon matrix; by permutation invariance a single entangled pair
rules out separability of every partition.  The key quantities are the
Wootters concurrence, its monogamy ceiling 1/sqrt(N-1), and the partial
transpose criterion, which for the X-shaped two-photon matrices reduces to
``delta = |corner| - middle > 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, NotAState, TooFewPhotons
from .odm import Odm
from .reduced import TwoBodyOdm, reduced_two_body
from .state import StateParams

__all__ = [
    "EntanglementReport",
    "concurrence",
    "concurrence_max",
    "delta_criterion",
    "optimize_ns_for_concurrence",
    "bipartition_negativity",
    "entanglement_report",
]

_SIGMA_YY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=float,
)


@dataclass(frozen=True)
class EntanglementReport:
    concurrence: float
    c_max: float
    ratio: float
    delta: float
    ppt_negative: bool


def _as_matrix(state) -> np.ndarray:
    if isinstance(state, TwoBodyOdm):
        return state.matrix
    return np.asarray(state)


def concurrence(state) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    max(0, l1 - l2 - l3 - l4) with l_i the decreasing square roots of the
    eigenvalues of rho (sy x sy) rho* (sy x sy).
    """
    rho = _as_matrix(state)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-9:
        raise NotAState(f"trace {tr:.12f} != 1")
    if float(np.linalg.eigvalsh(rho).min()) < -1e-9:
        raise NotAState("matrix has a negative eigenvalue beyond tolerance")
    rho_t = _SIGMA_YY @ rho.conj() @ _SIGMA_YY
    ev = np.linalg.eigvals(rho @ rho_t)
    lam = np.sqrt(np.clip(np.sort(ev.real)[::-1], 0.0, None))
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def concurrence_max(n_photons: int) -> float:
    """Monogamy ceiling 1/sqrt(N-1) for a symmetric N-photon state, N >= 2."""
    if n_photons < 2:
        raise TooFewPhotons(f"a monogamy ceiling needs at least 2 photons, got {n_photons}")
    return 1.0 / math.sqrt(n_photons - 1)


def delta_criterion(state) -> tuple[float, bool]:
    """(delta, ppt_negative) for an X-shaped two-photon matrix.

    delta = |rho_14| - rho_23 (1-indexed corners/middle); ppt_negative is
    decided from the explicit partial-transpose spectrum, which for these
    matrices flips sign exactly when delta > 0.
    """
    rho = _as_matrix(state)
    delta = float(abs(rho[0, 3]) - rho[1, 2].real)
    min_ev = float(np.linalg.eigvalsh(_partial_transpose_2qubit(rho)).min())
    return delta, min_ev < 0.0


def _partial_transpose_2qubit(rho: np.ndarray) -> np.ndarray:
    r = rho.reshape(2, 2, 2, 2)
    return r.transpose(0, 3, 2, 1).reshape(4, 4)


def bipartition_negativity(odm: Odm, cut_size: int) -> float:
    """Negativity of the normalized N-photon matrix across a first-k cut.

    Sum of |negative eigenvalues| of the partial transpose over the first
    ``cut_size`` photons; by permutation invariance every size-k cut is
    equivalent.  Dense eigensolve, so N <= 6.
    """
    n = odm.n
    if n > 6:
        raise DimensionTooLarge("negativity eigensolve limited to 6 photons")
    if not 1 <= cut_size <= n // 2:
        raise ValueError(f"cut_size must be in [1, {n // 2}], got {cut_size}")
    rho = odm.dense(normalized=True)
    dk = 1 << cut_size
    dr = 1 << (n - cut_size)
    r = rho.reshape(dk, dr, dk, dr).transpose(2, 1, 0, 3).reshape(dk * dr, dk * dr)
    ev = np.linalg.eigvalsh(r)
    return float(-ev[ev < 0.0].sum())


def optimize_ns_for_concurrence(
    nc: float,
    nth: float,
    n_photons: int,
    bracket: tuple[float, float] = (0.0, 2.0),
    xtol: float = 1e-4,
    prescan_points: int = 40,
) -> float:
    """Squeezed photon number maximizing the reduced-state concurrence.

    Coarse grid scan over the bracket followed by golden-section refinement
    of the best cell to ``xtol``; if the scan shows several local maxima the
    refinement still runs around the best grid point.
    """

    def objective(ns: float) -> float:
        if ns <= 0.0:
            return 0.0
        return concurrence(reduced_two_body(StateParams(nc, ns, nth), n_photons))

    lo, hi = bracket
    grid = np.linspace(lo, hi, prescan_points + 1)[1:]
    values = [objective(x) for x in grid]
    k = int(np.argmax(values))
    a = grid[k - 1] if k > 0 else max(lo, grid[0] / 2)
    b = grid[k + 1] if k + 1 < len(grid) else hi
    return _golden_section(objective, a, b, xtol)


def _golden_section(f, a: float, b: float, xtol: float) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > xtol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def entanglement_report(state, n_photons: int) -> EntanglementReport:
    """Bundle concurrence, monogamy ratio and the delta criterion."""
    c = concurrence(state)
    cmax = concurrence_max(n_photons)
    delta, neg = delta_criterion(state)
    return EntanglementReport(
        concurrence=c, c_max=cmax, ratio=c / cmax, delta=delta, ppt_negative=neg
    )
