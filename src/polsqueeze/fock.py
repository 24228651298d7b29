"""Brute-force truncated-Fock reference calculations.

Everything here recomputes quantities from dense matrix algebra on a
truncated Fock space, with no shared code paths with the closed forms it is
meant to validate.  It is a test-grade dependency: correct and slow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffTooSmall, DimensionTooLarge
from .state import StateParams

__all__ = [
    "FockState",
    "build_squeezed_thermal",
    "oracle_correlation",
    "oracle_odm",
    "coherent_vector",
]

_TRACE_DEFICIT_LIMIT = 1e-10


@dataclass
class FockState:
    """Truncated V-mode density matrix plus the coherent H-mode amplitude."""

    cutoff: int
    rho_v: np.ndarray
    alpha: float = 0.0
    trace_deficit: float = field(default=0.0)


def _destroy(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), k=1)


def build_squeezed_thermal(ns: float, nth: float, cutoff: int = 40) -> FockState:
    """Squeezed thermal density matrix on ``cutoff`` Fock levels.

    The squeeze operator is the dense matrix exponential of
    (r/2)(a^2 - a^dag^2) with r = -asinh(sqrt(ns)), applied to the thermal
    state at a padded dimension and truncated back to ``cutoff``; the
    truncated trace deficit is reported and must stay below 1e-10.
    """
    from scipy.linalg import expm  # imported here: scipy.linalg is ~30 MiB
    if cutoff < 4:
        raise ValueError("cutoff must be at least 4")
    pad = max(16, cutoff // 2)
    dim = cutoff + pad
    a = _destroy(dim)
    r = -math.asinh(math.sqrt(ns))
    squeeze = expm(0.5 * r * (a @ a - a.T @ a.T))
    if nth == 0.0:
        diag = np.zeros(dim)
        diag[0] = 1.0
    else:
        n = np.arange(dim)
        diag = np.exp(n * math.log(nth) - (n + 1) * math.log1p(nth))
    rho_big = squeeze @ np.diag(diag) @ squeeze.T
    rho = rho_big[:cutoff, :cutoff].copy()
    deficit = abs(1.0 - float(np.trace(rho).real))
    if deficit > _TRACE_DEFICIT_LIMIT:
        raise CutoffTooSmall(
            f"trace deficit {deficit:.3e} > {_TRACE_DEFICIT_LIMIT:g} at cutoff {cutoff}"
        )
    return FockState(cutoff=cutoff, rho_v=rho, trace_deficit=deficit)


def oracle_correlation(state: FockState, m: int, n: int) -> complex:
    """tr(rho_v (a^dag)^m a^n) by dense matrix products."""
    if m + n > state.cutoff // 2:
        raise CutoffTooSmall(
            f"order m + n = {m + n} needs cutoff > {2 * (m + n)}, have {state.cutoff}"
        )
    a = _destroy(state.cutoff)
    op = np.linalg.matrix_power(a.T, m) @ np.linalg.matrix_power(a, n)
    return complex(np.trace(state.rho_v @ op))


def coherent_vector(alpha: float, cutoff: int) -> np.ndarray:
    """Truncated coherent-state amplitudes exp(-|a|^2/2) a^n / sqrt(n!)."""
    n = np.arange(cutoff)
    logmag = -0.5 * alpha**2 + n * (math.log(alpha) if alpha > 0 else -np.inf)
    with np.errstate(divide="ignore"):
        out = np.exp(logmag - 0.5 * np.array([math.lgamma(k + 1) for k in n]))
    if alpha == 0.0:
        out = np.zeros(cutoff)
        out[0] = 1.0
    return out


def oracle_odm(params: StateParams, n_photons: int, cutoff: int = 40) -> np.ndarray:
    """Unnormalized N-photon observable density matrix from the Fock state.

    Entry (i, j) over the computational basis (bit 1 = V photon) is
    alpha^(#H_i + #H_j) * tr(rho_v (a^dag)^(#V_i) a^(#V_j)); the coherent
    H-mode moments factor out exactly for a real amplitude.  Dense output,
    limited to 5 photons.
    """
    if n_photons > 5:
        raise DimensionTooLarge("oracle observable matrix limited to 5 photons")
    if n_photons < 1:
        raise ValueError("need at least one photon")
    state = build_squeezed_thermal(params.ns, params.nth, cutoff)
    state.alpha = params.alpha
    dim = 2**n_photons
    vmom = np.empty((n_photons + 1, n_photons + 1))
    for v in range(n_photons + 1):
        for w in range(n_photons + 1):
            vmom[v, w] = oracle_correlation(state, v, w).real
    out = np.empty((dim, dim))
    for i in range(dim):
        vi = i.bit_count()
        for j in range(dim):
            vj = j.bit_count()
            out[i, j] = params.alpha ** (2 * n_photons - vi - vj) * vmom[vi, vj]
    return out
