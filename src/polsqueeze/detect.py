"""Monte Carlo model of multi-analyzer coincidence detection.

The beam is split symmetrically onto M polarization analyzers.  Per shot the
simulator draws the detected photon number from the pulse distribution
(binomially thinned by the channel transmission; thermal parameter sets are
routed through their pure-state preimage, whose normalized coincidence
observables are identical), then the count of outcome-1 clicks from the
exact diagonal of the N-photon observable matrix in the shot's analysis
basis, and finally the analyzer of each photon.  Shots are drawn in blocks
of `_BLOCK` from one counter-based stream per block, keyed (seed, block
index), so shot i depends only on (seed, i).

All analyzers share one basis per shot; that keeps the outcome distribution
exchangeable, so it depends only on the count of "second output" clicks.
Rotated-basis count distributions are genuinely sub-binomial for squeezed
input (that is the entanglement signature), so no independent-photon
shortcut is taken: the count law is the Born rule of `odm.Odm` for one product
outcome per count (all in one pass) times the number of patterns with that count.

Reconstruction averages every ordered pair of photons in every shot, per
setting, and linearly inverts the pooled pair frequencies into the X-shaped
two-photon matrix; bootstrap resampling of shots provides standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .correlators import DEFAULT_MAX_ORDER
from .errors import IncompleteSchedule, InvalidShotCount, OrderTooLarge
from .odm import _odm, born_probabilities
from .reduced import TwoBodyOdm, pulse_number_pmf, default_n_cutoff
from .state import StateParams, purify

__all__ = [
    "DetectorArray",
    "ShotRecord",
    "TomographyResult",
    "SETTING_BASES",
    "DEFAULT_SCHEDULE",
    "simulate_shots",
    "reconstruct_two_body",
    "run_pair_tomography",
    "exact_pair_probabilities",
]

# outcome vectors (columns |out0>, |out1>) per analysis setting
SETTING_BASES: dict[str, np.ndarray] = {
    "HV": np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
    "DA": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0),
    "RL": np.array([[1.0, 1.0], [1.0j, -1.0j]], dtype=complex) / math.sqrt(2.0),
}

DEFAULT_SCHEDULE = ("HV", "DA", "RL")

RNG_NAME = "philox4x64"  # counter-based; one stream per shot block, keyed (seed, block)
_BLOCK = 4096  # shots per stream, each stream always drawn at full block length


@dataclass(frozen=True)
class DetectorArray:
    """Analyzer bank configuration."""

    m: int
    efficiency: float = 1.0
    basis: str = "HV"
    rng_seed: int = 0

    def __post_init__(self):
        if not 1 <= self.m <= 2**63 // _BLOCK:  # collision keys shot * m + analyzer fit int64
            raise ValueError(f"need 1 to {2**63 // _BLOCK} analyzers")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        if self.basis not in SETTING_BASES:
            raise ValueError(f"unknown basis {self.basis!r}")


@dataclass(frozen=True)
class ShotRecord:
    n_detected: int
    outcomes: tuple  # ((analyzer index, outcome bit), ...)
    collided: bool = False

    @property
    def ones(self) -> int:
        return sum(b for _, b in self.outcomes)


@dataclass
class TomographyResult:
    matrix: TwoBodyOdm
    entry_se: np.ndarray
    delta_hat: float
    delta_se: float
    shots_per_setting: dict = field(default_factory=dict)
    collision_fraction: float = 0.0
    excluded_fraction: float = 0.0
    seed: int = 0


# ---------------------------------------------------------------------------
# exact outcome-count distributions


def _thinned_pulse_pmf(params: StateParams, efficiency: float) -> np.ndarray:
    """Detected-photon-number law: pulse distribution binomially thinned.

    Thermal parameters are replaced by their pure preimage with the state
    loss folded into the thinning (each photon of the pure pulse survives
    independently).  The thinned law is the coefficient vector of the
    generating function sum_n p_n (1 - eta + eta z)^n, expanded by Horner's
    rule; every term is non-negative.  The result is normalised over the
    cutoff.
    """
    eta = efficiency
    p = params
    if params.nth != 0.0:
        p, eta_state = purify(params)
        eta = eta * eta_state
    n_max = default_n_cutoff(p)
    out = pulse_number_pmf(p, n_max)
    if eta != 1.0:
        base, out = out, np.zeros(n_max + 1)
        for n in range(n_max, -1, -1):
            out[1:] = out[1:] * (1.0 - eta) + out[:-1] * eta
            out[0] = out[0] * (1.0 - eta) + base[n]
    return out / out.sum()


class _CountSampler:
    """Exact P(count of outcome-1 | N) tables per analysis basis, one per N."""

    def __init__(self, params: StateParams, basis: str):
        if params.nc == 0.0:
            raise ValueError("detection model needs nc > 0 (bright reference beam)")
        self.params = params if params.nth == 0.0 else purify(params)[0]
        self.basis = basis
        self._cache: dict[int, np.ndarray] = {}

    def pmf(self, n: int) -> np.ndarray:
        out = self._cache.get(n)
        if out is None:
            if n > DEFAULT_MAX_ORDER:
                raise OrderTooLarge(
                    f"detected photon number must be <= {DEFAULT_MAX_ORDER}, got {n}"
                )
            odm = _odm(self.params, n)
            if self.basis == "HV":
                p = odm.vcount_probabilities()
            else:  # row v: outcome 0 on the first n - v photons, outcome 1 after
                col0, col1 = SETTING_BASES[self.basis].T
                ones = np.arange(n)[None, :, None] >= n - np.arange(n + 1)[:, None, None]
                born = born_probabilities(odm, np.where(ones, col1, col0))
                p = np.array([float(math.comb(n, v)) for v in range(n + 1)]) * born
            out = self._cache[n] = p / p.sum()
        return out


# ---------------------------------------------------------------------------
# shot generation


def _inverse_cdf(pmf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Indices drawn from ``pmf`` by the uniforms ``u`` in [0, 1)."""
    cdf = np.cumsum(pmf)
    return np.searchsorted(cdf / cdf[-1], u, side="right")


def simulate_shots(
    params: StateParams, array: DetectorArray, shots: int, fixed_n: int | None = None
):
    """Yield `ShotRecord`s; shot i depends only on (array.rng_seed, i).

    Each block of `_BLOCK` shots comes from one Philox stream keyed
    (seed, block index) and always drawn at full block length, so the
    records of a run are a prefix of those of any longer run.  Per shot:
    detected N by inverse CDF of the thinned pulse law, the outcome-1 count
    by inverse CDF of the exact count law in ``array.basis``, and N analyzer
    indices drawn uniformly with replacement; two photons on one analyzer
    flag the shot collided.  The first ``ones`` photons carry outcome 1,
    which has the law of a uniform scatter because the analyzer indices are
    i.i.d.  ``fixed_n`` post-selects the detected photon number instead of
    sampling it.
    """
    if shots < 1:
        raise InvalidShotCount(f"shots must be >= 1, got {shots}")
    if fixed_n is None:
        pulse = _thinned_pulse_pmf(params, array.efficiency)
        n_top = int(np.nonzero(pulse > 1e-12)[0][-1])
    else:
        n_top = fixed_n
    sampler = _CountSampler(params, array.basis)
    if n_top:
        sampler.pmf(n_top)  # past the moment-order limit this fails before any shot
    seed = array.rng_seed & 0xFFFFFFFFFFFFFFFF
    for start in range(0, shots, _BLOCK):
        rng = np.random.Generator(np.random.Philox(key=[seed, start // _BLOCK]))
        u_n, u_v = rng.random((2, _BLOCK))
        n = _inverse_cdf(pulse, u_n) if fixed_n is None else np.full(_BLOCK, fixed_n)
        where = rng.integers(0, array.m, size=n.sum())
        k = min(_BLOCK, shots - start)
        n, u_v = n[:k], u_v[:k]
        where = where[: n.sum()]
        ones = np.zeros(k, dtype=int)
        for size in np.unique(n[n > 0]):
            sel = n == size
            ones[sel] = _inverse_cdf(sampler.pmf(int(size)), u_v[sel])
        # sorted keys shot * m + analyzer put a shot's repeated analyzers side by side
        keys = np.sort(np.repeat(np.arange(k), n) * array.m + where)
        collided = np.bincount(keys[1:][keys[1:] == keys[:-1]] // array.m, minlength=k) > 0
        where, pos = where.tolist(), 0
        for size, v, c in zip(n.tolist(), ones.tolist(), collided.tolist()):
            bits = (1,) * v + (0,) * (size - v)
            yield ShotRecord(size, tuple(zip(where[pos : pos + size], bits)), c)
            pos += size


# ---------------------------------------------------------------------------
# pair-averaged reconstruction


def _x_state_design(schedule) -> np.ndarray:
    """Rows: P(outcome pair | setting) as linear functionals of the X-state.

    Parameter vector theta = (rho_11, rho_22, rho_33, rho_44, Re rho_14,
    Re rho_23) under the real-matrix convention.
    """
    rows = []
    for label in schedule:
        basis = SETTING_BASES[label]
        for o1 in range(2):
            for o2 in range(2):
                ket = np.kron(basis[:, o1], basis[:, o2])
                proj = np.outer(ket, ket.conj())
                rows.append(
                    [
                        proj[0, 0].real,
                        proj[1, 1].real,
                        proj[2, 2].real,
                        proj[3, 3].real,
                        2.0 * proj[3, 0].real,
                        2.0 * proj[2, 1].real,
                    ]
                )
    return np.array(rows)


def _theta_to_matrix(theta: np.ndarray) -> np.ndarray:
    """X-state matrices from parameter vectors (any leading shape)."""
    theta = np.asarray(theta)
    m = np.zeros(theta.shape[:-1] + (4, 4))
    diag = np.arange(4)
    m[..., diag, diag] = theta[..., :4]
    m[..., 0, 3] = m[..., 3, 0] = theta[..., 4]
    m[..., 1, 2] = m[..., 2, 1] = theta[..., 5]
    return m


def _pair_counts(records) -> tuple[np.ndarray, int, int]:
    """Per usable shot ordered-pair outcome counts (n00, n01, n10, n11).

    Returns them with the collided and the excluded (collided or fewer than
    two photons) shot counts.
    """
    shots = np.array(
        [(r.n_detected, r.ones, r.collided) for r in records], dtype=float
    ).reshape(-1, 3)
    n, v, collided = shots.T
    usable = (collided == 0.0) & (n >= 2.0)
    if not usable.any():
        raise InvalidShotCount("no usable shots (all collided or below 2 photons)")
    h, v = n[usable] - v[usable], v[usable]
    rows = np.stack([h * (h - 1.0), h * v, v * h, v * (v - 1.0)], axis=1)
    return rows, int(collided.sum()), len(shots) - int(usable.sum())


def reconstruct_two_body(
    shots_by_setting: dict[str, list],
    schedule=DEFAULT_SCHEDULE,
    bootstrap: int = 200,
    seed: int = 0,
) -> TomographyResult:
    """Linear-inversion X-state estimate from pair-averaged shot records.

    ``shots_by_setting`` maps setting labels to shot-record lists; the
    schedule must span the six real X-state parameters or IncompleteSchedule
    is raised.  Collided and sub-two-photon shots are excluded (fractions
    reported).  Bootstrap over shots gives entry and delta standard errors.
    """
    design = _x_state_design(schedule)
    if np.linalg.matrix_rank(design) < 6:
        raise IncompleteSchedule(
            f"settings {tuple(schedule)} do not span the X-state parameters"
        )
    counts, collided, excluded = {}, 0, 0
    for label in schedule:
        counts[label], coll, excl = _pair_counts(shots_by_setting.get(label, []))
        collided += coll
        excluded += excl
    total_shots = sum(len(shots_by_setting.get(lab, [])) for lab in schedule)

    def freqs(sel: dict[str, np.ndarray]) -> np.ndarray:
        return np.concatenate([sel[lab].sum(axis=0) / sel[lab].sum() for lab in schedule])

    rng = np.random.Generator(np.random.Philox(key=[seed, 0xB007]))
    reps = [freqs(counts)] + [
        freqs({lab: counts[lab][rng.integers(0, len(counts[lab]), size=len(counts[lab]))]
               for lab in schedule})
        for _ in range(bootstrap)
    ]
    mats = _theta_to_matrix(np.array(reps) @ np.linalg.pinv(design).T)
    tr = np.trace(mats, axis1=1, axis2=2)
    mats /= np.where(tr > 0, tr, 1.0)[:, None, None]
    deltas = np.abs(mats[:, 0, 3]) - mats[:, 1, 2]
    return TomographyResult(
        matrix=TwoBodyOdm(mats[0].copy(), None),  # not a view pinning every rep
        entry_se=mats[1:].std(axis=0, ddof=1),
        delta_hat=float(deltas[0]),
        delta_se=float(deltas[1:].std(ddof=1)),
        shots_per_setting={k: len(v) for k, v in shots_by_setting.items()},
        collision_fraction=collided / total_shots,
        excluded_fraction=excluded / total_shots,
        seed=seed,
    )


def run_pair_tomography(
    params: StateParams,
    array: DetectorArray,
    shots_per_setting: int,
    schedule=DEFAULT_SCHEDULE,
    bootstrap: int = 200,
    fixed_n: int | None = None,
) -> TomographyResult:
    """Simulate the schedule and reconstruct; one seed covers everything."""
    shots_by_setting = {}
    for k, label in enumerate(schedule):
        arr = replace(array, basis=label, rng_seed=array.rng_seed + 7919 * (k + 1))
        shots_by_setting[label] = list(
            simulate_shots(params, arr, shots_per_setting, fixed_n=fixed_n)
        )
    return reconstruct_two_body(
        shots_by_setting, schedule, bootstrap=bootstrap, seed=array.rng_seed
    )


def exact_pair_probabilities(two_body: TwoBodyOdm, label: str) -> np.ndarray:
    """Born probabilities of the four outcome pairs of one setting."""
    basis = SETTING_BASES[label]
    rho = two_body.matrix
    out = np.empty(4)
    for o1 in range(2):
        for o2 in range(2):
            ket = np.kron(basis[:, o1], basis[:, o2])
            out[2 * o1 + o2] = float(np.real(ket.conj() @ rho @ ket))
    return np.clip(out, 0.0, None)
