"""Monte Carlo model of multi-analyzer coincidence detection.

The beam is split symmetrically onto M polarization analyzers.  Per shot the
simulator draws the detected photon number from the pulse distribution
(binomially thinned by the channel transmission; thermal parameter sets are
routed through their pure-state preimage, whose normalized coincidence
observables are identical), then draws the N polarization outcomes from the
exact diagonal of the N-photon observable matrix in the shot's analysis
basis, and finally scatters the photons over analyzers.

All analyzers share one basis per shot; that keeps the outcome distribution
exchangeable, so it depends only on the count of "second output" clicks.
Rotated-basis count distributions are genuinely sub-binomial for squeezed
input (that is the entanglement signature), so no independent-photon
shortcut is taken: each count law is the Born rule of `odm.Odm` for one
product outcome, times the number of outcome patterns with that count.

Reconstruction averages every ordered pair of photons in every shot, per
setting, and linearly inverts the pooled pair frequencies into the X-shaped
two-photon matrix; bootstrap resampling of shots provides standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IncompleteSchedule, InvalidShotCount
from .odm import _odm_block, _scaled_moments, born_probability
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

RNG_NAME = "philox4x64"  # counter-based; per-shot streams keyed (seed, index)


@dataclass(frozen=True)
class DetectorArray:
    """Analyzer bank configuration."""

    m: int
    efficiency: float = 1.0
    basis: str = "HV"
    rng_seed: int = 0
    assign_with_replacement: bool = True

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one analyzer")
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
    rule; every term is non-negative.
    """
    eta = efficiency
    p = params
    if params.nth != 0.0:
        p, eta_state = purify(params)
        eta = eta * eta_state
    n_max = default_n_cutoff(p)
    base = pulse_number_pmf(p, n_max)
    if eta == 1.0:
        return base
    out = np.zeros(n_max + 1)
    for n in range(n_max, -1, -1):
        out[1:] = out[1:] * (1.0 - eta) + out[:-1] * eta
        out[0] = out[0] * (1.0 - eta) + base[n]
    return out / out.sum()


class _CountSampler:
    """Exact P(count of outcome-1 | N) tables per analysis basis.

    All photon numbers share one scaled moment table, grown to the largest N
    asked for; HV reads only its diagonal, so only diagonal moments are made.
    """

    def __init__(self, params: StateParams, basis: str):
        if params.nc == 0.0:
            raise ValueError("detection model needs nc > 0 (bright reference beam)")
        self.params = params if params.nth == 0.0 else purify(params)[0]
        self.basis = basis
        self._moments = np.zeros((0, 0))
        self._cache: dict[int, np.ndarray] = {}

    def pmf(self, n: int) -> np.ndarray:
        out = self._cache.get(n)
        if out is None:
            if n >= len(self._moments):
                self._moments = _scaled_moments(self.params, n, self.basis == "HV")
            odm = _odm_block(self._moments, n)
            if self.basis == "HV":
                p = odm.vcount_probabilities()
            else:
                col0, col1 = SETTING_BASES[self.basis].T
                p = np.array(
                    [
                        math.comb(n, v)
                        * born_probability(odm, [col0] * (n - v) + [col1] * v)
                        for v in range(n + 1)
                    ]
                )
            out = self._cache[n] = p / p.sum()
        return out


# ---------------------------------------------------------------------------
# shot generation


def _shot_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, index]))


def simulate_shots(
    params: StateParams, array: DetectorArray, shots: int, fixed_n: int | None = None
):
    """Yield `ShotRecord`s; deterministic given (array.rng_seed, shot index).

    Per shot: detected N from the thinned pulse law, the outcome-1 count from
    the exact observable-matrix diagonal in ``array.basis``, outcome labels
    scattered uniformly over photons, and analyzer indices drawn uniformly
    (with replacement when configured, flagging collisions).  ``fixed_n``
    post-selects the detected photon number instead of sampling it.
    """
    if shots < 1:
        raise InvalidShotCount(f"shots must be >= 1, got {shots}")
    if fixed_n is None:
        pulse = _thinned_pulse_pmf(params, array.efficiency)
        n_support = np.nonzero(pulse > 1e-12)[0]
        n_top = int(n_support.max()) if n_support.size else 0
    else:
        pulse = None
        n_top = fixed_n
    sampler = _CountSampler(params, array.basis)
    if n_top:
        sampler.pmf(n_top)  # warm the largest table; per-shot work is lookups
    for idx in range(shots):
        rng = _shot_rng(array.rng_seed, idx)
        n = fixed_n if fixed_n is not None else int(rng.choice(pulse.size, p=pulse))
        if n == 0:
            yield ShotRecord(n_detected=0, outcomes=(), collided=False)
            continue
        pv = sampler.pmf(n)
        ones = int(rng.choice(pv.size, p=pv))
        bits = np.zeros(n, dtype=int)
        if ones:
            bits[rng.choice(n, size=ones, replace=False)] = 1
        if array.assign_with_replacement:
            where = rng.integers(0, array.m, size=n)
            collided = len(set(where.tolist())) < n
        else:
            where = rng.choice(array.m, size=min(n, array.m), replace=False)
            collided = False
        yield ShotRecord(
            n_detected=n,
            outcomes=tuple((int(a), int(b)) for a, b in zip(where, bits)),
            collided=collided,
        )


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
    m = np.zeros((4, 4))
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = theta[:4]
    m[0, 3] = m[3, 0] = theta[4]
    m[1, 2] = m[2, 1] = theta[5]
    return m


def _pair_counts(records) -> tuple[np.ndarray, int, int]:
    """Stacked per-shot ordered-pair outcome counts (n00, n01, n10, n11)."""
    rows = []
    collided = 0
    excluded = 0
    for rec in records:
        if rec.collided:
            collided += 1
            excluded += 1
            continue
        n, v = rec.n_detected, rec.ones
        if n < 2:
            excluded += 1
            continue
        h = n - v
        rows.append((h * (h - 1), h * v, v * h, v * (v - 1)))
    if not rows:
        raise InvalidShotCount("no usable shots (all collided or below 2 photons)")
    return np.array(rows, dtype=float), collided, excluded


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
    counts: dict[str, np.ndarray] = {}
    total_shots = 0
    total_collided = 0
    total_excluded = 0
    for label in schedule:
        recs = shots_by_setting.get(label, [])
        total_shots += len(recs)
        arr, coll, excl = _pair_counts(recs)
        counts[label] = arr
        total_collided += coll
        total_excluded += excl

    def invert(freqs: np.ndarray) -> np.ndarray:
        theta, *_ = np.linalg.lstsq(design, freqs, rcond=None)
        return theta

    def freqs_from(idx: dict[str, np.ndarray] | None) -> np.ndarray:
        blocks = []
        for label in schedule:
            arr = counts[label]
            sel = arr if idx is None else arr[idx[label]]
            tot = sel.sum()
            blocks.append(sel.sum(axis=0) / tot)
        return np.concatenate(blocks)

    theta = invert(freqs_from(None))
    mat = _theta_to_matrix(theta)
    tr = np.trace(mat)
    mat = mat / tr if tr > 0 else mat

    rng = np.random.Generator(np.random.Philox(key=[seed, 0xB007]))
    boots_mat = np.empty((bootstrap, 4, 4))
    boots_delta = np.empty(bootstrap)
    for b in range(bootstrap):
        idx = {
            label: rng.integers(0, len(counts[label]), size=len(counts[label]))
            for label in schedule
        }
        th = invert(freqs_from(idx))
        m = _theta_to_matrix(th)
        t = np.trace(m)
        if t > 0:
            m = m / t
        boots_mat[b] = m
        boots_delta[b] = abs(m[0, 3]) - m[1, 2]
    delta_hat = float(abs(mat[0, 3]) - mat[1, 2])
    return TomographyResult(
        matrix=TwoBodyOdm(mat, None),
        entry_se=boots_mat.std(axis=0, ddof=1),
        delta_hat=delta_hat,
        delta_se=float(boots_delta.std(ddof=1)),
        shots_per_setting={k: len(v) for k, v in shots_by_setting.items()},
        collision_fraction=total_collided / max(total_shots, 1),
        excluded_fraction=total_excluded / max(total_shots, 1),
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
        arr = DetectorArray(
            m=array.m,
            efficiency=array.efficiency,
            basis=label,
            rng_seed=array.rng_seed + 7919 * (k + 1),
            assign_with_replacement=array.assign_with_replacement,
        )
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
