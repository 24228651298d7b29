"""Monte Carlo model of multi-analyzer coincidence detection.

The beam is split symmetrically onto M polarization analyzers.  Per shot the
simulator draws the detected photon number from the pulse law of the beam
after the channel loss (`reduced.pulse_number_pmf` of `apply_loss`'s
parameters: loss is exact binomial thinning, for thermal states too), then
the count of outcome-1 clicks from the exact count law of the shot's analysis
basis, and finally the analyzer of each photon.  Shots are drawn in blocks
of `_BLOCK` from one counter-based stream per block, keyed (seed, block
index), so shot i depends only on (seed, i).

All analyzers share one basis per shot; that keeps the outcome distribution
exchangeable, so it depends only on the count of "second output" clicks.
Rotated-basis count distributions are genuinely sub-binomial for squeezed
input (that is the entanglement signature), so no independent-photon
shortcut is taken: the laws of every N up to `_MAX_COUNT_ORDER` come from one
pass over the state's normally ordered generating function (`_count_laws`).

Reconstruction averages every ordered pair of photons in every shot, per
setting, and linearly inverts the pooled pair frequencies into the X-shaped
two-photon matrix; bootstrap resampling of shots provides standard errors.
A shot enters only through (n_detected, ones, collided): `run_pair_tomography`
keeps these per-shot arrays from the block generator and builds no
`ShotRecord`, while `reconstruct_two_body` reduces its records to the same
arrays, so both give identical results on the same shots.  Each bootstrap
resample is summed as the multiplicities of the distinct pair rows times those
rows, which is exact because the rows are integer-valued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import IncompleteSchedule, InvalidShotCount, OrderTooLarge, RepeatedSetting
from .reduced import TwoBodyOdm, _series, default_n_cutoff, pulse_number_pmf
from .state import StateParams, apply_loss

__all__ = [
    "DetectorArray",
    "ShotRecord",
    "TomographyResult",
    "SETTING_BASES",
    "DEFAULT_SCHEDULE",
    "simulate_shots",
    "reconstruct_two_body",
    "run_pair_tomography",
    "scan_photon_numbers",
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
_MAX_COUNT_ORDER = 1024  # largest detected photon number with a count law ((N+1)^2 table)
_LAW_TOL = 1e-9  # a count law with more imaginary residue or negative mass lost precision


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

    @property
    def single_shot_err(self) -> float:
        """Standard error of delta_hat scaled to one shot: delta_se sqrt(total shots)."""
        return self.delta_se * math.sqrt(sum(self.shots_per_setting.values()))

    @property
    def shots_to_1sigma(self) -> float:
        """Total shots at which delta_se would reach delta_hat; inf unless delta_hat > 0."""
        if not self.delta_hat > 0.0:
            return math.inf
        return sum(self.shots_per_setting.values()) * (self.delta_se / self.delta_hat) ** 2


# ---------------------------------------------------------------------------
# exact outcome-count distributions


def _detected_number_pmf(params: StateParams, efficiency: float, fixed_n: int | None):
    """Law of the detected photon number: all mass on ``fixed_n`` when given
    (post-selection), else the pulse law of the beam after loss, cut after its
    last entry above 1e-12."""
    if fixed_n is not None:
        return (np.arange(fixed_n + 1) == fixed_n).astype(float)
    pulse = pulse_number_pmf(apply_loss(params, efficiency), default_n_cutoff(params))
    return pulse[: np.flatnonzero(pulse > 1e-12)[-1] + 1]


def _rotated_laws(params: StateParams, basis: str, n_top: int) -> np.ndarray:
    """Row N: P(r outcome-1 photons | N) in ``basis`` for r, N <= n_top, complex as read.

    P_N(r) = [z^r] f_N(z) / f_N(1), f_N = [t^N] F(t B(z)), with B(z) = conj(c0)
    c0^T + z conj(c1) c1^T on a_i^dag a_j and F the Gaussian normally ordered
    generating function (Glauber): log F = sum_k g_k t^k, p, q = B_VV (nbar +- M),
    g_1 = nc B_HH + (p + q) / 2, g_k = (p^k + q^k) / (2k) + A p^(k-2) - C q^(k-2),
    A = nc (B_VH + B_HV)^2 (nbar + M) / 4, C = nc (B_HV - B_VH)^2 (nbar - M) / 4.
    Miller's exponential n f_n = sum_k k g_k f_(n-k), its sum carried as two
    running sums per family, runs on the n_top + 1 roots of unity z (state
    rescaled by powers of two to stay finite); an FFT reads the r-coefficients.
    At z = 1 every g_k is >= 0, so the error is absolute, near machine precision.
    """
    from numpy.fft import fft

    size = n_top + 1
    c0, c1 = SETTING_BASES[basis].T
    z = np.exp(2j * np.pi * np.arange(size) / size)
    b = np.conj(c0)[:, None] * c0 + z[:, None, None] * (np.conj(c1)[:, None] * c1)
    nbar_m = params.vmode_mean + np.array([[1.0], [-1.0]]) * params.anomalous_moment
    h, ps = params.nc * b[:, 0, 0], b[:, 1, 1] * nbar_m
    coef = 0.25 * params.nc * nbar_m * np.stack(
        [(b[:, 1, 0] + b[:, 0, 1]) ** 2, -((b[:, 0, 1] - b[:, 1, 0]) ** 2)])
    # rows (p, A) and (q, -C): y_n = sum_k (p^k/2 + k A p^(k-2)) f_(n-k),
    # x_n = A sum_k p^(k-2) f_(n-k), so that n f_n = h f_(n-1) + y_n summed
    f = np.ones((size, size), dtype=complex)  # row n holds f_n; f_0 = 1
    prev, y, x = np.zeros(size, complex), np.zeros((2, size), complex), np.zeros((2, size), complex)
    for n in range(n_top):
        cur = f[n]
        y = ps * (0.5 * cur + y + x) + 2.0 * coef * prev
        x = ps * x + coef * prev
        f[n + 1] = (h * cur + y[0] + y[1]) / (n + 1)
        if not 2.0**-500 < abs(f[n + 1, 0]) < 2.0**500:
            scale = math.ldexp(1.0, -math.frexp(abs(f[n + 1, 0]))[1])
            f[n + 1], cur, y, x = f[n + 1] * scale, cur * scale, y * scale, x * scale
        prev = cur
    return fft(f, axis=1) / (size * f[:, :1])


def _count_laws(params: StateParams, basis: str, n_top: int) -> np.ndarray:
    """Exact P(count of outcome 1 | N) in ``basis``, row N for N = 0 .. n_top.

    In HV, F(t; diag(1, z)) = e^(t nc) <:exp(t z a^dag a):> factorizes: P_N(v)
    ~ phi_v nc^(N-v) / (N-v)!, phi_v = <(a^dag)^v a^v> / v!, both factors from
    positive series, so every entry keeps its relative precision.  A rotated
    law (`_rotated_laws`) with imaginary residue or negative mass past
    `_LAW_TOL` raises OrderTooLarge.
    """
    if params.nc == 0.0:
        raise ValueError("detection model needs nc > 0 (bright reference beam)")
    if n_top > _MAX_COUNT_ORDER:
        raise OrderTooLarge(f"detected photon number must be <= {_MAX_COUNT_ORDER}, got {n_top}")
    if basis == "HV":
        nbar = params.vmode_mean
        m_phi, e_phi = _series(2.0 * nbar, nbar, params.anomalous_excess, n_top)
        m_pois, e_pois = _series(0.0, params.nc, 0.0, n_top)  # nc^j / j!
        k = np.arange(n_top + 1)
        j = np.maximum(k[:, None] - k, 0)  # N - v
        mant, expo = np.tril(m_phi * m_pois[j]), e_phi + e_pois[j]
        top = np.where(mant > 0.0, expo, expo.min()).max(axis=1, keepdims=True)
        laws = np.ldexp(mant, expo - top)
    else:
        raw = _rotated_laws(params, basis, n_top)
        laws = np.tril(raw.real)
        lost = max(np.abs(raw.imag).max(), -np.minimum(laws, 0.0).sum(axis=1).min())
        if lost > _LAW_TOL:
            raise OrderTooLarge(f"{basis} count laws up to N = {n_top} lost precision: imaginary "
                                f"residue or negative mass {lost:.2g} > {_LAW_TOL:g}")
        laws = np.maximum(laws, 0.0)
    return laws / laws.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# shot generation


def _inverse_cdf(pmf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Indices drawn from ``pmf`` by the uniforms ``u`` in [0, 1)."""
    cdf = np.cumsum(pmf)
    return np.searchsorted(cdf / cdf[-1], u, side="right")


def _shot_blocks(params: StateParams, array: DetectorArray, shots: int, n_law: np.ndarray):
    """Yield ``(n, ones, collided, where)`` arrays, one tuple per block of shots.

    Each block of `_BLOCK` shots comes from one Philox stream keyed
    (seed, block index) and is always drawn at full block length; the last
    block is cut to the shots asked for; N is drawn from ``n_law``.  ``where``
    holds the analyzer of every photon, shot after shot.
    """
    if shots < 1:
        raise InvalidShotCount(f"shots must be >= 1, got {shots}")
    laws = _count_laws(params, array.basis, len(n_law) - 1)  # past the order limit: no shot
    seed = array.rng_seed & 0xFFFFFFFFFFFFFFFF
    for start in range(0, shots, _BLOCK):
        rng = np.random.Generator(np.random.Philox(key=[seed, start // _BLOCK]))
        u_n, u_v = rng.random((2, _BLOCK))
        n = _inverse_cdf(n_law, u_n)
        where = rng.integers(0, array.m, size=n.sum())
        k = min(_BLOCK, shots - start)
        n, u_v = n[:k], u_v[:k]
        where = where[: n.sum()]
        ones = np.zeros(k, dtype=int)
        for size in np.unique(n[n > 0]):
            sel = n == size
            ones[sel] = _inverse_cdf(laws[size, : size + 1], u_v[sel])
        # sorted keys shot * m + analyzer put a shot's repeated analyzers side by side
        keys = np.sort(np.repeat(np.arange(k), n) * array.m + where)
        collided = np.bincount(keys[1:][keys[1:] == keys[:-1]] // array.m, minlength=k) > 0
        yield n, ones, collided, where


def simulate_shots(
    params: StateParams, array: DetectorArray, shots: int, fixed_n: int | None = None
):
    """Yield `ShotRecord`s; shot i depends only on (array.rng_seed, i).

    Shots come in `_shot_blocks`, so the records of a run are a prefix of
    those of any longer run.  Per shot:
    detected N by inverse CDF of the pulse law after loss, the outcome-1 count
    by inverse CDF of the exact count law in ``array.basis``, and N analyzer
    indices drawn uniformly with replacement; two photons on one analyzer
    flag the shot collided.  The first ``ones`` photons carry outcome 1,
    which has the law of a uniform scatter because the analyzer indices are
    i.i.d.  ``fixed_n`` post-selects the detected photon number instead of
    sampling it.  `run_pair_tomography` draws the same shots without
    building records.
    """
    n_law = _detected_number_pmf(params, array.efficiency, fixed_n)
    for n, ones, collided, where in _shot_blocks(params, array, shots, n_law):
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
    Re rho_23) under the real-matrix convention.  The schedule must name each
    setting once (else RepeatedSetting) and span theta (else IncompleteSchedule).
    """
    for label in set(schedule) - SETTING_BASES.keys():
        raise ValueError(f"unknown basis {label!r}")
    if len(set(schedule)) < len(schedule):
        raise RepeatedSetting(f"settings {tuple(schedule)} name a setting more than once")
    bases = np.array([SETTING_BASES[label] for label in schedule]).reshape(-1, 2, 2)
    # kets[4s + 2 o1 + o2] = basis[:, o1] (x) basis[:, o2] of setting s
    kets = np.einsum("sio,sjp->sopij", bases, bases).reshape(-1, 4)
    proj = kets[:, [0, 1, 2, 3, 3, 2]] * kets[:, [0, 1, 2, 3, 0, 1]].conj()
    design = proj.real * np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0])
    if np.linalg.matrix_rank(design) < 6:
        raise IncompleteSchedule(f"settings {tuple(schedule)} do not span the X-state parameters")
    return design


def _theta_to_matrix(theta: np.ndarray) -> np.ndarray:
    """X-state matrices from parameter vectors (any leading shape)."""
    theta = np.asarray(theta)
    m = np.zeros(theta.shape[:-1] + (4, 4))
    diag = np.arange(4)
    m[..., diag, diag] = theta[..., :4]
    m[..., 0, 3] = m[..., 3, 0] = theta[..., 4]
    m[..., 1, 2] = m[..., 2, 1] = theta[..., 5]
    return m


def _shot_array(records) -> np.ndarray:
    """(S, 3) float array of (n_detected, ones, collided) from shot records."""
    return np.array(
        [(r.n_detected, r.ones, r.collided) for r in records], dtype=float
    ).reshape(-1, 3)


def _pair_counts(shots: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Per usable shot ordered-pair outcome counts (n00, n01, n10, n11).

    ``shots`` is an (S, 3) array of (n_detected, ones, collided).  Returns
    the rows with the collided and the excluded (collided or fewer than two
    photons) shot counts.
    """
    n, v, collided = shots.T
    usable = (collided == 0.0) & (n >= 2.0)
    if not usable.any():
        raise InvalidShotCount("no usable shots (all collided or below 2 photons)")
    h, v = n[usable] - v[usable], v[usable]
    rows = np.stack([h * (h - 1.0), h * v, v * h, v * (v - 1.0)], axis=1)
    return rows, int(collided.sum()), len(shots) - int(usable.sum())


def _reconstruct(
    shots_by_setting: dict[str, np.ndarray], schedule, bootstrap: int, seed: int
) -> TomographyResult:
    """Linear inversion and bootstrap from (S, 3) shot arrays per setting.

    A pair row depends only on (n_detected, ones), so each setting's usable
    shots are grouped by distinct row and a resample is summed as its group
    multiplicities times the distinct rows.  The rows are integer-valued, so
    every sum is exact and equals the plain sum over the resampled shots.
    """
    if bootstrap < 2:
        raise InvalidShotCount(f"bootstrap needs >= 2 resamples, got {bootstrap}")
    design = _x_state_design(schedule)
    no_shots = np.empty((0, 3))
    groups, collided, excluded = {}, 0, 0  # label -> (distinct rows, row of each shot)
    for label in schedule:
        rows, coll, excl = _pair_counts(shots_by_setting.get(label, no_shots))
        groups[label] = np.unique(rows, axis=0, return_inverse=True)
        collided += coll
        excluded += excl
    total_shots = sum(len(shots_by_setting.get(lab, no_shots)) for lab in schedule)

    def multiplicity(label, picks):
        distinct, group = groups[label]
        return np.bincount(group[picks], minlength=len(distinct))

    size = {lab: len(group) for lab, (_, group) in groups.items()}
    rng = np.random.Generator(np.random.Philox(key=[seed, 0xB007]))
    mult = {lab: [multiplicity(lab, slice(None))] for lab in groups}
    for _ in range(bootstrap):
        for lab in schedule:  # one draw per setting, in schedule order
            mult[lab].append(multiplicity(lab, rng.integers(0, size[lab], size=size[lab])))
    sums = {lab: np.array(m) @ groups[lab][0] for lab, m in mult.items()}
    freqs = np.concatenate(
        [sums[lab] / sums[lab].sum(axis=1, keepdims=True) for lab in schedule], axis=1
    )
    mats = _theta_to_matrix(freqs @ np.linalg.pinv(design).T)
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


def reconstruct_two_body(
    shots_by_setting: dict[str, list],
    schedule=DEFAULT_SCHEDULE,
    bootstrap: int = 200,
    seed: int = 0,
) -> TomographyResult:
    """Linear-inversion X-state estimate from pair-averaged shot records.

    ``shots_by_setting`` maps setting labels to shot-record lists; the
    schedule is checked by `_x_state_design`.  Collided and sub-two-photon
    shots are excluded (fractions reported).  Bootstrap over shots
    (``bootstrap`` >= 2 resamples, else InvalidShotCount) gives entry and
    delta standard errors.  Only each record's (n_detected, ones, collided)
    enters, so the result equals that of `run_pair_tomography` on the same
    shots.
    """
    arrays = {label: _shot_array(records) for label, records in shots_by_setting.items()}
    return _reconstruct(arrays, schedule, bootstrap, seed)


def run_pair_tomography(
    params: StateParams,
    array: DetectorArray,
    shots_per_setting: int,
    schedule=DEFAULT_SCHEDULE,
    bootstrap: int = 200,
    fixed_n: int | None = None,
) -> TomographyResult:
    """Simulate the schedule and reconstruct; one seed covers everything.

    Setting k draws the shots of `simulate_shots` with seed
    ``array.rng_seed + 7919 (k + 1)``, kept as (n, ones, collided) arrays
    without per-shot records.  The schedule is checked before any shot is
    drawn; the detected-number law is built once.
    """
    _x_state_design(schedule)
    n_law = _detected_number_pmf(params, array.efficiency, fixed_n)
    shots_by_setting = {}
    for k, label in enumerate(schedule):
        arr = replace(array, basis=label, rng_seed=array.rng_seed + 7919 * (k + 1))
        blocks = _shot_blocks(params, arr, shots_per_setting, n_law)
        shots_by_setting[label] = np.concatenate(
            [np.stack([n, ones, collided], axis=1) for n, ones, collided, _ in blocks]
        ).astype(float)
    return _reconstruct(shots_by_setting, schedule, bootstrap, array.rng_seed)


def scan_photon_numbers(
    ns: float, nth: float, sizes, *, m: int, efficiency: float, seed: int, shots: int,
    schedule, bootstrap: int,
) -> list[TomographyResult]:
    """Pair tomography at each photon number N of ``sizes``, in order.

    N runs at nc = N, post-selected on N detected photons, on its own seed
    ``seed + N``: the scan behind the 1/N single-shot error and the flat
    shot budget.
    """
    return [
        run_pair_tomography(
            StateParams(float(n), ns, nth),
            DetectorArray(m=m, efficiency=efficiency, rng_seed=seed + n),
            shots_per_setting=shots,
            schedule=schedule,
            bootstrap=bootstrap,
            fixed_n=n,
        )
        for n in sizes
    ]


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
