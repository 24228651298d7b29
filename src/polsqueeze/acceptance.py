"""Acceptance checks: quantitative reproduction targets and property suites.

`table` declares every criterion once: its id, name, runtime limit, whether
``verify --skip-slow`` leaves it out, and, for the two expected failures, why
the reference value it asserts cannot be met.  Next to each entry sits its
check, which yields one (passed, detail) per criterion it decides; a check
that decides several criteria computes what they share once.  The CLI
``verify`` subcommand and the pytest acceptance module both run this table,
and an expected failure that passes fails both.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .depth import contour_data, min_jx2_at_defect
from .detect import DEFAULT_SCHEDULE, DetectorArray, scan_photon_numbers, simulate_shots
from .entanglement import (
    concurrence,
    delta_criterion,
    entanglement_report,
    optimize_ns_for_concurrence,
)
from .fock import build_squeezed_thermal, oracle_correlation, oracle_odm
from .odm import build_odm, closed_form_r2, closed_form_r3, phase_average
from .reduced import averaged_two_body, reduced_two_body
from .state import StateParams, apply_loss, purify, quadratures, squeezing_db
from . import correlators

__all__ = [
    "Criterion", "CriterionResult", "SHOTS", "SEED", "table", "run", "run_all", "print_table"
]

SHOTS = 8333  # shots per setting of criterion 10's tomography
SEED = 20240901  # criterion 10's seed


@dataclass(frozen=True)
class Criterion:
    """One acceptance result; ``known_defect`` says why an expected failure fails."""

    cid: str
    name: str
    limit_s: float | None = None
    slow: bool = False
    known_defect: str | None = None


@dataclass(frozen=True, kw_only=True)
class CriterionResult(Criterion):
    passed: bool
    runtime_s: float
    detail: str

    @property
    def met(self) -> bool:
        """The criterion's values pass within its runtime limit."""
        return self.passed and (self.limit_s is None or self.runtime_s <= self.limit_s)

    @property
    def ok(self) -> bool:
        """Blocking status: a criterion must be met, an expected failure must fail."""
        return self.met == (self.known_defect is None)

    @property
    def status(self) -> str:
        if self.known_defect is None:
            return "PASS" if self.met else "FAIL"
        return ("UNEXPECTED PASS" if self.met else "FAIL") + " (known reference defect)"


# ---------------------------------------------------------------------------


def _reduced_n100():
    """Two-photon matrix of the 100-photon state at nc=100, ns=0.3."""
    tb = reduced_two_body(StateParams(100.0, 0.3, 0.0), 100)
    m = tb.matrix
    got = (m[0, 0], abs(m[0, 3]), m[1, 1], m[3, 3])
    ref = (0.9440, 0.0293, 0.0270, 0.0021)
    entry_ok = all(abs(g - r) <= 5e-5 for g, r in zip(got, ref))
    c = concurrence(tb)
    yield entry_ok and abs(c - 0.00468) <= 1e-5, (
        f"entries {tuple(round(float(g), 6) for g in got)} vs {ref}; concurrence {c:.6f}"
    )


_AVERAGED_REF = (0.9336, 0.0333, 0.0310, 0.0030)


def _averaged():
    """Photon-number-averaged matrix at nc=100, ns=0.3: entries, then concurrence.

    `averaged_two_body` computes the convolution mixture, which reproduces
    the concurrence.
    """
    tb = averaged_two_body(StateParams(100.0, 0.3, 0.0))
    m = tb.matrix
    got = (m[0, 0], abs(m[0, 3]), m[1, 1], m[3, 3])
    c = concurrence(tb)
    yield all(abs(g - r) <= 5e-5 for g, r in zip(got, _AVERAGED_REF)), (
        f"entries {tuple(round(float(g), 6) for g in got)} vs {_AVERAGED_REF} "
        "(reference trace is 0.9986; unreachable for a unit-trace matrix)"
    )
    yield abs(c - 0.00464) <= 2e-5, f"concurrence {c:.6f} vs 0.00464"


def _delta_scaling():
    """delta * N within [0.207, 0.253] for nc = N in {2,5,10,20,50,100}."""
    rows = []
    for n in (2, 5, 10, 20, 50, 100):
        ns_star = optimize_ns_for_concurrence(float(n), 0.0, n)
        d, _ = delta_criterion(reduced_two_body(StateParams(float(n), ns_star, 0.0), n))
        rows.append((n, ns_star, d * n))
    yield all(0.207 <= dn <= 0.253 for _, _, dn in rows), "; ".join(
        f"N={n}: ns*={s:.3f} dN={dn:.4f}" for n, s, dn in rows
    )


def _monogamy_ratio():
    """Concurrence over monogamy ceiling = 0.047 +- 0.002 at N=100."""
    rep = entanglement_report(reduced_two_body(StateParams(100.0, 0.3, 0.0), 100), 100)
    yield abs(rep.ratio - 0.047) <= 0.002, f"ratio {rep.ratio:.4f}, c_max {rep.c_max:.4f}"


_ORACLE_GRID = (0.0, 0.1, 0.3, 1.0)


def _oracle_cutoff(ns: float, nth: float) -> int:
    # calibrated against +40-level convergence; heavy tails at large ns+nth
    return 64 + int(300 * (ns + nth) / 2.0)


def _oracle_equivalence():
    """Closed forms against truncated-Fock brute force."""
    worst_e = 0.0
    for ns, nth in itertools.product(_ORACLE_GRID, _ORACLE_GRID):
        st = build_squeezed_thermal(ns, nth, _oracle_cutoff(ns, nth))
        p = StateParams(1.0, ns, nth)
        for m in range(7):
            for n in range(m, 7):
                o = oracle_correlation(st, m, n).real
                c = float(correlators.correlation(p, m, n))
                worst_e = max(worst_e, abs(o - c) / abs(o) if o else abs(c))
    worst_odm = 0.0
    for nc, ns, nth in itertools.product((0.1, 1.0), (0.1, 0.3), (0.0, 0.05)):
        p = StateParams(nc, ns, nth)
        for n in (1, 2, 3):
            o = oracle_odm(p, n, cutoff=80)
            b = build_odm(p, n).dense(normalized=False)
            on, bn = o / np.trace(o), b / np.trace(b)
            worst_odm = max(worst_odm, np.abs(on - bn).max() / np.abs(on).max())
    worst_cf = 0.0
    for p in (StateParams(1.0, 0.3, 0.0), StateParams(2.0, 0.1, 0.05)):
        for closed_form, n in ((closed_form_r2, 2), (closed_form_r3, 3)):
            r = closed_form(p)
            b = build_odm(p, n).dense(normalized=False)
            worst_cf = max(worst_cf, np.abs(r / np.trace(r) - b / np.trace(b)).max())
    yield worst_e < 1e-9 and worst_odm < 1e-9 and worst_cf < 1e-12, (
        f"moments rel {worst_e:.2e} (<1e-9); odm rel {worst_odm:.2e} (<1e-9); "
        f"closed forms {worst_cf:.2e} (<1e-12)"
    )


def _loss_invariance():
    """Purified parameters leave normalized observables unchanged."""
    worst = worst_rt = 0.0
    for nc, ns, nth in itertools.product((1.0, 10.0), (0.3, 0.5, 1.0), (0.05, 0.2)):
        p = StateParams(nc, ns, nth)
        pure, eta = purify(p)
        a = reduced_two_body(p, 20).matrix
        b = reduced_two_body(pure, 20).matrix
        worst = max(worst, float(np.abs(a - b).max()))
        back = apply_loss(pure, eta)
        for f in ("nc", "ns", "nth"):
            ref = getattr(p, f)
            worst_rt = max(worst_rt, abs(getattr(back, f) - ref) / max(abs(ref), 1.0))
        qa, qb = quadratures(p), quadratures(back)
        worst_rt = max(worst_rt, abs(qa.var_x - qb.var_x) / qa.var_x)
        worst_rt = max(worst_rt, abs(qa.var_p - qb.var_p) / qa.var_p)
    yield worst < 1e-10 and worst_rt < 1e-12, (
        f"matrix diff {worst:.2e} (<1e-10); round trip {worst_rt:.2e} (<1e-12)"
    )


def _weak_beam_limits():
    """Weak-beam limits of the 2- and 3-photon matrices: Bell, then 3-photon target."""
    p = StateParams(0.01, 0.0001, 0.0)
    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    f2 = float(bell @ build_odm(p, 2).dense() @ bell)
    t = np.zeros(8)
    t[0] = t[3] = t[5] = t[6] = 0.5
    f3 = float(t @ build_odm(p, 3).dense() @ t)
    # the limit statement itself: fidelity -> 1 as nc -> 0 with ns = nc^2
    f3_small = float(t @ build_odm(StateParams(0.003, 9e-6, 0.0), 3).dense() @ t)
    yield f2 > 0.99, f"fidelity {f2:.5f}"
    yield f3 > 0.99, f"fidelity {f3:.5f} at nc=0.01 (limit holds: {f3_small:.5f} at nc=0.003)"


def _large_j_bound():
    """Exact truncated diagonalization vs the closed form, footnote bound."""
    worst = 0.0
    for j in (50, 100, 200):
        for db in np.linspace(0.1, 2.0, 12):
            jx2 = min_jx2_at_defect(j, float(db))
            approx = 1 + 2 * db - 2 * math.sqrt(db * (1 + db))
            worst = max(worst, abs(2 * jx2 / j - approx) / (5 * math.sqrt(db) / (2 * j)))
    yield worst <= 1.0, f"worst err/bound {worst:.3f} (<= 1)"


def _squeezing_identification():
    """4.5 dB identification and the squeezing-boundary grid flags."""
    db = squeezing_db(StateParams(1.0, 0.3, 0.0))
    grid_ok = all(
        grey == (ns <= nth**2 / (2 * nth + 1)) for ns, nth, _, grey in contour_data(resolution=21)
    )
    yield abs(db - 4.55) <= 0.1 and grid_ok, (
        f"db {db:.3f}; grey region matches boundary: {grid_ok}"
    )


def _detection_statistics(shots: int, seed: int):
    """Single-shot error scaling, flat shot budget, reproducibility."""
    sizes = (16, 32, 64, 100)
    scan = scan_photon_numbers(
        0.3, 0.0, sizes, m=2**20, efficiency=1.0, seed=seed, shots=shots,
        schedule=DEFAULT_SCHEDULE, bootstrap=200,
    )
    slope = np.polyfit(np.log(sizes), [math.log(r.single_shot_err) for r in scan], 1)[0]
    shots_needed = [r.shots_to_1sigma for r in scan]
    flat = max(shots_needed) / min(shots_needed)
    # reproducibility: same seed, same stream
    p, arr = StateParams(16.0, 0.3, 0.0), DetectorArray(m=2**16, rng_seed=seed)
    repro = list(simulate_shots(p, arr, 200)) == list(simulate_shots(p, arr, 200))
    yield (-1.2 <= slope <= -0.8) and flat < 3.0 and repro, (
        f"slope {slope:.3f} (target -1.0 +- 0.2); shots-to-1sigma spread "
        f"x{flat:.2f} (<3), values {[round(s) for s in shots_needed]}; reproducible {repro}"
    )


def _property_suites():
    """Structural invariants of constructed matrices across the grids."""
    # hermiticity, PSD, parity zeros, permutation symmetry
    ok = True
    grid = itertools.product((0.1, 1.0, 10.0), (0.0, 0.1, 0.3, 1.0), (0.0, 0.1), (2, 3, 4))
    for nc, ns, nth, n in grid:
        rho = build_odm(StateParams(nc, ns, nth), n).dense()
        ok = ok and np.allclose(rho, rho.T, atol=1e-12)
        ok = ok and float(np.linalg.eigvalsh(rho).min()) >= -1e-10
        pops = np.array([i.bit_count() for i in range(1 << n)])
        ok = ok and np.all(rho[(pops[:, None] - pops[None, :]) % 2 == 1] == 0.0)
        perm = _swap_qubits(n, 0, n - 1)
        ok = ok and np.allclose(rho, rho[np.ix_(perm, perm)], atol=1e-12)
    # phase-averaged two-body states are pair separable
    dec_ok = True
    for n, nc in itertools.product((3, 4, 5, 6), (0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0)):
        rho = phase_average(build_odm(StateParams(nc, 0.3, 0.0), n)).dense()
        dec_ok = dec_ok and concurrence(_ptrace_to_pair(rho, n)) == 0.0
    # squeezing implies pairwise entanglement at nth = 0
    wine_ok = True
    for ns, n in itertools.product((0.01, 0.03, 0.1, 0.3, 1.0, 1.7), (2, 17, 50, 100)):
        rep = entanglement_report(reduced_two_body(StateParams(100.0, ns, 0.0), n), n)
        wine_ok = wine_ok and rep.concurrence > 0.0 and rep.ratio <= 1.0 + 1e-12
    yield ok and dec_ok and wine_ok, (
        f"structure grid ok={ok}; decohered concurrence zero: {dec_ok}; "
        f"squeezed implies entangled & monogamy: {wine_ok}"
    )


def _swap_qubits(n: int, i: int, j: int) -> np.ndarray:
    idx = np.arange(1 << n)
    bi = (idx >> (n - 1 - i)) & 1
    bj = (idx >> (n - 1 - j)) & 1
    out = idx & ~((1 << (n - 1 - i)) | (1 << (n - 1 - j)))
    out |= bj << (n - 1 - i)
    out |= bi << (n - 1 - j)
    return out


def _ptrace_to_pair(rho: np.ndarray, n: int) -> np.ndarray:
    t = rho.reshape([2] * (2 * n))
    k = n
    while k > 2:
        t = np.trace(t, axis1=k - 1, axis2=2 * k - 1)
        k -= 1
    return t.reshape(4, 4)


# ---------------------------------------------------------------------------


def table(shots: int, seed: int):
    """Every criterion in run order, as (check, criteria it decides) rows.

    ``shots`` and ``seed`` set criterion 10's tomography.  The order fixes
    which criterion warms the shared moment tables first, so keep it.
    """
    return (
        (_reduced_n100, (Criterion("1", "reduced matrix at N=100", 10.0),)),
        (_averaged, (
            Criterion(
                "2a", "averaged matrix entries", 60.0,
                known_defect="printed averaged-matrix reference has trace 0.9986, so no "
                "unit-trace density matrix can match all four entries to 5e-5; its "
                "composition matches an un-renormalized truncated Poisson-weighted sum "
                "rather than the stated convolution mixture (see notes)",
            ),
            Criterion("2b", "averaged concurrence", 60.0),
        )),
        (_delta_scaling, (Criterion("3", "delta scaling 0.23/N", 300.0, slow=True),)),
        (_monogamy_ratio, (Criterion("4", "monogamy ratio 4.7%"),)),
        (_oracle_equivalence, (Criterion("5", "oracle equivalence"),)),
        (_loss_invariance, (Criterion("6", "loss invariance"),)),
        (_weak_beam_limits, (
            Criterion("7a", "Bell fidelity at nc=0.01"),
            Criterion(
                "7b", "3-photon target fidelity at nc=0.01",
                known_defect="three-photon target fidelity at nc=0.01 is 0.9708; the "
                "leading correction is ~3*nc against ~nc for the two-photon case, so 0.99 "
                "is reached only below nc ~ 0.003 (the limit statement itself holds and is "
                "tested in test_odm.py)",
            ),
        )),
        (_large_j_bound, (Criterion("8", "large-J approximation bound"),)),
        (_squeezing_identification, (Criterion("9", "squeezing identification"),)),
        (partial(_detection_statistics, shots, seed),
         (Criterion("10", "detection statistics", 600.0, slow=True),)),
        (_property_suites, (Criterion("11", "property suites"),)),
    )


def run(check, criteria) -> list[CriterionResult]:
    """Run one check; each criterion it decides carries the check's runtime."""
    t0 = time.perf_counter()
    outcomes = list(check())
    runtime = time.perf_counter() - t0
    return [
        CriterionResult(**asdict(c), passed=passed, runtime_s=runtime, detail=detail)
        for c, (passed, detail) in zip(criteria, outcomes, strict=True)
    ]


def run_all(skip_slow: bool, shots: int, seed: int) -> list[CriterionResult]:
    return [
        r
        for check, criteria in table(shots, seed)
        if not (skip_slow and any(c.slow for c in criteria))
        for r in run(check, criteria)
    ]


def print_table(results) -> bool:
    """Print a status and a detail line per result; True when none blocks."""
    width = max(len(r.name) for r in results) + 2
    for r in results:
        limit = f"/{r.limit_s:.0f}s" if r.limit_s else ""
        print(f"criterion {r.cid:>3}  {r.name:<{width}} {r.status} [{r.runtime_s:.1f}s{limit}]")
        if r.detail:
            print(f"              {r.detail}")
    return all(r.ok for r in results)
