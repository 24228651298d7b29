"""Acceptance checks: quantitative reproduction targets and property suites.

Each criterion is a standalone callable returning a `CriterionResult`; the
CLI ``verify`` subcommand and the pytest acceptance module both run these.
Two checks are marked ``expected_fail`` with an explanation: the printed
reference values they assert are internally inconsistent (details in each
docstring), the assertions are kept verbatim rather than loosened.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .depth import contour_data, min_jx2_at_defect
from .detect import DetectorArray, run_pair_tomography
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

__all__ = ["CriterionResult", "run_all", "print_table"]


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    runtime_s: float
    limit_s: float | None = None
    detail: str = ""
    expected_fail: bool = False
    checks: list = field(default_factory=list)

    @property
    def within_limit(self) -> bool:
        return self.limit_s is None or self.runtime_s <= self.limit_s

    @property
    def ok(self) -> bool:
        """Blocking status: expected failures do not block."""
        return (self.passed and self.within_limit) or self.expected_fail


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------


def crit1_reduced_n100() -> CriterionResult:
    """Two-photon matrix of the 100-photon state at nc=100, ns=0.3."""

    def body():
        tb = reduced_two_body(StateParams(100.0, 0.3, 0.0), 100)
        m = tb.matrix
        got = (m[0, 0], abs(m[0, 3]), m[1, 1], m[3, 3])
        ref = (0.9440, 0.0293, 0.0270, 0.0021)
        entry_ok = all(abs(g - r) <= 5e-5 for g, r in zip(got, ref))
        c = concurrence(tb)
        conc_ok = abs(c - 0.00468) <= 1e-5
        return entry_ok and conc_ok, (
            f"entries {tuple(round(float(g), 6) for g in got)} vs {ref}; concurrence {c:.6f}"
        )

    (ok, detail), dt = _timed(body)
    return CriterionResult("1", "reduced matrix at N=100", ok, dt, 10.0, detail)


_AVERAGED_REF = (0.9336, 0.0333, 0.0310, 0.0030)


def _averaged_matrix():
    return averaged_two_body(StateParams(100.0, 0.3, 0.0))


def crit2_averaged() -> list[CriterionResult]:
    """Photon-number-averaged matrix at nc=100, ns=0.3.

    The entry check is expected to fail: the printed reference matrix has
    trace 0.9986, so no normalized density matrix can match all four entries
    to 5e-5.  Its composition corresponds to a truncated, un-renormalized
    Poisson-weighted sum rather than the stated convolution mixture.
    `averaged_two_body` computes the convolution mixture, which reproduces
    the concurrence.  See the repository notes for the full analysis.
    """

    def body():
        tb = _averaged_matrix()
        m = tb.matrix
        got = (m[0, 0], abs(m[0, 3]), m[1, 1], m[3, 3])
        entry_ok = all(abs(g - r) <= 5e-5 for g, r in zip(got, _AVERAGED_REF))
        c = concurrence(tb)
        conc_ok = abs(c - 0.00464) <= 2e-5
        return entry_ok, conc_ok, got, c

    (entry_ok, conc_ok, got, c), dt = _timed(body)
    entries = CriterionResult(
        "2a",
        "averaged matrix entries",
        entry_ok,
        dt,
        60.0,
        f"entries {tuple(round(float(g), 6) for g in got)} vs {_AVERAGED_REF} "
        "(reference trace is 0.9986; unreachable for a unit-trace matrix)",
        expected_fail=True,
    )
    conc = CriterionResult(
        "2b", "averaged concurrence", conc_ok, dt, 60.0, f"concurrence {c:.6f} vs 0.00464"
    )
    return [entries, conc]


def crit3_delta_scaling() -> CriterionResult:
    """delta * N within [0.207, 0.253] for nc = N in {2,5,10,20,50,100}."""

    def body():
        rows = []
        ok = True
        for n in (2, 5, 10, 20, 50, 100):
            ns_star = optimize_ns_for_concurrence(float(n), 0.0, n)
            tb = reduced_two_body(StateParams(float(n), ns_star, 0.0), n)
            d, _ = delta_criterion(tb)
            rows.append((n, ns_star, d * n))
            ok = ok and 0.207 <= d * n <= 0.253
        return ok, "; ".join(f"N={n}: ns*={s:.3f} dN={dn:.4f}" for n, s, dn in rows)

    (ok, detail), dt = _timed(body)
    return CriterionResult("3", "delta scaling 0.23/N", ok, dt, 300.0, detail)


def crit4_monogamy_ratio() -> CriterionResult:
    """Concurrence over monogamy ceiling = 0.047 +- 0.002 at N=100."""

    def body():
        rep = entanglement_report(reduced_two_body(StateParams(100.0, 0.3, 0.0), 100), 100)
        return abs(rep.ratio - 0.047) <= 0.002, f"ratio {rep.ratio:.4f}, c_max {rep.c_max:.4f}"

    (ok, detail), dt = _timed(body)
    return CriterionResult("4", "monogamy ratio 4.7%", ok, dt, None, detail)


_ORACLE_GRID = (0.0, 0.1, 0.3, 1.0)


def _oracle_cutoff(ns: float, nth: float) -> int:
    # calibrated against +40-level convergence; heavy tails at large ns+nth
    return 64 + int(300 * (ns + nth) / 2.0)


def crit5_oracle_equivalence() -> CriterionResult:
    """Closed forms against truncated-Fock brute force."""

    def body():
        worst_e = 0.0
        for ns in _ORACLE_GRID:
            for nth in _ORACLE_GRID:
                st = build_squeezed_thermal(ns, nth, _oracle_cutoff(ns, nth))
                p = StateParams(1.0, ns, nth)
                for m in range(7):
                    for n in range(m, 7):
                        o = oracle_correlation(st, m, n).real
                        c = float(correlators.correlation(p, m, n))
                        if o:
                            worst_e = max(worst_e, abs(o - c) / abs(o))
                        else:
                            worst_e = max(worst_e, abs(c))
        worst_odm = 0.0
        for nc in (0.1, 1.0):
            for ns in (0.1, 0.3):
                for nth in (0.0, 0.05):
                    p = StateParams(nc, ns, nth)
                    for n in (1, 2, 3):
                        o = oracle_odm(p, n, cutoff=80)
                        b = build_odm(p, n).dense(normalized=False)
                        on, bn = o / np.trace(o), b / np.trace(b)
                        scale = np.abs(on).max()
                        worst_odm = max(worst_odm, np.abs(on - bn).max() / scale)
        worst_cf = 0.0
        for p in (StateParams(1.0, 0.3, 0.0), StateParams(2.0, 0.1, 0.05)):
            r2 = closed_form_r2(p)
            b2 = build_odm(p, 2).dense(normalized=False)
            worst_cf = max(worst_cf, np.abs(r2 / np.trace(r2) - b2 / np.trace(b2)).max())
            r3 = closed_form_r3(p)
            b3 = build_odm(p, 3).dense(normalized=False)
            worst_cf = max(worst_cf, np.abs(r3 / np.trace(r3) - b3 / np.trace(b3)).max())
        ok = worst_e < 1e-9 and worst_odm < 1e-9 and worst_cf < 1e-12
        return ok, (
            f"moments rel {worst_e:.2e} (<1e-9); odm rel {worst_odm:.2e} (<1e-9); "
            f"closed forms {worst_cf:.2e} (<1e-12)"
        )

    (ok, detail), dt = _timed(body)
    return CriterionResult("5", "oracle equivalence", ok, dt, None, detail)


def crit6_loss_invariance() -> CriterionResult:
    """Purified parameters leave normalized observables unchanged."""

    def body():
        worst = 0.0
        for nc in (1.0, 10.0):
            for ns in (0.3, 0.5, 1.0):
                for nth in (0.05, 0.2):
                    p = StateParams(nc, ns, nth)
                    pure, eta = purify(p)
                    a = reduced_two_body(p, 20).matrix
                    b = reduced_two_body(pure, 20).matrix
                    worst = max(worst, float(np.abs(a - b).max()))
        worst_rt = 0.0
        for nc in (1.0, 10.0):
            for ns in (0.3, 0.5, 1.0):
                for nth in (0.05, 0.2):
                    p = StateParams(nc, ns, nth)
                    pure, eta = purify(p)
                    back = apply_loss(pure, eta)
                    for f in ("nc", "ns", "nth"):
                        ref = getattr(p, f)
                        got = getattr(back, f)
                        worst_rt = max(worst_rt, abs(got - ref) / max(abs(ref), 1.0))
                    qa, qb = quadratures(p), quadratures(back)
                    worst_rt = max(worst_rt, abs(qa.var_x - qb.var_x) / qa.var_x)
                    worst_rt = max(worst_rt, abs(qa.var_p - qb.var_p) / qa.var_p)
        ok = worst < 1e-10 and worst_rt < 1e-12
        return ok, f"matrix diff {worst:.2e} (<1e-10); round trip {worst_rt:.2e} (<1e-12)"

    (ok, detail), dt = _timed(body)
    return CriterionResult("6", "loss invariance", ok, dt, None, detail)


def crit7_limits() -> list[CriterionResult]:
    """Weak-beam limits of the 2- and 3-photon matrices.

    The 3-photon check is expected to fail at nc = 0.01: its leading
    correction scales three times faster than the 2-photon one, putting the
    fidelity at 0.9708 there (it passes 0.99 only below nc of about 0.003;
    the limit itself is correct).  Asserted verbatim anyway.
    """

    def body():
        p = StateParams(0.01, 0.0001, 0.0)
        rho2 = build_odm(p, 2).dense()
        bell = np.zeros(4)
        bell[0] = bell[3] = 1 / math.sqrt(2)
        f2 = float(bell @ rho2 @ bell)
        rho3 = build_odm(p, 3).dense()
        t = np.zeros(8)
        t[0] = t[3] = t[5] = t[6] = 0.5
        f3 = float(t @ rho3 @ t)
        # the limit statement itself: fidelity -> 1 as nc -> 0 with ns = nc^2
        p_small = StateParams(0.003, 9e-6, 0.0)
        f3_small = float(t @ build_odm(p_small, 3).dense() @ t)
        return f2, f3, f3_small

    (vals, dt) = _timed(body)
    f2, f3, f3_small = vals
    bell = CriterionResult(
        "7a", "Bell fidelity at nc=0.01", f2 > 0.99, dt, None, f"fidelity {f2:.5f}"
    )
    ghz = CriterionResult(
        "7b",
        "3-photon target fidelity at nc=0.01",
        f3 > 0.99,
        dt,
        None,
        f"fidelity {f3:.5f} at nc=0.01 (limit holds: {f3_small:.5f} at nc=0.003)",
        expected_fail=True,
    )
    return [bell, ghz]


def crit8_large_j_bound() -> CriterionResult:
    """Exact truncated diagonalization vs the closed form, footnote bound."""

    def body():
        worst = 0.0
        for j in (50, 100, 200):
            for db in np.linspace(0.1, 2.0, 12):
                jx2 = min_jx2_at_defect(j, float(db))
                approx = 1 + 2 * db - 2 * math.sqrt(db * (1 + db))
                err = abs(2 * jx2 / j - approx)
                bound = 5 * math.sqrt(db) / (2 * j)
                worst = max(worst, err / bound)
        return worst <= 1.0, f"worst err/bound {worst:.3f} (<= 1)"

    (ok, detail), dt = _timed(body)
    return CriterionResult("8", "large-J approximation bound", ok, dt, None, detail)


def crit9_squeezing_identification() -> CriterionResult:
    """4.5 dB identification and the squeezing-boundary grid flags."""

    def body():
        db = squeezing_db(StateParams(1.0, 0.3, 0.0))
        db_ok = abs(db - 4.55) <= 0.1
        grid_ok = True
        for ns, nth, frac, grey in contour_data(resolution=21):
            threshold = nth**2 / (2 * nth + 1)
            grid_ok = grid_ok and (grey == (ns <= threshold))
        return db_ok and grid_ok, f"db {db:.3f}; grey region matches boundary: {grid_ok}"

    (ok, detail), dt = _timed(body)
    return CriterionResult("9", "squeezing identification", ok, dt, None, detail)


def crit10_detection_statistics(shots: int = 8333, seed: int = 20240901) -> CriterionResult:
    """Single-shot error scaling, flat shot budget, reproducibility."""

    def body():
        ns = 0.3
        sizes = (16, 32, 64, 100)
        log_err1, shots_needed = [], []
        for n in sizes:
            p = StateParams(float(n), ns, 0.0)
            arr = DetectorArray(m=2**20, rng_seed=seed + n)
            res = run_pair_tomography(p, arr, shots_per_setting=shots, fixed_n=n)
            log_err1.append(math.log(res.single_shot_err))
            shots_needed.append(res.shots_to_1sigma)
        slope = np.polyfit(np.log(sizes), log_err1, 1)[0]
        flat = max(shots_needed) / min(shots_needed)
        # reproducibility: same seed, same stream
        p = StateParams(16.0, ns, 0.0)
        arr = DetectorArray(m=2**16, rng_seed=seed)
        from .detect import simulate_shots

        a = list(simulate_shots(p, arr, 200))
        b = list(simulate_shots(p, arr, 200))
        repro = a == b
        ok = (-1.2 <= slope <= -0.8) and flat < 3.0 and repro
        return ok, (
            f"slope {slope:.3f} (target -1.0 +- 0.2); shots-to-1sigma spread "
            f"x{flat:.2f} (<3), values {[round(s) for s in shots_needed]}; reproducible {repro}"
        )

    (ok, detail), dt = _timed(body)
    return CriterionResult("10", "detection statistics", ok, dt, 600.0, detail)


def crit11_property_suites() -> CriterionResult:
    """Structural invariants of constructed matrices across the grids."""

    def body():
        msgs = []
        ok = True
        # hermiticity, PSD, parity zeros, permutation symmetry
        for nc in (0.1, 1.0, 10.0):
            for ns in (0.0, 0.1, 0.3, 1.0):
                for nth in (0.0, 0.1):
                    p = StateParams(nc, ns, nth)
                    for n in (2, 3, 4):
                        rho = build_odm(p, n).dense()
                        ok = ok and np.allclose(rho, rho.T, atol=1e-12)
                        ok = ok and float(np.linalg.eigvalsh(rho).min()) >= -1e-10
                        pops = np.array([i.bit_count() for i in range(1 << n)])
                        parity = (pops[:, None] - pops[None, :]) % 2 == 1
                        ok = ok and np.all(rho[parity] == 0.0)
                        perm = _swap_qubits(n, 0, n - 1)
                        ok = ok and np.allclose(rho, rho[np.ix_(perm, perm)], atol=1e-12)
        msgs.append(f"structure grid ok={ok}")
        # phase-averaged two-body states are pair separable
        dec_ok = True
        for n in (3, 4, 5, 6):
            for nc in (0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0):
                p = StateParams(nc, 0.3, 0.0)
                rho = phase_average(build_odm(p, n)).dense()
                tb = _ptrace_to_pair(rho, n)
                dec_ok = dec_ok and concurrence(tb) == 0.0
        msgs.append(f"decohered concurrence zero: {dec_ok}")
        # squeezing implies pairwise entanglement at nth = 0
        wine_ok = True
        for ns in (0.01, 0.03, 0.1, 0.3, 1.0, 1.7):
            for n in (2, 17, 50, 100):
                rep = entanglement_report(reduced_two_body(StateParams(100.0, ns, 0.0), n), n)
                wine_ok = wine_ok and rep.concurrence > 0.0 and rep.ratio <= 1.0 + 1e-12
        msgs.append(f"squeezed implies entangled & monogamy: {wine_ok}")
        return ok and dec_ok and wine_ok, "; ".join(msgs)

    (ok, detail), dt = _timed(body)
    return CriterionResult("11", "property suites", ok, dt, None, detail)


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


def run_all(skip_slow: bool = False, shots: int = 8333, seed: int = 20240901):
    results: list[CriterionResult] = []
    results.append(crit1_reduced_n100())
    results.extend(crit2_averaged())
    if not skip_slow:
        results.append(crit3_delta_scaling())
    results.append(crit4_monogamy_ratio())
    results.append(crit5_oracle_equivalence())
    results.append(crit6_loss_invariance())
    results.extend(crit7_limits())
    results.append(crit8_large_j_bound())
    results.append(crit9_squeezing_identification())
    if not skip_slow:
        results.append(crit10_detection_statistics(shots=shots, seed=seed))
    results.append(crit11_property_suites())
    return results


def print_table(results) -> bool:
    ok = True
    width = max(len(r.name) for r in results) + 2
    for r in results:
        if r.passed and r.within_limit:
            status = "PASS"
        elif r.expected_fail:
            status = "FAIL (known reference defect)"
        else:
            status = "FAIL"
        limit = f" [{r.runtime_s:.1f}s/{r.limit_s:.0f}s]" if r.limit_s else f" [{r.runtime_s:.1f}s]"
        print(f"criterion {r.cid:>3}  {r.name:<{width}} {status}{limit}")
        if r.detail:
            print(f"              {r.detail}")
        ok = ok and r.ok
    return ok
