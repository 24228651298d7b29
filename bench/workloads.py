"""Seeded cold inputs for the four workloads, the timed calls, and their gates.

A run executes rounds.  A round is the workload's op list: a fixed design of
anchor points that sets how much work each op does, the same for every seed.
The seed and the round index move every input a little off its anchor
(parameters that do not change the cost are spread over their whole stratum)
and set the order of the round.  So every round hands the library fresh
continuous ``(ns, nth)`` values, which meet an empty moment memo, while the
work in a round barely depends on the seed.

The timed calls are public functions of ``reduced``, ``entanglement``,
``odm``, ``depth`` and ``detect``; everything else here is untimed.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from polsqueeze import depth, detect, entanglement, odm, reduced
from polsqueeze.reduced import reduced_two_body
from polsqueeze.state import StateParams, purify

import reference

ANALYZERS = 2**20  # the CLI default; collisions are rare but possible
SCHEDULE = detect.DEFAULT_SCHEDULE
BOOTSTRAP = 200
OPT_POINTS = 40
OPT_XTOL = 1e-4
AVG_FLOOR = 1e-16  # averaged_two_body's default weight floor
PSD_TOL = 1e-12
JITTER = 0.03  # relative move of a cost-setting parameter off its anchor


class RepeatedInput(RuntimeError):
    """A timed op would reuse an (ns, nth) the process has already seen."""


@dataclass
class Op:
    kind: str
    params: StateParams | None = None
    n: int = 0
    extra: dict = field(default_factory=dict)
    slot: int = 0  # position in the workload's design, the same in every round

    def cold_keys(self) -> set[tuple[float, float]]:
        """(ns, nth) memo keys this op touches first (its prescan grid for 'optimize')."""
        if self.kind == "optimize":
            grid = np.linspace(0.0, self.extra["hi"], OPT_POINTS + 1)[1:]
            return {(float(x), self.extra["nth"]) for x in grid}
        if self.params is None:
            return set()
        keys = {(self.params.ns, self.params.nth)}
        if self.kind == "tomography" and self.params.nth:
            pure = purify(self.params)[0]  # detect builds its tables for this one
            keys.add((pure.ns, pure.nth))
        return keys


class ColdKeys:
    """Every (ns, nth) handed to the library in this process, warm-up included."""

    def __init__(self):
        self._seen: set[tuple[float, float]] = set()

    def claim(self, ops) -> None:
        for op in ops:
            keys = op.cold_keys()
            again = keys & self._seen
            if again:
                raise RepeatedInput(f"{op.kind} op repeats (ns, nth) {sorted(again)[:3]}")
            self._seen |= keys


# ---------------------------------------------------------------------------
# input generation


def _stratum(rng: random.Random, s: int, k: int) -> float:
    """Uniform draw inside stratum s of k equal strata of [0, 1)."""
    return (s + rng.random()) / k


def _logspread(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _near(rng: random.Random, x: float) -> float:
    """x moved by a seeded factor within exp(+-JITTER)."""
    return x * math.exp(JITTER * (2.0 * rng.random() - 1.0))


# reduce: N anchors 8 .. 48; nc and ns strata paired by fixed permutations
_REDUCE_N = tuple(8 + 5 * i for i in range(9))
_REDUCE_NC = (5, 2, 7, 0, 8, 3, 6, 1, 4)
_REDUCE_NS = (3, 7, 1, 5, 8, 0, 6, 2, 4)
# sweep: the median op falls in the middle of the three min_jx2 ops and the
# tail op in the middle of the three averaging ops, each a group of equal cost
_ODM_N = (2, 3, 3, 4, 4, 5, 5, 6, 6)
_ODM_NC = (3, 7, 0, 8, 5, 1, 6, 4, 2)
_ODM_NS = (6, 1, 8, 4, 2, 7, 0, 5, 3)
_MIN_JX2 = ((50.0, 1.0), (100.0, 0.3), (200.0, 0.3))  # (j, defect)
_DEPTH = ((250.0, 0.04, 0.015), (400.0, 0.06, 0.02), (550.0, 0.075, 0.025))  # nc, ns, nth
_OPT_N = (4, 6, 9)
_AVERAGED = ((2.5, 0.2), (4.5, 0.15), (6.5, 0.1))  # (nc, ns): ~40 photon numbers share a table
# shots: nc and ns strata paired; thermal on a third of the ops
_SHOTS_NC = (4, 1, 7, 2, 5, 8, 0, 6, 3)
_SHOTS_NS = (2, 6, 4, 8, 0, 3, 7, 1, 5)
# count-tables: (nc, eta, ns, thermal) anchors in three groups of equal table
# size (n ~ 20, 22, 28: the median op and the tail op each fall inside a
# group); nc * eta sets the size, one thermal op per group
_COUNT = (
    (2.0, 0.95, 0.05, False),
    (3.0, 0.7, 0.06, True),
    (4.0, 0.5, 0.1, False),
    (2.75, 0.95, 0.05, False),
    (4.5, 0.7, 0.03, True),
    (5.5, 0.5, 0.08, False),
    (5.0, 0.95, 0.05, False),
    (7.0, 0.75, 0.05, True),
    (8.0, 0.65, 0.06, False),
)


def _reduce_round(rng: random.Random) -> list[Op]:
    k = len(_REDUCE_N)
    ops = []
    for i, n in enumerate(_REDUCE_N):
        nc = _logspread(1.0, 200.0, _stratum(rng, _REDUCE_NC[i], k))
        ns = _logspread(0.01, 2.0, _stratum(rng, _REDUCE_NS[i], k))
        nth = ns * 10 ** (-2.0 + 1.5 * rng.random()) if i % 3 == 1 else 0.0
        ops.append(Op("reduce", StateParams(nc, ns, nth), n))
    return ops


def _sweep_round(rng: random.Random) -> list[Op]:
    ops = []
    k = len(_ODM_N)
    for i, n in enumerate(_ODM_N):  # fig5: build_odm + every cut's negativity
        nc = _logspread(0.5, 100.0, _stratum(rng, _ODM_NC[i], k))
        ns = _logspread(0.05, 1.0, _stratum(rng, _ODM_NS[i], k))
        ops.append(Op("odm", StateParams(nc, ns, 0.0), n))
    for j, d in _MIN_JX2:  # crit8 points
        ops.append(Op("min_jx2", extra={"j": j, "defect": _near(rng, d)}))
    for nc, ns, nth in _DEPTH:  # fig2: exact depth of a macroscopic squeezed beam
        ops.append(Op("depth_exact", extra=_depth_point(_near(rng, nc), _near(rng, ns),
                                                        _near(rng, nth))))
    for n in _OPT_N:  # crit3: optimal squeezing, ~60 small cold tables each
        extra = {"nc": n * (0.7 + 0.6 * rng.random()), "nth": 0.0, "hi": _near(rng, 2.0)}
        ops.append(Op("optimize", n=n, extra=extra))
    for nc, ns in _AVERAGED:  # crit2/fig4: one table shared across N
        ops.append(Op("averaged", StateParams(_near(rng, nc), _near(rng, ns), 0.0)))
    return ops


def _depth_point(nc: float, ns: float, nth: float) -> dict:
    """Stokes point of a squeezed beam and its closed-form depth, from the model."""
    vm = ns + nth + 2.0 * ns * nth
    a2 = (math.sqrt(ns) + math.sqrt(ns + 1.0)) ** 2
    s0 = 0.5 * (nc + vm)
    v = 0.25 * nc * (1.0 + 2.0 * nth) / a2 / s0
    j_implied = s0 * (1.0 - 2.0 * v) ** 2 / (8.0 * v * vm)
    return {
        "upsilon": v,
        "zeta": 0.5 * (nc - vm) / s0,
        "j_max": 2.0 * j_implied + 5.0,
        "tol": 5.0 * math.sqrt(vm) / (2.0 * j_implied) / 2.0,
        "j_implied": j_implied,
    }


def _shots_round(rng: random.Random) -> list[Op]:
    k = len(_SHOTS_NC)
    ops = []
    for i in range(k):
        nc = _logspread(8.0, 32.0, _stratum(rng, _SHOTS_NC[i], k))
        ns = _logspread(0.1, 1.0, _stratum(rng, _SHOTS_NS[i], k))
        nth = ns * (0.1 + 0.3 * rng.random()) if i % 3 == 1 else 0.0
        extra = {"eta": 1.0, "shots": 1500, "fixed_n": 16, "seed": rng.randrange(1 << 40)}
        ops.append(Op("tomography", StateParams(nc, ns, nth), extra=extra))
    return ops


def _count_round(rng: random.Random) -> list[Op]:
    ops = []
    for nc, eta, ns, thermal in _COUNT:
        ns = _near(rng, ns)
        nth = ns * (0.1 + 0.2 * rng.random()) if thermal else 0.0
        extra = {"eta": _near(rng, eta), "shots": 100, "fixed_n": None,
                 "seed": rng.randrange(1 << 40)}
        ops.append(Op("tomography", StateParams(_near(rng, nc), ns, nth), extra=extra))
    return ops


_ROUNDS = {
    "reduce": _reduce_round,
    "sweep": _sweep_round,
    "shots": _shots_round,
    "count-tables": _count_round,
}


def make_round(workload: str, seed: int, index: int) -> list[Op]:
    """The workload's op list for one round; a pure function of its arguments."""
    rng = random.Random(f"polsqueeze-bench/{workload}/{seed}/{index}")
    ops = _ROUNDS[workload](rng)
    for slot, op in enumerate(ops):
        op.slot = slot
    rng.shuffle(ops)
    return ops


# Warm-up ops: first calls that pay lazy imports, at fixed (ns, nth) that
# timed ops never use (ColdKeys enforces it).
_WARM = StateParams(1.0, 0.5, 0.0)


def warm_up_ops(workload: str) -> list[Op]:
    if workload == "reduce":
        return [Op("reduce", _WARM, 4)]
    if workload == "sweep":
        return [
            Op("odm", _WARM, 3),
            Op("min_jx2", extra={"j": 2.0, "defect": 0.5}),
            Op("depth_exact", extra={"upsilon": 0.5, "zeta": 0.05, "j_max": 4.0,
                                     "tol": 1e-9, "j_implied": 0.5}),
        ]
    extra = {"eta": 0.7, "shots": 40, "fixed_n": 4 if workload == "shots" else None,
             "seed": 1, "bootstrap": 2}
    return [Op("tomography", StateParams(1.0, 0.1, 0.01), extra=extra)]


def crit1_op() -> Op:
    """The flagship reduction of acceptance criterion 1."""
    return Op("reduce", StateParams(100.0, 0.3, 0.0), 100)


# ---------------------------------------------------------------------------
# timed calls


def _call(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    with tracer.span(name):
        return fn(*args, **kwargs)


@contextmanager
def nested_spans(tracer):
    """Span the library's own reduced_two_body calls too (optimizer, averaging).

    Both modules look the function up as a module attribute at call time, so
    a wrapper installed there sees every call; results are unchanged.
    """

    def wrapped(*args, **kwargs):
        with tracer.span("reduced.reduced_two_body"):
            return reduced_two_body(*args, **kwargs)

    mods = (reduced, entanglement)
    for mod in mods:
        mod.reduced_two_body = wrapped
    try:
        yield
    finally:
        for mod in mods:
            mod.reduced_two_body = reduced_two_body


def _array(op: Op, basis: str = "HV", seed: int | None = None) -> detect.DetectorArray:
    return detect.DetectorArray(
        m=ANALYZERS,
        efficiency=op.extra["eta"],
        basis=basis,
        rng_seed=op.extra["seed"] if seed is None else seed,
    )


def setting_seed(op: Op, k: int) -> int:
    """Seed of the k-th setting, derived as run_pair_tomography derives it."""
    return op.extra["seed"] + 7919 * (k + 1)


def execute(op: Op, tracer=None):
    """Run one op; with a tracer, span every public call it makes."""
    t = tracer
    if op.kind == "reduce":
        tb = _call(t, "reduced.reduced_two_body", reduced_two_body, op.params, op.n)
        c = _call(t, "entanglement.concurrence", entanglement.concurrence, tb)
        d = _call(t, "entanglement.delta_criterion", entanglement.delta_criterion, tb)
        return tb, c, d
    if op.kind == "averaged":
        return _call(t, "reduced.averaged_two_body", reduced.averaged_two_body, op.params)
    if op.kind == "optimize":
        x = op.extra
        return _call(
            t, "entanglement.optimize_ns_for_concurrence",
            entanglement.optimize_ns_for_concurrence,
            x["nc"], x["nth"], op.n,
            bracket=(0.0, x["hi"]), xtol=OPT_XTOL, prescan_points=OPT_POINTS,
        )
    if op.kind == "odm":
        o = _call(t, "odm.build_odm", odm.build_odm, op.params, op.n)
        negs = [
            _call(t, "entanglement.bipartition_negativity",
                  entanglement.bipartition_negativity, o, k)
            for k in range(1, op.n // 2 + 1)
        ]
        return o, max(negs)
    if op.kind == "min_jx2":
        x = op.extra
        return _call(t, "depth.min_jx2_at_defect", depth.min_jx2_at_defect, x["j"], x["defect"])
    if op.kind == "depth_exact":
        x = op.extra
        return _call(
            t, "depth.depth_exact_small_j", depth.depth_exact_small_j,
            x["upsilon"], x["zeta"], j_max=x["j_max"], tol=x["tol"],
        )
    if op.kind == "tomography":
        return _tomography(op, t)
    raise ValueError(f"unknown op kind {op.kind!r}")


def _tomography(op: Op, tracer):
    x = op.extra
    boot = x.get("bootstrap", BOOTSTRAP)
    if tracer is None:
        return detect.run_pair_tomography(
            op.params, _array(op), x["shots"], SCHEDULE, bootstrap=boot, fixed_n=x["fixed_n"]
        )
    # run_pair_tomography split into its public parts, with the same seeds
    records = {}
    for k, label in enumerate(SCHEDULE):
        arr = _array(op, label, setting_seed(op, k))
        with tracer.span("detect.simulate_shots"):
            it = detect.simulate_shots(op.params, arr, x["shots"], fixed_n=x["fixed_n"])
            start = perf_counter()
            first = next(it)
            tracer.record("detect.simulate_shots.first_record", start, perf_counter())
            records[label] = [first, *it]
    tracer.records = records  # kept for the per-layer shot counts
    return _call(tracer, "detect.reconstruct_two_body", detect.reconstruct_two_body,
                 records, SCHEDULE, bootstrap=boot, seed=x["seed"])


# ---------------------------------------------------------------------------
# correctness gates (untimed); each returns None or the reason it failed


_X_MASK = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]


def _x_concurrence(m: np.ndarray) -> float:
    """Concurrence of an X-shaped two-qubit matrix in closed form."""
    return 2.0 * float(max(0.0, abs(m[0, 3]) - math.sqrt(m[1, 1] * m[2, 2]),
                     abs(m[1, 2]) - math.sqrt(m[0, 0] * m[3, 3])))


def _ppt_negative(m: np.ndarray) -> bool:
    pt = m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return bool(np.linalg.eigvalsh(pt).min() < 0.0)


def _matrix_gate(m: np.ndarray, n_photons: int | None, c=None, delta=None) -> str | None:
    """Unit trace, Hermitian, X-shaped, PSD; and C, delta against closed forms."""
    m = np.asarray(m)
    if not np.all(np.isfinite(m)):
        return "non-finite entries"
    if abs(np.trace(m) - 1.0) > 1e-12:
        return f"trace {np.trace(m)!r}"
    if np.max(np.abs(m - m.conj().T)) > 1e-15:
        return "not Hermitian"
    if np.any(m[~_X_MASK] != 0.0):
        return "not X-shaped"
    if np.linalg.eigvalsh(m).min() < -PSD_TOL:
        return "not PSD"
    c_ref = _x_concurrence(m)
    # the Wootters route takes square roots of eigenvalues near zero, so its
    # error is about sqrt(machine epsilon)
    if c is not None and abs(c - c_ref) > 1e-7:
        return f"concurrence {c!r} vs X-state closed form {c_ref!r}"
    if n_photons is not None and c_ref > 1.0 / math.sqrt(n_photons - 1) + 1e-12:
        return f"concurrence {c_ref} above 1/sqrt(N-1)"
    if delta is not None:
        d, neg = delta
        d_ref = float(abs(m[0, 3]) - m[1, 2])
        if d != d_ref:
            return f"delta {d!r} vs |rho_14| - rho_23 = {d_ref!r}"
        if abs(d) > 1e-12 and (d > 0.0) != _ppt_negative(m):
            return f"delta {d!r} disagrees with the partial-transpose spectrum"
        if abs(d) > 1e-12 and neg != (d > 0.0):
            return f"PPT flag {neg} disagrees with delta {d!r}"
    return None


def gate(op: Op, result) -> str | None:
    if op.kind == "reduce":
        tb, c, delta = result
        return _matrix_gate(tb.matrix, op.n, c, delta)
    if op.kind == "averaged":
        return _matrix_gate(result.matrix, None)
    if op.kind == "optimize":
        return _optimize_gate(op, result)
    if op.kind == "odm":
        o, neg = result
        rho = o.dense(normalized=True)
        if abs(np.trace(rho) - 1.0) > 1e-12 or np.max(np.abs(rho - rho.T)) > 1e-15:
            return "dense matrix not unit-trace symmetric"
        if np.linalg.eigvalsh(rho).min() < -PSD_TOL:
            return "dense matrix not PSD"
        if not (math.isfinite(neg) and neg >= 0.0):
            return f"negativity {neg!r}"
        return None
    if op.kind == "min_jx2":
        j, d = op.extra["j"], op.extra["defect"]
        closed = 1.0 + 2.0 * d - 2.0 * math.sqrt(d * (1.0 + d))
        err = abs(2.0 * result / j - closed)
        bound = 5.0 * math.sqrt(d) / (2.0 * j)  # crit8's footnote bound
        return None if err <= bound else f"large-J error {err:.3g} over bound {bound:.3g}"
    if op.kind == "depth_exact":
        x = op.extra
        if not (0.5 <= result <= x["j_max"] and float(2 * result).is_integer()):
            return f"j = {result!r} off the half-integer ladder"
        if result > 1.05 * x["j_implied"] + 1.0:
            return f"exact j {result} above closed form {x['j_implied']:.2f}"
        return None
    if op.kind == "tomography":
        if op.extra["fixed_n"] is not None:
            return _shots_gate(op, result)
        return _count_gate(op, result)
    return f"no gate for {op.kind}"


def _optimize_gate(op: Op, ns_star: float) -> str | None:
    """ns* in the bracket, its matrix sound, and no grid point beats it."""
    x = op.extra
    if not 0.0 < ns_star <= x["hi"]:
        return f"ns* {ns_star!r} outside the bracket"

    def conc(ns):
        return entanglement.concurrence(reduced_two_body(StateParams(x["nc"], ns, x["nth"]), op.n))

    tb = reduced_two_body(StateParams(x["nc"], ns_star, x["nth"]), op.n)
    why = _matrix_gate(tb.matrix, op.n)
    if why:
        return why
    c_star = _x_concurrence(tb.matrix)
    grid_best = max(conc(float(g)) for g in np.linspace(0.0, x["hi"], OPT_POINTS + 1)[1:])
    if c_star < grid_best - 1e-6:
        return f"C(ns*) {c_star:.6g} below the best grid point {grid_best:.6g}"
    return None


def _shots_gate(op: Op, res) -> str | None:
    """delta_hat within 5 standard errors of the exact delta at the same N."""
    exact = reduced_two_body(op.params, op.extra["fixed_n"]).matrix
    delta = abs(exact[0, 3]) - exact[1, 2]
    if not (math.isfinite(res.delta_se) and res.delta_se > 0.0):
        return f"delta_se {res.delta_se!r}"
    if abs(res.delta_hat - delta) > 5.0 * res.delta_se:
        return f"delta_hat {res.delta_hat:.5f} vs exact {delta:.5f} (se {res.delta_se:.5f})"
    return None


def _count_gate(op: Op, res) -> str | None:
    """Mean detected N of the HV setting within 5 sigma of eta (nc + vmode_mean)."""
    if not np.all(np.isfinite(res.matrix.matrix)):
        return "non-finite reconstruction"
    # the HV setting's shots again, as run_pair_tomography drew them
    recs = detect.simulate_shots(op.params, _array(op, "HV", setting_seed(op, 0)),
                                 op.extra["shots"])
    n = np.array([r.n_detected for r in recs], dtype=float)
    expect = op.extra["eta"] * (op.params.nc + op.params.vmode_mean)
    sigma = max(n.std(ddof=1), 1e-12) / math.sqrt(n.size)
    if abs(n.mean() - expect) > 5.0 * sigma:
        return f"mean detected N {n.mean():.3f} vs {expect:.3f} (sigma {sigma:.3f})"
    return None


def check_crit1() -> str:
    """'ok', or how the N=100 flagship values miss (same tolerances as crit1)."""
    tb, c, _ = execute(crit1_op())
    m = tb.matrix
    got = (m[0, 0], abs(m[0, 3]), m[1, 1], m[3, 3])
    if any(abs(g - r) > 5e-5 for g, r in zip(got, reference.CRIT1_ENTRIES)):
        return f"entries {tuple(round(float(g), 6) for g in got)}"
    if abs(c - reference.CRIT1_CONCURRENCE) > 1e-5:
        return f"concurrence {c:.6f}"
    return "ok"


# ---------------------------------------------------------------------------
# results as bytes, for replay and decomposition equality


def _bytes(obj) -> bytes:
    if isinstance(obj, np.ndarray):
        return obj.dtype.str.encode() + obj.tobytes()
    if isinstance(obj, (bool, np.bool_)):
        return b"T" if obj else b"F"
    if isinstance(obj, (float, int, np.floating)):
        return struct.pack("<d", float(obj))
    if isinstance(obj, (tuple, list)):
        return b"(" + b",".join(_bytes(o) for o in obj) + b")"
    if isinstance(obj, reduced.TwoBodyOdm):
        return _bytes(obj.matrix)
    if isinstance(obj, odm.Odm):
        return _bytes((obj.n, obj.table, obj.trace))
    if isinstance(obj, detect.TomographyResult):
        return _bytes((obj.matrix, obj.entry_se, obj.delta_hat, obj.delta_se,
                       obj.collision_fraction, obj.excluded_fraction, obj.seed)) + repr(
            sorted(obj.shots_per_setting.items())).encode()
    raise TypeError(f"no byte form for {type(obj).__name__}")


def digest(result) -> str:
    return hashlib.sha256(_bytes(result)).hexdigest()


# ---------------------------------------------------------------------------
# work counts derived from the inputs (traced runs only)


def _triangle(n: int) -> int:
    """Moments E[v, w], v <= w <= n, w - v even: one Odm or count table."""
    return sum((n - v) // 2 + 1 for v in range(n + 1))


def _detected_top(op: Op) -> int:
    """Largest detected N with probability above 1e-12, as simulate_shots finds it."""
    from scipy.stats import binom

    p, eta = op.params, op.extra["eta"]
    if p.nth != 0.0:
        p, eta_state = purify(p)
        eta *= eta_state
    pulse = reduced.pulse_number_pmf(p, reduced.default_n_cutoff(p))
    if eta != 1.0:
        n = np.arange(pulse.size)
        pulse = binom.pmf(n[:, None], n[None, :], eta) @ np.where(pulse < 1e-300, 0.0, pulse)
        pulse /= pulse.sum()
    support = np.nonzero(pulse > 1e-12)[0]
    return int(support.max()) if support.size else 0


def _averaged_support(p: StateParams) -> list[int]:
    weights = reduced.pulse_number_pmf(p, reduced.default_n_cutoff(p))
    return [n for n in range(2, weights.size) if weights[n] >= AVG_FLOOR]


def work_counts(op: Op, evals: int = 0, records: dict | None = None) -> dict[str, int]:
    """Layer work of one op: moments its inputs need, terms, and its shot tallies.

    ``evals`` is the optimizer's objective calls, counted from the trace;
    ``records`` the shot records of a tomography op.
    """
    c = {"moments": 0, "max_order": 0}
    if op.kind == "reduce":
        c.update(moments=2 * op.n, max_order=op.n)
    elif op.kind == "optimize":
        c.update(opt_evals=evals, moments=evals * 2 * op.n, max_order=op.n)
    elif op.kind == "averaged":
        support = _averaged_support(op.params)
        c.update(avg_terms=len(support), moments=2 * max(support), max_order=max(support))
    elif op.kind == "odm":
        c.update(moments=_triangle(op.n), max_order=op.n)
    elif op.kind == "tomography":
        top = op.extra["fixed_n"] or _detected_top(op)
        recs = [r for rs in records.values() for r in rs]
        c.update(
            moments=_triangle(top),
            max_order=top,
            shots=len(recs),
            sim_calls=len(records),
            usable=sum(1 for r in recs if not r.collided and r.n_detected >= 2),
            collided=sum(1 for r in recs if r.collided),
            max_n=max(r.n_detected for r in recs),
            boot=op.extra.get("bootstrap", BOOTSTRAP),
        )
    return c
