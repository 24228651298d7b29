import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from scipy.integrate import dblquad

from polsqueeze import StateParams, correlation, moment_integral, upsilon
from polsqueeze.correlators import CorrelationTable
from polsqueeze.errors import IndexOutOfRange, OddOrder, OrderTooLarge


def test_upsilon_hand_values():
    assert upsilon(0, 0, 0) == 1
    assert upsilon(1, 1, 0) == Fraction(-1, 2)
    assert upsilon(1, 1, 1) == 1
    assert upsilon(2, 2, 1) == -2


def test_upsilon_range_checks():
    with pytest.raises(IndexOutOfRange):
        upsilon(2, 1, 0)  # m > n
    with pytest.raises(IndexOutOfRange):
        upsilon(1, 1, 2)  # a > m


def test_moment_integral_trivia():
    p = StateParams(1.0, 0.7, 0.4)
    assert float(moment_integral(p, 0, 0, 0)) == 1.0
    vac = StateParams(1.0, 0.0, 0.0)
    assert float(moment_integral(vac, 1, 1, 1)) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(OddOrder):
        moment_integral(p, 0, 1, 0)


def test_moment_integral_against_quadrature():
    # numerical phase-space integral of the Gaussian-weighted kernel
    p = StateParams(1.0, 0.3, 0.0)
    a2 = p.antisqueeze_ratio**2
    t2 = p.thermal_scale

    def wigner(x, q):
        return (2 / (math.pi * t2)) * math.exp(-2 * x**2 / (t2 * a2)) * math.exp(
            -2 * q**2 * a2 / t2
        )

    val, _ = dblquad(
        lambda q, x: wigner(x, q) * ((x + 1j * q) ** 2).real,
        -6, 6, lambda x: -6, lambda x: 6, epsabs=1e-13, epsrel=1e-13,
    )
    closed = float(moment_integral(p, 0, 2, 0))
    assert closed == pytest.approx(val, rel=1e-10)
    # and the closed form equals (t2/4)(a2 - 1/a2)
    assert closed == pytest.approx(t2 / 4 * (a2 - 1 / a2), rel=1e-13)


def test_correlation_low_order_values():
    p = StateParams(1.0, 0.3, 0.0)
    assert float(correlation(p, 1, 1)) == pytest.approx(0.3, rel=1e-13)
    assert float(correlation(p, 0, 2)) == pytest.approx(math.sqrt(0.39), rel=1e-13)
    p2 = StateParams(1.0, 0.3, 0.2)
    nbar = 0.3 + 0.2 + 2 * 0.06
    assert float(correlation(p2, 1, 1)) == pytest.approx(nbar, rel=1e-13)
    assert float(correlation(p2, 0, 2)) == pytest.approx(
        math.sqrt(0.39) * 1.4, rel=1e-13
    )


def test_correlation_matches_direct_upsilon_sum():
    p = StateParams(1.0, 0.3, 0.1)
    for m, n in [(0, 0), (1, 1), (0, 2), (2, 2), (1, 3), (3, 3), (2, 4), (4, 6)]:
        direct = mp.mpf(0)
        for a in range(m + 1):
            u = upsilon(m, n, a)
            direct += mp.mpf(u.numerator) / u.denominator * moment_integral(p, m, n, a)
        assert float(correlation(p, m, n)) == pytest.approx(float(direct), rel=1e-12)


def test_parity_and_symmetry():
    p = StateParams(1.0, 0.4, 0.2)
    assert float(correlation(p, 0, 1)) == 0.0
    assert float(correlation(p, 2, 5)) == 0.0
    for m, n in [(0, 2), (1, 3), (2, 4)]:
        assert float(correlation(p, m, n)) == float(correlation(p, n, m))


def test_diagonal_positive():
    p = StateParams(1.0, 0.2, 0.3)
    for m in range(0, 12):
        assert float(correlation(p, m, m)) > 0.0


def test_thermal_factorial_moments():
    # ns = 0: diagonal moments are m! nth^m, off-diagonals vanish
    p = StateParams(1.0, 0.0, 0.4)
    for m in range(0, 8):
        assert float(correlation(p, m, m)) == pytest.approx(
            math.factorial(m) * 0.4**m, rel=1e-13
        )
    assert float(correlation(p, 0, 2)) == 0.0
    # and it stays exact at very large order
    big = float(correlation(p, 100, 100))
    assert big == pytest.approx(
        math.exp(math.lgamma(101) + 100 * math.log(0.4)), rel=1e-12
    )


def test_vacuum_moments():
    p = StateParams(1.0, 0.0, 0.0)
    assert float(correlation(p, 0, 0)) == 1.0
    assert float(correlation(p, 1, 1)) == 0.0
    assert float(correlation(p, 3, 3)) == 0.0


def _wick_recurrence(ns, nth, m, n):
    """Independent stable recurrence from two-point contractions."""
    nbar = ns + nth + 2 * ns * nth
    pair = math.sqrt(ns * (ns + 1)) * (1 + 2 * nth)
    vals = {(0, 0): 1.0}
    for q in range(2, n + 1, 2):
        vals[(0, q)] = (q - 1) * pair * vals[(0, q - 2)]
    for mm in range(1, m + 1):
        for q in range(mm, n + 1):
            v = q * nbar * vals.get((mm - 1, q - 1), 0.0)
            if mm >= 2:
                v += (mm - 1) * pair * vals.get((mm - 2, q), 0.0)
            vals[(mm, q)] = v
    return vals[(m, n)]


@pytest.mark.parametrize("ns,nth", [(0.3, 0.0), (0.01, 0.0), (1.0, 0.1), (2.0, 0.5)])
def test_high_order_against_wick_recurrence(ns, nth):
    p = StateParams(1.0, ns, nth)
    for m, n in [(40, 40), (40, 42), (99, 101), (100, 100)]:
        ref = _wick_recurrence(ns, nth, m, n)
        got = float(correlation(p, m, n))
        assert got == pytest.approx(ref, rel=1e-11)


def test_order_limit():
    table = CorrelationTable(StateParams(1.0, 0.1, 0.0), max_order=8)
    table.value(8, 8)
    with pytest.raises(OrderTooLarge):
        table.value(9, 9)


def test_table_memoization_is_stable():
    table = CorrelationTable(StateParams(1.0, 0.3, 0.0))
    a = table.value(6, 6)
    b = table.value(6, 6)
    assert a == b


def test_shared_tables_are_bounded_and_recent_ones_reused():
    # a fresh interpreter, so the shared tables of this session stay warm
    code = (
        "import gc, weakref\n"
        "from polsqueeze import StateParams\n"
        "from polsqueeze.correlators import table_for\n"
        "keys = [StateParams(1.0, 0.1 + k / 1000, 0.0) for k in range(300)]\n"
        "refs = [weakref.ref(table_for(p)) for p in keys]\n"
        "gc.collect()\n"
        "print(sum(r() is not None for r in refs), table_for(keys[-1]) is refs[-1]())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    alive, reused = out.stdout.split()
    assert int(alive) <= 256
    assert reused == "True"
