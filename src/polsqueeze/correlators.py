"""Normally ordered moments ``<(a^dag)^m a^n>`` of the squeezed thermal mode.

Each moment is a phase-space average of ``(x+ip)^(n-m) (x^2+p^2)^a`` kernels
against the Gaussian Wigner function of the mode, which evaluates to a finite
signed sum over combinatorial weights times powers of the antisqueeze ratio
``A^2`` and the thermal scale ``T^2``.  The signed sums cancel heavily at
large order (tens to hundreds of decimal digits around order 100), so values
are evaluated in arbitrary-precision arithmetic with an explicit two-precision
consistency check, and memoized per parameter set in a `CorrelationTable`.

All moments are real under the package phase convention (squeezing parameter
real and negative), and ``<a^2>`` comes out positive.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath as mp

from .errors import IndexOutOfRange, OddOrder, OrderTooLarge
from .state import StateParams

__all__ = ["upsilon", "moment_integral", "correlation", "CorrelationTable"]

DEFAULT_MAX_ORDER = 256

# relative agreement required between the two precision levels of each value
_GUARD_TOL = mp.mpf("1e-25")
_GUARD_DPS = 40

_dfact_odd = [1, 1]  # _dfact_odd[k] = (2k-1)!!, with (-1)!! = 1 for k = 0


def _dfact(k: int) -> int:
    while len(_dfact_odd) <= k:
        _dfact_odd.append(_dfact_odd[-1] * (2 * len(_dfact_odd) - 1))
    return _dfact_odd[k]


def upsilon(m: int, n: int, a: int) -> Fraction:
    """Exact rational weight (-2)^(a-m) n! m! / [a! (a+n-m)! (m-a)!].

    Requires 0 <= a <= m <= n; raises IndexOutOfRange otherwise.
    """
    if not (0 <= a <= m <= n):
        raise IndexOutOfRange(f"need 0 <= a <= m <= n, got a={a}, m={m}, n={n}")
    num = math.factorial(n) * math.factorial(m)
    den = math.factorial(a) * math.factorial(a + n - m) * math.factorial(m - a)
    return Fraction(-2) ** (a - m) * Fraction(num, den)


def _scales(ns: float, nth: float):
    """(A^2, T^2) at the current working precision."""
    ns = mp.mpf(ns)
    a2 = 1 + 2 * ns + 2 * mp.sqrt(ns * (ns + 1))
    t2 = 1 + 2 * mp.mpf(nth)
    return a2, t2


def moment_integral(params: StateParams, m: int, n: int, a: int):
    """Wigner average of (x+ip)^(n-m) (x^2+p^2)^a as the closed double sum.

    Requires n >= m with n - m even (raises OddOrder otherwise; callers
    should short-circuit odd differences to zero instead of calling this).
    Returns an ``mpmath`` float.
    """
    if n < m:
        raise IndexOutOfRange(f"need n >= m, got m={m}, n={n}")
    if (n - m) % 2:
        raise OddOrder(f"n - m = {n - m} is odd; the integral vanishes")
    t = (n - m) // 2
    with mp.workdps(_base_dps(m, n)):
        a2, t2 = _scales(params.ns, params.nth)
        total = mp.mpf(0)
        for u in range(t + 1):
            cu = math.comb(2 * t, 2 * u)
            for b in range(a + 1):
                c = cu * math.comb(a, b) * _dfact(t - u + a - b) * _dfact(u + b)
                if (t - u) % 2:
                    c = -c
                total += mp.mpf(c) * a2 ** (2 * u + 2 * b - t - a)
        return mp.ldexp(total * t2 ** (t + a), -2 * (t + a))


def _base_dps(m: int, n: int) -> int:
    return 50 + (35 * (m + n)) // 100


# Integer coefficient rows for the regrouped inner sum, keyed by (t, a).
# Row[s] = (2(t+a-s)-1)!! (2s-1)!! * sum_u (-1)^(t-u) C(2t,2u) C(a,s-u).
# Parameter independent.  Rows for the narrow band t <= 2 (hammered by the
# two-body reduction) are pinned; larger-t rows live in a size-capped cache
# that full-table fills exploit by iterating grouped by t.
_COEFF_CACHE: dict[tuple[int, int], list[int]] = {}
_COEFF_CACHE_BIG: dict[tuple[int, int], list[int]] = {}
_COEFF_CACHE_BIG_CAP = 4096


def _coeff_row(t: int, a: int) -> list[int]:
    key = (t, a)
    cache = _COEFF_CACHE if t <= 2 else _COEFF_CACHE_BIG
    row = cache.get(key)
    if row is not None:
        return row
    row = []
    for s in range(t + a + 1):
        ksum = 0
        for u in range(max(0, s - a), min(t, s) + 1):
            term = math.comb(2 * t, 2 * u) * math.comb(a, s - u)
            ksum += -term if (t - u) % 2 else term
        row.append(ksum * _dfact(t + a - s) * _dfact(s))
    if cache is _COEFF_CACHE_BIG and len(cache) >= _COEFF_CACHE_BIG_CAP:
        cache.clear()
    cache[key] = row
    return row


def _moment_sum(ns: float, nth: float, m: int, n: int):
    """sum_a Upsilon * I at the working precision.

    Algebraically identical to ``sum(upsilon(m,n,a) * moment_integral(...))``
    with the double factorial pulled out of the inner index sum; assumes
    n >= m, n - m even, ns > 0.
    """
    t = (n - m) // 2
    a2, t2 = _scales(ns, nth)
    apow = [a2**k for k in range(-(t + m), t + m + 1)]  # apow[k + t + m] = A^(2k)
    tpow = [t2**j for j in range(t + m + 1)]
    fact_n = math.factorial(n)
    fact_m = math.factorial(m)
    total = mp.mpf(0)
    for a in range(m + 1):
        row = _coeff_row(t, a)
        inner = mp.mpf(0)
        for s in range(t + a + 1):
            c = row[s]
            if c:
                inner += mp.mpf(c) * apow[2 * s - a + m]  # exponent 2s-t-a, offset t+m
        u_int = (fact_n * fact_m) // (
            math.factorial(a) * math.factorial(a + n - m) * math.factorial(m - a)
        )
        part = mp.ldexp(mp.mpf(u_int) * tpow[t + a] * inner, a - m - 2 * (t + a))
        if (m - a) % 2:
            part = -part
        total += part
    return total


class CorrelationTable:
    """Memoized moments for one squeezed-thermal parameter set.

    Values are filled lazily; each fill evaluates the closed-form sum at two
    precision levels and escalates until they agree to 25 significant digits,
    so the cached numbers are self-validated against cancellation.  The table
    is effectively immutable after a value is stored and safe for concurrent
    reads; fills are not thread-safe.
    """

    def __init__(self, params: StateParams, max_order: int = DEFAULT_MAX_ORDER):
        self.params = params
        self.max_order = max_order
        self._values: dict[tuple[int, int], mp.mpf] = {}

    def value(self, m: int, n: int):
        if m < 0 or n < 0:
            raise IndexOutOfRange(f"orders must be non-negative, got ({m}, {n})")
        if m > self.max_order or n > self.max_order:
            raise OrderTooLarge(
                f"order ({m}, {n}) beyond table max_order={self.max_order}"
            )
        if m > n:
            m, n = n, m
        if (n - m) % 2:
            return mp.mpf(0)
        key = (m, n)
        cached = self._values.get(key)
        if cached is None:
            cached = self._fill(m, n)
            self._values[key] = cached
        return cached

    def _fill(self, m: int, n: int):
        ns, nth = self.params.ns, self.params.nth
        if ns == 0.0:
            # thermal state: <(a^dag)^m a^n> = delta_mn * m! * nth^m
            if m != n:
                return mp.mpf(0)
            with mp.workdps(_base_dps(m, n)):
                return mp.mpf(math.factorial(m)) * mp.mpf(nth) ** m
        dps = _base_dps(m, n)
        with mp.workdps(dps):
            v1 = _moment_sum(ns, nth, m, n)
        while True:
            with mp.workdps(dps + _GUARD_DPS):
                v2 = _moment_sum(ns, nth, m, n)
            if v2 != 0 and abs(v1 - v2) <= _GUARD_TOL * abs(v2):
                return v2
            dps = int(dps * 1.6) + _GUARD_DPS
            v1 = v2


# The full test suite looks up 168 distinct tables and uses at most 127 others
# between two uses of one table, so 256 keeps every reuse, while runs over ever
# new (ns, nth) stop growing.
@functools.lru_cache(maxsize=256)
def _table(ns: float, nth: float) -> CorrelationTable:
    return CorrelationTable(StateParams(0.0, ns, nth))


def table_for(params: StateParams) -> CorrelationTable:
    """Shared `CorrelationTable` for (ns, nth), one of the 256 last used; nc plays no role."""
    return _table(float(params.ns), float(params.nth))


def correlation(params: StateParams, m: int, n: int):
    """Memoized <(a^dag)^m a^n> for the V mode of ``params``; an mpmath float.

    Zero whenever n - m is odd, symmetric under swapping m and n; orders
    above `DEFAULT_MAX_ORDER` raise OrderTooLarge.
    """
    return table_for(params).value(m, n)
