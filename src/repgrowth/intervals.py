"""Certified comparisons of real expressions via adaptive interval arithmetic.

Expressions are evaluated with mpmath's interval type at increasing working
precision until the comparison separates; an ambiguous enclosure is never
resolved by a midpoint guess.  Verdicts are three-way: certified true,
certified false, or unknown at the precision ceiling.  Raising precision only
shrinks enclosures, so a certified verdict can never flip.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import mpmath
from mpmath import iv

DEFAULT_START_BITS = 64
DEFAULT_CEILING_BITS = 1024

TRUE, FALSE, UNKNOWN = "true", "false", "unknown"


@dataclass(frozen=True)
class Certificate:
    verdict: str      # "true" | "false" | "unknown"
    prec_bits: int    # working precision of the deciding evaluation
    lhs: str          # printed enclosure (display only; verdicts use the
    rhs: str          # enclosure itself, never the printed form)

    @property
    def certified(self) -> bool:
        return self.verdict == TRUE


def exact(q):
    """Enclose an int or Fraction at the current working precision."""
    if isinstance(q, int):
        return iv.mpf(q)
    q = Fraction(q)
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def exact_compare_cert(lhs, rhs, strict: bool = True) -> Certificate:
    """Certificate from an exact rational comparison; prec_bits 0 marks that
    no interval arithmetic was involved."""
    ok = (lhs < rhs) if strict else (lhs <= rhs)
    return Certificate(verdict=TRUE if ok else FALSE, prec_bits=0,
                       lhs=str(lhs), rhs=str(rhs))


def _show(x) -> str:
    try:
        return mpmath.nstr(x, 12)
    except Exception:
        return str(x)


def certify_cmp(lhs, rhs, strict: bool = True,
                start_bits: int = DEFAULT_START_BITS,
                ceiling_bits: int = DEFAULT_CEILING_BITS) -> Certificate:
    """Certificate for lhs < rhs (or <= when strict=False).

    lhs and rhs are zero-argument callables evaluated under the working
    interval precision; they must produce mpmath intervals.  Precision
    starts at start_bits, or at the ceiling when that is lower, and doubles
    up to ceiling_bits.
    """
    ceiling = max(8, int(ceiling_bits))
    bits = min(max(8, int(start_bits)), ceiling)
    while True:
        saved = iv.prec
        try:
            iv.prec = bits
            a, b = lhs(), rhs()
            if strict:
                holds, fails = (a < b) is True, (a >= b) is True
            else:
                holds, fails = (a <= b) is True, (a > b) is True
            shown = (_show(a), _show(b))
        finally:
            iv.prec = saved
        if holds:
            return Certificate(TRUE, bits, *shown)
        if fails:
            return Certificate(FALSE, bits, *shown)
        if bits >= ceiling:
            return Certificate(UNKNOWN, bits, *shown)
        bits = min(2 * bits, ceiling)


def certify_less(lhs, rhs, **kw) -> Certificate:
    return certify_cmp(lhs, rhs, strict=True, **kw)


def certify_leq(lhs, rhs, **kw) -> Certificate:
    return certify_cmp(lhs, rhs, strict=False, **kw)


def enclosure(fn, bits: int) -> tuple[str, str]:
    """Evaluate fn at the given precision; return decimal endpoint strings."""
    saved = iv.prec
    try:
        iv.prec = bits
        x = fn()
        with mpmath.workprec(bits + 8):
            return (mpmath.nstr(mpmath.mpf(x.a), 24),
                    mpmath.nstr(mpmath.mpf(x.b), 24))
    finally:
        iv.prec = saved


def contains(fn, lo: Fraction, hi: Fraction,
             start_bits: int = DEFAULT_START_BITS,
             ceiling_bits: int = DEFAULT_CEILING_BITS) -> Certificate:
    """Certificate that the value of fn lies in the open interval (lo, hi)."""
    low = certify_cmp(lambda: exact(lo), fn, strict=True,
                      start_bits=start_bits, ceiling_bits=ceiling_bits)
    if low.verdict != TRUE:
        return low
    return certify_cmp(fn, lambda: exact(hi), strict=True,
                       start_bits=max(low.prec_bits, start_bits),
                       ceiling_bits=ceiling_bits)


# ---------------------------------------------------------------------------
# Building blocks evaluated at the ambient working precision.

def power(base, expo) -> "iv.mpf":
    """base**expo for positive base given as int/Fraction, rational expo."""
    b = exact(base)
    e = exact(expo)
    return iv.exp(e * iv.log(b))


@lru_cache(maxsize=None)
def _bernoulli(n: int) -> Fraction:
    # B_0 = 1, B_1 = -1/2, odd indices beyond vanish; defining recurrence
    # sum_{k=0..m} C(m+1,k) B_k = 0.
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    acc = Fraction(0)
    for k in range(n):
        acc += comb(n + 1, k) * _bernoulli(k)
    return -acc / (n + 1)


def zeta_iv(s: Fraction):
    """Riemann zeta at rational s > 1, enclosed at the working precision.

    Truncated Dirichlet sum with Euler-Maclaurin corrections; the remainder
    is enclosed by the magnitude of the first omitted correction term, which
    bounds the truncation error for real s > 1.
    """
    s = Fraction(s)
    if s <= 1:
        raise ValueError("zeta enclosure requires s > 1")
    prec = iv.prec
    sv = exact(s)
    M = max(16, prec // 8)
    total = iv.mpf(0)
    for n_ in range(1, M + 1):
        total += power(n_, -s)
    logM = iv.log(iv.mpf(M))
    total += iv.exp((1 - sv) * logM) / (sv - 1)
    total -= iv.exp(-sv * logM) / 2
    # Correction order: each term shrinks by roughly (2*pi*M)^-2, i.e. at
    # least 13 bits per step at the minimum M.
    J = prec // 13 + 2
    rise = sv                   # s*(s+1)*...*(s+2j-2), odd factor count
    for j in range(1, J + 2):
        coef = exact(_bernoulli(2 * j)) / exact(factorial(2 * j))
        term = coef * rise * iv.exp((1 - sv - 2 * j) * logM)
        if j <= J:
            total += term
        else:
            bound = max(abs(term.a), abs(term.b))
            total += iv.mpf(bound) * iv.mpf((-1, 1))
        rise = rise * (sv + (2 * j - 1)) * (sv + 2 * j)
    return total
