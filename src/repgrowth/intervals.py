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
from math import comb, isqrt, lcm

import mpmath
from mpmath import iv

DEFAULT_START_BITS = 64
DEFAULT_CEILING_BITS = 1024
POWER_GUARD_BITS = 8

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
            verdict = (TRUE if holds else FALSE if fails
                       else UNKNOWN if bits >= ceiling else None)
            if verdict is not None:
                # formatted only for the deciding evaluation, under its
                # own precision
                return Certificate(verdict, bits, _show(a), _show(b))
        finally:
            iv.prec = saved
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
    """Certificate that the value of fn lies in the open interval (lo, hi).

    fn runs once per precision tried: the upper comparison reuses the
    enclosure from the rung that decided the lower one.
    """
    values = {}

    def value():
        if iv.prec not in values:
            values[iv.prec] = fn()
        return values[iv.prec]

    low = certify_cmp(lambda: exact(lo), value, strict=True,
                      start_bits=start_bits, ceiling_bits=ceiling_bits)
    if low.verdict != TRUE:
        return low
    return certify_cmp(value, lambda: exact(hi), strict=True,
                       start_bits=max(low.prec_bits, start_bits),
                       ceiling_bits=ceiling_bits)


# ---------------------------------------------------------------------------
# Building blocks evaluated at the ambient working precision.

def power(base, expo) -> "iv.mpf":
    """base**expo for a positive base given as int/Fraction, rational expo.

    A positive int base with expo = a/b, b in {1, 2, 4}, is mpmath's
    outward-rounded integer power base**a (its reciprocal when a < 0)
    followed by log2(b) square roots, at POWER_GUARD_BITS above the working
    precision so the enclosure is no wider than exp(expo log base).  Every
    other input is that exp and log.
    """
    expo = Fraction(expo)
    roots = {1: 0, 2: 1, 4: 2}.get(expo.denominator)
    if roots is None or not isinstance(base, int) or base <= 0:
        return iv.exp(exact(expo) * iv.log(exact(base)))
    saved = iv.prec
    try:
        iv.prec = saved + POWER_GUARD_BITS
        x = iv.mpf(base) ** expo.numerator
        for _ in range(roots):
            x = iv.sqrt(x)
        return x
    finally:
        iv.prec = saved


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


def _smallest_prime_factors(m: int) -> list[int]:
    """spf[n] for 0 <= n <= m, where spf[n] == n marks a prime (or 0, 1)."""
    spf = list(range(m + 1))
    for p in range(2, isqrt(m) + 1):
        if spf[p] == p:
            for k in range(p * p, m + 1, p):
                if spf[k] == k:
                    spf[k] = p
    return spf


def _euler_maclaurin_tail(s: Fraction, m: int, terms: int):
    """Exact (T, R) with sum_{n>m} n^-s = m^(1-s) (T + theta R) for some
    |theta| <= 1, at real s > 1.

    T = 1/(s-1) - 1/(2m) + sum_{j<=terms} B_2j/(2j)! s(s+1)...(s+2j-2)
    m^-2j, and R is the magnitude of the first omitted (j = terms + 1) term,
    which bounds the remainder for real s > 1.  The corrections are summed
    by Horner's rule over integers on one common denominator and reduced
    once at the end.
    """
    a, b = s.numerator, s.denominator
    bern = [_bernoulli(2 * j) for j in range(1, terms + 1)]
    lcd = lcm(*(c.denominator for c in bern))
    # s(s+1)...(s+2j-2) / ((2j)! m^2j) is num/den, here at j = 1; the
    # corrections before j sum to acc / (lcd den)
    acc, num, den = 0, a, 2 * m * m * b
    for j, c in enumerate(bern, 1):
        acc += c.numerator * (lcd // c.denominator) * num
        step = (2 * j + 1) * (2 * j + 2) * m * m * b * b
        acc *= step
        den *= step
        num *= (a + (2 * j - 1) * b) * (a + 2 * j * b)
    # 1/(s-1) - 1/(2m) = (2mb - a + b) / (2m(a - b))
    head, scale = 2 * m * b - a + b, 2 * m * (a - b)
    total = Fraction(head * lcd * den + scale * acc, scale * lcd * den)
    last = _bernoulli(2 * terms + 2)
    return total, Fraction(abs(last.numerator) * num, last.denominator * den)


def zeta_iv(s: Fraction):
    """Riemann zeta at rational s > 1, enclosed at the working precision.

    Truncated Dirichlet sum with Euler-Maclaurin corrections; the remainder
    is enclosed by the magnitude of the first omitted correction term, which
    bounds the truncation error for real s > 1.  n -> n^-s is completely
    multiplicative, so only primes cost a `power`; the correction series is
    an exact rational scaled by the single power M^(1-s).  At s = a/b with
    b in {1, 2, 4} no power takes an exp or a log.
    """
    s = Fraction(s)
    if s <= 1:
        raise ValueError("zeta enclosure requires s > 1")
    prec = iv.prec
    M = max(16, prec // 8)
    spf = _smallest_prime_factors(M)
    pw = [None, iv.mpf(1)]      # pw[n] encloses n^-s
    total = iv.mpf(1)
    for n in range(2, M + 1):
        p = spf[n]
        pw.append(power(n, -s) if p == n else pw[p] * pw[n // p])
        total += pw[n]
    # Correction order.  At s = 9/4 the enclosure is about 2^-58, 2^-83,
    # 2^-159, 2^-310 and 2^-608 wide at 64, 128, 256, 512 and 1024 bits, so
    # above 64 bits the remainder R, not the working precision, sets it.
    J = prec // 13 + 2
    t, r = _euler_maclaurin_tail(s, M, J)
    bound = exact(r).b
    return total + power(M, 1 - s) * (exact(t) + iv.mpf((-bound, bound)))
