"""Certified comparisons of real expressions via adaptive interval arithmetic.

Expressions are evaluated with mpmath's interval type at increasing working
precision until the comparison separates; an ambiguous enclosure is never
resolved by a midpoint guess.  Verdicts are three-way: certified true,
certified false, or unknown at the precision ceiling.  Raising precision only
shrinks enclosures, so a certified verdict can never flip.

Dyadic powers and zeta sums are computed on integers scaled by 2^k, each
step rounded in the safe direction, and become one interval at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt, lcm

import mpmath
from mpmath import iv
from mpmath.libmp import (from_int, from_man_exp, from_rational, mpf_shift,
                          mpi_str, round_ceiling, round_floor, to_int)

DEFAULT_START_BITS = 64
DEFAULT_CEILING_BITS = 1024
DEFAULT_REPORT_BITS = 256  # precision of the enclosures reports print
POWER_GUARD_BITS = 8

TRUE, FALSE, UNKNOWN = "true", "false", "unknown"


@dataclass(frozen=True)
class Certificate:
    verdict: str      # "true" | "false" | "unknown"
    prec_bits: int    # working precision of the deciding evaluation
    ends: tuple       # the deciding enclosures (exact values at prec_bits
                      # 0); verdicts and == use them, not the printed form

    # printed enclosures, formatted when first read, at the deciding
    # precision
    @cached_property
    def lhs(self) -> str:
        return _show(self.ends[0], self.prec_bits)

    @cached_property
    def rhs(self) -> str:
        return _show(self.ends[1], self.prec_bits)

    @property
    def certified(self) -> bool:
        return self.verdict == TRUE


def exact(q):
    """Enclose an int or Fraction at the current working precision, each
    endpoint rounded once: an int's outward, a Fraction's by one correctly
    rounded division."""
    if isinstance(q, int):
        return iv.make_mpf((from_int(q, iv.prec, round_floor),
                            from_int(q, iv.prec, round_ceiling)))
    q = Fraction(q)
    n, d = q.numerator, q.denominator
    return iv.make_mpf((from_rational(n, d, iv.prec, round_floor),
                        from_rational(n, d, iv.prec, round_ceiling)))


def exact_compare_cert(lhs, rhs, strict: bool = True) -> Certificate:
    """Certificate from an exact rational comparison; prec_bits 0 marks that
    no interval arithmetic was involved."""
    ok = (lhs < rhs) if strict else (lhs <= rhs)
    return Certificate(TRUE if ok else FALSE, 0, (lhs, rhs))


def _show(x, bits: int) -> str:
    """An exact value (bits 0) as str, an interval as mpmath prints one at
    bits of precision: "[a, b]", each end to prec_to_dps(bits) + 5
    digits."""
    return mpi_str(x._mpi_, bits) if bits else str(x)


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
                # the deciding enclosures, formatted when first read, at
                # the deciding precision
                return Certificate(verdict, bits, (a, b))
        finally:
            iv.prec = saved
        bits = min(2 * bits, ceiling)


def certify_less(lhs, rhs, **kw) -> Certificate:
    return certify_cmp(lhs, rhs, strict=True, **kw)


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


def per_precision(fn):
    """fn() as a zero-argument callable that evaluates fn at most once per
    working precision, and never returns an enclosure made at another."""
    values = {}

    def value():
        if iv.prec not in values:
            values[iv.prec] = fn()
        return values[iv.prec]
    return value


def contains(fn, lo: Fraction, hi: Fraction,
             ceiling_bits: int = DEFAULT_CEILING_BITS) -> Certificate:
    """Certificate that the value of fn lies in the open interval (lo, hi).

    The ladder starts at the lowest rung that can certify the band, so true
    and unknown certificates equal the full ladder's; a false one may be
    decided at that rung instead of a lower one.  fn runs once per precision
    tried: the upper comparison reuses the enclosure from the rung that
    decided the lower one.
    """
    value = per_precision(fn)
    bits = DEFAULT_START_BITS  # certify_cmp lowers it to the ceiling
    # A true verdict at b bits needs distinct b-bit floats x < z in [lo, hi]
    # (exact(lo)'s upper end and an end above it).  Floats at magnitude m
    # are more than m 2^-b apart, and |x|, |z| >= M - w for M = max(|lo|,
    # |hi|) and w = hi - lo, so w > (M - w) 2^-b.  A rung with w 2^(b+1)
    # <= M rules that out and is skipped.
    width, top = hi - lo, max(abs(lo), abs(hi))
    while bits < ceiling_bits and 0 < width * 2 ** (bits + 1) <= top:
        bits *= 2
    low = certify_cmp(lambda: exact(lo), value, strict=True,
                      start_bits=bits, ceiling_bits=ceiling_bits)
    if low.verdict != TRUE:
        return low
    return certify_cmp(value, lambda: exact(hi), strict=True,
                       start_bits=low.prec_bits,
                       ceiling_bits=ceiling_bits)


# ---------------------------------------------------------------------------
# Building blocks evaluated at the ambient working precision.

def _fixed_power(base: int, expo: Fraction, k: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^k base^expo <= hi, hi - lo <= 1 and hi == lo
    just when that is an integer, for a positive int base and expo = a/b,
    b in {1, 2, 4}: lo is log2(b) nested isqrt of floor(2^(kb) base^a), as
    the floor of the root of the floor is the floor of the root."""
    a, b = expo.numerator, expo.denominator
    num, den = (base ** a, 1) if a >= 0 else (1, base ** -a)
    num, den = num << max(k * b, 0), den << max(-k * b, 0)
    lo = num // den
    for _ in range(b.bit_length() - 1):
        lo = isqrt(lo)
    return lo, lo + (lo ** b * den != num)


def _interval(lo: int, hi: int, k: int, bits: int) -> "iv.mpf":
    """[lo 2^-k, hi 2^-k] rounded outward to bits of precision."""
    return iv.make_mpf((from_man_exp(lo, -k, bits, round_floor),
                        from_man_exp(hi, -k, bits, round_ceiling)))


def power(base, expo) -> "iv.mpf":
    """base**expo for a positive base given as int/Fraction, rational expo.

    A positive int base with expo = a/b, b in {1, 2, 4}, is `_fixed_power`
    scaled to POWER_GUARD_BITS above the working precision and made an
    interval at that precision, so the enclosure is no wider than
    exp(expo log base) and is a point when the power is.  Every other input
    is that exp and log.
    """
    expo = Fraction(expo)
    a, b = expo.numerator, expo.denominator
    if b not in (1, 2, 4) or not isinstance(base, int) or base <= 0:
        return iv.exp(exact(expo) * iv.log(exact(base)))
    # floor(log2 base^(a/b)) from the bit length of base^|a|
    n = base ** abs(a)
    top = (n.bit_length() - 1) // b if a >= 0 else -(n - 1).bit_length() // b
    bits = iv.prec + POWER_GUARD_BITS
    return _interval(*_fixed_power(base, expo, bits - top), bits - top, bits)


@lru_cache(maxsize=None)
def _bernoulli(count: int) -> tuple[int, tuple[int, ...]]:
    """(D, (D B_2, D B_4, ..., D B_2count)), D the least common denominator
    of B_2 ... B_2count: from the integer tangent numbers T_k, computed in
    place (Brent and Harvey, "Fast computation of Bernoulli, tangent and
    secant numbers", 2011), as B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    t = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    bern = [Fraction((-1) ** (k - 1) * 2 * k * t[k], 4 ** k * (4 ** k - 1))
            for k in range(1, count + 1)]
    lcd = lcm(*(c.denominator for c in bern))
    return lcd, tuple(c.numerator * (lcd // c.denominator) for c in bern)


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
    """Integers (T D, R D, D), D > 0, with sum_{n>m} n^-s = m^(1-s) (T +
    theta R) for some |theta| <= 1, at real s > 1.

    T = 1/(s-1) - 1/(2m) + sum_{j<=terms} B_2j/(2j)! s(s+1)...(s+2j-2)
    m^-2j, and R is the magnitude of the first omitted (j = terms + 1) term,
    which bounds the remainder for real s > 1.  The corrections are summed
    by Horner's rule over integers on the one common denominator D, which
    is never reduced.
    """
    a, b = s.numerator, s.denominator
    lcd, bern = _bernoulli(terms + 1)
    # s(s+1)...(s+2j-2) / ((2j)! m^2j) is lcd num/den, here at j = 1; the
    # corrections before j sum to acc / den
    acc, num, den = 0, a, 2 * m * m * b * lcd
    for j, c in enumerate(bern[:terms], 1):
        acc += c * num
        step = (2 * j + 1) * (2 * j + 2) * m * m * b * b
        acc *= step
        den *= step
        num *= (a + (2 * j - 1) * b) * (a + 2 * j * b)
    # 1/(s-1) - 1/(2m) = (2mb - a + b) / (2m(a - b))
    head, scale = 2 * m * b - a + b, 2 * m * (a - b)
    return (head * den + scale * acc, scale * abs(bern[terms]) * num,
            scale * den)


def _scaled_power(base: int, expo: Fraction, k: int) -> tuple[int, int]:
    """Integers bracketing 2^k base^expo: `_fixed_power` where it applies,
    else the `power` enclosure read outward."""
    if expo.denominator in (1, 2, 4):
        return _fixed_power(base, expo, k)
    a, b = power(base, expo)._mpi_
    return (to_int(mpf_shift(a, k), round_floor),
            to_int(mpf_shift(b, k), round_ceiling))


def _dirichlet_terms(s: Fraction, m: int, k: int):
    """Lists lo, hi with lo[n] <= 2^k n^-s <= hi[n] for 1 <= n <= m: a power
    per prime, and composites as products, n^-s being multiplicative."""
    spf = _smallest_prime_factors(m)
    expo = -s
    lo, hi = [0, 1 << k], [0, 1 << k]
    for n in range(2, m + 1):
        p = spf[n]
        if p == n:
            low, high = _scaled_power(n, expo, k)
        else:
            low = lo[p] * lo[n // p] >> k
            high = -(-hi[p] * hi[n // p] >> k)
        lo.append(low)
        hi.append(high)
    return lo, hi


def zeta_cut_and_order(prec: int) -> tuple[int, int]:
    """(M, J) for `zeta_iv` at prec bits: the Dirichlet sum runs to n = M
    and the tail takes J Euler-Maclaurin corrections.

    Up to 64 bits this is M = 16 and J = prec/13 + 2, where every check of
    the zeta displays is decided.  Above, M = prec/5 and J = prec/7 keep
    the remainder below the working precision: at s = 2, 9/4, 5/2, 3 and
    7/2 the enclosure is 2^-(prec-1) wide at 128, 256, 512 and 1024 bits,
    and at most 2^-(prec-8) wide at every prec from 65 to 1099, so a
    readout whose band names a rung is decided there.
    """
    if prec <= 64:
        return 16, prec // 13 + 2
    return prec // 5, prec // 7


def zeta_iv(s: Fraction):
    """Riemann zeta at rational s > 1, enclosed at the working precision.

    Truncated Dirichlet sum with Euler-Maclaurin corrections, cut and order
    from `zeta_cut_and_order`; the remainder is enclosed by the magnitude of
    the first omitted correction term, which bounds the truncation error
    for real s > 1.  Each term and the tail M^(1-s) (T +- R), T and R
    exact on one integer denominator, is bracketed by integers at scale
    2^K, and the sum becomes one interval.
    """
    s = Fraction(s)
    if s <= 1:
        raise ValueError("zeta enclosure requires s > 1")
    prec = iv.prec
    M, J = zeta_cut_and_order(prec)
    K = prec + POWER_GUARD_BITS + M.bit_length()
    lo, hi = _dirichlet_terms(s, M, K)
    td, rd, d = _euler_maclaurin_tail(s, M, J)
    # M^(1-s) > 0 times T -/+ R, whose sign is not assumed
    m_lo, m_hi = _scaled_power(M, 1 - s, K)
    t_lo, t_hi = (td - rd << K) // d, -(-(td + rd << K) // d)
    tail_lo = min(m_lo * t_lo, m_hi * t_lo) >> K
    tail_hi = -(-max(m_lo * t_hi, m_hi * t_hi) >> K)
    return _interval(sum(lo) + tail_lo, sum(hi) + tail_hi, K, prec)
