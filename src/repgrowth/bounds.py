"""Dimension lower bounds and certified count upper bounds.

Counting arguments come in three flavors here: exact integers (products,
binomials, saturated-set sums), certified interval enclosures (anything built
from exp/log/zeta), and external facts (table lookups quoted by the source
material).  Reports keep the three strictly apart: a BoundReport's value is
tagged ExactValue, IntervalValue, or ExternalValue and downstream consumers
must not coerce one into another.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb, factorial, log10, prod

from mpmath import iv

from . import intervals
from .dominance import HypothesisError, check_dominant, saturated_weight_total
from .intervals import (Certificate, DEFAULT_CEILING_BITS, certify_cmp,
                        certify_less, exact, power, zeta_iv)
from .rootdata import RootDatum, _check_family_rank, is_restricted


# ---------------------------------------------------------------------------
# Report plumbing.

@dataclass(frozen=True)
class ExactValue:
    value: int

    kind = "exact"

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class IntervalValue:
    lo: str
    hi: str
    prec_bits: int

    kind = "interval"

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]@{self.prec_bits}b"


@dataclass(frozen=True)
class ExternalValue:
    note: str

    kind = "external"

    def __str__(self) -> str:
        return f"external: {self.note}"


@dataclass(frozen=True)
class Root2Power:
    """Exact power 2**(halves/2); compared by squaring, never by floats."""

    halves: int

    kind = "exact"

    def squared(self) -> int | Fraction:
        if self.halves >= 0:
            return 2 ** self.halves
        return Fraction(1, 2 ** (-self.halves))

    def le_int(self, n: int) -> bool:
        if n < 0:
            return False
        return self.squared() <= n * n

    def __str__(self) -> str:
        if self.halves % 2 == 0:
            return str(2 ** (self.halves // 2)) if self.halves >= 0 \
                else f"1/{2 ** (-self.halves // 2)}"
        return f"2^({self.halves}/2)"


@dataclass(frozen=True)
class BoundReport:
    name: str
    inputs: tuple[tuple[str, str], ...]
    value: ExactValue | IntervalValue | ExternalValue | Root2Power
    valid: bool
    guard_detail: str
    certificates: tuple[Certificate, ...] = ()


def _inputs(**kw) -> tuple[tuple[str, str], ...]:
    return tuple((k, str(v)) for k, v in kw.items())


def _report(inputs, name: str, value, guard: str, *certs) -> BoundReport:
    """A report valid exactly when every certificate it carries holds."""
    return BoundReport(name=name, inputs=inputs, value=value,
                       valid=all(c.certified for c in certs),
                       guard_detail=guard, certificates=certs)


def _interval_value(fn, bits: int) -> IntervalValue:
    lo, hi = intervals.enclosure(fn, bits)
    return IntervalValue(lo=lo, hi=hi, prec_bits=bits)


# ---------------------------------------------------------------------------
# Exact dimension lower bounds.

def n_lambda(datum: RootDatum, w) -> int:
    """Doubled-coefficient product lower bound for the module dimension."""
    if datum.family != "A":
        raise HypothesisError("product bound is stated for type A only")
    w = check_dominant(datum, w)
    return 1 + (datum.rank + 1) * (prod(1 + a // 2 for a in w) - 1)


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# PRIME_CEILING = psi_13 (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_CEILING = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic primality for p < PRIME_CEILING; ValueError above."""
    if p >= PRIME_CEILING:
        raise ValueError(f"primality is decided only below {PRIME_CEILING}")
    if p < 2 or any(p % q == 0 for q in _MR_BASES):
        return p in _MR_BASES
    r = ((p - 1) & (1 - p)).bit_length() - 1   # p - 1 = d 2^r, d odd
    for q in _MR_BASES:
        x = pow(q, (p - 1) >> r, p)
        if x != 1 and all(pow(x, 1 << i, p) != p - 1 for i in range(r)):
            return False
    return True


def _check_char(p: int) -> None:
    if p != 0 and not _is_prime(p):
        raise HypothesisError(f"characteristic {p} is neither 0 nor prime")


def premet_lower(datum: RootDatum, w, p: int, cap: int = 10 ** 7) -> int:
    """Saturated-set weight count: a dimension lower bound for restricted
    highest weights away from the excluded small characteristics."""
    w = datum.check_weight(w)
    _check_char(p)
    if datum.family in ("B", "C", "F", "G") and p == 2:
        raise HypothesisError(
            "characteristic 2 excluded for two root lengths")
    if datum.family == "G" and p == 3:
        raise HypothesisError("characteristic 3 excluded for G2")
    if not is_restricted(w, p):
        raise HypothesisError(f"weight {w} is not {p}-restricted")
    return saturated_weight_total(datum, w, cap)


def bound2_iv(r: int, n: int):
    """Interval value of 2^r * d * (1+log d)^(r-1), d = 1+(n-1)/(r+1)."""
    d = Fraction(1) + Fraction(n - 1, r + 1)
    dv = exact(d)
    return exact(2 ** r) * dv * (1 + iv.log(dv)) ** (r - 1)


# ---------------------------------------------------------------------------
# The rank-vs-log-ratio inequality and the exponential envelopes.

def ratio_iv(r: int, n: int):
    """(r+1) * loglog n / log n as an interval (needs log log n > 0)."""
    ln = iv.log(iv.mpf(n))
    return iv.mpf(r + 1) * iv.log(ln) / ln


def ratio_holds(r: int, n: int,
                ceiling_bits: int = DEFAULT_CEILING_BITS) -> Certificate:
    """Certificate for 5*(r+1)*loglog n < 9*log n (the exact form of the
    1.8-ratio inequality), on its stated domain n >= max(6, (r+1)!)."""
    if r < 1:
        raise HypothesisError("rank must be >= 1")
    if n < max(6, factorial(r + 1)):
        raise HypothesisError(
            f"ratio inequality needs n >= max(6, (r+1)!) = "
            f"{max(6, factorial(r + 1))}")
    return certify_less(
        lambda: iv.mpf(5 * (r + 1)) * iv.log(iv.log(iv.mpf(n))),
        lambda: iv.mpf(9) * iv.log(iv.mpf(n)),
        ceiling_bits=ceiling_bits)


F_NAMES = ("f1", "f2", "f3", "f4", "f5")


def exp_envelope(lead, inner):
    """lead * exp(2*pi*sqrt(inner)) for rational lead and inner, evaluated
    as lead * exp(pi*sqrt(4*inner)): scaling by 4 is exact."""
    return exact(lead) * iv.exp(iv.pi * iv.sqrt(exact(4 * inner)))


def f_interval(name: str, arg: int):
    """Exponential count envelopes, evaluated at the working precision.

    f1..f3 take the rank r, f4 the window parameter m, f5 the dimension
    cap n; E(L, I) stands for L * exp(2*pi*sqrt(I)).

        f1(r) = E((r+1)^4/8, r^2/6 + r/3 - 1/2)
        f2(r) = E(L^2/2, I), with L = (r^2+11)/6 + r and
                I = (r^2-1)/18 + r/3 for odd r, L = r^2/6 + 2r and
                I = r^2/18 + (2r-2)/3 for even r
        f3(r) = E(8r^2, (4r-2)/3)
        f4(m) = E(2(m+1)^2, 2m/3)
        f5(n) = 4 g exp(2*pi*sqrt(g/3)), with g = log2 n
    """
    if name == "f1":
        r = arg
        if r < 1:
            raise HypothesisError("f1 needs rank >= 1")
        return exp_envelope(Fraction((r + 1) ** 4, 8),
                            Fraction(r * r, 6) + Fraction(r, 3)
                            - Fraction(1, 2))
    if name == "f2":
        r = arg
        if r < 1:
            raise HypothesisError("f2 needs rank >= 1")
        if r % 2:
            lead = Fraction((r * r + 11), 6) + r
            inner = Fraction(r * r - 1, 18) + Fraction(r, 3)
        else:
            lead = Fraction(r * r, 6) + 2 * r
            inner = Fraction(r * r, 18) + Fraction(2 * r - 2, 3)
        return exp_envelope(lead ** 2 / 2, inner)
    if name == "f3":
        r = arg
        if r < 1:
            raise HypothesisError("f3 needs rank >= 1")
        return exp_envelope(8 * r * r, Fraction(4 * r - 2, 3))
    if name == "f4":
        m = arg
        if m < 0:
            raise HypothesisError("f4 needs m >= 0")
        return exp_envelope(2 * (m + 1) ** 2, Fraction(2 * m, 3))
    if name == "f5":
        n = arg
        if n < 2:
            raise HypothesisError("f5 needs n >= 2")
        lg = iv.log(iv.mpf(n)) / iv.log(iv.mpf(2))
        return 4 * lg * iv.exp(2 * iv.pi * iv.sqrt(lg / 3))
    raise HypothesisError(f"unknown envelope {name!r}; choose from {F_NAMES}")


# Range thresholds used by the type-A dispatch and the suite checks.

def d1(r: int) -> int:
    """Middle binomial of r+1: the orbit size of a centre-supported weight."""
    k = (r - 1) // 2
    return comb(r + 1, k + 1)


def d2(r: int) -> int:
    return (r + 2) ** (2 * (r // 6))


def d3(r: int) -> int:
    k = (r - 1) // 2
    if k < 1:
        raise HypothesisError("threshold d3 needs rank >= 3")
    q, rem = divmod(factorial(r + 1), factorial(k - 1) ** 2)
    assert rem == 0
    return q


# ---------------------------------------------------------------------------
# Characteristic 2 exact counting.

def char2_counts(r: int, m: int) -> tuple[int, int]:
    """(tail binomial sum from m, factorial ratio (r+1)!/(m+1)!); the first
    never exceeds the second."""
    if not 0 <= m <= r:
        raise HypothesisError(f"need 0 <= m <= r, got m={m}, r={r}")
    tail = sum(comb(r, j) for j in range(m, r + 1))
    ratio = factorial(r + 1) // factorial(m + 1)
    return tail, ratio


# ---------------------------------------------------------------------------
# The per-family certified count bound and the zeta-sum displays behind it.

# label -> (s, E, n0, double): the display of zeta_tail_check that carries
# the family's exponent s from the degree floor n0 on.  A label of family
# and rank takes precedence over the family alone.
DISPLAYS = {
    "C": (Fraction(2), Fraction(1, 4), 4, False),
    "B": (Fraction(9, 4), "2^-s", 7, True),
    "D": (Fraction(9, 4), "2^-s", 8, True),
    "E6": (Fraction(5, 2), "2^-s", 27, False),
    "E7": (Fraction(9, 4), "2^-s", 56, False),
    "E8": (Fraction(9, 4), "2^-s", 248, False),
    "F4": (Fraction(2), Fraction(1, 4), 25, False),
}


def a_large_iv(r: int, n: int):
    """Interval value of n^(17/5)/r^3, the type-A bound for n >= (r+1)!."""
    return power(n, Fraction(17, 5)) / exact(r ** 3)


def _int_text(value: int, symbol: str) -> str:
    """value in decimal up to 1000 bits; past that, symbol and digit count."""
    if value.bit_length() <= 1000:
        return str(value)
    digits = int((value.bit_length() - 1) * log10(2)) + 1
    digits += value >= 10 ** digits
    return f"{symbol}, {digits} digits"


def rn_upper(family: str, rank: int, n: int, p: int,
             bits: int = 256) -> BoundReport:
    """Certified upper bound for the number of restricted irreducible
    modules of dimension at most n."""
    _check_family_rank(family, rank)
    if n < 1:
        raise HypothesisError("dimension cap must be >= 1")
    if not _is_prime(p):
        raise HypothesisError(f"characteristic {p} must be prime")
    report = partial(_report, _inputs(family=family, rank=rank, n=n, p=p))
    if n == 1:
        return report("trivial-one", ExactValue(1),
                      "n = 1: only the trivial module")
    if p == 2:
        return report("char2-linear", ExactValue(n),
                      "characteristic 2: count bounded by n; small-rank "
                      "low-n cases rest on external tables")
    if family == "A":
        if rank == 5:
            return report(
                "a5-pow",
                _interval_value(lambda: power(n, Fraction(5, 2)), bits),
                "rank-5 strengthening: n^2.5; n <= 2500 rests on external "
                "tables")
        big = 1  # (r+1)!, built only until it passes n
        for i in range(2, rank + 2):
            if (big := big * i) > n:
                break
        if n >= big:
            return report(
                "a-large", _interval_value(lambda: a_large_iv(rank, n), bits),
                f"large range n >= (r+1)! = {_int_text(big, f'{rank + 1}!')}: "
                "n^3.4/r^3; low-rank low-n windows rest on external tables")
        mid = d1(rank)
        return report(
            "a-general",
            _interval_value(lambda: power(n, Fraction(19, 5)), bits),
            f"{'mid' if n >= mid else 'small'} range (d1 = "
            f"{_int_text(mid, f'C({rank + 1}, {(rank + 1) // 2})')}): "
            "n^3.8; rank <= 10 and table windows rest on external facts")
    if family == "G":
        return report("family-pow-2", ExactValue(n * n),
                      "rank-2 argument: n^2; no dimension threshold consumed")
    s, _, n0, _ = DISPLAYS.get(f"{family}{rank}") or DISPLAYS[family]
    value = (ExactValue(n * n) if s == 2
             else _interval_value(lambda: power(n, s), bits))
    return report(f"family-pow-{s}", value,
                  f"display threshold n >= {n0} (external minimal-degree "
                  f"fact) {'met' if n >= n0 else 'not met'}; bound holds "
                  "throughout by the recursion")


def zeta_tail_check(s, extra, n0: int, double: bool = False,
                    ceiling_bits: int = DEFAULT_CEILING_BITS) -> Certificate:
    """Certificate that the zeta-sum coefficient stays below 1 - n0^(-s).

    Simple form:  zeta(s) - 1 + E < 1 - n0^(-s)
    Double form:  zeta(s)*(zeta(s) - 1) + zeta(s)*E < 1 - n0^(-s)
    where E is `extra` (a Fraction) or 2^(-s) when extra == "2^-s".
    The right side increases in n0, so the certificate covers all n >= n0.
    """
    s = Fraction(s)
    if n0 < 2:
        raise HypothesisError("threshold n0 must be >= 2")

    def lhs():
        z = zeta_iv(s)
        e = power(2, -s) if extra == "2^-s" else exact(Fraction(extra))
        if double:
            return z * (z - 1) + z * e
        return z - 1 + e

    def rhs():
        return 1 - power(n0, -s)

    return certify_cmp(lhs, rhs, strict=True, ceiling_bits=ceiling_bits)
