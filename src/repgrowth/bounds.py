"""Dimension lower bounds and certified count upper bounds.

Counting arguments come in three flavors here: exact integers (products,
binomials, saturated-set sums), certified interval enclosures (anything built
from exp/log/zeta), and external facts (table lookups quoted by the source
material).  Every BoundReport is built here, and keeps the three strictly
apart: its value is tagged ExactValue, IntervalValue, or ExternalValue and
downstream consumers must not coerce one into another.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb, factorial, log10, prod

from mpmath import iv

from . import intervals
from .dominance import (DEFAULT_CAP, HypothesisError, check_dominant,
                        saturated_weight_total)
from .intervals import (Certificate, DEFAULT_CEILING_BITS,
                        DEFAULT_REPORT_BITS, certify_cmp, certify_less, exact,
                        exact_compare_cert, power, zeta_iv)
from .partitions import (_twist, check_char, check_partition, is_prime,
                         k_sum_majorant, partition_count)
from .rootdata import RootDatum, _check_family_rank, is_restricted


# ---------------------------------------------------------------------------
# Report plumbing.

@dataclass(frozen=True)
class ExactValue:
    value: int

    kind = "exact"


@dataclass(frozen=True)
class IntervalValue:
    lo: str
    hi: str
    prec_bits: int

    kind = "interval"


@dataclass(frozen=True)
class ExternalValue:
    note: str

    kind = "external"


@dataclass(frozen=True)
class Root2Power:
    """Exact power 2**(halves/2), halves >= 0, compared by squaring only."""

    halves: int

    kind = "exact"

    def le_int(self, n: int) -> bool:
        return n >= 0 and 2 ** self.halves <= n * n

    def __str__(self) -> str:
        if self.halves % 2 == 0:
            return str(2 ** (self.halves // 2))
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


def premet_lower(datum: RootDatum, w, p: int, cap: int = DEFAULT_CAP) -> int:
    """Saturated-set weight count: a dimension lower bound for restricted
    highest weights away from the excluded small characteristics."""
    w = datum.check_weight(w)
    check_char(p)
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
    1.8-ratio inequality), on its stated domain n >= max(6, (r+1)!).

    log n is computed once per precision tried and shared by the two
    sides; it is the enclosure each side would compute on its own, so the
    certificate is the one with two logs."""
    if r < 1:
        raise HypothesisError("rank must be >= 1")
    if n < max(6, factorial(r + 1)):
        raise HypothesisError(
            f"ratio inequality needs n >= max(6, (r+1)!) = "
            f"{max(6, factorial(r + 1))}")
    logs = {}  # log n at each precision tried, shared by the two sides

    def log_n():
        if iv.prec not in logs:
            logs[iv.prec] = iv.log(iv.mpf(n))
        return logs[iv.prec]

    return certify_less(lambda: iv.mpf(5 * (r + 1)) * iv.log(log_n()),
                        lambda: iv.mpf(9) * log_n(),
                        ceiling_bits=ceiling_bits)


def exp_envelope(lead, inner):
    """lead * exp(2*pi*sqrt(inner)) for rational lead and inner, evaluated
    as lead * exp(pi*sqrt(4*inner)): scaling by 4 is exact."""
    return exact(lead) * iv.exp(iv.pi * iv.sqrt(exact(4 * inner)))


def _f2_terms(r: int) -> tuple[Fraction, Fraction]:
    if r % 2:
        lead = Fraction((r * r + 11), 6) + r
        inner = Fraction(r * r - 1, 18) + Fraction(r, 3)
    else:
        lead = Fraction(r * r, 6) + 2 * r
        inner = Fraction(r * r, 18) + Fraction(2 * r - 2, 3)
    return lead ** 2 / 2, inner


# name -> (argument, least value, terms): terms(arg) is the (lead, inner)
# of E(lead, inner); f5 is not of that form and has none.
_ENVELOPES = {
    "f1": ("rank", 1, lambda r: (Fraction((r + 1) ** 4, 8),
                                 Fraction(r * r + 2 * r - 3, 6))),
    "f2": ("rank", 1, _f2_terms),
    "f3": ("rank", 1, lambda r: (8 * r * r, Fraction(4 * r - 2, 3))),
    "f4": ("m", 0, lambda m: (2 * (m + 1) ** 2, Fraction(2 * m, 3))),
    "f5": ("n", 2, None),
}
F_NAMES = tuple(_ENVELOPES)


def envelope_terms(name: str, arg: int):
    """The exact (lead, inner) with f_name(arg) = E(lead, inner), or None
    for f5, which is not of that form; the guards of `f_interval`."""
    if name not in _ENVELOPES:
        raise HypothesisError(
            f"unknown envelope {name!r}; choose from {F_NAMES}")
    what, least, terms = _ENVELOPES[name]
    if arg < least:
        raise HypothesisError(f"{name} needs {what} >= {least}")
    return terms and terms(arg)


def f_interval(name: str, arg: int):
    """Exponential count envelopes, evaluated at the working precision.

    f1..f3 take the rank r, f4 the window parameter m, f5 the dimension
    cap n; E(L, I) stands for L * exp(2*pi*sqrt(I)).

        f1(r) = E((r+1)^4/8, (r^2+2r-3)/6)
        f2(r) = E(L^2/2, I), with L = (r^2+11)/6 + r and
                I = (r^2-1)/18 + r/3 for odd r, L = r^2/6 + 2r and
                I = r^2/18 + (2r-2)/3 for even r
        f3(r) = E(8r^2, (4r-2)/3)
        f4(m) = E(2(m+1)^2, 2m/3)
        f5(n) = 4 g exp(2*pi*sqrt(g/3)), with g = log2 n
    """
    terms = envelope_terms(name, arg)
    if terms is not None:
        return exp_envelope(*terms)
    lg = iv.log(iv.mpf(arg)) / iv.log(iv.mpf(2))
    return 4 * lg * iv.exp(2 * iv.pi * iv.sqrt(lg / 3))


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
    if rem:
        raise AssertionError(f"d3({r}) is not an integer")
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
             bits: int = DEFAULT_REPORT_BITS) -> BoundReport:
    """Certified upper bound for the number of restricted irreducible
    modules of dimension at most n."""
    _check_family_rank(family, rank)
    if n < 1:
        raise HypothesisError("dimension cap must be >= 1")
    if not is_prime(p):
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


# ---------------------------------------------------------------------------
# Partition envelopes and the symmetric/alternating count bound.

def partition_envelope_iv(n: int):
    """Interval value of exp(pi*sqrt(2n/3)) = exp(2*pi*sqrt(n/6))."""
    return exp_envelope(1, Fraction(n, 6))


def partition_bound(n: int, bits: int = DEFAULT_REPORT_BITS) -> BoundReport:
    """p(n) against its exponential envelope, certified."""
    if n < 1:
        raise HypothesisError("envelope comparison needs n >= 1")
    pn = partition_count(n)
    return _report(_inputs(n=n), "partition-envelope",
                   _interval_value(lambda: partition_envelope_iv(n), bits),
                   f"exact p({n}) = {pn} compared against the envelope",
                   certify_cmp(lambda: exact(pn),
                               lambda: partition_envelope_iv(n),
                               strict=True, ceiling_bits=bits))


def k_sum_bound(cap: int, bits: int = DEFAULT_REPORT_BITS) -> BoundReport:
    """The ((N+1)(N+2)/2)*exp(2*pi*sqrt(N/3)) envelope over the cumulative
    coefficient sum, certified through the rank-independent majorant."""
    if cap < 0:
        raise HypothesisError("need cap >= 0")
    maj = k_sum_majorant(cap)

    def rhs():
        return exp_envelope(Fraction((cap + 1) * (cap + 2), 2),
                            Fraction(cap, 3))

    strict = cap > 0
    note = "" if strict else "; boundary cap = 0 compares non-strictly " \
                            "(both sides equal 1)"
    return _report(_inputs(cap=cap), "coefficient-sum-envelope",
                   _interval_value(rhs, bits),
                   f"rank-independent majorant = {maj}{note}",
                   certify_cmp(lambda: exact(maj), rhs, strict=strict,
                               ceiling_bits=bits))


def bound3_value(lam, p: int) -> BoundReport:
    """Dimension lower bound 2^((n - m_p)/2) as an exact half-power of 2."""
    lam = check_partition(lam)
    n = sum(lam)
    if n < 5:
        raise HypothesisError("the half-power bound needs |partition| >= 5")
    m = max(lam[0], _twist(lam, p)[0])
    return _report(_inputs(partition=",".join(map(str, lam)), p=p),
                   "half-power-lower", Root2Power(halves=n - m),
                   f"statistic m = {m}; compare by squaring only")


def b_iv(n: int):
    """Interval value of n^2.5/12.32 (exactly 25*n^2.5/308)."""
    return exact(Fraction(25, 308)) * power(n, Fraction(5, 2))


def b_less_cert(value: int, n: int) -> Certificate:
    """value < 25*n^2.5/308, squared to stay in integers."""
    return exact_compare_cert((308 * value) ** 2, 625 * n ** 5)


def a_combination_cert() -> Certificate:
    """(1 + 2^3.5) < 308/25, squared form of 2^3.5 < 283/25."""
    return exact_compare_cert(625 * 128, 283 ** 2)


# (n_low, r_cap): a dimension n >= n_low forces the rank r <= r_cap.
SYM_WINDOWS = ((677, 60), (172, 39), (53, 21))

# group -> (what lies below degree 11, name and reason of the combination
# b(n) + 2 b(2n) reported above it)
_SMALL_DEGREE = {
    "cover": ("projective degree (external): at most the two "
              "one-dimensional twists", "cover-reduction",
              "n below 2^((r-3)/2): faithful spin representations are "
              "excluded by an external reduction; the larger quotient bound "
              "(alternating combination) is reported"),
    "A": ("degree (external): at most the trivial module and one companion",
          "alt-combination",
          "restriction argument: count at n plus twice the count at 2n for "
          "the symmetric group; the combined coefficient (1+2^3.5)/12.32 is "
          "below 1"),
}


def sym_rn_bound(r: int, n: int, p: int, group: str = "S",
                 bits: int = DEFAULT_REPORT_BITS) -> BoundReport:
    """Certified count bound for irreducible representations of dimension
    at most n, for the symmetric group (S), the alternating group (A), or
    a double cover of either (cover)."""
    if group not in ("S", "A", "cover"):
        raise HypothesisError(f"group must be S, A, or cover, not {group!r}")
    if r < 5:
        raise HypothesisError("the growth statement needs r >= 5")
    if n < 1:
        raise HypothesisError("dimension cap must be >= 1")
    check_char(p)
    inp = _inputs(r=r, n=n, p=p, group=group)
    report = partial(_report, inp)
    if r <= 12:
        return report("small-rank-tables",
                      ExternalValue("5 <= r <= 12 checked against modular "
                                    "character tables"),
                      "external table fact; no certificate produced")
    if n == 1:
        return BoundReport(
            name="below-case-analysis", inputs=inp,
            value=ExternalValue("the case analysis assumes n >= 2"),
            valid=False,
            guard_detail="n = 1 sits below every branch of the argument")

    thr = 2 ** ((r - 3) // 2)
    if group == "cover" and n >= thr:
        val = 4 * partition_count(r)
        return report("cover-class-count", ExactValue(val),
                      f"n >= 2^((r-3)/2) = {thr}: the class count 4*p(r); "
                      "certificate compares squares against n^5",
                      exact_compare_cert(val * val, n ** 5))

    if group == "S":
        if n >= 1503:
            return report("sym-sublinear",
                          _interval_value(lambda: b_iv(n), bits),
                          "n >= 1503: the sublinear envelope stays below "
                          "n^2.5/12.32",
                          certify_cmp(lambda: f_interval("f5", n),
                                      lambda: b_iv(n), strict=True,
                                      ceiling_bits=bits))
        if 2 * n < r * r - 5 * r + 2:
            return report("sym-low-dimension", ExactValue(4),
                          "n < (r^2-5r+2)/2: external low-degree "
                          "classification leaves at most 4 modules",
                          exact_compare_cert(16, n ** 5))
        for n_low, r_cap in SYM_WINDOWS:
            if n >= n_low:
                if r > r_cap:
                    raise AssertionError("window forces the rank cap")
                val = partition_count(r)
                return report(
                    f"sym-window-{n_low}", ExactValue(val),
                    f"window n >= {n_low} forces r <= {r_cap}; p({r_cap}) "
                    f"certified below the envelope at {n_low}, monotone in n",
                    exact_compare_cert(val, partition_count(r_cap),
                                       strict=False),
                    b_less_cert(partition_count(r_cap), n_low))
        raise AssertionError("window dispatch must cover n >= 53")

    # A, or the cover below its threshold
    below, name, reason = _SMALL_DEGREE[group]
    if n < 11:
        return report("below-min-degree", ExactValue(2),
                      f"n < 11 <= r - 2 <= minimal nontrivial {below}",
                      exact_compare_cert(4, n ** 5))
    return report(name,
                  _interval_value(lambda: b_iv(n) + 2 * b_iv(2 * n), bits),
                  reason, a_combination_cert())
