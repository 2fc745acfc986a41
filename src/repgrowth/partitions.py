"""Partition combinatorics and the symmetric/alternating growth arithmetic.

The sign-twist involution on p-regular partitions removes all good cells of
one residue i at a time down to the empty diagram, then adds as many good
cells of residue -i mod p, in reverse order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import partial
from itertools import accumulate, repeat
from math import factorial

from .bounds import (BoundReport, ExactValue, ExternalValue, Root2Power,
                     _check_char, _inputs, _interval_value, _report,
                     exp_envelope, f_interval)
from .dominance import HypothesisError, _bracket_weights
from .intervals import (DEFAULT_REPORT_BITS, Certificate, certify_cmp, exact,
                        exact_compare_cert, power)

Partition = tuple[int, ...]


def check_partition(lam) -> Partition:
    lam = tuple(lam)
    if not all(map(isinstance, lam, repeat(int))):
        raise HypothesisError(f"parts must be integers: {lam!r}")
    if any(a <= 0 for a in lam):
        raise HypothesisError(f"parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise HypothesisError(f"parts must be weakly decreasing: {lam}")
    return lam


# ---------------------------------------------------------------------------
# Partition function, exact and enveloped.

_PCOUNT = [1]


def partition_count(n: int) -> int:
    """Exact p(n) by the pentagonal-number recurrence."""
    if n < 0:
        raise HypothesisError("partition function needs n >= 0")
    while len(_PCOUNT) <= n:
        m = len(_PCOUNT)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * _PCOUNT[m - g1]
            if g2 <= m:
                total += sign * _PCOUNT[m - g2]
            k += 1
        _PCOUNT.append(total)
    return _PCOUNT[n]


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


# ---------------------------------------------------------------------------
# Weighted-composition counting (the k-coefficient and its majorant).

def _k_table(r: int, cap: int) -> list[int]:
    dp = [0] * (cap + 1)
    dp[0] = 1
    for w in _bracket_weights(r):
        for t in range(w, cap + 1):
            dp[t] += dp[t - w]
    return dp


def k_sum_exact(r: int, cap: int) -> int:
    """Tuples x in N^r with sum min(i, r+1-i)*x_i <= cap."""
    if r < 1 or cap < 0:
        raise HypothesisError("need r >= 1 and cap >= 0")
    return sum(_k_table(r, cap))


def k_sum_majorant(cap: int) -> int:
    """Exact rank-independent majorant sum_{s<=cap} sum_a p(a)p(s-a), summed
    as sum_a p(a)P(cap-a): each value of min(i, r+1-i) occurs at most twice."""
    counts = [partition_count(n) for n in range(cap + 1)]
    upto = list(accumulate(counts))
    return sum(counts[a] * upto[cap - a] for a in range(cap + 1))


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


# ---------------------------------------------------------------------------
# p-regular partitions.

def is_p_regular(lam, p: int) -> bool:
    lam = check_partition(lam)
    _check_char(p)
    return p == 0 or _first_repeat(lam, p) is None


def _first_repeat(lam, p: int) -> int | None:
    """The first part repeated p times, or None."""
    run = 0
    prev = None
    for a in lam:
        run = run + 1 if a == prev else 1
        if run >= p:
            return a
        prev = a
    return None


def p_regular_partitions(n: int, p: int):
    """All p-regular partitions of n, descending lexicographic order."""
    if n < 0:
        raise HypothesisError("need n >= 0")
    _check_char(p)
    acc: list[int] = []

    def gen(remaining: int, maxpart: int, last: int, run: int):
        if remaining == 0:
            yield tuple(acc)
            return
        for v in range(min(maxpart, remaining), 0, -1):
            new_run = run + 1 if v == last else 1
            if p and new_run >= p:
                continue
            acc.append(v)
            yield from gen(remaining - v, v, v, new_run)
            acc.pop()

    yield from gen(n, n, 0, 0)


def conjugate(lam) -> Partition:
    return _conjugate(check_partition(lam))


def _conjugate(lam: Partition) -> Partition:
    return tuple(sum(1 for a in lam if a >= j)
                 for j in range(1, (lam[0] if lam else 0) + 1))


# ---------------------------------------------------------------------------
# The sign-twist involution by residue blocks of good cells.

def _signature(neg: list[int], i: int, p: int) -> tuple[list, list]:
    """Rows of the surviving removable (-) and addable (+) cells of residue
    i, bottom up.  neg: the parts negated, so ascending, then zeros.  Cell
    (row, col), 0-based, has residue (col - row) mod p.  A block of equal
    parts has its - in its bottom row and its + in its top row."""
    plus, minus = [], []  # minus: not yet cancelled
    row, below = len(neg) - 1, 0
    while row >= 0:
        top = bisect_left(neg, neg[row], 0, row)
        length = -neg[row]
        if length > below and (length - 1 - row) % p == i:
            minus.append(row)
        if (length - top) % p == i:  # read bottom up, - then + cancel
            if minus:
                minus.pop()
            else:
                plus.append(top)
        row, below = top - 1, length
    return minus, plus


def mullineux(lam, p: int) -> Partition:
    """The sign-twist involution on p-regular partitions; conjugation at
    p = 0 and at p > |lam|, where the group algebra is semisimple, and the
    identity at p = 2.  Otherwise it is the crystal automorphism
    i -> -i (Kleshchev, J. reine angew. Math. 459, 1995; Ford and Kleshchev,
    Math. Z. 226, 1997): any path of good-cell removals to the empty
    partition, replayed with negated residues, gives the image.  A step
    removes all good cells of the residue i of the topmost removable cell,
    which ends the first r < p equal rows: the only + above it ends row 0,
    has residue i + r, and so cannot cancel it."""
    return _twist(check_partition(lam), p)


def _twist(lam: Partition, p: int) -> Partition:
    """mullineux on a partition already checked."""
    _check_char(p)
    if p and (part := _first_repeat(lam, p)) is not None:
        raise HypothesisError(f"part {part} repeats {p} times (p = {p})")
    if p == 0 or p > sum(lam):
        return _conjugate(lam)
    if p == 2:
        return lam
    neg = [-a for a in lam] + [0]
    path = []
    while neg[0]:
        i = (-neg[0] - bisect_right(neg, neg[0])) % p
        minus, _ = _signature(neg, i, p)
        assert minus, f"{lam} has no good cell"
        for row in minus:
            neg[row] += 1
        path.append((i, len(minus)))
    for i, count in reversed(path):
        _, plus = _signature(neg, -i % p, p)
        assert len(plus) >= count, f"no good cell of residue {-i % p} to add"
        for row in plus[-count:]:
            neg[row] -= 1
        if neg[-1]:
            neg.append(0)
    return tuple(-a for a in neg if a)


def m_p(lam, p: int) -> int:
    """max of the first part and the sign-twist image's first part (0 for
    the empty partition); HypothesisError unless lam is p-regular."""
    lam = check_partition(lam)
    return max(lam[:1] + _twist(lam, p)[:1], default=0)


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


def hook_length_dim(lam) -> int:
    """Exact hook-length dimension count."""
    lam = check_partition(lam)
    n = sum(lam)
    conj = conjugate(lam)
    denom = 1
    for i, row in enumerate(lam, start=1):
        for j in range(1, row + 1):
            denom *= row + conj[j - 1] - i - j + 1
    q, rem = divmod(factorial(n), denom)
    assert rem == 0
    return q


# ---------------------------------------------------------------------------
# Symmetric / alternating growth arithmetic.

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
    _check_char(p)
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
                assert r <= r_cap, "window forces the rank cap"
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
