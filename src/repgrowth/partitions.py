"""Partition combinatorics, all of it exact, and the primality rule.

The sign-twist involution on p-regular partitions removes all good cells of
one residue i at a time down to the empty diagram, then adds as many good
cells of residue -i mod p, in reverse order.  Its level tables are built
bottom up, each twist seeded by the levels below.  The certified bounds
built from these counts live in :mod:`repgrowth.bounds`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, repeat
from math import factorial

from .dominance import HypothesisError, _bracket_weights

Partition = tuple[int, ...]


def __getattr__(name: str):
    """The bounds layer's own partition_bound, served on access (PEP 562)."""
    # perfbench looks the name up here; this goes with ROADMAP item 1b
    if name == "partition_bound":
        from .bounds import partition_bound
        return partition_bound
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
# The partition function.

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


# ---------------------------------------------------------------------------
# The primality rule and p-regular partitions.

# Miller-Rabin to the first 13 prime bases decides primality exactly below
# PRIME_CEILING = psi_13 (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_CEILING = 3317044064679887385961981


def is_prime(p: int) -> bool:
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


def check_char(p: int) -> None:
    if p != 0 and not is_prime(p):
        raise HypothesisError(f"characteristic {p} is neither 0 nor prime")


def check_regular(lam: Partition, p: int) -> Partition:
    """Return checked lam if p is 0 or prime and no part repeats p times."""
    check_char(p)
    if p and (part := _first_repeat(lam, p)) is not None:
        raise HypothesisError(f"part {part} repeats {p} times (p = {p})")
    return lam


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
    check_char(p)
    # (prefix, cells left, largest next part, copies of it ending prefix);
    # children are pushed smallest part first, so they pop in order
    stack: list[tuple[Partition, int, int, int]] = [((), n, n, 0)]
    while stack:
        prefix, remaining, top, run = stack.pop()
        if not remaining:
            yield prefix
        for v in range(1, min(top, remaining) + 1):
            if (r := run + 1 if v == top else 1) != p:  # r < p, or p = 0
                stack.append((prefix + (v,), remaining - v, v, r))


def conjugate(lam) -> Partition:
    return _conjugate(check_partition(lam))


def _conjugate(lam: Partition) -> Partition:
    """Column lengths in one pass: i counts the rows reaching column j."""
    conj, i = [], len(lam)
    for j in range(1, (lam[0] if lam else 0) + 1):
        while lam[i - 1] < j:
            i -= 1
        conj.append(i)
    return tuple(conj)


def _is_core(lam: Partition, p: int) -> bool:
    """Whether lam is a p-core: no bead of its beta-set lam_i + len - 1 - i
    slides p places down into a gap (no hook length is divisible by p)."""
    top = len(lam) - 1
    beta = {a + top - i for i, a in enumerate(lam)}
    return all(x < p or x - p in beta for x in beta)


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
    """The sign-twist involution on p-regular partitions; the identity at
    p = 2, and conjugation at p = 0 and on p-cores, every partition when
    p > |lam|: a p-core's Specht module is simple and projective (a block
    of defect zero), so D^lam (x) sgn = S^lam' (James, LNM 682, 1978).
    Otherwise it is the crystal automorphism i -> -i (Kleshchev, J. reine
    angew. Math. 459, 1995; Ford and Kleshchev, Math. Z. 226, 1997): any
    path of good-cell removals to the empty partition, replayed with negated
    residues, gives the image.  A step removes all good cells of the residue
    i of the topmost removable cell, which ends the first r < p equal rows:
    the only + above it ends row 0, has residue i + r, and so cannot cancel
    it."""
    return _twist(check_regular(check_partition(lam), p), p)


def _twist(lam: Partition, p: int,
           seed: dict[Partition, Partition] | None = None) -> Partition:
    """mullineux on input that check_regular passed.  seed, a map {mu: M(mu)}:
    the removals stop at the first partition in it, and only the steps
    taken are replayed, from its image.  That is exact: each step is chosen
    from the current partition alone, so the path from mu is the tail of
    the path from lam, and M(mu) is where replaying that tail ends.  A
    p-core seed is exact too, as its conjugate is M(mu) (see mullineux)."""
    if p == 2:
        return lam
    if p == 0 or _is_core(lam, p):
        return _conjugate(lam)
    neg = [-a for a in lam] + [0]
    path = []
    while neg[0]:
        i = (-neg[0] - bisect_right(neg, neg[0])) % p
        minus, _ = _signature(neg, i, p)
        if not minus:
            raise AssertionError(f"{lam} has no good cell")
        for row in minus:
            neg[row] += 1
        path.append((i, len(minus)))
        if seed is not None and (
                start := seed.get(tuple(-a for a in neg if a))) is not None:
            neg = [-a for a in start] + [0]
            break
    for i, count in reversed(path):
        _, plus = _signature(neg, -i % p, p)
        if len(plus) < count:
            raise AssertionError(f"no good cell of residue {-i % p} to add")
        for row in plus[-count:]:
            neg[row] -= 1
        if neg[-1]:
            neg.append(0)
    return tuple(-a for a in neg if a)


def twist_levels(n_hi: int, p: int) -> list[dict[Partition, Partition]]:
    """The twist tables {lam: M(lam)} of the p-regular partitions of each
    size 0..n_hi, built bottom up: each twist is seeded by the levels below
    it, so each entry that is not a p-core takes one removal step and one
    addition step.  Level 0 (the empty partition, its own twist) comes from
    p_regular_partitions too, which decides p and refuses a negative n_hi."""
    levels = [{lam: lam for lam in p_regular_partitions(min(n_hi, 0), p)}]
    seed: dict[Partition, Partition] = {}
    for n in range(1, n_hi + 1):
        level = {lam: _twist(lam, p, seed)
                 for lam in p_regular_partitions(n, p)}
        seed.update(level)
        levels.append(level)
    return levels


def m_p(lam, p: int) -> int:
    """max of the first part and the sign-twist image's first part (0 for
    the empty partition); HypothesisError unless lam is p-regular."""
    lam = check_regular(check_partition(lam), p)
    return max(lam[:1] + _twist(lam, p)[:1], default=0)


def hook_length_dim(lam) -> int:
    """Exact hook-length dimension count."""
    lam = check_partition(lam)
    n = sum(lam)
    conj = _conjugate(lam)
    denom = 1
    for i, row in enumerate(lam, start=1):
        for j in range(1, row + 1):
            denom *= row + conj[j - 1] - i - j + 1
    q, rem = divmod(factorial(n), denom)
    if rem:
        raise AssertionError(f"hook product of {lam} does not divide {n}!")
    return q
