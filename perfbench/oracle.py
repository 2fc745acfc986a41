"""Reference answers the benchmark owns.

Nothing here imports repgrowth.  Each routine recomputes what a benchmark
operation should return by a route of its own, so that a check against it
is evidence rather than an echo:

* root data come from root lengths and Dynkin bonds, positive roots from
  closure under the simple reflections;
* the saturated-set size is a walk over dominant weights only (Stembridge,
  "The partial order of dominant weights", Adv. Math. 136, 1998: dominant
  weights below lambda are connected by positive-root steps), with orbit
  sizes found by enumerating one orbit per zero pattern;
* the sign twist on p-regular partitions goes through crystal operators
  (good nodes), not the rim symbols the package uses;
* real values are evaluated with plain mpmath at a precision well above
  the 1024-bit ceiling of the package's certificates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

import mpmath

# ---------------------------------------------------------------------------
# Root data.

# (squared root lengths, 1-based bonds) for the types the workloads use.
def _shape(family: str, rank: int):
    path = [(i, i + 1) for i in range(1, rank)]
    if family == "A":
        return [1] * rank, path
    if family == "B":
        return [2] * (rank - 1) + [1], path
    if family == "C":
        return [1] * (rank - 1) + [2], path
    if family == "D":
        return [1] * rank, path[:-1] + [(rank - 2, rank)]
    if family == "F":
        return [2, 2, 1, 1], path
    if family == "G":
        return [1, 3], path
    raise ValueError(f"no reference shape for {family}{rank}")


@lru_cache(maxsize=None)
def simple_roots(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """alpha_j in fundamental-weight coordinates: <alpha_j, alpha_t^vee>."""
    lengths, bonds = _shape(family, rank)
    pair = [[0] * rank for _ in range(rank)]
    for i, j in bonds:
        a, b = i - 1, j - 1
        # <alpha_a, alpha_b^vee> = 2(a, b)/(b, b); the longer root sees the
        # length ratio, the shorter one sees -1.
        pair[a][b] = -max(1, lengths[a] // lengths[b])
        pair[b][a] = -max(1, lengths[b] // lengths[a])
    for a in range(rank):
        pair[a][a] = 2
    return tuple(tuple(row) for row in pair)


@lru_cache(maxsize=None)
def positive_roots(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Positive roots in weight coordinates, by reflection closure."""
    alphas = simple_roots(family, rank)
    start = [(alphas[j], tuple(int(t == j) for t in range(rank)))
             for j in range(rank)]
    seen = {w: c for w, c in start}
    todo = list(start)
    while todo:
        w, c = todo.pop()
        for i in range(rank):
            k = w[i]
            if k == 0:
                continue
            w2 = tuple(a - k * b for a, b in zip(w, alphas[i]))
            c2 = tuple(x - (k if t == i else 0) for t, x in enumerate(c))
            if w2 not in seen:
                seen[w2] = c2
                todo.append((w2, c2))
    return tuple(sorted(w for w, c in seen.items() if all(x >= 0 for x in c)))


@lru_cache(maxsize=None)
def orbit_size(family: str, rank: int, zeros: tuple[bool, ...]) -> int:
    """Size of the Weyl orbit of a dominant weight with the given zero
    pattern, by enumerating the orbit of a representative."""
    alphas = simple_roots(family, rank)
    rep = tuple(0 if z else 1 for z in zeros)
    seen = {rep}
    todo = [rep]
    while todo:
        w = todo.pop()
        for i in range(rank):
            if w[i]:
                v = tuple(a - w[i] * b for a, b in zip(w, alphas[i]))
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
    return len(seen)


@lru_cache(maxsize=None)
def dominant_below(family: str, rank: int,
                   lam: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Dominant weights dominated by lam, descending-lexicographic."""
    roots = positive_roots(family, rank)
    seen = {lam}
    todo = [lam]
    while todo:
        w = todo.pop()
        for beta in roots:
            v = tuple(a - b for a, b in zip(w, beta))
            if min(v) >= 0 and v not in seen:
                seen.add(v)
                todo.append(v)
    return tuple(sorted(seen, reverse=True))


def saturated_size(family: str, rank: int, lam: tuple[int, ...]) -> int:
    """Number of weights in the saturated set of lam, Weyl images included."""
    return sum(orbit_size(family, rank, tuple(c == 0 for c in mu))
               for mu in dominant_below(family, rank, lam))


def chain_holds(family: str, rank: int, source, target, coeffs) -> bool:
    """source - sum(coeffs[j] * alpha_{j+1}) == target, coeffs >= 0."""
    if len(coeffs) != rank or any(type(k) is not int or k < 0
                                  for k in coeffs):
        return False
    alphas = simple_roots(family, rank)
    drop = [sum(coeffs[j] * alphas[j][t] for j in range(rank))
            for t in range(rank)]
    return tuple(s - d for s, d in zip(source, drop)) == tuple(target)


# ---------------------------------------------------------------------------
# Type-A witness hypotheses, as the paper states them.

def bracket(w) -> int:
    r = len(w)
    return sum(min(i, r + 1 - i) * a for i, a in enumerate(w, start=1))


def engine_applies(engine: str, w, m) -> bool:
    """Whether the quoted hypothesis of a witness engine holds."""
    r = len(w)
    k = (r - 1) // 2
    if min(w) < 0:
        return False
    if engine in ("incr", "middle", "m_good") and not 1 <= m <= k:
        return False
    if engine == "incr":
        return sum(i * w[i - 1] for i in range(1, m + 1)) > m
    if engine == "middle":
        if r % 2:
            return w[k] >= 2 * m + 1
        return w[k] + w[k + 1] >= 2 * m + 3
    if engine == "m_good":
        need = (2 * m * (k + 1) if r % 2 else (2 * m + 2) * (k + 1)) + 2 * k + 1
        return bracket(w) >= need
    if engine == "middle2":
        return bracket(w) >= 2 * k + 1
    if engine == "good":
        return 2 * bracket(w) >= r * r + 2 * r - 2
    if engine == "a5_family":
        return r == 5 and (w[2] >= 25 or bracket(w) >= 77)
    raise ValueError(engine)


def engine_promise(engine: str, w, m, mu) -> bool:
    """The shape an engine promises for its witness mu (chain aside)."""
    r = len(w)
    k = (r - 1) // 2
    if min(mu) < 0:
        return False
    if engine == "incr":
        return (mu[m] == w[m] + 1 and tuple(mu[m + 1:]) == tuple(w[m + 1:])
                and bracket(mu) == bracket(w))
    if engine in ("middle", "m_good"):
        lo, hi = k - m + 1, r - k + m
        return all(mu[i - 1] > 0 for i in range(lo, hi + 1))
    if engine == "middle2":
        return (mu[k] > 0 or mu[r - k - 1] > 0) and bracket(mu) == bracket(w)
    if engine in ("good", "a5_family"):
        return min(mu) > 0
    raise ValueError(engine)


def n_lambda(w) -> int:
    """The doubled-coefficient product bound of type A."""
    prod = 1
    for a in w:
        prod *= 1 + a // 2
    return 1 + (len(w) + 1) * (prod - 1)


# ---------------------------------------------------------------------------
# The sign twist through crystal operators.

def _signature(lam, i: int, p: int):
    """i-addable (+1) and i-removable (-1) rows, bottom row first, with
    adjacent (-1, +1) pairs cancelled."""
    nodes = []
    rows = len(lam)
    for row in range(rows, -1, -1):
        length = lam[row] if row < rows else 0
        if (row == 0 or lam[row - 1] > length) and (length - row) % p == i:
            nodes.append((+1, row))
        if length and (row + 1 >= rows or lam[row + 1] < length) \
                and (length - 1 - row) % p == i:
            nodes.append((-1, row))
    out: list[tuple[int, int]] = []
    for node in nodes:
        if out and out[-1][0] == -1 and node[0] == +1:
            out.pop()
        else:
            out.append(node)
    return out


def _remove_good(lam, p: int):
    for i in range(p):
        minus = [row for sign, row in _signature(lam, i, p) if sign == -1]
        if minus:
            row = minus[0]
            out = list(lam)
            out[row] -= 1
            return i, tuple(x for x in out if x)
    raise ValueError(f"{lam} has no good node")


def _add_good(lam, i: int, p: int):
    plus = [row for sign, row in _signature(lam, i, p) if sign == +1]
    row = plus[-1]
    out = list(lam) + [0]
    out[row] += 1
    return tuple(x for x in out if x)


def twist(lam, p: int) -> tuple[int, ...]:
    """Image of a p-regular partition under the sign twist."""
    lam = tuple(lam)
    if p == 0:
        return tuple(sum(1 for part in lam if part > c)
                     for c in range(lam[0] if lam else 0))
    if p == 2:
        return lam
    path = []
    while lam:
        i, lam = _remove_good(lam, p)
        path.append(i)
    mu: tuple[int, ...] = ()
    for i in reversed(path):
        mu = _add_good(mu, (-i) % p, p)
    return mu


def is_regular(lam, p: int) -> bool:
    return p == 0 or all(lam.count(v) < p for v in set(lam))


# ---------------------------------------------------------------------------
# Real values at high precision.

REF_BITS = 1400


def _with_prec(fn):
    def run(*args):
        with mpmath.workprec(REF_BITS):
            return fn(*args)
    return run


@lru_cache(maxsize=None)
@_with_prec
def zeta(s: Fraction):
    return mpmath.zeta(mpmath.mpf(s.numerator) / s.denominator)


@_with_prec
def rank_ratio(r: int):
    """(r+1) loglog N / log N at N = (r+1)!."""
    ln = mpmath.log(factorial(r + 1))
    return (r + 1) * mpmath.log(ln) / ln


@_with_prec
def envelope(name: str, arg: int):
    """The paper's exponential count envelopes f1..f5."""
    two_pi = 2 * mpmath.pi
    q = lambda a, b=1: mpmath.mpf(a) / b  # noqa: E731
    if name == "f1":
        r = arg
        return q((r + 1) ** 4, 8) * mpmath.exp(
            two_pi * mpmath.sqrt(q(r * r, 6) + q(r, 3) - q(1, 2)))
    if name == "f2":
        r = arg
        if r % 2:
            lead = q(r * r + 11, 6) + r
            inner = q(r * r - 1, 18) + q(r, 3)
        else:
            lead = q(r * r, 6) + 2 * r
            inner = q(r * r, 18) + q(2 * r - 2, 3)
        return lead ** 2 / 2 * mpmath.exp(two_pi * mpmath.sqrt(inner))
    if name == "f3":
        r = arg
        return 8 * r * r * mpmath.exp(two_pi * mpmath.sqrt(q(4 * r - 2, 3)))
    if name == "f4":
        m = arg
        return 2 * (m + 1) ** 2 * mpmath.exp(two_pi * mpmath.sqrt(q(2 * m, 3)))
    if name == "f5":
        lg = mpmath.log(arg, 2)
        return 4 * lg * mpmath.exp(two_pi * mpmath.sqrt(lg / 3))
    raise ValueError(name)


@_with_prec
def ratio_inequality(r: int, n: int) -> bool:
    """5 (r+1) loglog n < 9 log n."""
    ln = mpmath.log(n)
    return 5 * (r + 1) * mpmath.log(ln) < 9 * ln


@_with_prec
def zeta_display(s: Fraction, extra, n0: int, double: bool) -> bool:
    z = zeta(s)
    sv = mpmath.mpf(s.numerator) / s.denominator
    e = mpmath.power(2, -sv) if extra == "2^-s" else \
        mpmath.mpf(extra.numerator) / extra.denominator
    lhs = z * (z - 1) + z * e if double else z - 1 + e
    return lhs < 1 - mpmath.power(n0, -sv)


def partition_count(n: int) -> int:
    """p(n) by the (remaining, largest part) recursion."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for t in range(part, n + 1):
            table[t] += table[t - part]
    return table[n]


@_with_prec
def partition_envelope(n: int):
    return mpmath.exp(mpmath.pi * mpmath.sqrt(mpmath.mpf(2 * n) / 3))


def bracket_digits(value, digits: int) -> tuple[Fraction, Fraction]:
    """Rationals lo < value < hi agreeing with value to `digits`
    significant digits."""
    with mpmath.workprec(REF_BITS):
        e = int(mpmath.floor(mpmath.log10(abs(value))))
        shift = digits - 1 - e
        x = value * mpmath.mpf(10) ** shift
        lo, hi = int(mpmath.floor(x)) - 1, int(mpmath.ceil(x)) + 1
    den = Fraction(10) ** shift
    return Fraction(lo) / den, Fraction(hi) / den


@_with_prec
def count_bound(family: str, rank: int, n: int, p: int):
    """(kind, value) of the certified count bound the paper gives for a
    root datum: exact integers, or a real to be enclosed."""
    if n == 1:
        return "exact", 1
    if p == 2:
        return "exact", n
    if family in ("C", "F", "G"):
        return "exact", n * n
    nv = mpmath.mpf(n)
    if family == "A":
        if rank == 5:
            return "interval", nv ** 2.5
        if n >= factorial(rank + 1):
            return "interval", nv ** (mpmath.mpf(17) / 5) / rank ** 3
        return "interval", nv ** (mpmath.mpf(19) / 5)
    if family == "E" and rank == 6:
        return "interval", nv ** 2.5
    return "interval", nv ** (mpmath.mpf(9) / 4)
