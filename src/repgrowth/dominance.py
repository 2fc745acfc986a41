"""Dominance order, orbit sizes, and the saturated set of dominant weights.

lambda dominates mu when lambda - mu is a nonnegative integer combination of
simple roots; dominance is taken reflexively (the zero combination counts).
Every positive claim is carried by a WitnessChain that re-verifies itself by
integer arithmetic alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .rootdata import (RootDatum, Weight, add, is_dominant, positive_roots,
                       sub)

DEFAULT_CAP = 10 ** 7  # largest saturated set walked, Weyl images included


class HypothesisError(ValueError):
    """A quoted hypothesis of one of the statements does not hold."""


class SaturationCapError(RuntimeError):
    """Saturated-set walk exceeded the configured weight cap."""


@dataclass(frozen=True)
class WitnessChain:
    """Certificate that source - sum(root_coeffs[i]*alpha_{i+1}) == target."""

    target: Weight
    root_coeffs: tuple[int, ...]

    def verify(self, datum: RootDatum, source: Weight) -> bool:
        coeffs = self.root_coeffs
        if len(coeffs) != datum.rank:
            return False
        for k in coeffs:
            if not isinstance(k, int) or k < 0:
                return False
        return sub(source, datum.root_combination(coeffs)) == self.target


def check_dominant(datum: RootDatum, w) -> Weight:
    """w as a checked weight of datum; HypothesisError unless dominant."""
    w = datum.check_weight(w)
    if not is_dominant(w):
        raise HypothesisError(f"weight {w} is not dominant")
    return w


def bracket(datum: RootDatum, w: Weight) -> int:
    """Coefficient sum weighted by min(i, r+1-i); type A, dominant input."""
    if datum.family != "A":
        raise HypothesisError("bracket statistic is defined for type A only")
    return _bracket(datum.rank, check_dominant(datum, w))


def _bracket_weights(r: int) -> tuple[int, ...]:
    """min(i, r+1-i) for 1 <= i <= r: 1, 2, ..., 2, 1."""
    h = (r + 1) // 2
    return (*range(1, h + 1), *range(r - h, 0, -1))


def _bracket(r: int, w: Weight) -> int:
    """bracket of a checked weight."""
    return sum(map(operator.mul, _bracket_weights(r), w))


@lru_cache(maxsize=None)
def _cartan_inverse(datum: RootDatum) -> tuple[tuple[Fraction, ...], ...]:
    n = datum.rank
    aug = [[Fraction(row.get(j, 0)) for j in range(n)]
           + [Fraction(i == j) for j in range(n)]
           for i, row in enumerate(map(dict, datum.rows))]
    for col in range(n):
        piv = next(row for row in range(col, n) if aug[row][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for row in range(n):
            if row != col and aug[row][col] != 0:
                f = aug[row][col]
                aug[row] = [a - f * b for a, b in zip(aug[row], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def dominance_witness(datum: RootDatum, lam: Weight,
                      mu: Weight) -> WitnessChain | None:
    """Chain from lam down to mu, or None when lam does not dominate mu."""
    lam = datum.check_weight(lam)
    mu = datum.check_weight(mu)
    diff = sub(lam, mu)
    inv = _cartan_inverse(datum)
    coeffs = []
    for row in inv:
        k = sum(f * d for f, d in zip(row, diff))
        if k.denominator != 1 or k < 0:
            return None
        coeffs.append(int(k))
    chain = WitnessChain(target=mu, root_coeffs=tuple(coeffs))
    assert chain.verify(datum, lam)
    return chain


# ---------------------------------------------------------------------------
# Weyl group and stabilizer orders as products over root heights.

@lru_cache(maxsize=None)
def weyl_order(datum: RootDatum) -> int:
    return weyl_stabilizer_order(datum, datum.zero())


def weyl_stabilizer_order(datum: RootDatum, w: Weight) -> int:
    """Order of the stabilizer: the parabolic over {i : coefficient i = 0}."""
    w = check_dominant(datum, w)
    return _parabolic_order(
        datum, frozenset(i + 1 for i, c in enumerate(w) if c == 0))


@lru_cache(maxsize=None)
def _parabolic_order(datum: RootDatum, support: frozenset[int]) -> int:
    """|W_J| = prod (ht a + 1) / ht a over the positive roots a supported
    in J (Macdonald, "The Poincaré series of a Coxeter group", Math. Ann.
    199, 1972)."""
    num = den = 1
    for c, _ in positive_roots(datum):
        if all(k == 0 or i in support for i, k in enumerate(c, start=1)):
            height = sum(c)
            num *= height + 1
            den *= height
    order, rem = divmod(num, den)
    assert rem == 0
    return order


def orbit_length(datum: RootDatum, w: Weight) -> int:
    return weyl_order(datum) // weyl_stabilizer_order(datum, w)


# ---------------------------------------------------------------------------
# Saturated set below a dominant weight.

@lru_cache(maxsize=None)
def _cover_table(datum: RootDatum) -> tuple[tuple, ...]:
    """Positive roots as (coefficients, weight, need), need the positive
    part of the weight: for dominant w, w - alpha is dominant exactly when
    w >= need entry by entry."""
    return tuple((c, alpha, tuple(max(a, 0) for a in alpha))
                 for c, alpha in positive_roots(datum))


def _saturated_walk(datum: RootDatum, lam: Weight, cap: int
                    ) -> tuple[dict[Weight, tuple[int, ...]], int]:
    """Dominant members of the saturated set of lam, each with the
    simple-root coefficients of lam - mu; plus the size of the whole set
    (Weyl images included) as a sum of orbit lengths.

    Every dominant mu <= lam is reached from lam through dominant weights
    by subtracting one positive root at a time (Stembridge, "The partial
    order of dominant weights", Adv. Math. 136, 1998), so the walk never
    leaves the dominant chamber.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    lam = check_dominant(datum, lam)
    table = _cover_table(datum)
    orbit_of = {}  # zero positions -> orbit length: |W| over |W_zeros|
    coeffs_of = {lam: datum.zero()}
    queue = [lam]
    total = 0
    for w in queue:
        zeros = tuple(map(operator.not_, w))
        if zeros not in orbit_of:
            orbit_of[zeros] = weyl_order(datum) // _parabolic_order(
                datum, frozenset(i for i, z in enumerate(zeros, 1) if z))
        total += orbit_of[zeros]
        if total > cap:
            raise SaturationCapError(
                f"saturated set of {lam} exceeds cap {cap}")
        coeffs = coeffs_of[w]
        for c, alpha, need in table:
            if all(map(operator.ge, w, need)):
                v = sub(w, alpha)
                if v not in coeffs_of:
                    coeffs_of[v] = add(coeffs, c)
                    queue.append(v)
    return coeffs_of, total


def saturated_dominant_set(datum: RootDatum, lam: Weight,
                           cap: int = DEFAULT_CAP) -> list[tuple[Weight, WitnessChain]]:
    """Dominant weights dominated by lam, each with its chain, sorted
    descending-lexicographically (lam itself first)."""
    members, _ = _saturated_walk(datum, lam, cap)
    out = []
    for mu, coeffs in sorted(members.items(), reverse=True):
        chain = WitnessChain(target=mu, root_coeffs=coeffs)
        if not chain.verify(datum, lam):
            raise AssertionError(f"walk chain for {mu} failed on {lam}")
        out.append((mu, chain))
    return out


def saturated_weight_total(datum: RootDatum, lam: Weight,
                           cap: int = DEFAULT_CAP) -> int:
    """Size of the full saturated set (all Weyl images included)."""
    return _saturated_walk(datum, lam, cap)[1]


def is_good(w: Weight) -> bool:
    """Every coefficient strictly positive (trivial stabilizer)."""
    return all(c > 0 for c in w)
