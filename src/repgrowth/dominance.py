"""Dominance order, orbit sizes, and the saturated set of dominant weights.

lambda dominates mu when lambda - mu is a nonnegative integer combination of
simple roots; dominance is taken reflexively (the zero combination counts).
Every positive claim is carried by a WitnessChain that re-verifies itself by
integer arithmetic alone.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import lru_cache

from .rootdata import (RootDatum, Weight, add, is_dominant, positive_roots,
                       sub)

DEFAULT_CAP = 10 ** 7  # largest saturated set walked, Weyl images included


class HypothesisError(ValueError):
    """A quoted hypothesis of one of the statements does not hold."""


class SaturationCapError(RuntimeError):
    """Saturated-set walk exceeded the configured weight cap."""


class WitnessChain(namedtuple("WitnessChain", "target root_coeffs")):
    """Certificate that source - sum(root_coeffs[i]*alpha_{i+1}) == target:
    a Weight and a tuple of ints."""

    __slots__ = ()

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


@lru_cache(maxsize=None)
def _bracket_weights(r: int) -> tuple[int, ...]:
    """min(i, r+1-i) for 1 <= i <= r: 1, 2, ..., 2, 1."""
    h = (r + 1) // 2
    return (*range(1, h + 1), *range(r - h, 0, -1))


def _bracket(r: int, w: Weight) -> int:
    """bracket of a checked weight."""
    return sum(map(operator.mul, _bracket_weights(r), w))


# ---------------------------------------------------------------------------
# Weyl group and stabilizer orders as products over root heights.

def weyl_order(datum: RootDatum) -> int:
    return _parabolic_order(datum, (True,) * datum.rank)


def weyl_stabilizer_order(datum: RootDatum, w: Weight) -> int:
    """Order of the stabilizer: the parabolic over {i : coefficient i = 0}."""
    w = check_dominant(datum, w)
    return _parabolic_order(datum, tuple(c == 0 for c in w))


@lru_cache(maxsize=None)
def _parabolic_order(datum: RootDatum, zeros: tuple[bool, ...]) -> int:
    """|W_J| = prod (ht a + 1) / ht a over the positive roots a supported
    in J = {i : zeros[i]} (Macdonald, "The Poincaré series of a Coxeter
    group", Math. Ann. 199, 1972)."""
    num = den = 1
    for c, _, _ in positive_roots(datum):
        if all(z or k == 0 for z, k in zip(zeros, c)):
            height = sum(c)
            num *= height + 1
            den *= height
    order, rem = divmod(num, den)
    if rem:
        raise AssertionError(f"{datum} has a parabolic order {num}/{den}")
    return order


def orbit_length(datum: RootDatum, w: Weight) -> int:
    return weyl_order(datum) // weyl_stabilizer_order(datum, w)


# ---------------------------------------------------------------------------
# Saturated set below a dominant weight.

def _pack(w, width: int) -> int:
    """w in width-bit fields, coordinate 0 the most significant, so members
    sort as their tuples do; linear in w, so negative entries pack too."""
    return sum(x << width * j for j, x in enumerate(reversed(w)))


def _unpack(n: int, width: int, rank: int) -> Weight:
    return tuple(n >> width * j & ~(-1 << width) for j in range(rank)[::-1])


@lru_cache(maxsize=None)
def _packed_roots(datum: RootDatum, width: int) -> tuple[int, tuple, dict]:
    """Field ones, positive_roots rows with weight and need packed, and the
    walks' memo: guards of the nonzero coordinates -> orbit length."""
    return (_pack((1,) * datum.rank, width),
            tuple((c, _pack(alpha, width), _pack(need, width))
                  for c, alpha, need in positive_roots(datum)), {})


def _saturated_walk(datum: RootDatum, lam: Weight, cap: int
                    ) -> tuple[dict[int, int | None], int, int]:
    """Dominant members mu of the saturated set of lam, packed at the
    returned width, in discovery order, each with the member one positive
    root above it that reached it (None for lam); plus the size of the
    whole set (Weyl images included), summed by orbit.

    Every dominant mu <= lam is reached from lam through dominant weights,
    one positive root at a time (Stembridge, Adv. Math. 136, 1998).

    Each field's top bit is a guard, clear in every member: mu_j <=
    <mu, theta^vee> <= <lam, theta^vee> <= ht(theta) * sum(lam), as the
    marks of theta^vee are >= 1 and at most ht(theta), theta^vee is
    dominant and lam - mu is in Q+; | 3 holds a need entry of 3 (G2).  So
    no field borrows, and w >= need exactly when (w | guard) - need keeps
    every guard.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    lam = check_dominant(datum, lam)
    width = (sum(positive_roots(datum)[-1][0]) * sum(lam) | 3).bit_length() + 1
    ones, table, orbit_of = _packed_roots(datum, width)
    guard, total = ones << width - 1, 0
    queue = [_pack(lam, width)]
    parent_of = {queue[0]: None}
    for w in queue:
        high = w | guard
        key = (high - ones) & guard
        if key not in orbit_of:
            orbit_of[key] = orbit_length(datum, _unpack(w, width, datum.rank))
        total += orbit_of[key]
        if total > cap:
            raise SaturationCapError(
                f"saturated set of {lam} exceeds cap {cap}")
        for _, alpha, need in table:
            if (high - need) & guard == guard:
                v = w - alpha
                if v not in parent_of:
                    parent_of[v] = w
                    queue.append(v)
    return parent_of, total, width


def saturated_dominant_set(datum: RootDatum, lam: Weight,
                           cap: int = DEFAULT_CAP) -> list[tuple[Weight, WitnessChain]]:
    """Dominant weights dominated by lam, each with its chain, sorted
    descending-lexicographically (lam itself first)."""
    parent_of, _, width = _saturated_walk(datum, lam, cap)
    step = {alpha: c for c, alpha, _ in _packed_roots(datum, width)[1]}
    coeffs_of = {}
    for w, parent in parent_of.items():  # a parent comes before its child
        coeffs_of[w] = (datum.zero() if parent is None else
                        add(coeffs_of[parent], step[parent - w]))
    out = []
    for w, coeffs in sorted(coeffs_of.items(), reverse=True):
        mu = _unpack(w, width, datum.rank)
        chain = WitnessChain(target=mu, root_coeffs=coeffs)
        if not chain.verify(datum, lam):
            raise AssertionError(f"walk chain for {mu} failed on {lam}")
        out.append((mu, chain))
    return out


# Kept only because perfbench traces this name and its tests pin it (ROADMAP).
def dominance_witness(datum: RootDatum, lam: Weight,
                      mu: Weight) -> WitnessChain | None:
    """mu's chain in the saturated walk of lam; None unless lam dominates mu.
    Both must be dominant (HypothesisError); huge lam: SaturationCapError."""
    mu = check_dominant(datum, mu)
    return next((chain for nu, chain in saturated_dominant_set(datum, lam)
                 if nu == mu), None)


def saturated_weight_total(datum: RootDatum, lam: Weight,
                           cap: int = DEFAULT_CAP) -> int:
    """Size of the full saturated set (all Weyl images included)."""
    return _saturated_walk(datum, lam, cap)[1]


def is_good(w: Weight) -> bool:
    """Every coefficient strictly positive (trivial stabilizer)."""
    return all(c > 0 for c in w)
