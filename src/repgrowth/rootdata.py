"""Root-system tables for the simple families, in the fundamental-weight basis.

A weight is a plain tuple of integers: its coefficients against the
fundamental weights.  The Cartan matrix is stored so that column j holds the
fundamental-weight coefficients of the simple root alpha_{j+1}; converting a
nonnegative root combination to weight coordinates is then a single integer
matrix product.  Node numbering follows the Bourbaki convention everywhere.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

Weight = tuple[int, ...]

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")


class RootDataError(ValueError):
    """Unsupported family/rank combination or malformed weight."""


def _check_family_rank(family: str, rank: int) -> None:
    ok = {
        "A": rank >= 1,
        "B": rank >= 2,
        "C": rank >= 2,
        "D": rank >= 3,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "G": rank == 2,
    }.get(family, False)
    if not ok:
        raise RootDataError(f"unsupported root datum {family}{rank}")


def _edges(family: str, rank: int) -> tuple[tuple[int, int, int], ...]:
    """Dynkin diagram as (i, j, bond multiplicity), 1-based, i < j."""
    path = [(i, i + 1, 1) for i in range(1, rank)]
    if family == "A":
        return tuple(path)
    if family in ("B", "C"):
        path[-1] = (rank - 1, rank, 2)
        return tuple(path)
    if family == "D":
        stem = [(i, i + 1, 1) for i in range(1, rank - 2)]
        return tuple(stem + [(rank - 2, rank - 1, 1), (rank - 2, rank, 1)])
    if family == "E":
        stem = [(1, 3, 1), (3, 4, 1), (2, 4, 1)]
        return tuple(stem + [(i, i + 1, 1) for i in range(4, rank)])
    if family == "F":
        return ((1, 2, 1), (2, 3, 2), (3, 4, 1))
    return ((1, 2, 3),)  # G2


def _cartan(family: str, rank: int,
            edges: tuple[tuple[int, int, int], ...]) -> tuple[tuple[int, ...], ...]:
    m = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    for i, j, _ in edges:
        m[i - 1][j - 1] = -1
        m[j - 1][i - 1] = -1
    # Asymmetric entries at multiple bonds: the column of a long root picks up
    # the bond multiplicity in the row of the adjacent short root.
    if family == "B":
        m[rank - 1][rank - 2] = -2  # alpha_r short
    elif family == "C":
        m[rank - 2][rank - 1] = -2  # alpha_r long
    elif family == "F":
        m[2][1] = -2                # alpha_3 short, alpha_2 long
    elif family == "G":
        m[0][1] = -3                # alpha_1 short, alpha_2 long
    return tuple(tuple(row) for row in m)


@dataclass(frozen=True)
class RootDatum:
    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int, int], ...]
    # Row t of the Cartan matrix as its (j, entry) pairs with entry != 0.
    rows: tuple[tuple[tuple[int, int], ...], ...]

    def __repr__(self) -> str:
        return f"RootDatum({self.family}{self.rank})"

    def __hash__(self) -> int:
        # root_datum() makes one object per (family, rank); hashing the
        # nested tables on every cache lookup would be wasted work.
        return hash((self.family, self.rank))

    @property
    def highest_root_coeffs(self) -> tuple[int, ...]:
        """Coefficients of the highest root: the unique root of top height."""
        return positive_roots(self)[-1][0]

    def check_weight(self, w) -> Weight:
        w = tuple(w)
        if len(w) != self.rank or not all(map(isinstance, w, repeat(int))):
            raise RootDataError(
                f"weight {w!r} is not an integer {self.rank}-tuple")
        return w

    def zero(self) -> Weight:
        return (0,) * self.rank

    def simple_root(self, i: int) -> Weight:
        """alpha_i in fundamental-weight coordinates (1-based i)."""
        if not 1 <= i <= self.rank:
            raise RootDataError(f"simple root index {i} out of range")
        return tuple(self.cartan[t][i - 1] for t in range(self.rank))

    def root_combination(self, coeffs) -> Weight:
        """sum_i coeffs[i]*alpha_{i+1} as a weight tuple."""
        coeffs = tuple(coeffs)
        if len(coeffs) != self.rank:
            raise RootDataError("coefficient vector has wrong length")
        out = []
        for row in self.rows:
            total = 0
            for j, c in row:
                total += c * coeffs[j]
            out.append(total)
        return tuple(out)


@lru_cache(maxsize=None)
def root_datum(family: str, rank: int) -> RootDatum:
    _check_family_rank(family, rank)
    edges = _edges(family, rank)
    cartan = _cartan(family, rank, edges)
    return RootDatum(family=family, rank=rank, cartan=cartan, edges=edges,
                     rows=tuple(tuple((j, c) for j, c in enumerate(row) if c)
                                for row in cartan))


@lru_cache(maxsize=None)
def positive_roots(datum: RootDatum) -> tuple[tuple[tuple[int, ...], Weight], ...]:
    """Positive roots as (simple-root coefficients, weight) pairs, by height.

    Closes the simple roots under the simple reflections
    s_i(c) = c - (sum_j cartan[i][j]*c_j) e_i; a simple reflection sends
    every positive root but alpha_i to a positive root, and every positive
    root is reached from a simple one that way.
    """
    n = datum.rank
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        c = frontier.pop()
        for i, pair in enumerate(datum.root_combination(c)):
            s = c[:i] + (c[i] - pair,) + c[i + 1:]
            if s[i] >= 0 and s not in seen:
                seen.add(s)
                frontier.append(s)
    return tuple((c, datum.root_combination(c))
                 for c in sorted(seen, key=lambda c: (sum(c), c)))


def is_dominant(w) -> bool:
    return min(w, default=0) >= 0


def is_restricted(w, p: int) -> bool:
    """0 <= coefficients <= p-1; p = 0 means no upper restriction."""
    if p == 0:
        return is_dominant(w)
    return all(0 <= c <= p - 1 for c in w)


def add(u: Weight, v: Weight) -> Weight:
    return tuple(map(operator.add, u, v))


def sub(u: Weight, v: Weight) -> Weight:
    return tuple(map(operator.sub, u, v))
