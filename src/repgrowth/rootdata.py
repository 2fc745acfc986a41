"""Root-system tables for the simple families, in the fundamental-weight basis.

A weight is a plain tuple of integers: its coefficients against the
fundamental weights.  A root datum keeps its Cartan matrix (a_tj) only as
sparse rows: row t lists the pairs (j, a_tj) with a_tj != 0, and column j
holds the fundamental-weight coefficients of the simple root alpha_{j+1}, so
converting a root combination to weight coordinates sums at most four
products per coordinate.  The rows are filled in time linear in the rank
from one list of Dynkin bonds, each stated once with its orientation.  Node
numbering follows the Bourbaki convention everywhere.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import repeat

Weight = tuple[int, ...]


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


def _bonds(family: str, rank: int) -> list[tuple[int, int, int]]:
    """Dynkin bonds (i, j, m), 0-based nodes, m the bond multiplicity; when
    m > 1, alpha_{j+1} is the short end."""
    path = [(i, i + 1, 1) for i in range(rank - 1)]
    if family == "B":
        path[-1] = (rank - 2, rank - 1, 2)  # alpha_r short
    elif family == "C":
        path[-1] = (rank - 1, rank - 2, 2)  # alpha_r long
    elif family == "D":
        path[-1] = (rank - 3, rank - 1, 1)  # the fork at alpha_{r-2}
    elif family == "E":
        path[:2] = [(0, 2, 1), (1, 3, 1)]   # alpha_2 hangs off alpha_4
    elif family == "F":
        path[1] = (1, 2, 2)                 # alpha_3 short, alpha_2 long
    elif family == "G":
        path[0] = (1, 0, 3)                 # alpha_1 short
    return path


class RootDatum:
    # root_datum() makes one per (family, rank): identity hashing is exact,
    # and a copy or an unpickled datum is that cached one.  Row t of rows
    # is row t of the Cartan matrix as its (j, entry) pairs with entry != 0.
    __slots__ = ("family", "rank", "rows")

    def __init__(self, family: str, rank: int,
                 rows: tuple[tuple[tuple[int, int], ...], ...]) -> None:
        for name, value in zip(self.__slots__, (family, rank, rows)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"RootDatum field {name!r} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return root_datum, (self.family, self.rank)

    def __repr__(self) -> str:
        return f"RootDatum({self.family}{self.rank})"

    def check_weight(self, w) -> Weight:
        w = tuple(w)
        if len(w) != self.rank or not all(map(isinstance, w, repeat(int))):
            raise RootDataError(
                f"weight {w!r} is not an integer {self.rank}-tuple")
        return w

    def zero(self) -> Weight:
        return (0,) * self.rank

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
    rows = [{t: 2} for t in range(rank)]
    for i, j, m in _bonds(family, rank):
        rows[i][j], rows[j][i] = -1, -m
    return RootDatum(family=family, rank=rank,
                     rows=tuple(tuple(sorted(row.items())) for row in rows))


@lru_cache(maxsize=None)
def positive_roots(datum: RootDatum) -> tuple[tuple, ...]:
    """Positive roots as (simple-root coefficients, weight, need) rows, by
    height; need is the positive part of the weight, so for dominant w,
    w - alpha is dominant exactly when w >= need entry by entry.

    Closes the simple roots under the simple reflections
    s_i(c) = c - (sum_j a_ij*c_j) e_i; a simple reflection sends
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
    return tuple((c, alpha, tuple(max(a, 0) for a in alpha))
                 for c in sorted(seen, key=lambda c: (sum(c), c))
                 for alpha in [datum.root_combination(c)])


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
