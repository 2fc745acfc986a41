"""Structural checks on the root-system tables."""

import itertools
import operator
import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repgrowth.rootdata import (
    RootDataError,
    RootDatum,
    add,
    is_dominant,
    is_restricted,
    positive_roots,
    root_datum,
    sub,
)

from oracles import cartan_matrix, dense_root_combination

ALL_DATA = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(2, 9)]
    + [("D", r) for r in range(3, 9)]
    + [("E", r) for r in (6, 7, 8)]
    + [("F", 4), ("G", 2)]
)


def det_fraction(matrix) -> Fraction:
    """Determinant by exact Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return out


def expected_determinant(family: str, rank: int) -> int:
    if family == "A":
        return rank + 1
    if family in ("B", "C"):
        return 2
    if family == "D":
        return 4
    if family == "E":
        return {6: 3, 7: 2, 8: 1}[rank]
    return 1  # F4, G2


def dense(datum) -> list[list[int]]:
    """The Cartan matrix read off the datum's sparse rows."""
    m = [[0] * datum.rank for _ in range(datum.rank)]
    for t, row in enumerate(datum.rows):
        for j, c in row:
            m[t][j] = c
    return m


def test_datum_keeps_only_sparse_rows():
    assert [f.name for f in fields(RootDatum)] == ["family", "rank", "rows"]


@pytest.mark.parametrize("family,rank", ALL_DATA)
def test_rows_match_oracle_cartan(family, rank):
    datum = root_datum(family, rank)
    assert tuple(map(tuple, dense(datum))) == cartan_matrix(family, rank)
    for row in datum.rows:
        assert [j for j, _ in row] == sorted({j for j, _ in row})
        assert all(c != 0 for _, c in row)


@pytest.mark.parametrize("family,rank", ALL_DATA)
def test_cartan_determinant(family, rank):
    datum = root_datum(family, rank)
    assert det_fraction(dense(datum)) == expected_determinant(family, rank)


@pytest.mark.parametrize("family,rank", ALL_DATA)
def test_cartan_entry_signs(family, rank):
    m = dense(root_datum(family, rank))
    for i in range(rank):
        for j in range(rank):
            entry = m[i][j]
            if i == j:
                assert entry == 2
            else:
                assert entry <= 0


@pytest.mark.parametrize("family,rank", ALL_DATA)
def test_bond_products_match_diagram(family, rank):
    """Off-diagonal entries vanish in pairs, and their products are the
    bond multiplicities: one bond fewer than nodes, all simple but the one
    double bond of B, C and F and the triple bond of G."""
    m = dense(root_datum(family, rank))
    products = []
    for i in range(rank):
        for j in range(i + 1, rank):
            assert (m[i][j] == 0) == (m[j][i] == 0)
            if m[i][j]:
                products.append(m[i][j] * m[j][i])
    top = {"B": [2], "C": [2], "F": [2], "G": [3]}.get(family, [])
    assert sorted(products) == [1] * (rank - 1 - len(top)) + top


@pytest.mark.parametrize("family,rank", ALL_DATA)
def test_diagram_degree_profile(family, rank):
    m = dense(root_datum(family, rank))
    degree = [sum(1 for j in range(rank) if j != i and m[i][j])
              for i in range(rank)]
    forks = sum(1 for d in degree if d >= 3)
    if family in ("E",) or (family == "D" and rank >= 4):
        assert forks == 1
    else:
        # Paths throughout; D3 carries the relabelled A3 diagram.
        assert forks == 0
        expected = [0] if rank == 1 else [1, 1] + [2] * (rank - 2)
        assert sorted(degree) == expected


HIGHEST_PINS = {
    ("E", 6): (1, 2, 2, 3, 2, 1),
    ("E", 7): (2, 2, 3, 4, 3, 2, 1),
    ("E", 8): (2, 3, 4, 6, 5, 4, 3, 2),
    ("F", 4): (2, 3, 4, 2),
    ("G", 2): (3, 2),
}


def expected_highest_root(family: str, rank: int) -> tuple[int, ...]:
    """Closed forms for the classical families, pins for the rest."""
    if family == "A":
        return (1,) * rank
    if family == "B":
        return (1,) + (2,) * (rank - 1)
    if family == "C":
        return (2,) * (rank - 1) + (1,)
    if family == "D":
        return (1,) + (2,) * (rank - 3) + (1, 1)
    return HIGHEST_PINS[family, rank]


@pytest.mark.parametrize("family,rank", ALL_DATA)
def test_highest_root_pins(family, rank):
    assert (positive_roots(root_datum(family, rank))[-1][0]
            == expected_highest_root(family, rank))


@pytest.mark.parametrize("family,rank", ALL_DATA)
def test_highest_root_is_dominant(family, rank):
    datum = root_datum(family, rank)
    theta = datum.root_combination(positive_roots(datum)[-1][0])
    assert is_dominant(theta)
    support = sum(1 for c in theta if c != 0)
    if family == "A" and rank >= 2:
        assert support == 2
    elif (family, rank) == ("D", 3):
        assert support == 2  # relabelled A3
    else:
        assert support == 1


def expected_positive_root_count(family: str, rank: int) -> int:
    if family == "A":
        return rank * (rank + 1) // 2
    if family in ("B", "C"):
        return rank * rank
    if family == "D":
        return rank * (rank - 1)
    if family == "E":
        return {6: 36, 7: 63, 8: 120}[rank]
    return {"F": 24, "G": 6}[family]


@pytest.mark.parametrize("family,rank", ALL_DATA)
def test_positive_root_count(family, rank):
    roots = positive_roots(root_datum(family, rank))
    assert len(roots) == expected_positive_root_count(family, rank)
    assert len({c for c, _, _ in roots}) == len(roots)


@pytest.mark.parametrize("family,rank", ALL_DATA)
def test_positive_roots_top_is_highest_root(family, rank):
    datum = root_datum(family, rank)
    roots = [c for c, _, _ in positive_roots(datum)]
    top = max(sum(c) for c in roots)
    assert [c for c in roots if sum(c) == top] == [roots[-1]]


@pytest.mark.parametrize("family,rank", ALL_DATA)
def test_positive_root_weights(family, rank):
    datum = root_datum(family, rank)
    for coeffs, weight, _ in positive_roots(datum):
        assert all(k >= 0 for k in coeffs)
        assert weight == datum.root_combination(coeffs)


def test_check_weight_rejects_wrong_length():
    datum = root_datum("A", 3)
    with pytest.raises(RootDataError):
        datum.check_weight((1, 2))
    with pytest.raises(RootDataError):
        datum.check_weight((1, 2, 3, 4))


def test_check_weight_rejects_non_integers():
    datum = root_datum("A", 2)
    with pytest.raises(RootDataError):
        datum.check_weight((1.5, 0))


@pytest.mark.parametrize("family,rank", ALL_DATA)
def test_root_combination_matches_simple_roots(family, rank):
    """alpha_{i+1} is column i of the oracle's Cartan matrix."""
    datum = root_datum(family, rank)
    cartan = cartan_matrix(family, rank)
    for i in range(rank):
        unit = tuple(int(t == i) for t in range(rank))
        assert datum.root_combination(unit) == tuple(row[i] for row in cartan)


@given(st.data())
def test_root_combination_is_linear(data):
    family, rank = data.draw(st.sampled_from(ALL_DATA))
    datum = root_datum(family, rank)
    coeff = st.integers(min_value=-6, max_value=6)
    u = data.draw(st.tuples(*[coeff] * rank))
    v = data.draw(st.tuples(*[coeff] * rank))
    left = datum.root_combination(add(u, v))
    right = add(datum.root_combination(u), datum.root_combination(v))
    assert left == right


@pytest.mark.parametrize("family,rank", ALL_DATA)
@settings(max_examples=40)
@given(st.data())
def test_root_combination_matches_dense_product(family, rank, data):
    # Negative coefficients included, so a sign slip or a dropped entry of
    # the sparse rows cannot hide behind dominance.
    datum = root_datum(family, rank)
    coeffs = data.draw(st.lists(st.integers(-50, 50), min_size=rank,
                                max_size=rank))
    assert datum.root_combination(coeffs) == dense_root_combination(
        datum, coeffs)


@pytest.mark.parametrize("family,rank", ALL_DATA)
def test_root_combination_rejects_wrong_length(family, rank):
    datum = root_datum(family, rank)
    for coeffs in ((1,) * (rank - 1), (1,) * (rank + 1)):
        with pytest.raises(RootDataError, match="wrong length"):
            datum.root_combination(coeffs)


@pytest.mark.parametrize("family,rank", ALL_DATA)
def test_positive_roots_need_is_exact(family, rank):
    """For dominant w, w >= need entry by entry exactly when w - alpha is
    dominant: a box for ranks <= 4, seeded weights above."""
    datum = root_datum(family, rank)
    table = positive_roots(datum)
    if rank <= 4:
        weights = list(itertools.product(range(5), repeat=rank))
    else:
        rnd = random.Random(f"{family}{rank}")
        weights = [tuple(rnd.randrange(4) for _ in range(rank))
                   for _ in range(400)]
    seen = set()
    for w in weights:
        for c, alpha, need in table:
            covered = all(map(operator.ge, w, need))
            assert covered == is_dominant(sub(w, alpha)), (w, c)
            seen.add(covered)
    assert seen == {True, False}


@pytest.mark.parametrize("family,rank", [
    ("E", 5), ("E", 9), ("F", 3), ("G", 1), ("A", 0), ("D", 2), ("H", 2),
])
def test_unsupported_data_rejected(family, rank):
    with pytest.raises(RootDataError):
        root_datum(family, rank)


def test_restricted_box():
    assert is_restricted((0, 4, 2), 5)
    assert not is_restricted((0, 5, 2), 5)
    assert not is_restricted((-1, 0, 0), 5)
    # p = 0 keeps only the dominance constraint.
    assert is_restricted((7, 0, 123), 0)
    assert not is_restricted((7, -1, 0), 0)


def test_add_sub_roundtrip():
    u, v = (3, -1, 2), (1, 4, -2)
    assert sub(add(u, v), v) == u
