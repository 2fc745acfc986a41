"""The sign-twist involution, pinned values and the two independent routes."""

import random

import pytest

from repgrowth.dominance import HypothesisError
from repgrowth.partitions import (conjugate, is_p_regular, mullineux,
                                  p_regular_partitions)

from oracles import (
    LADDER_CONVENTION,
    LADDER_CONVENTIONS,
    brute_partitions,
    brute_regular,
    ladder_mullineux,
    rim_mullineux,
)

# Images of single-row partitions, row length 1..10 at p = 3 and 5..10 at
# p = 5.  Small enough to recompute by hand from the symbol description.
ROW_IMAGES_P3 = {
    1: (1,), 2: (1, 1), 3: (2, 1), 4: (2, 2), 5: (3, 2),
    6: (3, 3), 7: (4, 3), 8: (4, 4), 9: (5, 4), 10: (5, 5),
}
ROW_IMAGES_P5 = {
    5: (2, 1, 1, 1), 6: (2, 2, 1, 1), 7: (2, 2, 2, 1),
    8: (2, 2, 2, 2), 9: (3, 2, 2, 2), 10: (3, 3, 2, 2),
}


def test_row_image_pins_p3():
    for row, image in ROW_IMAGES_P3.items():
        assert mullineux((row,), 3) == image


def test_row_image_pins_p5():
    for row, image in ROW_IMAGES_P5.items():
        assert mullineux((row,), 5) == image


def test_two_row_pins():
    assert mullineux((2, 1), 3) == (3,)
    assert mullineux((5, 4), 5) == (4, 3, 2)
    assert mullineux((3, 2), 3) == (5,)


def test_single_box_fixed_everywhere():
    for p in (0, 2, 3, 5, 7, 11):
        assert mullineux((1,), p) == (1,)


def test_empty_partition():
    for p in (0, 2, 3):
        assert mullineux((), p) == ()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_involution_exhaustive(p):
    for n in range(1, 19):
        for lam in brute_regular(n, p):
            image = mullineux(lam, p)
            assert sum(image) == n
            assert is_p_regular(image, p)
            assert mullineux(image, p) == lam


def test_p0_is_conjugation():
    for n in range(11):
        for lam in brute_partitions(n):
            assert mullineux(lam, 0) == conjugate(lam)


def test_p2_is_identity():
    for n in range(13):
        for lam in brute_regular(n, 2):
            assert mullineux(lam, 2) == lam


def test_large_p_degenerates_to_conjugation():
    for n in range(1, 11):
        for lam in brute_partitions(n):
            assert mullineux(lam, 11) == conjugate(lam)


def test_rejects_irregular_with_located_part():
    with pytest.raises(HypothesisError, match=r"part 2 repeats 3 times \(p = 3\)"):
        mullineux((2, 2, 2), 3)
    with pytest.raises(HypothesisError, match=r"part 1 repeats 5 times \(p = 5\)"):
        mullineux((3, 1, 1, 1, 1, 1), 5)


def test_rejects_bad_characteristic():
    with pytest.raises(HypothesisError, match="neither 0 nor prime"):
        mullineux((3, 1), 4)


# --- the independent rim and residue-ladder routes ---------------------------

@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_library_matches_rim_route_exhaustive(p):
    for n in range(1, 19):
        for lam in brute_regular(n, p):
            assert mullineux(lam, p) == rim_mullineux(lam, p), lam


def _random_regular(rnd, n, p):
    while True:
        parts = []
        while sum(parts) < n:
            parts.append(rnd.randint(1, n - sum(parts)))
        lam = tuple(sorted(parts, reverse=True))
        if is_p_regular(lam, p):
            return lam


def test_library_matches_rim_route_seeded():
    """200 seeded regular partitions of sizes 20 to 40, past the
    exhaustive range."""
    rnd = random.Random(20)
    for k in range(200):
        p = (3, 5, 7, 11)[k % 4]
        lam = _random_regular(rnd, rnd.randint(20, 40), p)
        assert mullineux(lam, p) == rim_mullineux(lam, p), (lam, p)


@pytest.mark.parametrize("p", [3, 5])
def test_rim_route_matches_ladder_route(p):
    """The symbol route and the residue-ladder route are written against
    different descriptions; they must produce the same involution."""
    for n in range(1, 13):
        for lam in brute_regular(n, p):
            assert rim_mullineux(lam, p) == ladder_mullineux(lam, p)


def test_ladder_convention_is_the_unique_match():
    """Exactly one of the four signature conventions reproduces the library
    twist on the calibration range, and it is the one frozen in the oracle."""
    survivors = []
    for conv in LADDER_CONVENTIONS:
        ok = True
        for n in range(1, 9):
            for p in (3, 5):
                for lam in brute_regular(n, p):
                    try:
                        match = ladder_mullineux(lam, p, conv) == mullineux(lam, p)
                    except AssertionError:
                        match = False
                    if not match:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            survivors.append(conv)
    assert survivors == [LADDER_CONVENTION]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_andrews_olsson_fixed_point_count(p):
    # Andrews-Olsson (J. reine angew. Math. 413, 1991): the twist fixes as
    # many p-regular partitions of n as there are partitions of n into
    # distinct odd parts not divisible by p.
    for n in range(1, 21):
        fixed = sum(1 for lam in p_regular_partitions(n, p)
                    if mullineux(lam, p) == lam)
        odd = sum(1 for lam in brute_partitions(n)
                  if len(set(lam)) == len(lam)
                  and all(part % 2 and part % p for part in lam))
        assert fixed == odd, n
