"""The sign-twist involution, pinned values and the two independent routes."""

import os
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from repgrowth import bounds, partitions
from repgrowth.bounds import bound3_value
from repgrowth.dominance import HypothesisError
from repgrowth.partitions import conjugate, hook_length_dim, m_p, mullineux

from oracles import (
    LADDER_CONVENTION,
    LADDER_CONVENTIONS,
    brute_conjugate,
    brute_is_core,
    brute_partitions,
    brute_regular,
    distinct_odd_parts_prime_to,
    is_regular,
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
            assert is_regular(image, p)
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


CORE_PRIMES = [2, 3, 5, 7, 11, 13]


@pytest.mark.parametrize("p", CORE_PRIMES)
def test_core_test_matches_hook_lengths(p):
    for n in range(17):
        for lam in brute_partitions(n):
            assert partitions._is_core(lam, p) == brute_is_core(lam, p), lam


@pytest.mark.parametrize("p", CORE_PRIMES)
def test_cores_twist_to_their_conjugate(p):
    """A p-core's Specht module is simple and projective, so its twist is
    its conjugate; the ladder route, which knows no cores, agrees."""
    cores = [lam for n in range(17) for lam in brute_partitions(n)
             if brute_is_core(lam, p)]
    assert max(map(sum, cores)) >= p  # cores past the sizes below p
    for lam in cores:
        assert mullineux(lam, p) == conjugate(lam) == \
            ladder_mullineux(lam, p), lam


def test_rejects_irregular_with_located_part():
    with pytest.raises(HypothesisError, match=r"part 2 repeats 3 times \(p = 3\)"):
        mullineux((2, 2, 2), 3)
    with pytest.raises(HypothesisError, match=r"part 1 repeats 5 times \(p = 5\)"):
        mullineux((3, 1, 1, 1, 1, 1), 5)


def test_rejects_bad_characteristic():
    with pytest.raises(HypothesisError, match="neither 0 nor prime"):
        mullineux((3, 1), 4)


def test_m_p_checks_the_characteristic_of_the_empty_partition():
    with pytest.raises(HypothesisError, match="characteristic 4 is neither"):
        m_p((), 4)
    assert m_p((), 3) == 0


# Exception type and message at each public twist entry.  A malformed
# partition is reported first, then the characteristic, then regularity.
ENTRY_ERRORS = [
    ((1, 2), 3, "parts must be weakly decreasing: (1, 2)"),
    ((3, -1, 1), 3, "parts must be positive: (3, -1, 1)"),
    ((4, 2, 2, 2), 3, "part 2 repeats 3 times (p = 3)"),
    ((5, 3, 3, 3, 3, 3), 5, "part 3 repeats 5 times (p = 5)"),
    ((4, 1, 1), 4, "characteristic 4 is neither 0 nor prime"),
    ((1, 1, 1, 1, 1, 1), 6, "characteristic 6 is neither 0 nor prime"),
    ((6, 1), 1, "characteristic 1 is neither 0 nor prime"),
]


def bound3_given_image(lam, p):
    """bound3_value on its image path, where no twist is taken."""
    return bound3_value(lam, p, image=(1,))


@pytest.mark.parametrize("entry", [mullineux, m_p, bound3_value,
                                   bound3_given_image])
@pytest.mark.parametrize("lam,p,message", ENTRY_ERRORS)
def test_twist_entry_errors_pinned(entry, lam, p, message):
    with pytest.raises(HypothesisError) as info:
        entry(lam, p)
    assert type(info.value) is HypothesisError
    assert str(info.value) == message


def test_bound3_reports_size_before_characteristic():
    for lam, p in (((3, 1), 4), ((), 4), ((2, 1), 3)):
        with pytest.raises(HypothesisError) as info:
            bound3_value(lam, p)
        assert str(info.value) == "the half-power bound needs |partition| >= 5"


@pytest.mark.parametrize("p", [0, 2, 3, 7])
def test_each_twist_entry_checks_its_partition_once(monkeypatch, p):
    seen = []
    check = partitions.check_partition

    def counted(lam):
        seen.append(lam)
        return check(lam)

    monkeypatch.setattr(partitions, "check_partition", counted)
    monkeypatch.setattr(bounds, "check_partition", counted)
    for entry, args in ((mullineux, (p,)), (m_p, (p,)), (bound3_value, (p,)),
                        (hook_length_dim, ())):
        seen.clear()
        entry((5, 3, 1), *args)
        assert len(seen) == 1, entry.__name__


def test_staircase_twist_takes_residue_blocks(monkeypatch):
    """The 60-row staircase at p = 7 has 1830 cells, so one cell per step
    would scan at least 2 * 1830 signatures; residue blocks need 468."""
    scans = []
    signature = partitions._signature

    def counted(neg, i, p):
        scans.append(i)
        return signature(neg, i, p)

    monkeypatch.setattr(partitions, "_signature", counted)
    stair = tuple(range(60, 0, -1))
    image = mullineux(stair, 7)
    assert len(scans) <= 500
    assert sum(image) == 1830 and mullineux(image, 7) == stair


# --- the independent rim and residue-ladder routes ---------------------------

@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_library_matches_rim_route_exhaustive(p):
    for n in range(1, 19):
        for lam in brute_regular(n, p):
            assert mullineux(lam, p) == rim_mullineux(lam, p), lam


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_library_matches_ladder_route_exhaustive(p):
    """The ladder route removes one good cell per step, the library a
    whole residue block, or none on a p-core, which it conjugates."""
    for n in range(1, 19):
        for lam in brute_regular(n, p):
            assert mullineux(lam, p) == ladder_mullineux(lam, p), lam


@pytest.mark.parametrize("lam,p", [
    (tuple(range(45, 0, -1)), 7),                    # staircase, 1035 cells
    ((1201,), 5),                                    # one row
    ((50,) * 10 + (40,) * 10 + (30,) * 10, 11),      # three blocks, 1200 cells
])
def test_library_matches_ladder_route_past_a_thousand_cells(lam, p):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2 * sum(lam))  # one ladder frame per cell
    try:
        assert mullineux(lam, p) == ladder_mullineux(lam, p)
    finally:
        sys.setrecursionlimit(limit)


def _random_regular(rnd, n, p):
    while True:
        parts = []
        while sum(parts) < n:
            parts.append(rnd.randint(1, n - sum(parts)))
        lam = tuple(sorted(parts, reverse=True))
        if is_regular(lam, p):
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


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_andrews_olsson_fixed_point_count(p):
    # Andrews-Olsson (J. reine angew. Math. 413, 1991): the twist fixes as
    # many p-regular partitions of n as there are partitions of n into
    # distinct odd parts not divisible by p.  Read off each level table.
    for n, level in enumerate(partitions.twist_levels(22, p)):
        fixed = sum(lam == image for lam, image in level.items())
        assert fixed == distinct_odd_parts_prime_to(n, p), n


# --- the level tables, each twist seeded by the levels below it -------------

@pytest.mark.parametrize("p", [0, 2, 3, 5, 7, 11])
def test_twist_levels_match_the_plain_twist_and_the_ladder(p):
    """Every entry equals the unseeded twist and the ladder route, which
    recurses on the same one-step-smaller partition; at p = 0 residues are
    not taken mod p, and the route is conjugation."""
    route = brute_conjugate if p == 0 else partial(ladder_mullineux, p=p)
    levels = partitions.twist_levels(20, p)
    assert [sorted(level) for level in levels] == \
        [sorted(brute_regular(n, p)) for n in range(21)]
    for level in levels:
        for lam, image in level.items():
            assert image == mullineux(lam, p) == route(lam), lam


@pytest.mark.parametrize("n_hi,p,message", [
    (0, 4, "characteristic 4 is neither 0 nor prime"),
    (-3, 3, "need n >= 0"),
])
def test_twist_levels_refuses_what_the_generator_refuses(n_hi, p, message):
    with pytest.raises(HypothesisError) as info:
        partitions.twist_levels(n_hi, p)
    assert str(info.value) == message


def test_twist_levels_decides_the_characteristic_once_a_level(monkeypatch):
    calls = []
    is_prime = partitions.is_prime

    def counted(p):
        calls.append(p)
        return is_prime(p)

    monkeypatch.setattr(partitions, "is_prime", counted)
    levels = partitions.twist_levels(10, 3)
    assert len(levels) == 11
    assert len(calls) <= len(levels)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_a_seed_of_p_cores_gives_the_plain_twist(p):
    """The removals stop at the first p-core on the path, and the replay
    starts from its conjugate."""
    cores = {lam: conjugate(lam) for n in range(21)
             for lam in brute_partitions(n) if brute_is_core(lam, p)}
    assert max(map(sum, cores)) >= p  # cores past the sizes below p
    for n in range(1, 21):
        for lam in brute_regular(n, p):
            assert partitions._twist(lam, p, cores) == mullineux(lam, p), lam


def test_twist_without_a_good_cell_fails_under_optimize():
    # python -O strips assert statements; without its explicit check the
    # twist would remove no cell and loop for ever.
    import repgrowth

    src = str(Path(repgrowth.__file__).parents[1])
    code = """
import sys
from repgrowth import partitions

partitions._signature = lambda neg, i, p: ([], [])  # no good cell anywhere
try:
    partitions.mullineux((3,), 3)
except AssertionError as e:
    print(sys.flags.optimize, e)
"""
    done = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=10,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "1 (3,) has no good cell\n"
