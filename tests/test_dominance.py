"""Dominance chains, Weyl orbit sizes, and saturated-set walks."""

import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repgrowth.bounds import premet_lower
from repgrowth.dominance import (
    HypothesisError,
    SaturationCapError,
    WitnessChain,
    bracket,
    dominance_witness,
    orbit_length,
    saturated_dominant_set,
    saturated_weight_total,
    weyl_order,
    weyl_stabilizer_order,
)
from repgrowth.rootdata import is_dominant, positive_roots, root_datum

from oracles import (brute_dominants_below, brute_orbit,
                     brute_saturated_total, brute_saturated_walk,
                     dense_root_combination, simple_root_coefficients)

SMALL_DATA = [
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
    ("C", 3), ("D", 4), ("G", 2), ("F", 4),
]


# --- bracket statistic ------------------------------------------------------

def test_bracket_pins():
    a5 = root_datum("A", 5)
    assert bracket(a5, (1, 2, 3, 2, 1)) == 19
    assert bracket(root_datum("A", 3), (3, 1, 0)) == 5
    assert bracket(root_datum("A", 1), (4,)) == 4
    assert bracket(root_datum("A", 2), (1, 1)) == 2


def test_bracket_weights_every_rank():
    for r in range(1, 13):
        w = tuple(range(1, r + 1))
        assert bracket(root_datum("A", r), w) == sum(
            min(i, r + 1 - i) * i for i in range(1, r + 1))


def test_bracket_requires_type_a():
    with pytest.raises(HypothesisError):
        bracket(root_datum("B", 2), (1, 1))


def test_bracket_requires_dominant():
    with pytest.raises(HypothesisError):
        bracket(root_datum("A", 3), (1, -1, 0))


@given(st.integers(min_value=1, max_value=7), st.data())
def test_bracket_reversal_symmetric(rank, data):
    datum = root_datum("A", rank)
    w = data.draw(st.tuples(*[st.integers(0, 9)] * rank))
    assert bracket(datum, w) == bracket(datum, tuple(reversed(w)))


# --- dominance witnesses ----------------------------------------------------

def test_dominance_witness_adjoint_a2():
    datum = root_datum("A", 2)
    chain = dominance_witness(datum, (1, 1), (0, 0))
    assert chain is not None
    assert chain.root_coeffs == (1, 1)
    assert chain.verify(datum, (1, 1))


def test_dominance_witness_none_when_unrelated():
    datum = root_datum("A", 2)
    assert dominance_witness(datum, (1, 0), (0, 1)) is None
    assert dominance_witness(datum, (0, 0), (1, 1)) is None


@pytest.mark.parametrize("lam,mu", [((1, 1), (2, -1)), ((2, -1), (0, 0))])
def test_dominance_witness_requires_dominant_weights(lam, mu):
    with pytest.raises(HypothesisError):
        dominance_witness(root_datum("A", 2), lam, mu)


@pytest.mark.parametrize("family,rank,lam", [
    ("A", 2, (2, 2)),
    ("A", 3, (1, 1, 1)),
    ("B", 2, (2, 1)),
    ("C", 3, (1, 0, 1)),
    ("G", 2, (1, 1)),
])
def test_dominance_witness_matches_brute_search(family, rank, lam):
    datum = root_datum(family, rank)
    expected = brute_dominants_below(datum, lam)
    for mu in expected:
        chain = dominance_witness(datum, lam, mu)
        assert chain is not None and chain.verify(datum, lam)
    # Spot-check a few dominant non-members.
    grid = [tuple(w) for w in _box(rank, 3)]
    for mu in grid:
        found = dominance_witness(datum, lam, mu) is not None
        assert found == (mu in expected)


def _box(rank, top):
    if rank == 0:
        yield ()
        return
    for head in range(top + 1):
        for tail in _box(rank - 1, top):
            yield (head,) + tail


def test_witness_chain_rejects_malformed():
    datum = root_datum("A", 2)
    assert not WitnessChain((0, 0), (1,)).verify(datum, (1, 1))
    assert not WitnessChain((0, 0), (-1, 1)).verify(datum, (1, 1))
    assert not WitnessChain((1, 0), (1, 1)).verify(datum, (1, 1))


def test_witness_chain_is_a_read_only_value_record():
    chain = WitnessChain((1, 0), (1, 1))
    same = WitnessChain(target=(1, 0), root_coeffs=(1, 1))
    assert (chain.target, chain.root_coeffs) == ((1, 0), (1, 1))
    assert chain == same and hash(chain) == hash(same)
    assert chain != WitnessChain((1, 0), (1, 2))
    assert repr(chain) == "WitnessChain(target=(1, 0), root_coeffs=(1, 1))"
    for name in ("target", "root_coeffs", "extra"):
        with pytest.raises(AttributeError):
            setattr(chain, name, (0, 0))
    assert chain == same
    clones = [copy.copy(chain), copy.deepcopy(chain)] + [
        pickle.loads(pickle.dumps(chain, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones:
        assert type(clone) is WitnessChain and clone == chain
        assert clone.verify(root_datum("A", 2), (2, 1))


@pytest.mark.parametrize("family,rank", [("A", 5), ("B", 3), ("G", 2)])
def test_witness_chain_rejects_bad_chains(family, rank):
    datum = root_datum(family, rank)
    coeffs = tuple(range(1, rank + 1))
    source = tuple(range(3, 3 + rank))
    target = tuple(s - d for s, d in zip(
        source, dense_root_combination(datum, coeffs)))
    assert WitnessChain(target, coeffs).verify(datum, source)
    # Fraction and float entries keep their integer values, so only the
    # type test can turn them away.
    bad = [coeffs[:-1], coeffs + (0,), (-1,) + coeffs[1:],
           (Fraction(coeffs[0]),) + coeffs[1:], coeffs[:-1] + (float(rank),)]
    for root_coeffs in bad:
        assert not WitnessChain(target, root_coeffs).verify(datum, source)
    wrong = (target[0] + 1,) + target[1:]
    assert not WitnessChain(wrong, coeffs).verify(datum, source)

# --- Weyl group orders ------------------------------------------------------

WEYL_PINS = {
    ("A", 1): 2,
    ("A", 3): 24,
    ("B", 2): 8,
    ("B", 3): 48,
    ("C", 4): 384,
    ("D", 4): 192,
    ("D", 5): 1920,
    ("G", 2): 12,
    ("F", 4): 1152,
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
}


@pytest.mark.parametrize("family,rank", sorted(WEYL_PINS))
def test_weyl_order_pins(family, rank):
    assert weyl_order(root_datum(family, rank)) == WEYL_PINS[family, rank]


def test_stabilizer_pins():
    b3 = root_datum("B", 3)
    assert weyl_stabilizer_order(b3, (0, 1, 0)) == 4
    assert weyl_stabilizer_order(b3, (1, 1, 1)) == 1
    assert weyl_stabilizer_order(b3, (0, 0, 0)) == 48
    e6 = root_datum("E", 6)
    assert weyl_stabilizer_order(e6, (1, 0, 0, 0, 0, 0)) == 1920


def test_stabilizer_requires_dominant():
    with pytest.raises(HypothesisError):
        weyl_stabilizer_order(root_datum("A", 2), (1, -1))


@pytest.mark.parametrize("family,rank", SMALL_DATA)
def test_orbit_length_matches_brute_orbit(family, rank):
    datum = root_datum(family, rank)
    for w in _box(rank, 2):
        assert orbit_length(datum, w) == len(brute_orbit(datum, w))


@pytest.mark.parametrize("family,rank", SMALL_DATA)
def test_orbit_stabilizer_product(family, rank):
    datum = root_datum(family, rank)
    order = weyl_order(datum)
    for w in _box(rank, 2):
        assert orbit_length(datum, w) * weyl_stabilizer_order(datum, w) == order


CLOSURE_DATA = (
    [("A", r) for r in range(1, 7)]
    + [("B", r) for r in range(2, 6)]
    + [("C", r) for r in range(2, 6)]
    + [("D", r) for r in range(3, 6)]
    + [("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("family,rank", CLOSURE_DATA)
def test_parabolic_orders_match_closure(family, rank):
    """Every stabilizer order is |W| over an orbit counted by reflecting."""
    datum = root_datum(family, rank)
    group = len(brute_orbit(datum, (1,) * rank))
    for w in itertools.product((0, 1), repeat=rank):
        orbit = len(brute_orbit(datum, w))
        assert weyl_stabilizer_order(datum, w) == group // orbit, w


# --- saturated sets ---------------------------------------------------------

def test_saturated_total_adjoint_a2():
    # Six roots plus the zero weight.
    datum = root_datum("A", 2)
    assert saturated_weight_total(datum, (1, 1)) == 7


def test_saturated_total_short_root_g2():
    datum = root_datum("G", 2)
    assert saturated_weight_total(datum, (1, 0)) == 7


@pytest.mark.parametrize("family,rank,lam", [
    ("A", 2, (2, 2)),
    ("A", 3, (1, 0, 1)),
    ("B", 2, (1, 1)),
    ("C", 3, (1, 0, 0)),
    ("G", 2, (0, 1)),
])
def test_saturated_total_matches_brute(family, rank, lam):
    datum = root_datum(family, rank)
    assert saturated_weight_total(datum, lam) == brute_saturated_total(datum, lam)


@pytest.mark.parametrize("family,rank,lam", [
    ("A", 2, (3, 1)),
    ("B", 3, (1, 0, 1)),
    ("D", 4, (0, 1, 0, 0)),
])
def test_saturated_set_partitions_into_orbits(family, rank, lam):
    """Orbit sizes of the dominant members add up to the walk total."""
    datum = root_datum(family, rank)
    members = saturated_dominant_set(datum, lam)
    assert members[0][0] == lam
    weights = [mu for mu, _ in members]
    assert weights == sorted(weights, reverse=True)
    for mu, chain in members:
        assert is_dominant(mu)
        assert chain.verify(datum, lam)
    total = sum(orbit_length(datum, mu) for mu, _ in members)
    assert total == saturated_weight_total(datum, lam)


def test_saturated_walk_rejects_non_dominant():
    with pytest.raises(HypothesisError):
        saturated_weight_total(root_datum("A", 2), (1, -1))


def test_saturation_cap_enforced():
    with pytest.raises(SaturationCapError):
        saturated_weight_total(root_datum("A", 3), (2, 2, 2), cap=5)


@pytest.mark.parametrize("family,rank,lam,size", [
    ("A", 2, (1, 1), 7),
    ("F", 4, (1, 0, 0, 0), 49),
])
def test_saturation_cap_boundary(family, rank, lam, size):
    """The cap bounds the size of the whole saturated set, images included."""
    datum = root_datum(family, rank)
    assert saturated_weight_total(datum, lam, cap=size) == size
    with pytest.raises(SaturationCapError) as err:
        saturated_weight_total(datum, lam, cap=size - 1)
    assert str(err.value) == f"saturated set of {lam} exceeds cap {size - 1}"


@pytest.mark.parametrize("cap", [0, -5])
def test_saturation_cap_below_one_rejected(cap):
    datum = root_datum("A", 2)
    with pytest.raises(ValueError, match="cap must be >= 1"):
        saturated_weight_total(datum, (0, 0), cap=cap)
    with pytest.raises(ValueError, match="cap must be >= 1"):
        saturated_dominant_set(datum, (0, 0), cap=cap)
    with pytest.raises(ValueError, match="cap must be >= 1"):
        premet_lower(datum, (0, 0), 5, cap=cap)


# Criterion 7's type-A box (coefficients 0-4) and small boxes elsewhere;
# top None walks the fundamental weights (E7 omega_4: 24,753 weights).
WALK_BOXES = [
    ("A", 1, 4), ("A", 2, 4), ("A", 3, 4), ("B", 3, 3), ("C", 3, 3),
    ("D", 4, 2), ("G", 2, 5), ("B", 4, 1), ("F", 4, 1),
    ("E", 6, None), ("E", 7, None),
]


@pytest.mark.parametrize("family,rank,top", WALK_BOXES)
def test_saturated_walk_matches_full_walk(family, rank, top):
    """The dominant-only walk against the walk over the whole saturated
    set: same dominant members, same chains, and orbit sums that count
    the whole set."""
    datum = root_datum(family, rank)
    weights = (_box(rank, top) if top is not None else
               [tuple(int(i == j) for j in range(rank)) for i in range(rank)])
    for lam in weights:
        dominants, size = brute_saturated_walk(datum, lam)
        members = saturated_dominant_set(datum, lam)
        assert [(mu, chain.root_coeffs) for mu, chain in members] == dominants
        assert sum(orbit_length(datum, mu) for mu, _ in members) == size
        assert saturated_weight_total(datum, lam) == size
        assert premet_lower(datum, lam, 7) == size


# --- the packed walk ---------------------------------------------------------

def _matches_brute_walk(datum, lam):
    dominants, size = brute_saturated_walk(datum, lam)
    members = saturated_dominant_set(datum, lam)
    assert [(mu, chain.root_coeffs) for mu, chain in members] == dominants
    assert saturated_weight_total(datum, lam) == size
    return dominants


@pytest.mark.parametrize("family,rank,lam,top", [
    ("B", 3, (0, 3, 0), 4), ("G", 2, (0, 6), 9),
    ("F", 4, (0, 1, 1, 1), 4), ("B", 4, (0, 1, 2, 0), 4),
])
def test_packed_walk_holds_members_above_the_weight_sum(family, rank, lam,
                                                        top):
    """A member coordinate can exceed sum(lam), so a field width taken from
    sum(lam) alone would overflow; the ht(theta) factor makes room."""
    dominants = _matches_brute_walk(root_datum(family, rank), lam)
    assert max(max(mu) for mu, _ in dominants) == top > sum(lam)


# ht(theta) * sum(lam) just below a power of two and at or just past one.
# ht(theta) is odd in B, G and F (2r - 1, 5, 11), so no multiple of it is a
# power of two there, and F4's first 2^k - 1 (1023) needs sum(lam) = 93.
BIT_EDGES = [
    ("A", 1, (7,), 7), ("A", 1, (8,), 8), ("A", 1, (15,), 15),
    ("A", 1, (16,), 16), ("A", 3, (5, 0, 0), 15), ("A", 2, (2, 2), 8),
    ("A", 2, (4, 4), 16), ("B", 3, (1, 1, 1), 15), ("B", 3, (0, 0, 4), 20),
    ("B", 2, (5, 0), 15), ("B", 2, (0, 6), 18), ("G", 2, (0, 3), 15),
    ("G", 2, (1, 2), 15), ("G", 2, (0, 4), 20), ("F", 4, (0, 0, 0, 2), 22),
    ("F", 4, (1, 0, 0, 2), 33),
]


@pytest.mark.parametrize("family,rank,lam,top", BIT_EDGES)
def test_packed_walk_at_the_field_width_edges(family, rank, lam, top):
    datum = root_datum(family, rank)
    assert sum(positive_roots(datum)[-1][0]) * sum(lam) == top  # ht(theta)
    _matches_brute_walk(datum, lam)


@pytest.mark.parametrize("family,rank,lam,cap", [
    ("A", 2, (2 ** 70, 0), 5), ("G", 2, (0, 2 ** 80), 100),
    ("F", 4, (3 ** 50, 0, 0, 1), 1000),
])
def test_saturation_cap_on_wide_fields(family, rank, lam, cap):
    with pytest.raises(SaturationCapError) as err:
        saturated_weight_total(root_datum(family, rank), lam, cap=cap)
    assert str(err.value) == f"saturated set of {lam} exceeds cap {cap}"


# The benchmark's saturated data, each with its box of restricted weights.
SATURATED_DATA = [("A", 3, 5), ("A", 4, 5), ("B", 3, 5), ("C", 3, 5),
                  ("B", 4, 3), ("D", 4, 3), ("G", 2, 7), ("F", 4, 3)]


@pytest.mark.parametrize("family,rank,p", SATURATED_DATA)
def test_premet_lower_matches_brute_on_benchmark_data(family, rank, p):
    """Four seeded box weights per datum, among those whose brute search
    box has at most 10^4 coefficient vectors."""
    datum = root_datum(family, rank)
    pool = []
    for lam in itertools.product(range(p), repeat=rank):
        box = int(max(simple_root_coefficients(datum, lam))) + 1
        if (box + 1) ** rank <= 10 ** 4:
            pool.append((lam, box))
    for lam, box in random.Random(f"{family}{rank}-{p}").sample(pool, 4):
        assert (premet_lower(datum, lam, p)
                == brute_saturated_total(datum, lam, box=box)), lam


def test_positive_roots_built_once_per_datum():
    datum = root_datum("F", 4)
    premet_lower(datum, (1, 0, 0, 0), 5)
    before = positive_roots.cache_info().misses
    for lam in [(0, 1, 0, 0), (1, 1, 0, 0), (2, 0, 1, 0)]:
        premet_lower(datum, lam, 5)
        saturated_dominant_set(datum, lam)
    assert positive_roots.cache_info().misses == before


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbit_sum_property(data):
    family, rank = data.draw(st.sampled_from(SMALL_DATA[:7]))
    datum = root_datum(family, rank)
    lam = data.draw(st.tuples(*[st.integers(0, 2)] * rank))
    members = saturated_dominant_set(datum, lam, cap=10 ** 5)
    total = sum(orbit_length(datum, mu) for mu, _ in members)
    assert total == saturated_weight_total(datum, lam, cap=10 ** 5)


def test_broken_walk_fails_its_chain_check_under_optimize():
    # python -O strips assert statements; the walk's chain check must survive.
    import repgrowth

    src = str(Path(repgrowth.__file__).parents[1])
    code = """
import sys
from repgrowth import dominance
from repgrowth.rootdata import root_datum

dominance.add = lambda coeffs, c: coeffs  # every chain stays at zero
try:
    dominance.saturated_dominant_set(root_datum("A", 2), (1, 1))
except AssertionError as e:
    print(sys.flags.optimize, e)
"""
    done = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "1 walk chain for (0, 0) failed on (1, 1)\n"
