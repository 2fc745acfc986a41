"""Witness engines: frozen examples, hypothesis gates, exhaustive sweeps."""

import json
import os
import subprocess
import sys
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repgrowth.dominance import HypothesisError, WitnessChain, bracket, is_good
from repgrowth.rootdata import RootDataError, root_datum
from repgrowth.witness import (
    a5_good_family,
    good_witness,
    incr_witness,
    m_good_witness,
    middle2_witness,
    middle_witness,
)

from oracles import (brute_weights_up_to, dense_root_combination,
                     simple_root_coefficients)


def centre(r):
    return (r - 1) // 2


def window(r, m):
    k = centre(r)
    return k - m + 1, r - k + m


# --- frozen examples --------------------------------------------------------
# Each row: engine inputs, expected witness, expected chain coefficients.
# The chain is re-verified through sub(source, root_combination(coeffs)), so
# the table only fixes values that integer arithmetic can recheck on the spot.

INCR_PINS = [
    (3, (3, 1, 0), 1, (1, 2, 0), (1, 0, 0)),
    (5, (0, 3, 0, 0, 1), 2, (1, 1, 1, 0, 1), (0, 1, 0, 0, 0)),
]

MIDDLE_PINS = [
    (5, (1, 0, 4, 0, 1), 1, (1, 1, 2, 1, 1), (0, 0, 1, 0, 0)),
    (7, (0, 0, 5, 5, 2, 0, 0), 2, (0, 1, 6, 1, 3, 1, 0), (0, 0, 1, 3, 1, 0, 0)),
]

M_GOOD_PINS = [
    (5, (3, 2, 4, 1, 2), 1, (3, 3, 2, 2, 2), (0, 0, 1, 0, 0)),
    (7, (2, 3, 1, 6, 1, 0, 2), 2, (2, 4, 2, 2, 2, 1, 2), (0, 0, 1, 3, 1, 0, 0)),
]

MIDDLE2_PINS = [
    (4, (2, 0, 0, 1), (0, 1, 0, 1), (1, 0, 0, 0)),
    (5, (1, 1, 0, 0, 2), (0, 0, 1, 0, 2), (1, 1, 0, 0, 0)),
]

GOOD_PINS = [
    (3, (3, 2, 2), (2, 1, 3), (1, 1, 0)),
    (4, (2, 3, 3, 2), (3, 2, 2, 3), (0, 1, 1, 0)),
    (5, (1, 2, 3, 2, 1), (3, 1, 1, 1, 3), (0, 2, 3, 2, 0)),
]


@pytest.mark.parametrize("rank,w,m,expect_mu,expect_coeffs", INCR_PINS)
def test_incr_pins(rank, w, m, expect_mu, expect_coeffs):
    datum = root_datum("A", rank)
    mu, chain = incr_witness(datum, w, m)
    assert mu == expect_mu
    assert chain.root_coeffs == expect_coeffs
    assert chain.verify(datum, w)
    assert bracket(datum, mu) == bracket(datum, w)
    assert mu[m] == w[m] + 1 and mu[m + 1:] == w[m + 1:]


@pytest.mark.parametrize("rank,w,m,expect_mu,expect_coeffs", MIDDLE_PINS)
def test_middle_pins(rank, w, m, expect_mu, expect_coeffs):
    datum = root_datum("A", rank)
    mu, chain = middle_witness(datum, w, m)
    assert mu == expect_mu
    assert chain.root_coeffs == expect_coeffs
    assert chain.verify(datum, w)
    lo, hi = window(rank, m)
    assert all(mu[i - 1] > 0 for i in range(lo, hi + 1))


@pytest.mark.parametrize("rank,w,m,expect_mu,expect_coeffs", M_GOOD_PINS)
def test_m_good_pins(rank, w, m, expect_mu, expect_coeffs):
    datum = root_datum("A", rank)
    mu, chain = m_good_witness(datum, w, m)
    assert mu == expect_mu
    assert chain.root_coeffs == expect_coeffs
    assert chain.verify(datum, w)
    lo, hi = window(rank, m)
    assert all(mu[i - 1] > 0 for i in range(lo, hi + 1))


@pytest.mark.parametrize("rank,w,expect_mu,expect_coeffs", MIDDLE2_PINS)
def test_middle2_pins(rank, w, expect_mu, expect_coeffs):
    datum = root_datum("A", rank)
    mu, chain = middle2_witness(datum, w)
    assert mu == expect_mu
    assert chain.root_coeffs == expect_coeffs
    assert chain.verify(datum, w)
    assert bracket(datum, mu) == bracket(datum, w)
    k = centre(rank)
    assert any(mu[t - 1] > 0 for t in (k + 1, rank - k))


def test_middle2_identity_when_centre_already_positive():
    datum = root_datum("A", 5)
    w = (4, 0, 1, 0, 0)
    mu, chain = middle2_witness(datum, w)
    assert mu == w
    assert chain.root_coeffs == (0, 0, 0, 0, 0)


@pytest.mark.parametrize("rank,w,expect_mu,expect_coeffs", GOOD_PINS)
def test_good_pins(rank, w, expect_mu, expect_coeffs):
    datum = root_datum("A", rank)
    mu, chain = good_witness(datum, w)
    assert mu == expect_mu
    assert chain.root_coeffs == expect_coeffs
    assert chain.verify(datum, w)
    assert is_good(mu)


# --- hypothesis gates -------------------------------------------------------

def test_incr_hypothesis_message():
    datum = root_datum("A", 3)
    with pytest.raises(HypothesisError, match="Σ i·a_i > m"):
        incr_witness(datum, (1, 1, 1), 1)


def test_middle_hypothesis_messages():
    with pytest.raises(HypothesisError, match=r"a_\(k\+1\) ≥ 2m\+1"):
        middle_witness(root_datum("A", 5), (4, 0, 2, 0, 4), 1)
    with pytest.raises(HypothesisError, match=r"a_\(k\+1\)\+a_\(k\+2\) ≥ 2m\+3"):
        middle_witness(root_datum("A", 4), (3, 1, 2, 3), 1)


def test_m_good_hypothesis_message():
    with pytest.raises(HypothesisError, match="bracket ≥"):
        m_good_witness(root_datum("A", 5), (1, 0, 0, 0, 1), 1)


def test_middle2_hypothesis_message():
    with pytest.raises(HypothesisError, match=r"bracket ≥ 2k\+1"):
        middle2_witness(root_datum("A", 5), (1, 0, 0, 0, 0))


def test_good_hypothesis_message():
    with pytest.raises(HypothesisError, match="2·bracket ≥"):
        good_witness(root_datum("A", 5), (1, 1, 1, 1, 1))


def test_window_parameter_bounds():
    a3 = root_datum("A", 3)
    for bad in (0, 2):
        with pytest.raises(HypothesisError, match="window parameter"):
            incr_witness(a3, (3, 1, 0), bad)
    with pytest.raises(HypothesisError, match="window parameter"):
        middle_witness(root_datum("A", 5), (0, 0, 9, 0, 0), 3)


def test_engines_require_type_a():
    datum = root_datum("B", 3)
    with pytest.raises(HypothesisError, match="type A only"):
        good_witness(datum, (1, 1, 1))


def test_engines_require_dominant():
    datum = root_datum("A", 3)
    with pytest.raises(HypothesisError, match="not dominant"):
        middle2_witness(datum, (1, -1, 3))


# Exception type and message at each public witness entry: the weight's
# length and entries are checked first, then dominance; the family first
# of all.
ENTRIES = {
    "incr": lambda datum, w: incr_witness(datum, w, 1),
    "middle": lambda datum, w: middle_witness(datum, w, 1),
    "m-good": lambda datum, w: m_good_witness(datum, w, 1),
    "middle2": middle2_witness,
    "good": good_witness,
    "bracket": bracket,
}
ENTRY_ERRORS = [
    ("A", (1, -1, 0, 2), HypothesisError,
     "weight (1, -1, 0, 2) is not dominant"),
    ("B", (1, 1, 1, 1), HypothesisError, "{what} defined for type A only"),
    ("B", (1, -1), HypothesisError, "{what} defined for type A only"),
    ("A", (1, 1, 1), RootDataError,
     "weight (1, 1, 1) is not an integer 4-tuple"),
    ("A", (1, 1, "x", 1), RootDataError,
     "weight (1, 1, 'x', 1) is not an integer 4-tuple"),
    ("A", (1.0, 1, 1, 1), RootDataError,
     "weight (1.0, 1, 1, 1) is not an integer 4-tuple"),
]


@pytest.mark.parametrize("name", ENTRIES)
@pytest.mark.parametrize("family,w,error,message", ENTRY_ERRORS)
def test_witness_entry_errors_pinned(name, family, w, error, message):
    what = ("bracket statistic is" if name == "bracket"
            else "witness engines are")
    with pytest.raises(error) as info:
        ENTRIES[name](root_datum(family, 4), w)
    assert type(info.value) is error
    assert str(info.value) == message.format(what=what)


@pytest.mark.parametrize("w,error,message", [
    ((1, -1, 0, 2, 0), HypothesisError,
     "weight (1, -1, 0, 2, 0) is not dominant"),
    ((1, 1, 1), RootDataError, "weight (1, 1, 1) is not an integer 5-tuple"),
    ((1,) * 6, RootDataError,
     "weight (1, 1, 1, 1, 1, 1) is not an integer 5-tuple"),
])
def test_a5_family_entry_errors_pinned(w, error, message):
    with pytest.raises(error) as info:
        a5_good_family(w)
    assert type(info.value) is error
    assert str(info.value) == message


# --- exhaustive sweeps ------------------------------------------------------

def middle_hypothesis_holds(rank, w, m):
    k = centre(rank)
    if rank % 2:
        return w[k] >= 2 * m + 1
    return w[k] + w[k + 1] >= 2 * m + 3


def m_good_threshold(rank, m):
    k = centre(rank)
    if rank % 2:
        return 2 * m * (k + 1) + 2 * k + 1
    return (2 * m + 2) * (k + 1) + 2 * k + 1


# The sweep's 5,721 chains span only 135 differences w - mu.
solve = lru_cache(maxsize=None)(simple_root_coefficients)


def assert_chain(datum, w, mu, chain):
    """The chain verifies, and its coefficients are those of w - mu solved
    over the oracle's dense Cartan matrix, not rootdata's sparse rows."""
    assert chain.verify(datum, w)
    diff = tuple(a - b for a, b in zip(w, mu))
    assert solve(datum, diff) == chain.root_coeffs


def test_exhaustive_sweep_small_ranks():
    """Run every engine on every dominant weight with coefficient sum <= 8,
    ranks 3..5, and check chains plus the promised output shapes.  Every
    chain is cross-checked against the oracle's linear solve."""
    hits = {"incr": 0, "middle": 0, "m-good": 0, "middle2": 0, "good": 0}
    for rank in (3, 4, 5):
        datum = root_datum("A", rank)
        k = centre(rank)
        for w in brute_weights_up_to(rank, 8):
            br = bracket(datum, w)
            for m in range(1, k + 1):
                if sum(i * w[i - 1] for i in range(1, m + 1)) > m:
                    mu, chain = incr_witness(datum, w, m)
                    assert_chain(datum, w, mu, chain)
                    assert bracket(datum, mu) == br
                    assert mu[m] == w[m] + 1
                    hits["incr"] += 1
                if middle_hypothesis_holds(rank, w, m):
                    mu, chain = middle_witness(datum, w, m)
                    assert_chain(datum, w, mu, chain)
                    lo, hi = window(rank, m)
                    assert all(mu[i - 1] > 0 for i in range(lo, hi + 1))
                    hits["middle"] += 1
                if br >= m_good_threshold(rank, m):
                    mu, chain = m_good_witness(datum, w, m)
                    assert_chain(datum, w, mu, chain)
                    lo, hi = window(rank, m)
                    assert all(mu[i - 1] > 0 for i in range(lo, hi + 1))
                    hits["m-good"] += 1
            if br >= 2 * k + 1:
                mu, chain = middle2_witness(datum, w)
                assert_chain(datum, w, mu, chain)
                assert any(mu[t - 1] > 0 for t in (k + 1, rank - k))
                assert bracket(datum, mu) == br
                hits["middle2"] += 1
            if 2 * br >= rank * rank + 2 * rank - 2:
                mu, chain = good_witness(datum, w)
                assert_chain(datum, w, mu, chain)
                assert is_good(mu)
                hits["good"] += 1
    # Every engine must actually have fired many times.
    assert all(count > 50 for count in hits.values()), hits


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 9), st.data())
def test_good_witness_property(rank, data):
    datum = root_datum("A", rank)
    w = data.draw(st.tuples(*[st.integers(0, 2 * rank)] * rank))
    if 2 * bracket(datum, w) < rank * rank + 2 * rank - 2:
        with pytest.raises(HypothesisError):
            good_witness(datum, w)
        return
    mu, chain = good_witness(datum, w)
    assert chain.verify(datum, w)
    assert is_good(mu)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 9), st.data())
def test_middle2_property(rank, data):
    datum = root_datum("A", rank)
    k = centre(rank)
    w = data.draw(st.tuples(*[st.integers(0, 6)] * rank))
    if bracket(datum, w) < 2 * k + 1:
        with pytest.raises(HypothesisError):
            middle2_witness(datum, w)
        return
    mu, chain = middle2_witness(datum, w)
    assert chain.verify(datum, w)
    assert any(mu[t - 1] > 0 for t in (k + 1, rank - k))
    assert bracket(datum, mu) == bracket(datum, w)


# --- rank-5 good families ---------------------------------------------------

def test_a5_family_canonical_input():
    family = a5_good_family((0, 0, 25, 0, 0))
    assert len(family) == 243
    members = [mu for mu, _ in family]
    assert len(set(members)) == 243
    assert members[0] == (5, 5, 5, 5, 5)
    assert members[-1] == (3, 5, 5, 5, 3)
    datum = root_datum("A", 5)
    for mu, chain in family:
        assert is_good(mu)
        assert chain.verify(datum, (0, 0, 25, 0, 0))


def test_a5_family_orbit_total():
    # Good weights have trivial stabilizer, so each orbit has 720 elements.
    from repgrowth.dominance import orbit_length

    datum = root_datum("A", 5)
    family = a5_good_family((0, 0, 25, 0, 0))
    total = sum(orbit_length(datum, mu) for mu, _ in family)
    assert total == 243 * 720 == 174960


def test_a5_family_bracket_route():
    w = (20, 10, 1, 10, 20)
    family = a5_good_family(w)
    assert len(family) == 243
    datum = root_datum("A", 5)
    for mu, chain in family:
        assert is_good(mu)
        assert chain.verify(datum, w)


@pytest.mark.parametrize("w,base", [
    ((0, 0, 25, 0, 0), (0, 5, 15, 5, 0)),
    ((20, 10, 1, 10, 20), None),
])
def test_a5_family_matches_dense_rebuild(w, base):
    # Rebuild every member from scratch with the dense product: the chain
    # coefficients are base + delta over {0, 1, 2}^5 in lexicographic order.
    datum = root_datum("A", 5)
    family = a5_good_family(w)
    if base is None:
        base = family[0][1].root_coeffs
    expected = []
    for delta in product(range(3), repeat=5):
        coeffs = tuple(b + d for b, d in zip(base, delta))
        drop = dense_root_combination(datum, coeffs)
        expected.append((tuple(a - b for a, b in zip(w, drop)), coeffs))
    assert [(mu, chain.root_coeffs) for mu, chain in family] == expected
    assert all(chain.target == mu for mu, chain in family)


def test_a5_family_hypothesis_message():
    with pytest.raises(HypothesisError, match="bracket ≥ 77"):
        a5_good_family((0, 0, 24, 0, 0))



# --- one check per promise, in the engine -----------------------------------

# A broken engine: the weight loses times copies of the run alpha_i + ... +
# alpha_j, but the chain forgets one alpha_j.  Source text, so a python -O
# subprocess runs it too.
_DROP_LAST_ROOT = """
from repgrowth import witness

_sub_consec = witness._sub_consec


def _drop_last_root(a, kvec, i, j, times=1):
    _sub_consec(a, kvec, i, j, times)
    kvec[j - 1] -= 1
"""

_A090_BROKEN = ("fail", "good on (0, 3) (m = None): "
                "witness chain failed self-check")


def _check(cid):
    from repgrowth.checks import suite_checks

    check, = (c for c in suite_checks("typeA") if c.id == cid)
    return check


@pytest.fixture
def broken_engine(monkeypatch):
    from repgrowth import witness

    space = {}
    exec(_DROP_LAST_ROOT, space)
    monkeypatch.setattr(witness, "_sub_consec", space["_drop_last_root"])


def test_broken_engine_fails_the_sweep(broken_engine):
    assert _check("a-090").run(64, "desk") == _A090_BROKEN


# The centre-clearing engines build their weight by root steps too, so a
# chain that loses a root no longer matches it.
@pytest.mark.parametrize("engine,w,m", [
    (middle_witness, (0, 3, 0), 1),
    (m_good_witness, (0, 4, 0), 1),
    (good_witness, (0, 7, 0), None),
], ids=["middle", "m-good", "good"])
def test_broken_engine_fails_the_centre_chain_check(broken_engine, engine,
                                                    w, m):
    args = (root_datum("A", 3), w) + ((m,) if m else ())
    with pytest.raises(AssertionError,
                       match="^witness chain failed self-check$"):
        engine(*args)


def test_broken_family_chain_fails_its_check(monkeypatch):
    from repgrowth import witness

    # every member chain loses its alpha_5 coefficient; the first member's
    # has none to lose
    monkeypatch.setattr(witness, "add",
                        lambda u, v: (*map(sum, zip(u, v)),)[:4] + (0,))
    assert _check("a-020").run(64, "desk") == (
        "fail", "a5 family on (0, 0, 25, 0, 0): chain for (5, 5, 5, 6, 3) "
                "failed on input (0, 0, 25, 0, 0)")


def test_broken_engine_fails_verify_without_a_traceback(broken_engine,
                                                        capsys):
    from repgrowth.cli import main

    code = main(["verify", "--suite", "typeA"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    a090, = (c for c in json.loads(out)["checks"] if c["id"] == "a-090")
    assert (a090["verdict"], a090["detail"]) == _A090_BROKEN


# The command line reports an engine that fails its own check as a JSON
# error of type self-check, not as a traceback.
@pytest.mark.parametrize("argv,message", [
    (("middle2", "--rank", "3", "--weight", "0,0,3"),
     "witness chain failed self-check"),
    (("a5", "--weight", "0,0,0,0,80"),
     "family base (5, 5, -20, 30, 35) has a coefficient below 5"),
], ids=["middle2", "a5"])
def test_broken_engine_is_a_self_check_error(broken_engine, capsys, argv,
                                             message):
    from repgrowth.cli import main

    code = main(["witness", *argv])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": {"type": "self-check",
                                         "message": message}}


def test_broken_engine_fails_the_sweep_under_optimize():
    # python -O strips assert statements; the engine checks must survive.
    import repgrowth

    src = str(Path(repgrowth.__file__).parents[1])
    code = _DROP_LAST_ROOT + """
witness._sub_consec = _drop_last_root

import sys
from repgrowth.checks import suite_checks

check, = (c for c in suite_checks("typeA") if c.id == "a-090")
print(sys.flags.optimize, check.run(64, "desk"))
"""
    done = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"1 {_A090_BROKEN!r}\n"


@pytest.fixture
def verify_calls(monkeypatch):
    calls = []
    verify = WitnessChain.verify

    def counted(self, datum, source):
        calls.append(source)
        return verify(self, datum, source)
    monkeypatch.setattr(WitnessChain, "verify", counted)
    return calls


def test_sweep_verifies_each_chain_once(verify_calls):
    # middle2 returns a weight with a positive centre unchanged, with the
    # zero chain and no verify: 268 of the 596 witnesses
    verdict, detail = _check("a-090").run(64, "desk")
    assert verdict == "pass"
    assert detail.startswith("596 witnesses re-verified out of ")
    assert len(verify_calls) == 328


@pytest.mark.parametrize("argv,field,calls", [
    (["good", "--rank", "5", "--weight", "1,2,3,2,1"], "verified", 1),
    (["a5", "--weight", "0,0,25,0,0"], "all_verified", 243),
])
def test_witness_command_verifies_each_chain_once(verify_calls, capsys, argv,
                                                  field, calls):
    from repgrowth.cli import main

    assert main(["witness", *argv]) == 0
    assert json.loads(capsys.readouterr().out)[field] is True
    assert len(verify_calls) == calls
