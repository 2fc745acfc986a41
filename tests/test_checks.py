"""The fail branch of each hand-written ``verify`` check, and of a sweep.

Each row rebinds one library name that a check reads from
``repgrowth.checks`` at run time and pins the fail detail the check then
reports.  Check p-050 is left out: ``pins(hook_length_dim, ...)`` binds the
function when the registry is built, so a rebinding does not reach it; its
fail branch is the shared one of ``pins``, which p-040 reaches.  The
weight generator of the sweeps is checked against its recursive oracle.
A check that raises is reported by ``verify`` as that check's failure.
Every block-covered sweep gives what the pointwise loop gives.
"""

import ast
import json
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest
from mpmath import iv

import repgrowth
from repgrowth import checks
from repgrowth.bounds import f_interval
from repgrowth.cli import main
from repgrowth.dominance import HypothesisError
from repgrowth.intervals import exact, exact_compare_cert, power

from oracles import brute_weights_up_to, envelope_reference, pointwise_sweep


def _invalid(*args, **kw):
    return SimpleNamespace(valid=False, guard_detail="forced invalid")


def _refuse(*args):
    raise HypothesisError("refused")


# (check id, name rebound in checks, replacement, fail detail).  In a-040
# and a-041 the claim breaks at a point inside a block and stays broken up
# to the top, so both sides stay nondecreasing; the detail is that of the
# pointwise loop.
FAILS = [
    ("a-040", "f_interval",
     lambda name, m: f_interval(name, m) * (2 ** 300 if m >= 150 else 1),
     "m = 150: lhs = [1.8009832192640255652417e+122, "
     "1.8009832192640255779635e+122], rhs = [2.8544953854119197621166e+45, "
     "2.8544953854119197621166e+45] (64 bits)"),
    ("a-041", "power",
     lambda base, expo: exact(1) if expo >= Fraction(19 * 41, 5)
     else power(base, expo),
     "m = 40: lhs = [414778368947861395.75, 414778368947861400.125], "
     "rhs = [1.0, 1.0] (64 bits)"),
    ("a-010", "k_sum_exact", lambda r, cap: 0, "computed 0, pinned 2415231"),
    ("a-020", "a5_good_family", lambda w: [], "0 members, orbit total 0"),
    ("a-060", "ratio_holds", lambda *args, **kw: exact_compare_cert(2, 1),
     "r = 5: lhs = 2, rhs = 1 (exact)"),
    ("a-090", "ENGINES", {"good": (_refuse, False)},
     "no engine produced a witness on the sweep"),
    ("a-100", "n_lambda", lambda datum, w: 10 ** 9,
     "weight (0, 0): closed-form count 1000000000 exceeds walk count 1"),
    ("a-101", "weyl_stabilizer_order", lambda datum, w: 1,
     "A3, weight (0, 0, 0)"),
    ("c2-010", "char2_counts", lambda r, m: (2, 1), "r = 0, m = 0: 2 > 1"),
    ("c2-020", "char2_counts", lambda r, m: (0, 0),
     "r = 1: full binomial tail is not 2^r"),
    ("p-020", "partition_bound", _invalid, "n = 1: forced invalid"),
    ("p-030", "k_sum_majorant", lambda cap: 0, "majorant 0"),
    ("p-030", "k_sum_bound", _invalid, "forced invalid"),
    ("p-031", "k_sum_bound", _invalid, "forced invalid"),
    ("p-040", "mullineux", lambda lam, p: lam,
     "(3,) at p = 3: got (3,), pinned (2, 1)"),
    ("p-041", "mullineux", lambda lam, p: lam + (1,),
     "(1,) at p = 3: image (1, 1)"),
    ("p-041", "mullineux", lambda lam, p: (sum(lam),),
     "(1, 1) at p = 3: not an involution"),
    ("p-042", "mullineux", lambda lam, p: lam,
     "(2,): p = 0 image differs from conjugate"),
    ("p-060", "hook_length_dim", lambda lam: 0,
     "(5,) at p = 3: half-power floor 1 exceeds straight-shape dimension 0"),
    ("s-040", "sym_rn_bound",
     lambda r, n, p, group: SimpleNamespace(
         certificates=(exact_compare_cert(5, 3),)),
     "r = 13: 5 >= 3"),
]


@pytest.mark.parametrize("cid,name,fake,detail", FAILS,
                         ids=[f"{row[0]}-{row[1]}" for row in FAILS])
def test_check_reports_fail(cid, name, fake, detail, monkeypatch):
    check, = (c for c in checks.CHECKS if c.id == cid)
    monkeypatch.setattr(checks, name, fake)
    assert check.run(64, "desk") == ("fail", detail)


@pytest.mark.parametrize("scale,calls", [("desk", 330), ("extended", 1104)])
def test_involution_check_twists_each_partition_once(scale, calls,
                                                     monkeypatch):
    seen = []
    twist = checks.mullineux

    def counted(lam, p):
        seen.append((lam, p))
        return twist(lam, p)

    monkeypatch.setattr(checks, "mullineux", counted)
    check, = (c for c in checks.CHECKS if c.id == "p-041")
    assert check.run(64, scale) == (
        "pass", f"{calls} regular partitions up to size "
        f"{14 if scale == 'extended' else 10}: twist twice returns the start")
    assert len(seen) == len(set(seen)) == calls


@pytest.mark.parametrize("error", [
    AssertionError("(3,) has no good cell"), TypeError("bad operand")])
def test_verify_reports_a_raising_check_as_failed(error, monkeypatch,
                                                   capsys):
    def broken(lam, p):
        raise error
    monkeypatch.setattr(checks, "mullineux", broken)
    code = main(["verify", "--suite", "partitions"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    results = json.loads(out)["checks"]
    assert len(results) == 12
    detail = f"{type(error).__name__}: {error}"
    assert {r["id"]: r["detail"] for r in results
            if r["verdict"] == "fail"} == dict.fromkeys(
                ["p-040", "p-041", "p-042"], detail)


def _check(cid):
    check, = (c for c in checks.CHECKS if c.id == cid)
    return check


def _xs(cid, scale):
    _, points, _, _ = _check(cid).run.args
    return list(points(scale) if callable(points) else points)


# the sweep rows whose step comes from f_below
BELOW = [c.id for c in checks.CHECKS
         if isinstance(c.run, partial) and c.run.func is checks._sweep
         and not callable(c.run.args[2])]


def test_the_f_below_rows():
    assert BELOW == ["a-040", "a-041", "a-050", "a-051", "a-052", "a-053"]


@pytest.mark.parametrize("bits", [24, 1024])
@pytest.mark.parametrize("scale", ["desk", "extended"])
@pytest.mark.parametrize("cid", BELOW)
def test_block_cover_matches_the_pointwise_sweep(cid, scale, bits):
    run = _check(cid).run
    assert run(bits, scale) == pointwise_sweep(*run.args, bits, scale)


# f2 (a-051) and d3 (a-052) fall from odd to even ranks; a-051's desk spot
# ranks happen to rise
@pytest.mark.parametrize("cid,scale,monotone", [
    ("a-040", "desk", True), ("a-041", "desk", True),
    ("a-050", "desk", True), ("a-050", "extended", True),
    ("a-051", "desk", True), ("a-051", "extended", False),
    ("a-052", "desk", False), ("a-052", "extended", False),
    ("a-053", "desk", True), ("a-060", "desk", False)])
def test_the_key_check_decides_which_sweeps_take_blocks(cid, scale,
                                                        monotone):
    step = _check(cid).run.args[2]
    assert checks._monotone(step, _xs(cid, scale)) is monotone


def test_a_base_that_dips_falls_back_and_reports_the_dip():
    run = checks.sweep("m", range(80, 201),
                       checks.f_below("f4", lambda m: 1 if m == 150 else 2,
                                      lambda m: m + 1), "certified")
    got = run(1024, "desk")
    assert got == pointwise_sweep(*run.args, 1024, "desk")
    assert got[1].startswith("m = 150: ")
    assert not checks._monotone(run.args[2], range(80, 201))


def test_a_monotone_claim_failing_inside_a_block_is_reported():
    # f4(19) < low < f4(20), so the claim fails at m = 20 alone; both sides
    # rise, and the block from the top stops above 20 because its probes
    # compare f4(32), not f4 at the probed point, with low
    low = int((envelope_reference("f4", 19)
               + envelope_reference("f4", 20)) / 2)
    run = checks.sweep("m", range(33),
                       checks.f_below("f4",
                                      lambda m: low if m <= 20 else 2 ** 200,
                                      lambda m: 1), "certified")
    got = run(1024, "desk")
    assert got == pointwise_sweep(*run.args, 1024, "desk")
    assert got[1].startswith("m = 20: ")
    assert checks._monotone(run.args[2], range(33))


def test_monotone_f4_sweeps_make_a_quarter_of_the_evaluations(monkeypatch):
    calls = []
    for name in ("f_interval", "power"):
        def counted(*args, _fn=getattr(checks, name)):
            calls.append((_fn, args, iv.prec))
            return _fn(*args)
        monkeypatch.setattr(checks, name, counted)
    for cid in ("a-040", "a-041"):
        assert _check(cid).run(1024, "desk")[0] == "pass"
    # pointwise: two sides at each of 121 + 74 points, 390 evaluations
    assert len(calls) <= 390 // 4
    assert len(set(calls)) == len(calls)  # once per point and precision


def test_weights_up_to_matches_the_recursive_oracle():
    for rank in range(8):
        for total in range(10):
            assert list(checks._weights_up_to(rank, total)) == \
                list(brute_weights_up_to(rank, total))


def test_no_self_check_is_a_bare_assert():
    # python -O strips assert statements, so every self-check in the
    # package raises explicitly.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(repgrowth.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
