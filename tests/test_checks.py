"""The fail branch of each hand-written ``verify`` check, and of a sweep.

Each row rebinds one library name that a check reads from
``repgrowth.checks`` at run time and pins the fail detail the check then
reports.  Check p-050 is left out: ``pins(hook_length_dim, ...)`` binds the
function when the registry is built, so a rebinding does not reach it; its
fail branch is the shared one of ``pins``, which p-040 reaches.  The
weight generator of the sweeps is checked against its recursive oracle.
"""

from types import SimpleNamespace

import pytest

from repgrowth import checks
from repgrowth.dominance import HypothesisError
from repgrowth.intervals import exact_compare_cert

from oracles import brute_weights_up_to


def _invalid(*args, **kw):
    return SimpleNamespace(valid=False, guard_detail="forced invalid")


def _refuse(*args):
    raise HypothesisError("refused")


# (check id, name rebound in checks, replacement, fail detail)
FAILS = [
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


def test_weights_up_to_matches_the_recursive_oracle():
    for rank in range(8):
        for total in range(10):
            assert list(checks._weights_up_to(rank, total)) == \
                list(brute_weights_up_to(rank, total))
