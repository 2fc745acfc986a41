"""Partition counting, regular partitions, hooks, and the growth arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repgrowth.bounds import (
    ExactValue,
    ExternalValue,
    Root2Power,
    b_iv,
    bound3_value,
    k_sum_bound,
    partition_bound,
    sym_rn_bound,
)
from repgrowth.dominance import HypothesisError
from repgrowth.partitions import (
    check_partition,
    check_regular,
    conjugate,
    hook_length_dim,
    k_sum_exact,
    k_sum_majorant,
    m_p,
    mullineux,
    p_regular_partitions,
    partition_count,
)
from repgrowth.intervals import enclosure

from oracles import (
    brute_conjugate,
    brute_k_count,
    brute_k_majorant,
    brute_k_total,
    brute_partition_count,
    brute_partitions,
    brute_regular,
    brute_syt_count,
    is_regular,
    rim_symbol,
)


# --- partition function -------------------------------------------------------

def test_partition_count_pins():
    assert partition_count(0) == 1
    assert partition_count(21) == 792
    assert partition_count(39) == 31185
    assert partition_count(60) == 966467


def test_partition_count_matches_brute():
    for n in range(41):
        assert partition_count(n) == brute_partition_count(n)


def test_partition_count_guard():
    with pytest.raises(HypothesisError):
        partition_count(-1)


@pytest.mark.parametrize("n", [1, 39, 100, 1000])
def test_partition_envelope_certified(n):
    report = partition_bound(n)
    assert report.valid
    assert report.certificates[0].certified
    assert report.value.kind == "interval"


# --- weighted compositions ------------------------------------------------------

def test_k_sum_exact_matches_summed_brute_counts():
    for r in range(1, 6):
        counts = [brute_k_count(r, s) for s in range(26)]
        for cap in range(26):
            assert k_sum_exact(r, cap) == sum(counts[:cap + 1])


def test_k_sum_exact_pin():
    assert k_sum_exact(5, 76) == 2415231


def test_k_sum_exact_matches_brute():
    for r, cap in [(2, 25), (3, 20), (5, 40), (7, 15)]:
        assert k_sum_exact(r, cap) == brute_k_total(r, cap)


def test_k_sum_majorant_pin():
    assert k_sum_majorant(76) == 136531526805


def test_k_sum_majorant_matches_the_double_sum():
    for cap in range(201):
        assert k_sum_majorant(cap) == brute_k_majorant(cap)


def test_k_sum_majorant_dominates_every_rank():
    for cap in (0, 1, 7, 25, 40):
        maj = k_sum_majorant(cap)
        for r in range(1, 9):
            assert k_sum_exact(r, cap) <= maj


def test_k_sum_bound_certifies():
    report = k_sum_bound(76)
    assert report.valid and report.certificates[0].certified


def test_k_sum_bound_boundary_cap():
    report = k_sum_bound(0)
    assert report.valid
    assert "non-strictly" in report.guard_detail


@pytest.mark.parametrize("report", [
    lambda: partition_bound(1, bits=16),
    lambda: partition_bound(39, bits=16),
    lambda: partition_bound(100, bits=16),
    lambda: partition_bound(1000, bits=16),
    lambda: k_sum_bound(76, bits=16),
    lambda: k_sum_bound(0, bits=16),
    lambda: sym_rn_bound(13, 1503, 5, "S", bits=16),
    lambda: sym_rn_bound(40, 10 ** 6, 5, "S", bits=16),
])
def test_report_certificates_stay_under_report_bits(report):
    # the report's bits is the ceiling for its certificates, not only for
    # its printed value
    rep = report()
    assert rep.certificates
    assert all(0 < c.prec_bits <= 16 for c in rep.certificates)
    assert rep.valid


def test_k_sum_exact_guards():
    with pytest.raises(HypothesisError):
        k_sum_exact(0, 3)
    with pytest.raises(HypothesisError):
        k_sum_exact(2, -1)


@pytest.mark.parametrize("call,message", [
    (lambda: partition_bound(0), "envelope comparison needs n >= 1"),
    (lambda: k_sum_bound(-1), "need cap >= 0"),
    (lambda: list(p_regular_partitions(-1, 3)), "need n >= 0"),
], ids=["partition_bound", "k_sum_bound", "p_regular_partitions"])
def test_argument_guards(call, message):
    with pytest.raises(HypothesisError) as err:
        call()
    assert str(err.value) == message


# --- regular partitions -----------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_regular_partitions_match_brute(p):
    for n in range(13):
        got = set(p_regular_partitions(n, p))
        assert got == set(brute_regular(n, p))
        assert all(is_regular(lam, p) for lam in got)


def test_zero_characteristic_yields_all_partitions():
    for n in range(11):
        assert set(p_regular_partitions(n, 0)) == set(brute_partitions(n))


def test_check_regular_spots():
    with pytest.raises(HypothesisError) as err:
        check_regular((2, 2, 2), 3)
    assert str(err.value) == "part 2 repeats 3 times (p = 3)"
    assert check_regular((2, 2, 2), 5) == (2, 2, 2)
    assert check_regular((), 3) == ()


def test_check_partition_guards():
    with pytest.raises(HypothesisError):
        check_partition((2, 3))
    with pytest.raises(HypothesisError):
        check_partition((1, 0))


@pytest.mark.parametrize("lam", [(2.5, 1), ("3", True), (3.0,), (2, None)])
def test_check_partition_rejects_non_integer_parts(lam):
    """Parts are never truncated or coerced: every caller refuses."""
    for call in (check_partition, hook_length_dim, conjugate,
                 lambda lam: m_p(lam, 3), lambda lam: mullineux(lam, 3)):
        with pytest.raises(HypothesisError, match="parts must be integers"):
            call(lam)


# --- conjugation ---------------------------------------------------------------

def test_conjugate_matches_brute():
    for n in range(13):
        for lam in brute_partitions(n):
            assert conjugate(lam) == brute_conjugate(lam)


def test_conjugate_pin():
    assert conjugate((5, 4)) == (2, 2, 2, 2, 1)


@given(st.lists(st.integers(1, 12), min_size=0, max_size=10))
def test_conjugate_involution(parts):
    lam = tuple(sorted(parts, reverse=True))
    assert conjugate(conjugate(lam)) == lam


# --- rim symbols and the half-power bound ----------------------------------------

def test_rim_symbol_pins():
    assert rim_symbol((5, 4), 5) == ((5, 2), (4, 2))
    assert rim_symbol((3, 2), 3) == ((3, 2), (2, 2))
    assert rim_symbol((1,), 3) == ((1, 1),)


def test_rim_symbol_total_is_size():
    for n in range(1, 12):
        for p in (3, 5):
            for lam in brute_regular(n, p):
                sym = rim_symbol(lam, p)
                assert sum(a for a, _ in sym) == n
                assert all(1 <= rows <= a for a, rows in sym)


def test_m_p_values():
    assert m_p((3, 1), 2) == 3
    assert m_p((3, 1, 1), 0) == 3
    assert m_p((2, 1, 1, 1), 0) == 4
    assert m_p((5, 4), 5) == 5
    assert m_p((3, 2), 3) == 5
    assert m_p((), 3) == 0


def test_m_p_requires_regular():
    with pytest.raises(HypothesisError):
        m_p((2, 2, 2), 3)


def test_bound3_value_pin():
    report = bound3_value((3, 2), 3)
    assert report.value == Root2Power(halves=0)
    report = bound3_value((5, 4), 5)
    # n = 9, m = 5: the bound is 2^2.
    assert report.value == Root2Power(halves=4)


def test_bound3_needs_five_cells():
    with pytest.raises(HypothesisError):
        bound3_value((2, 2), 3)


# --- hook lengths ----------------------------------------------------------------

def test_hook_length_pins():
    assert hook_length_dim((3, 2)) == 5
    assert hook_length_dim((4, 1)) == 4
    assert hook_length_dim((2, 2, 1)) == 5
    assert hook_length_dim((4, 3, 2, 1)) == 768


def test_hook_length_matches_brute():
    for n in range(1, 13):
        for lam in brute_partitions(n):
            assert hook_length_dim(lam) == brute_syt_count(lam)


def test_hook_length_square_sum():
    # Classical identity: the squares over all shapes of n sum to n!.
    from math import factorial

    for n in range(1, 11):
        total = sum(hook_length_dim(lam) ** 2 for lam in brute_partitions(n))
        assert total == factorial(n)


# --- symmetric / alternating dispatch ---------------------------------------------

def test_b_iv_point():
    lo, hi = enclosure(lambda: b_iv(4), 64)
    assert float(lo) <= 25 * 32 / 308 <= float(hi)


def test_sym_guards():
    with pytest.raises(HypothesisError):
        sym_rn_bound(4, 10, 5)
    with pytest.raises(HypothesisError):
        sym_rn_bound(13, 0, 5)
    with pytest.raises(HypothesisError):
        sym_rn_bound(13, 10, 6)
    with pytest.raises(HypothesisError):
        sym_rn_bound(13, 10, 5, group="X")


def test_sym_small_rank_is_external():
    report = sym_rn_bound(10, 50, 5)
    assert report.name == "small-rank-tables"
    assert isinstance(report.value, ExternalValue)
    assert report.valid


def test_sym_dimension_one_is_flagged_invalid():
    report = sym_rn_bound(13, 1, 5)
    assert report.name == "below-case-analysis"
    assert not report.valid


def test_cover_branches():
    high = sym_rn_bound(13, 32, 5, group="cover")
    assert high.name == "cover-class-count"
    assert high.value == ExactValue(4 * 101)
    assert high.valid

    low = sym_rn_bound(13, 5, 5, group="cover")
    assert low.name == "below-min-degree"
    assert low.value == ExactValue(2)

    mid = sym_rn_bound(13, 20, 5, group="cover")
    assert mid.name == "cover-reduction"
    assert mid.valid and mid.value.kind == "interval"


def test_sym_branches():
    sub = sym_rn_bound(13, 2000, 5)
    assert sub.name == "sym-sublinear"
    assert sub.valid

    low = sym_rn_bound(13, 10, 5)
    assert low.name == "sym-low-dimension"
    assert low.value == ExactValue(4)


@pytest.mark.parametrize("r,n,window,count", [
    (13, 60, 53, 101),
    (20, 200, 172, 627),
    (40, 710, 677, 37338),
])
def test_sym_windows(r, n, window, count):
    report = sym_rn_bound(r, n, 5)
    assert report.name == f"sym-window-{window}"
    assert report.value == ExactValue(count)
    assert report.valid
    assert partition_count(r) == count


def test_sym_sublinear_from_1503():
    assert sym_rn_bound(13, 1502, 5).name == "sym-window-677"
    sub = sym_rn_bound(13, 1503, 5)
    assert sub.name == "sym-sublinear"
    assert sub.guard_detail.startswith("n >= 1503: ")


def test_alt_branches():
    low = sym_rn_bound(13, 5, 5, group="A")
    assert low.name == "below-min-degree"
    comb = sym_rn_bound(13, 50, 5, group="A")
    assert comb.name == "alt-combination"
    assert comb.valid and comb.value.kind == "interval"


@settings(max_examples=120, deadline=None)
@given(st.integers(13, 80), st.integers(2, 3000), st.sampled_from(["S", "A", "cover"]))
def test_sym_dispatch_total(r, n, group):
    """Every in-domain call lands in some branch and reports a tagged value."""
    report = sym_rn_bound(r, n, 5, group=group)
    assert report.value.kind in ("exact", "interval", "external")
    if report.certificates:
        assert all(c.verdict == "true" for c in report.certificates) == report.valid
