"""Dimension bounds, envelopes, dispatch table, and zeta displays."""

from fractions import Fraction
from math import factorial, isqrt

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from repgrowth import bounds, partitions
from repgrowth.bounds import (
    ExactValue,
    IntervalValue,
    DISPLAYS,
    Root2Power,
    bound2_iv,
    char2_counts,
    d1,
    d2,
    d3,
    envelope_terms,
    f_interval,
    n_lambda,
    premet_lower,
    ratio_holds,
    rn_upper,
    zeta_tail_check,
)
from repgrowth.dominance import HypothesisError
from repgrowth.intervals import FALSE, TRUE, UNKNOWN, enclosure
from repgrowth.partitions import PRIME_CEILING
from repgrowth.rootdata import RootDataError, root_datum

from oracles import (BudgetError, brute_g_count, g_count, harmonic,
                     ratio_two_logs)


def interval_holds(value: IntervalValue, point) -> bool:
    return float(value.lo) <= float(point) <= float(value.hi)


def enclosure_holds(fn, bits: int, point) -> bool:
    lo, hi = enclosure(fn, bits)
    return float(lo) <= float(point) <= float(hi)


# --- exact dimension lower bounds -------------------------------------------

def test_n_lambda_pins():
    assert n_lambda(root_datum("A", 2), (1, 1)) == 1
    assert n_lambda(root_datum("A", 2), (2, 2)) == 10
    assert n_lambda(root_datum("A", 3), (2, 1, 4)) == 21
    assert n_lambda(root_datum("A", 5), (0, 0, 25, 0, 0)) == 73


def test_n_lambda_guards():
    with pytest.raises(HypothesisError):
        n_lambda(root_datum("B", 2), (1, 1))
    with pytest.raises(HypothesisError):
        n_lambda(root_datum("A", 2), (1, -1))


def test_premet_lower_pins():
    a2 = root_datum("A", 2)
    assert premet_lower(a2, (1, 1), 5) == 7
    assert premet_lower(a2, (1, 1), 0) == 7
    assert premet_lower(root_datum("G", 2), (1, 0), 7) == 7


@pytest.mark.parametrize("family,rank,p", [
    ("B", 2, 2), ("C", 3, 2), ("F", 4, 2), ("G", 2, 2), ("G", 2, 3),
])
def test_premet_lower_excluded_characteristics(family, rank, p):
    datum = root_datum(family, rank)
    with pytest.raises(HypothesisError):
        premet_lower(datum, datum.zero(), p)


def test_premet_lower_rejects_composite_characteristic():
    with pytest.raises(HypothesisError, match="neither 0 nor prime"):
        premet_lower(root_datum("A", 2), (1, 1), 4)


# --- primality ------------------------------------------------------------------

def test_is_prime_matches_trial_division_below_1e5():
    for n in range(-3, 10 ** 5):
        assert partitions.is_prime(n) == (
            n > 1 and all(n % d for d in range(2, isqrt(n) + 1))), n


# Strong pseudoprimes to every base before the last one named: the first
# for 2, 3, 5, 7; psi_11 = psi_9 for 2 ... 31; psi_12 for 2 ... 37.
@pytest.mark.parametrize("n,bases", [(3215031751, 4),
                                     (3825123056546413051, 11),
                                     (318665857834031151167461, 12)])
def test_is_prime_exposes_the_strong_pseudoprimes(n, bases, monkeypatch):
    assert not partitions.is_prime(n)
    monkeypatch.setattr(partitions, "_MR_BASES",
                        partitions._MR_BASES[:bases])
    assert partitions.is_prime(n)


def test_is_prime_decides_large_numbers_and_refuses_the_ceiling():
    assert partitions.is_prime(10 ** 18 + 3)
    assert partitions.is_prime(2 ** 61 - 1)
    # Cole: 2^67 - 1 = 193707721 * 761838257287
    assert 193707721 * 761838257287 == 2 ** 67 - 1
    assert not partitions.is_prime(2 ** 67 - 1)
    assert not partitions.is_prime((10 ** 18 + 3) * 1000003)
    assert PRIME_CEILING == 3317044064679887385961981
    with pytest.raises(ValueError, match="only below"):
        partitions.is_prime(PRIME_CEILING)


def test_premet_lower_requires_restricted():
    with pytest.raises(HypothesisError, match="restricted"):
        premet_lower(root_datum("A", 2), (5, 0), 5)


# --- harmonic sums and tuple counts -----------------------------------------

def test_harmonic_values():
    value, cert = harmonic(1)
    assert value == 1 and cert is None
    value, cert = harmonic(4)
    assert value == Fraction(25, 12)
    assert cert is not None and cert.certified
    with pytest.raises(HypothesisError):
        harmonic(Fraction(1, 2))


def test_g_count_matches_brute():
    for r in range(1, 5):
        for d in (1, 2, 7, 19, 30):
            count, envelope, ok = g_count(r, d)
            assert count == brute_g_count(r, d)
            assert ok and count <= envelope


def test_g_count_budget():
    with pytest.raises(BudgetError):
        g_count(4, 10 ** 6, budget=50)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 60))
def test_g_count_envelope_property(r, d):
    count, envelope, ok = g_count(r, d)
    assert ok and count <= envelope


def test_bound2_iv_simple_point():
    # r = 1, n = 5: d = 3, value is exactly 2*d = 6.
    assert enclosure_holds(lambda: bound2_iv(1, 5), 256, 6)


# --- ratio inequality --------------------------------------------------------

def test_ratio_holds_inside_domain():
    assert ratio_holds(1, 6).certified
    assert ratio_holds(5, 720).certified
    assert ratio_holds(10, 10 ** 9).certified


def test_ratio_holds_domain_guard():
    with pytest.raises(HypothesisError, match=r"\(r\+1\)!"):
        ratio_holds(5, 719)


def test_ratio_holds_rank_guard():
    with pytest.raises(HypothesisError) as err:
        ratio_holds(0, 6)
    assert str(err.value) == "rank must be >= 1"


# r = 38: 9 log n - 195 loglog n changes sign between NEAR and NEAR + 1
NEAR = 20262839404940409998235145445533516852460681


@pytest.mark.parametrize("r,n,bits,verdict,decided", [
    (1, 6, 1024, TRUE, 64),
    (5, 720, 1024, TRUE, 64),
    (10, factorial(11), 1024, TRUE, 64),
    (10, factorial(11), 24, TRUE, 24),
    (69, factorial(70), 1024, TRUE, 64),
    # below the stated domain, where the two sides come close
    (4, 29, 1024, FALSE, 64),
    (38, NEAR, 1024, FALSE, 256),
    (38, NEAR + 1, 1024, TRUE, 256),
    (38, NEAR, 128, UNKNOWN, 128),
])
def test_ratio_holds_matches_the_two_log_oracle(r, n, bits, verdict, decided,
                                                monkeypatch):
    # lift the domain guard n >= (r+1)! so that near ties can be reached
    monkeypatch.setattr(bounds, "factorial", lambda k: 1)
    got, want = ratio_holds(r, n, ceiling_bits=bits), ratio_two_logs(r, n,
                                                                     bits)
    assert (got.verdict, got.prec_bits) == (verdict, decided)
    assert (got.verdict, got.prec_bits, got.lhs, got.rhs) == \
        (want.verdict, want.prec_bits, want.lhs, want.rhs)


# --- exponential envelopes ---------------------------------------------------

def test_f4_at_zero_is_two():
    assert enclosure_holds(lambda: f_interval("f4", 0), 256, 2)


def test_f1_enclosure_at_128_bits():
    lo, hi = enclosure(lambda: f_interval("f1", 10), 128)
    assert 0 < float(lo) <= float(hi)


def test_f_interval_guards():
    with pytest.raises(HypothesisError):
        f_interval("f1", 0)
    with pytest.raises(HypothesisError):
        f_interval("f5", 1)
    with pytest.raises(HypothesisError):
        f_interval("f9", 3)


# One step below each envelope's least argument, and an unknown name.
@pytest.mark.parametrize("name,arg,message", [
    ("f1", 0, "f1 needs rank >= 1"),
    ("f2", 0, "f2 needs rank >= 1"),
    ("f3", 0, "f3 needs rank >= 1"),
    ("f4", -1, "f4 needs m >= 0"),
    ("f5", 1, "f5 needs n >= 2"),
    ("f9", 3, "unknown envelope 'f9'; choose from "
              "('f1', 'f2', 'f3', 'f4', 'f5')"),
])
def test_f_interval_refuses_below_the_least_argument(name, arg, message):
    for fn in (f_interval, envelope_terms):
        with pytest.raises(HypothesisError) as err:
            fn(name, arg)
        assert str(err.value) == message


def test_envelope_terms_are_the_exact_lead_and_inner():
    assert envelope_terms("f4", 3) == (32, 2)
    assert envelope_terms("f1", 2) == (Fraction(81, 8), Fraction(5, 6))
    assert envelope_terms("f2", 3) == (Fraction(361, 18), Fraction(13, 9))
    assert envelope_terms("f5", 10) is None


def test_threshold_pins():
    assert d1(5) == 20
    assert d1(11) == 924
    assert d2(5) == 1
    assert d2(19) == 21 ** 6
    assert d3(11) == 831600
    with pytest.raises(HypothesisError):
        d3(2)


# --- characteristic 2 ---------------------------------------------------------

def test_char2_counts_pins():
    assert char2_counts(3, 1) == (7, 12)
    assert char2_counts(0, 0) == (1, 1)


def test_char2_tail_from_zero_is_power_of_two():
    for r in range(0, 13):
        tail, ratio = char2_counts(r, 0)
        assert tail == 2 ** r
        assert tail <= ratio


def test_char2_counts_always_ordered():
    for r in range(0, 13):
        for m in range(0, r + 1):
            tail, ratio = char2_counts(r, m)
            assert tail <= ratio


def test_char2_counts_guards():
    with pytest.raises(HypothesisError):
        char2_counts(3, 4)
    with pytest.raises(HypothesisError):
        char2_counts(3, -1)


# --- dispatch table ------------------------------------------------------------

def test_rn_upper_trivial_one():
    report = rn_upper("B", 3, 1, 5)
    assert report.name == "trivial-one"
    assert report.value == ExactValue(1)


def test_rn_upper_char2():
    report = rn_upper("D", 4, 17, 2)
    assert report.name == "char2-linear"
    assert report.value == ExactValue(17)


def test_rn_upper_a_large_window():
    # Rank 3 switches branch at n = (r+1)! = 24.
    large = rn_upper("A", 3, 24, 5)
    assert large.name == "a-large"
    assert "n >= (r+1)! = 24" in large.guard_detail
    general = rn_upper("A", 3, 23, 5)
    assert general.name == "a-general"


# (rank, n, report, the exponent as its guard shows it, the value at 1500
# bits from integer powers and a fifth root)
TYPE_A_VALUES = [
    (5, 100, "a5-pow", "n^2.5;", lambda: mpmath.mpf(10) ** 5),
    (3, 23, "a-general", "n^3.8;",
     lambda: mpmath.root(mpmath.mpf(23) ** 19, 5)),
    (3, 24, "a-large", "n^3.4/r^3;",
     lambda: mpmath.root(mpmath.mpf(24) ** 17, 5) / 27),
]


@pytest.mark.parametrize("rank,n,name,shown,value", TYPE_A_VALUES,
                         ids=[row[2] for row in TYPE_A_VALUES])
def test_type_a_values_match_1500_bit_references(rank, n, name, shown,
                                                 value):
    """Both 24-digit ends of the report are the reference's, and so is n to
    the decimal its guard shows (over r^3 in the large range)."""
    report = rn_upper("A", rank, n, 5)
    assert report.name == name
    assert shown in report.guard_detail
    over = rank ** 3 if name == "a-large" else 1
    with mpmath.workprec(1500):
        want = mpmath.nstr(value(), 24)
        shown_value = mpmath.mpf(n) ** mpmath.mpf(shown[2:5]) / over
        assert mpmath.nstr(shown_value, 24) == want
    assert (report.value.lo, report.value.hi) == (want, want)


@pytest.mark.parametrize("rank", [*range(6, 13), 1000, 1004, 1010, 3000])
def test_rn_upper_d1_in_full_up_to_1000_bits(rank):
    guard = rn_upper("A", rank, 50, 5).guard_detail
    full = d1(rank)
    shown = (str(full) if full.bit_length() <= 1000 else
             f"C({rank + 1}, {(rank + 1) // 2}), {len(str(full))} digits")
    assert f"(d1 = {shown}): " in guard


def test_rn_upper_a_large_factorial_by_symbol():
    big = factorial(201)
    report = rn_upper("A", 200, big, 5)
    assert report.name == "a-large"
    assert f"(r+1)! = 201!, {len(str(big))} digits: " in report.guard_detail


def test_rn_upper_a_stops_factorial_at_n(monkeypatch):
    # (r+1)! is multiplied out only until it passes n
    from repgrowth import bounds

    def refuse(x):
        raise AssertionError(f"factorial({x}) built")
    monkeypatch.setattr(bounds, "factorial", refuse)
    assert rn_upper("A", 100000, 50, 3).name == "a-general"


def test_rn_upper_family_squares():
    report = rn_upper("C", 2, 3, 3)
    assert report.name == "family-pow-2"
    assert report.value == ExactValue(9)
    assert "threshold n >= 4" in report.guard_detail
    assert "not met" in report.guard_detail

    g2 = rn_upper("G", 2, 5, 7)
    assert g2.value == ExactValue(25)
    assert g2.guard_detail == (
        "rank-2 argument: n^2; no dimension threshold consumed")

    f4 = rn_upper("F", 4, 25, 5)
    assert f4.value == ExactValue(625)
    assert "met" in f4.guard_detail and "not met" not in f4.guard_detail


def test_rn_upper_family_fractional_exponents():
    e6 = rn_upper("E", 6, 30, 7)
    assert e6.name == "family-pow-5/2"
    assert interval_holds(e6.value, 30 ** 2 * (30 ** 0.5))
    b4 = rn_upper("B", 4, 10, 3)
    assert b4.name == "family-pow-9/4"
    e7 = rn_upper("E", 7, 60, 5)
    assert e7.name == "family-pow-9/4"


def display_detail(n0: int):
    return lambda n: (f"display threshold n >= {n0} (external minimal-degree "
                      f"fact) {'met' if n >= n0 else 'not met'}; bound holds "
                      "throughout by the recursion")


# B2 = C2 and D3 = A3 have 4-dimensional modules, below the B and D
# floors: they keep the n^(9/4) report, and its detail names the route
# that bounds each; B3 and D4 keep the display's detail
SMALL_BD_DETAILS = {
    ("B", 2): lambda n: "B2 = C2: the C display certifies n^2 from floor 4 "
                        "(n-010), and n^2 <= n^(9/4)",
    ("D", 3): lambda n: "D3 = A3: 2(n+3)(1+log((n+3)/4))^2 < n^2 <= "
                        "n^(9/4) from n = 24 (n-020, n-021); n <= 23 rests "
                        "on published tables (n-900, external)",
    ("B", 3): display_detail(7),
    ("D", 4): display_detail(8),
}


@pytest.mark.parametrize("family,rank", SMALL_BD_DETAILS)
@pytest.mark.parametrize("n", [2, 5, 7, 8, 23, 24, 100])
def test_rn_upper_details_at_the_small_b_and_d_ranks(family, rank, n):
    report = rn_upper(family, rank, n, 3)
    assert (report.name, report.value.kind, report.valid,
            report.certificates) == ("family-pow-9/4", "interval", True, ())
    assert float(report.value.lo) == pytest.approx(n ** 2.25, rel=1e-12)
    assert report.guard_detail == SMALL_BD_DETAILS[family, rank](n)


def test_rn_upper_guards():
    with pytest.raises(HypothesisError, match="prime"):
        rn_upper("A", 3, 10, 6)
    with pytest.raises(HypothesisError):
        rn_upper("A", 3, 0, 5)
    with pytest.raises(RootDataError, match="unsupported root datum E5"):
        rn_upper("E", 5, 10, 5)


def test_rn_upper_builds_no_root_datum():
    before = root_datum.cache_info().misses
    rn_upper("B", 97, 5, 3)
    assert root_datum.cache_info().misses == before


# --- zeta displays --------------------------------------------------------------

ZETA_ROWS = [
    ("C", 2, Fraction(1, 4), 4, False),
    ("B", Fraction(9, 4), "2^-s", 7, True),
    ("D", Fraction(9, 4), "2^-s", 8, True),
    ("E6", Fraction(5, 2), "2^-s", 27, False),
    ("E7", Fraction(9, 4), "2^-s", 56, False),
    ("E8", Fraction(9, 4), "2^-s", 248, False),
    ("F4", 2, Fraction(1, 4), 25, False),
]


# label -> a (family, rank) whose count bound rests on that display
DISPLAY_DATA = {"C": ("C", 3), "B": ("B", 3), "D": ("D", 4), "E6": ("E", 6),
                "E7": ("E", 7), "E8": ("E", 8), "F4": ("F", 4)}


def test_display_table_matches_rows():
    assert DISPLAYS == {label: tuple(row) for label, *row in ZETA_ROWS}


@pytest.mark.parametrize("label,s,extra,n0,double", ZETA_ROWS)
def test_rn_upper_reads_the_display(label, s, extra, n0, double):
    family, rank = DISPLAY_DATA[label]
    below = rn_upper(family, rank, n0 - 1, 5)
    at = rn_upper(family, rank, n0, 5)
    for report, n in ((below, n0 - 1), (at, n0)):
        assert report.name == f"family-pow-{s}"
        assert f"display threshold n >= {n0} " in report.guard_detail
        if s == 2:
            assert report.value == ExactValue(n * n)
        else:
            assert float(report.value.lo) == pytest.approx(n ** float(s),
                                                           rel=1e-12)
    assert "not met" in below.guard_detail
    assert " met;" in at.guard_detail and "not met" not in at.guard_detail


@pytest.mark.parametrize("label,s,extra,n0,double", ZETA_ROWS)
def test_zeta_displays_certify(label, s, extra, n0, double):
    cert = zeta_tail_check(s, extra, n0, double)
    assert cert.verdict == TRUE
    assert cert.prec_bits <= 64


def test_zeta_display_false_at_low_threshold():
    # At n0 = 2 the C-family display genuinely fails; the certificate must
    # say so rather than go unknown.
    cert = zeta_tail_check(2, Fraction(1, 4), 2, False)
    assert cert.verdict == FALSE


def test_zeta_display_threshold_guard():
    with pytest.raises(HypothesisError):
        zeta_tail_check(2, Fraction(1, 4), 1, False)


# --- exact root-two powers -------------------------------------------------------

def test_root2_power_le_int_edges():
    assert Root2Power(4).le_int(4)
    assert not Root2Power(4).le_int(3)
    assert Root2Power(5).le_int(6)
    assert not Root2Power(5).le_int(5)
    assert not Root2Power(0).le_int(-1)


def test_root2_power_str():
    assert str(Root2Power(4)) == "4"
    assert str(Root2Power(5)) == "2^(5/2)"
