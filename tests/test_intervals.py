"""Zeta enclosures against the term-by-term oracle and as narrow as their
rung, Bernoulli numbers against mpmath, the exact tail and zeta's integer
readout against the running Fraction sum, fixed-point powers and Dirichlet
terms against exact integer inequalities, powers against exp and log, the
exponential envelopes against plain high-precision floats, exact rationals
against the interval division, `contains` against the full precision
ladder with one evaluation per rung from the band's rung, `per_precision`
keeping one enclosure per precision, and certificates formatted once,
when first read, and equal only when their texts are."""

import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import ceil, factorial, floor, isqrt, lcm

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from mpmath import iv

from repgrowth import intervals
from repgrowth.bounds import f_interval, partition_envelope_iv, ratio_iv
from repgrowth.checks import CHECKS
from repgrowth.intervals import (FALSE, POWER_GUARD_BITS, TRUE, UNKNOWN,
                                 _bernoulli, _dirichlet_terms,
                                 _euler_maclaurin_tail, _fixed_power,
                                 _scaled_power, certify_cmp, contains, exact,
                                 exact_compare_cert, per_precision, power,
                                 zeta_cut_and_order, zeta_iv)

from oracles import (_iv_power, direct_zeta_iv, divided_exact,
                     envelope_reference, fraction_euler_maclaurin_tail)

REF_BITS = 1500
LADDER = (64, 128, 256, 512, 1024)
ZETA_ARGS = (Fraction(2), Fraction(9, 4), Fraction(5, 2), Fraction(3),
             Fraction(7, 2), Fraction(11, 10), Fraction(101, 100),
             Fraction(40))
ZETA_PRECS = (16, 24, 64, 128, 256, 512, 1024)


def _at(bits: int, fn):
    saved = iv.prec
    try:
        iv.prec = bits
        return fn()
    finally:
        iv.prec = saved


def _ends(x):
    """Exact endpoints of an interval as mpf (REF_BITS holds every
    mantissa used here)."""
    with mpmath.workprec(REF_BITS):
        return mpmath.mpf(x.a), mpmath.mpf(x.b)


# --- zeta_iv ------------------------------------------------------------------

@pytest.mark.parametrize("prec", ZETA_PRECS)
@pytest.mark.parametrize("s", ZETA_ARGS, ids=str)
def test_zeta_iv_encloses_and_is_no_wider_than_direct(s, prec):
    lo, hi = _ends(_at(prec, lambda: zeta_iv(s)))
    old_lo, old_hi = _ends(_at(prec, lambda: direct_zeta_iv(s)))
    with mpmath.workprec(REF_BITS):
        ref = mpmath.zeta(mpmath.mpf(s.numerator) / s.denominator)
        assert lo <= ref <= hi
        assert hi - lo <= old_hi - old_lo


# Ends of zeta_iv(s) at 16, 24 and 64 bits as (mantissa, exponent): the
# checks of the zeta displays are decided at 64 bits and print them.
ZETA_LOW_ENDS = {
    (16, Fraction(2)): ((53901, -15), (26951, -14)),
    (16, Fraction(9, 4)): ((5981, -12), (47849, -15)),
    (16, Fraction(5, 2)): ((43957, -15), (21979, -14)),
    (16, Fraction(3)): ((39389, -15), (19695, -14)),
    (16, Fraction(7, 2)): ((4615, -12), (36921, -15)),
    (24, Fraction(2)): ((13798707, -23), (3449677, -21)),
    (24, Fraction(9, 4)): ((1531143, -20), (12249145, -23)),
    (24, Fraction(5, 2)): ((5626605, -22), (11253211, -23)),
    (24, Fraction(3)): ((39389, -15), (10083585, -23)),
    (24, Fraction(7, 2)): ((590733, -19), (9451729, -23)),
    (64, Fraction(2)): ((7585919437318868099, -62),
                        (15171838874637736217, -63)),
    (64, Fraction(9, 4)): ((6734038647105603547, -62),
                           (13468077294211207111, -63)),
    (64, Fraction(5, 2)): ((96664344190039989, -56),
                           (6186518028162559303, -62)),
    (64, Fraction(3)): ((11087018027310451129, -63),
                        (5543509013655225569, -62)),
    (64, Fraction(7, 2)): ((10392285644789379465, -63),
                           (10392285644789379471, -63)),
}


@pytest.mark.parametrize("s", ZETA_ARGS[:5], ids=str)
def test_zeta_iv_is_as_narrow_as_its_rung(s):
    """At most 2^-(P-8) wide at each rung P >= 128, so a b-bit readout
    decides at b bits; pinned ends at 16, 24 and 64 bits."""
    for prec in ZETA_PRECS:
        lo, hi = _ends(_at(prec, lambda: zeta_iv(s)))
        if prec < 128:
            assert (lo.man_exp, hi.man_exp) == ZETA_LOW_ENDS[prec, s]
            continue
        with mpmath.workprec(REF_BITS):
            assert hi - lo <= mpmath.ldexp(1, 8 - prec), prec


def test_bernoulli_numbers_match_mpmath_to_the_ladders_order():
    count = zeta_cut_and_order(LADDER[-1])[1] + 1
    lcd, scaled = _bernoulli(count)
    want = [Fraction(*mpmath.bernfrac(2 * k)) for k in range(1, count + 1)]
    assert [Fraction(n, lcd) for n in scaled] == want
    assert lcd == lcm(*(b.denominator for b in want))


# f1 and f2 at odd and even ranks, f3, f4 and the partition envelope
ENVELOPE_ARGS = (("f1", 1), ("f1", 10), ("f1", 729), ("f2", 1), ("f2", 19),
                 ("f2", 20), ("f2", 1000), ("f3", 11), ("f3", 18), ("f4", 0),
                 ("f4", 80), ("f4", 200), ("partition", 1),
                 ("partition", 39), ("partition", 1000))


@pytest.mark.parametrize("bits", LADDER)
@pytest.mark.parametrize("name,arg", ENVELOPE_ARGS)
def test_envelopes_enclose_the_reference(name, arg, bits):
    if name == "partition":
        lo, hi = _ends(_at(bits, lambda: partition_envelope_iv(arg)))
    else:
        lo, hi = _ends(_at(bits, lambda: f_interval(name, arg)))
    assert lo <= envelope_reference(name, arg) <= hi


def test_zeta_iv_rejects_s_at_most_one():
    with pytest.raises(ValueError):
        zeta_iv(Fraction(1))


def test_zeta_iv_encloses_at_a_large_numerator():
    s = Fraction(4001, 4)
    lo, hi = _ends(_at(1024, lambda: zeta_iv(s)))
    with mpmath.workprec(REF_BITS):
        assert lo <= mpmath.zeta(mpmath.mpf(s.numerator) / s.denominator) <= hi


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


@pytest.mark.parametrize("bits", LADDER)
def test_zeta_iv_takes_an_exp_only_off_the_root_route(bits, monkeypatch):
    calls = []
    exp = iv.exp

    def counted(x):
        calls.append(x)
        return exp(x)

    monkeypatch.setattr(iv, "exp", counted)
    for s in (Fraction(2), Fraction(9, 4), Fraction(5, 2), Fraction(3),
              Fraction(7, 2)):
        _at(bits, lambda: zeta_iv(s))
    assert calls == []
    _at(bits, lambda: zeta_iv(Fraction(11, 10)))
    # one per prime n <= M and one for M^(1-s)
    M, _ = zeta_cut_and_order(bits)
    assert len(calls) == sum(map(_is_prime, range(M + 1))) + 1


@pytest.mark.parametrize("s", ZETA_ARGS[:5], ids=str)
def test_dyadic_routes_take_no_root_power_or_exp(s, monkeypatch):
    def refuse(*args):
        raise AssertionError("interval sqrt, exp or integer power called")

    for name in ("sqrt", "exp"):
        monkeypatch.setattr(iv, name, refuse)
    monkeypatch.setattr(type(iv.mpf(2)), "__pow__", refuse)
    for bits in LADDER:
        _at(bits, lambda: (zeta_iv(s), power(57750, s), power(7, -s)))


@pytest.mark.parametrize("prec", ZETA_PRECS)
@pytest.mark.parametrize("s", ZETA_ARGS, ids=str)
def test_dirichlet_terms_bracket_each_scaled_power(s, prec):
    M, _ = zeta_cut_and_order(prec)
    K = prec + POWER_GUARD_BITS + M.bit_length()
    lo, hi = _at(prec, lambda: _dirichlet_terms(s, M, K))
    a, b = s.numerator, s.denominator
    for n in range(1, M + 1):
        if b in (1, 2, 4):
            # lo <= 2^K n^(-a/b) <= hi, raised to the b-th power
            assert lo[n] ** b * n ** a <= 1 << K * b <= hi[n] ** b * n ** a
        else:
            with mpmath.workprec(REF_BITS):
                assert lo[n] <= mpmath.ldexp(mpmath.mpf(n) ** -(
                    mpmath.mpf(a) / b), K) <= hi[n], n


def _scaled(base, a, b, k):
    """2^(kb) base^a as a fraction num/den of integers."""
    num = base ** max(a, 0) << max(k * b, 0)
    return num, base ** max(-a, 0) << max(-k * b, 0)


@pytest.mark.parametrize("k", (-16, 0, 72, 1048))
@pytest.mark.parametrize("b", (1, 2, 4))
def test_fixed_power_is_the_floor_of_the_root(b, k):
    for base, m in product(range(1, 201), range(1, 21)):
        for a in (m, -m):
            lo, hi = _fixed_power(base, Fraction(a, b), k)
            num, den = _scaled(base, a, b, k)
            assert lo ** b * den <= num < (lo + 1) ** b * den, (base, a)
            assert hi - lo == (lo ** b * den != num), (base, a)


def test_power_is_a_point_exactly_when_it_is_dyadic():
    for base, e, value in ((4, Fraction(-2), Fraction(1, 16)),
                           (16, Fraction(9, 4), Fraction(512)),
                           (9, Fraction(5, 2), Fraction(243)),
                           (256, Fraction(-3, 4), Fraction(1, 64))):
        lo, hi = _ends(_at(64, lambda: power(base, e)))
        with mpmath.workprec(REF_BITS):
            assert lo == hi == mpmath.mpf(value.numerator) / value.denominator
    for base, e in ((2, Fraction(1, 2)), (3, Fraction(-1, 4)),
                    (57750, Fraction(5, 2)), (81, Fraction(-3, 4))):
        lo, hi = _ends(_at(64, lambda: power(base, e)))
        assert lo < hi


# --- the exact Euler-Maclaurin tail ---------------------------------------

def _tail_fractions(s, m: int, terms: int):
    """(T D/D, R D/D) from the integers `_euler_maclaurin_tail` returns."""
    td, rd, d = _euler_maclaurin_tail(s, m, terms)
    return Fraction(td, d), Fraction(rd, d)


@pytest.mark.parametrize("prec", ZETA_PRECS)
@pytest.mark.parametrize("s", ZETA_ARGS, ids=str)
def test_tail_equals_the_fraction_sum_on_the_ladder(s, prec):
    M, J = zeta_cut_and_order(prec)
    assert (_tail_fractions(s, M, J)
            == fraction_euler_maclaurin_tail(s, M, J))


@pytest.mark.parametrize("m", (16, 128))
@pytest.mark.parametrize("s", ZETA_ARGS, ids=str)
def test_tail_equals_the_fraction_sum_at_every_order(s, m):
    for terms in range(1, 101):
        assert (_tail_fractions(s, m, terms)
                == fraction_euler_maclaurin_tail(s, m, terms)), terms


def _fraction_readout(s, prec: int):
    """The integers (lo, hi, K, prec) of zeta_iv(s) at prec bits, read out
    by flooring and ceiling the running Fraction tail at 2^K."""
    M, J = zeta_cut_and_order(prec)
    K = prec + POWER_GUARD_BITS + M.bit_length()
    lo, hi = _dirichlet_terms(s, M, K)
    t, r = fraction_euler_maclaurin_tail(s, M, J)
    m_lo, m_hi = _scaled_power(M, 1 - s, K)
    t_lo, t_hi = floor((t - r) * (1 << K)), ceil((t + r) * (1 << K))
    tail_lo = min(m_lo * t_lo, m_hi * t_lo) >> K
    tail_hi = -(-max(m_lo * t_hi, m_hi * t_hi) >> K)
    return sum(lo) + tail_lo, sum(hi) + tail_hi, K, prec


@pytest.mark.parametrize("prec", ZETA_PRECS + (65, 1099))
@pytest.mark.parametrize("s", ZETA_ARGS, ids=str)
def test_zeta_iv_reads_out_the_integers_of_the_fraction_tail(s, prec,
                                                             monkeypatch):
    """zeta_iv's integer ends before rounding equal the Fraction readout's,
    so its enclosures do too."""
    interval, ends = intervals._interval, []

    def record(*args):
        ends.append(args)
        return interval(*args)

    monkeypatch.setattr(intervals, "_interval", record)
    _at(prec, lambda: zeta_iv(s))
    assert ends == [_at(prec, lambda: _fraction_readout(s, prec))]


# --- power ----------------------------------------------------------------

@pytest.mark.parametrize("sign", (1, -1), ids=("a>0", "a<0"))
@pytest.mark.parametrize("den", (1, 2, 4))
def test_power_by_roots_encloses_and_is_no_wider_than_exp_log(den, sign):
    for base, num, bits in product((2, 3, 97, 57750, 10 ** 6),
                                   (1, 3, 5, 9, 19, 101), LADDER):
        e = Fraction(sign * num, den)
        lo, hi = _ends(_at(bits, lambda: power(base, e)))
        old_lo, old_hi = _ends(_at(bits, lambda: _iv_power(base, e)))
        with mpmath.workprec(REF_BITS):
            ref = mpmath.mpf(base) ** (mpmath.mpf(e.numerator) / den)
            assert lo <= ref <= hi, (base, e, bits)
            assert hi - lo <= old_hi - old_lo, (base, e, bits)


# Printed lhs endpoints of checks n-010 ... n-016 at 64 bits when zeta was
# enclosed term by term (`oracles.direct_zeta_iv`).  The prime-sieved sum
# with the rational tail must print an enclosure inside each of them.
DIRECT_LHS = {
    "n-010": ("0.89493406684822643273707", "0.89493406684822643815808"),
    "n-011": ("0.97897855885281037988501", "0.97897855885281039121492"),
    "n-012": ("0.97897855885281037988501", "0.97897855885281039121492"),
    "n-013": ("0.51826395254755405761493", "0.518263952547554062277"),
    "n-014": ("0.67043596997207713416092", "0.67043596997207713947351"),
    "n-015": ("0.67043596997207713416092", "0.67043596997207713947351"),
    "n-016": ("0.89493406684822643273707", "0.89493406684822643815808"),
}


# The same endpoints when the sieved sum added interval powers one by one;
# the fixed-point sum must print an enclosure inside each of them too.
SIEVED_LHS = {
    "n-010": ("0.89493406684822643392969", "0.89493406684822643729071"),
    "n-011": ("0.97897855885281038205341", "0.97897855885281038980546"),
    "n-012": ("0.97897855885281038205341", "0.97897855885281038980546"),
    "n-013": ("0.51826395254755405821124", "0.5182639525475540617349"),
    "n-014": ("0.67043596997207713519091", "0.67043596997207713882299"),
    "n-015": ("0.67043596997207713519091", "0.67043596997207713882299"),
    "n-016": ("0.89493406684822643392969", "0.89493406684822643729071"),
}


def _lhs_lies_inside(cid, old_lo, old_hi):
    check = next(c for c in CHECKS if c.id == cid)
    verdict, detail = check.run(256, "desk")
    assert verdict == "pass" and "(64 bits)" in detail
    new_lo, new_hi = re.match(r"lhs = \[([^,]+), ([^\]]+)\]", detail).groups()
    assert Decimal(old_lo) <= Decimal(new_lo) <= Decimal(new_hi) \
        <= Decimal(old_hi)


@pytest.mark.parametrize("cid", sorted(DIRECT_LHS))
def test_display_lhs_lies_inside_the_direct_enclosure(cid):
    _lhs_lies_inside(cid, *DIRECT_LHS[cid])


@pytest.mark.parametrize("cid", sorted(SIEVED_LHS))
def test_display_lhs_lies_inside_the_sieved_enclosure(cid):
    _lhs_lies_inside(cid, *SIEVED_LHS[cid])


# Printed endpoints of the nine checks whose enclosures moved when `power`
# gained the integer-power-and-roots route, as the exp/log route printed them
# (lhs, then rhs).  Each new enclosure must lie inside the old one.
EXP_LOG_ENDS = {
    "a-070": (("3297986376.9924495811574", "3297986376.9924495832529"),
              ("801456529393.1018537879", "801456529393.10185658932")),
    "n-010": (("0.89493406684822643338759", "0.8949340668482264377244"),
              ("0.93749999999999999994579", "0.93750000000000000005421")),
    "n-011": (("0.97897855885281038151131", "0.97897855885281038985967"),
              ("0.98745330300099460474209", "0.98745330300099460485051")),
    "n-012": (("0.97897855885281038151131", "0.97897855885281038985967"),
              ("0.9907093194140412416521", "0.99070931941404124170631")),
    "n-013": (("0.51826395254755405815703", "0.5182639525475540617349"),
              ("0.99973600810736642623957", "0.99973600810736642629378")),
    "n-014": (("0.67043596997207713491986", "0.67043596997207713882299"),
              ("0.99988343264577343353456", "0.99988343264577343358877")),
    "n-015": (("0.67043596997207713491986", "0.67043596997207713882299"),
              ("0.99999590283250905186187", "0.99999590283250905191608")),
    "n-016": (("0.89493406684822643338759", "0.8949340668482264377244"),
              ("0.99839999999999999997754", "0.99840000000000000003175")),
    "s-020": (("5540018.1082078298263696", "5540018.1082078298536544"),
              ("7108643.6444688124047389", "7108643.644468812418836")),
}


@pytest.mark.parametrize("cid", sorted(EXP_LOG_ENDS))
def test_display_lies_inside_the_exp_log_enclosure(cid):
    check = next(c for c in CHECKS if c.id == cid)
    verdict, detail = check.run(256, "desk")
    assert verdict == "pass" and "(64 bits)" in detail
    ends = re.match(r"lhs = \[([^,]+), ([^\]]+)\], rhs = \[([^,]+), "
                    r"([^\]]+)\]", detail).groups()
    for (old_lo, old_hi), new_lo, new_hi in zip(EXP_LOG_ENDS[cid], ends[::2],
                                                ends[1::2]):
        assert Decimal(old_lo) <= Decimal(new_lo) <= Decimal(new_hi) \
            <= Decimal(old_hi)


# --- exact ------------------------------------------------------------------

def _fraction(raw) -> Fraction:
    """A raw mpf as an exact Fraction."""
    sign, man, e, _ = raw
    return (-1) ** sign * man * Fraction(2) ** e


def _nearest_floats(q: Fraction, bits: int):
    """The nearest bits-bit floats at or below q and at or above it."""
    if q == 0:
        return q, q
    m = abs(q)
    e = m.numerator.bit_length() - m.denominator.bit_length()
    e -= Fraction(2) ** e > m  # now 2^e <= m < 2^(e+1)
    scale = Fraction(2) ** (bits - 1 - e)
    down, up = floor(m * scale) / scale, ceil(m * scale) / scale
    return (down, up) if q > 0 else (-up, -down)


def _representable(q: Fraction, bits: int) -> bool:
    """q is a bits-bit float: a dyadic whose odd part has at most bits
    bits."""
    n, d = abs(q.numerator), q.denominator
    odd = n >> max((n & -n).bit_length() - 1, 0)
    return d & (d - 1) == 0 and odd.bit_length() <= bits


PARTS = st.integers(1, 10 ** 300) | st.integers(1, 2 ** 20)


def _check_exact(q: int | Fraction) -> None:
    for bits in (16, 24, 32, 64, 128, 256, 512, 1024):
        lo, hi = map(_fraction, _at(bits, lambda: exact(q))._mpi_)
        old_lo, old_hi = map(_fraction,
                             _at(bits, lambda: divided_exact(q))._mpi_)
        assert lo <= q <= hi
        assert old_lo <= lo <= hi <= old_hi
        assert (lo, hi) == _nearest_floats(q, bits)
        assert (lo == hi) == _representable(q, bits)


def test_exact_rounds_fixed_examples_each_end_once():
    # non-dyadic of both signs, small and past every precision, and one
    # dyadic each precision represents
    for q in (Fraction(1, 3), Fraction(-2, 7), Fraction(10 ** 40 + 1, 3),
              Fraction(-1, 10 ** 30 + 7), Fraction(-5, 16)):
        _check_exact(q)


def test_exact_rounds_fixed_ints_each_end_once():
    # 0, +-1, and +-(2^k +- 1) for k one below, at and one above each
    # precision, so each int is exact at some precisions and rounded at
    # the rest
    ks = [bits + d for bits in (16, 24, 32, 64, 128, 256, 512, 1024)
          for d in (-1, 0, 1)]
    for q in (0, 1, -1, *(s * (2 ** k + d) for k in ks for d in (1, -1)
                          for s in (1, -1))):
        _check_exact(q)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 300, 10 ** 300) | st.integers(-2 ** 20, 2 ** 20),
       PARTS | st.integers(0, 1100).map(lambda k: 2 ** k))
def test_exact_rounds_each_end_once(n, d):
    _check_exact(Fraction(n, d))


# --- contains -----------------------------------------------------------------

def _contains_by_two_comparisons(fn, lo, hi, start_bits=64,
                                 ceiling_bits=1024):
    """The value in (lo, hi) as two independent certify_cmp calls, the
    lower one climbing the ladder from start_bits."""
    low = certify_cmp(lambda: exact(lo), fn, strict=True,
                      start_bits=start_bits, ceiling_bits=ceiling_bits)
    if low.verdict != TRUE:
        return low
    return certify_cmp(fn, lambda: exact(hi), strict=True,
                       start_bits=low.prec_bits, ceiling_bits=ceiling_bits)


def _band_rung(lo, hi, ceiling_bits=1024):
    """Lowest rung b of the ladder from 64 with (hi - lo) 2^(b+1) >
    max(|lo|, |hi|), or 64 for an empty band."""
    b = min(64, ceiling_bits)
    while (hi > lo and b < ceiling_bits
           and (hi - lo) * 2 ** (b + 1) <= max(abs(lo), abs(hi))):
        b = min(2 * b, ceiling_bits)
    return b


def _value(fn) -> Fraction:
    """The midpoint of fn read at 2048 bits."""
    with mpmath.workprec(REF_BITS):
        man, e = mpmath.mpf(_at(2048, lambda: fn().mid)).man_exp
    return Fraction(man) * Fraction(2) ** e


def _tenth(k: int) -> Fraction:
    return Fraction(10) ** -k


# (name, value, lo - value, hi - value, rung of the lower comparison on the
# full ladder, rung of the certificate): "zeta-outside" is an empty band
# above the value, decided where the full ladder decides it, and
# "far-outside" a narrow band far above it, decided at the band's rung.
READOUTS = (
    ("ratio", lambda: ratio_iv(10, factorial(11)), -_tenth(12), _tenth(30),
     64, 128),
    ("envelope", lambda: f_interval("f1", 20), -_tenth(100), _tenth(12),
     512, 512),
    ("zeta", lambda: zeta_iv(Fraction(9, 4)), -_tenth(12), _tenth(100),
     64, 512),
    ("zeta-outside", lambda: zeta_iv(Fraction(2)), 1 - _tenth(12),
     _tenth(12), 64, 64),
    ("far-outside", lambda: zeta_iv(Fraction(2)), Fraction(1),
     1 + _tenth(100), 64, 512),
)


def test_per_precision_evaluates_once_per_precision():
    seen = []

    def fn():
        seen.append(iv.prec)
        return iv.log(iv.mpf(3))

    value = per_precision(fn)
    saved = iv.prec
    try:
        iv.prec = 64
        low = value()
        assert value() is low
        iv.prec = 128
        assert value().delta < low.delta  # fresh, not the 64-bit enclosure
        iv.prec = 64
        assert value() is low
    finally:
        iv.prec = saved
    assert seen == [64, 128]


@pytest.mark.parametrize("name,fn,lo_gap,hi_gap,low_bits,bits", READOUTS,
                         ids=[r[0] for r in READOUTS])
def test_contains_evaluates_once_per_rung(name, fn, lo_gap, hi_gap, low_bits,
                                          bits):
    value = _value(fn)
    lo, hi = value + lo_gap, value + hi_gap
    seen = []

    def counted():
        seen.append(iv.prec)
        return fn()

    cert = contains(counted, lo, hi)
    rung = _band_rung(lo, hi)
    assert sorted(seen) == [b for b in LADDER if rung <= b <= bits]
    assert cert == _contains_by_two_comparisons(fn, lo, hi, start_bits=rung)
    assert cert.prec_bits == bits
    assert certify_cmp(lambda: exact(lo), fn).prec_bits == low_bits
    assert cert.verdict == (FALSE if name.endswith("outside") else TRUE)


def test_contains_starts_at_the_band_rung():
    """Bands 2^-(b+3) to 2^(3-b) wide around zeta(2), for each rung b: the
    first rung tried is the one the formula gives."""
    def fn():
        return zeta_iv(Fraction(2))

    value = _value(fn)
    for b, d in product(LADDER, range(-3, 4)):
        half = Fraction(2) ** (d - b - 1)
        lo, hi = value - half, value + half
        seen = []
        contains(lambda: seen.append(iv.prec) or fn(), lo, hi)
        assert seen[0] == _band_rung(lo, hi), (b, d)


@pytest.mark.parametrize("s", ZETA_ARGS[:5], ids=str)
def test_contains_decides_a_zeta_band_at_its_rung(s):
    """A band 2^(9-b) on each side of zeta(s) starts at rung b, and an
    enclosure at most 2^(8-b) wide decides it there, in one evaluation."""
    def fn():
        return zeta_iv(s)

    value = _value(fn)
    for b in LADDER:
        lo, hi = value - Fraction(2) ** (9 - b), value + Fraction(2) ** (9 - b)
        seen = []
        cert = contains(lambda: seen.append(iv.prec) or fn(), lo, hi)
        assert _band_rung(lo, hi) == b
        assert (cert.verdict, cert.prec_bits, seen) == (TRUE, b, [b])


# Values for the readout contract: ratio, envelope and zeta readouts, and
# dyadic points (a point enclosure at every rung).
CONTRACT_VALUES = (
    *(lambda r=r: ratio_iv(r, factorial(r + 1)) for r in (3, 10, 60)),
    *(lambda a=a: f_interval(*a) for a in (("f1", 20), ("f2", 19),
                                           ("f3", 11), ("f4", 80),
                                           ("f5", 10 ** 6))),
    *(lambda s=s: zeta_iv(s) for s in ZETA_ARGS[:5]),
    *(lambda k=k: exact(2 ** k) for k in (0, 7, 64, 200)),
    lambda: exact(Fraction(3, 8)),
)


@lru_cache(maxsize=None)
def _contract_value(index: int) -> Fraction:
    return _value(CONTRACT_VALUES[index])


@st.composite
def readouts(draw):
    """(value index, negated, lo - value, hi - value, ceiling): mostly bands
    around the value of as many digits as the ceiling can read, else of up
    to 300 digits or about 2^-b wide for a rung b, or off the value, empty,
    across 0 or ending on it."""
    ceiling = draw(st.sampled_from((16, 24, 64, 1024)))
    sizes = ((st.integers(1, min(300, ceiling * 3 // 10))
              | st.integers(-3, 300) | st.integers(-3, 0)).map(_tenth)
             | st.builds(lambda b, d: Fraction(2) ** (d - b),
                         st.sampled_from(LADDER), st.integers(-3, 3)))

    def gap(signs):
        return draw(st.sampled_from(signs)) * draw(sizes)

    return (draw(st.sampled_from(range(len(CONTRACT_VALUES)))),
            draw(st.booleans()), gap((-1, -1, -1, 1, 0)),
            gap((1, 1, 1, -1, 0)), ceiling)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(readouts())
def test_contains_certifies_as_the_full_ladder(readout):
    index, negate, lo_gap, hi_gap, ceiling = readout
    sign = -1 if negate else 1

    def fn():
        return sign * CONTRACT_VALUES[index]()

    value = sign * _contract_value(index)
    lo, hi = value + lo_gap, value + hi_gap
    seen = []

    def counted():
        seen.append(iv.prec)
        return fn()

    cert = contains(counted, lo, hi, ceiling_bits=ceiling)
    full = _contains_by_two_comparisons(fn, lo, hi, ceiling_bits=ceiling)
    assert min(seen) == _band_rung(lo, hi, ceiling)
    if full.verdict == FALSE:
        assert cert.verdict == FALSE
    else:
        assert cert == full


# --- certificate text -----------------------------------------------------

def test_certify_cmp_formats_only_the_deciding_evaluation(monkeypatch):
    """certify_cmp and contains format nothing; the first read of lhs or
    rhs formats it once, at the deciding precision, into the text mpmath
    prints for the enclosure at that precision, whatever the precision at
    read time."""
    shown = []
    show = intervals._show

    def counted(x, bits):
        shown.append(bits)
        return show(x, bits)

    monkeypatch.setattr(intervals, "_show", counted)

    def zeta():
        return zeta_iv(Fraction(2))

    lo = _value(zeta) - _tenth(100)
    for ceiling, verdict, bits in ((1024, TRUE, 512), (256, UNKNOWN, 256)):
        contains(zeta, lo, lo + 1, ceiling_bits=ceiling)
        eager = _at(bits, lambda: (mpmath.nstr(exact(lo), 12),
                                   mpmath.nstr(zeta(), 12)))
        for read_prec in (53, 2048):
            cert = certify_cmp(lambda: exact(lo), zeta, ceiling_bits=ceiling)
            other = certify_cmp(lambda: exact(lo), zeta, ceiling_bits=ceiling)
            assert cert == other and hash(cert) == hash(other)
            assert (cert.verdict, cert.prec_bits, shown) == (verdict, bits, [])
            texts = _at(read_prec, lambda: (cert.lhs, cert.rhs, cert.lhs,
                                            cert.rhs))
            assert texts == eager * 2
            assert shown == [bits, bits]
            shown.clear()


def test_certificates_differing_in_an_enclosure_compare_unequal():
    def cert(lhs, rhs):
        return certify_cmp(lambda: exact(lhs), lambda: exact(rhs))

    assert cert(1, 2) == cert(1, 2)
    assert hash(cert(1, 2)) == hash(cert(1, 2))
    for other in (cert(1, 3), cert(0, 2)):
        assert (other.verdict, other.prec_bits) == (TRUE, 64)
        assert other != cert(1, 2)
        assert len({other, cert(1, 2)}) == 2
    assert exact_compare_cert(1, 2) == exact_compare_cert(1, 2)
    assert exact_compare_cert(1, 3) != exact_compare_cert(1, 2)
