"""Zeta enclosures against the term-by-term oracle, the exponential
envelopes against plain high-precision floats, one evaluation per rung in
`contains`, and certificates formatted once."""

import re
from decimal import Decimal
from fractions import Fraction
from math import factorial

import mpmath
import pytest
from mpmath import iv

from repgrowth import intervals
from repgrowth.bounds import f_interval, ratio_iv
from repgrowth.checks import CHECKS
from repgrowth.intervals import (TRUE, UNKNOWN, certify_cmp, contains, exact,
                                 zeta_iv)
from repgrowth.partitions import partition_envelope_iv

from oracles import direct_zeta_iv, envelope_reference

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


@pytest.mark.parametrize("cid", sorted(DIRECT_LHS))
def test_display_lhs_lies_inside_the_direct_enclosure(cid):
    check = next(c for c in CHECKS if c.id == cid)
    verdict, detail = check.run(256, "desk")
    assert verdict == "pass" and "(64 bits)" in detail
    new_lo, new_hi = re.match(r"lhs = \[([^,]+), ([^\]]+)\]", detail).groups()
    old_lo, old_hi = DIRECT_LHS[cid]
    assert Decimal(old_lo) <= Decimal(new_lo) <= Decimal(new_hi) \
        <= Decimal(old_hi)


# --- contains -----------------------------------------------------------------

def _contains_by_two_comparisons(fn, lo, hi):
    """The value in (lo, hi) as two independent certify_cmp calls."""
    low = certify_cmp(lambda: exact(lo), fn, strict=True)
    if low.verdict != TRUE:
        return low
    return certify_cmp(fn, lambda: exact(hi), strict=True,
                       start_bits=low.prec_bits)


def _bracket(fn, below: int, above: int):
    """(value - 10^-below, value + 10^-above), value read at 2048 bits."""
    with mpmath.workprec(REF_BITS):
        man, e = mpmath.mpf(_at(2048, lambda: fn().mid)).man_exp
    value = Fraction(man) * Fraction(2) ** e
    return value - Fraction(1, 10 ** below), value + Fraction(1, 10 ** above)


# (name, value, digits below, digits above, rung of the lower comparison,
# rung of the certificate); below < 0 puts lo above the value.
READOUTS = (
    ("ratio", lambda: ratio_iv(10, factorial(11)), 12, 30, 64, 128),
    ("envelope", lambda: f_interval("f1", 20), 100, 12, 512, 512),
    ("zeta", lambda: zeta_iv(Fraction(9, 4)), 12, 100, 64, 1024),
    ("zeta-outside", lambda: zeta_iv(Fraction(2)), -1, 12, 64, 64),
)


@pytest.mark.parametrize("name,fn,below,above,low_bits,bits", READOUTS,
                         ids=[r[0] for r in READOUTS])
def test_contains_evaluates_once_per_rung(name, fn, below, above, low_bits,
                                          bits):
    if below < 0:
        value, hi = _bracket(fn, 12, above)
        lo = value + 1
    else:
        lo, hi = _bracket(fn, below, above)
    seen = []

    def counted():
        seen.append(iv.prec)
        return fn()

    cert = contains(counted, lo, hi)
    assert sorted(seen) == [b for b in LADDER if b <= bits]
    assert cert == _contains_by_two_comparisons(fn, lo, hi)
    assert cert.prec_bits == bits
    assert certify_cmp(lambda: exact(lo), fn).prec_bits == low_bits


# --- certify_cmp formatting -----------------------------------------------

def test_certify_cmp_formats_only_the_deciding_evaluation(monkeypatch):
    shown = []
    show = intervals._show

    def counted(x):
        shown.append(iv.prec)
        return show(x)

    monkeypatch.setattr(intervals, "_show", counted)
    lo, _ = _bracket(lambda: zeta_iv(Fraction(2)), 60, 0)
    cert = certify_cmp(lambda: exact(lo), lambda: zeta_iv(Fraction(2)))
    assert (cert.verdict, shown) == (TRUE, [512, 512])
    shown.clear()
    cert = certify_cmp(lambda: exact(lo), lambda: zeta_iv(Fraction(2)),
                       ceiling_bits=256)
    assert (cert.verdict, shown) == (UNKNOWN, [256, 256])
