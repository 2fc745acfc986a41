"""The ``verify`` check registry.

Each check states one result as a row ``Check(id, claim, run)``, where
``run(bits, scale)`` returns ``(verdict, detail)`` and the verdict is
``pass``, ``fail``, ``unknown`` or ``external-assumption``.  Most runners
come from a few shaped constructors: one certificate, a certified sweep, an
equality pin, a table of pins and an external assumption.  Checks with their
own logic are plain functions.  The suite of a check is read from its id
prefix.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import factorial
from typing import Callable

from mpmath import iv

from .bounds import (
    A5_EXPONENT,
    A5_TABLES,
    A_EXPONENT,
    A_LARGE_EXPONENT,
    B_COEFFICIENT,
    B_EXPONENT,
    B_PARTS,
    B_TEXT,
    DISPLAYS,
    SUBLINEAR_FROM,
    SYM_WINDOWS,
    a_combination_cert,
    a_large_iv,
    b_iv,
    b_less_cert,
    bound2_iv,
    bound3_value,
    char2_counts,
    d1,
    d2,
    d3,
    envelope_terms,
    f_interval,
    k_sum_bound,
    n_lambda,
    partition_bound,
    ratio_holds,
    ratio_iv,
    sym_rn_bound,
    zeta_tail_check,
)
from .dominance import (
    HypothesisError,
    orbit_length,
    saturated_weight_total,
    weyl_order,
    weyl_stabilizer_order,
)
from .intervals import (
    DEFAULT_START_BITS,
    FALSE,
    TRUE,
    UNKNOWN,
    certify_cmp,
    certify_less,
    contains,
    exact,
    exact_compare_cert,
    per_precision,
    power,
)
from .partitions import (
    conjugate,
    hook_length_dim,
    k_sum_exact,
    k_sum_majorant,
    mullineux,
    p_regular_partitions,
    partition_count,
    twist_levels,
)
from .rootdata import root_datum
from .witness import ENGINES, a5_good_family

Runner = Callable[[int, str], tuple[str, str]]

# suite name -> id prefix
SUITES = {"typeA": "a", "char2": "c2", "nonA": "n", "partitions": "p",
          "symmetric": "s"}


@dataclass(frozen=True)
class Check:
    id: str
    claim: str
    run: Runner


# ---------------------------------------------------------------------------
# Shaped constructors.

def _cert_result(cert) -> tuple[str, str]:
    verdict = {TRUE: "pass", FALSE: "fail", UNKNOWN: "unknown"}[cert.verdict]
    where = "exact" if cert.prec_bits == 0 else f"{cert.prec_bits} bits"
    return verdict, f"lhs = {cert.lhs}, rhs = {cert.rhs} ({where})"


def certificate(make, note: str = "") -> Runner:
    """One certificate make(bits); the note, an argument that holds only
    when the certificate does, is appended on a pass."""
    def run(bits: int, scale: str) -> tuple[str, str]:
        verdict, detail = _cert_result(make(bits))
        return verdict, detail + note if verdict == "pass" else detail
    return run


def less(lhs, rhs, note: str = "", strict: bool = True) -> Runner:
    """Certified lhs() < rhs() (<= unless strict) up to the ceiling."""
    return certificate(lambda bits: certify_cmp(lhs, rhs, strict=strict,
                                                ceiling_bits=bits), note)


def by_scale(desk, extended) -> Callable[[str], object]:
    return lambda scale: extended if scale == "extended" else desk


def sweep(var: str, points, step, ok) -> Runner:
    """A certificate at every point x; the points and the pass text ok may
    be functions of the scale.

    step is make(x, bits), one certificate per point, or the (lhs, rhs,
    keys) of `f_below`.  Then, when the keys show both sides nondecreasing
    along the points, `_covering` takes blocks: x_i .. x_j is one block
    when lhs(x_j) < rhs(x_i) is decided at the ladder's first rung and x_j
    is certified on the full ladder; any other range is halved.  Without
    monotone keys no block is tried and every point is certified in order.
    Each side is evaluated at most once per point and precision in a run,
    so a sweep that passes makes no more evaluations than the pointwise
    loop.  The first certificate that is not true is reported at its
    point, as by the pointwise loop; else the pass text gives the highest
    precision of the certificates used.  The runner is a partial of
    `_sweep`, so its args are the row's.
    """
    return partial(_sweep, var, points, step, ok)


def _sweep(var: str, points, step, ok, bits: int,
           scale: str) -> tuple[str, str]:
    xs = list(points(scale) if callable(points) else points)
    rung = min(DEFAULT_START_BITS, bits) if _monotone(step, xs) else 0
    top = 0
    for i, c in _covering(_certifier(step, xs, bits), 0, len(xs) - 1, rung):
        if c.verdict != TRUE:
            verdict, detail = _cert_result(c)
            return verdict, f"{var} = {xs[i]}: {detail}"
        top = max(top, c.prec_bits)
    text = ok(scale) if callable(ok) else ok
    return "pass", f"{text} (up to {top} bits)"


def _covering(cert, i: int, j: int, rung: int):
    """Yield, left to right, (point, certificate) pairs that cover points
    i .. j: the end of a block with its certificate, or, when rung is 0 or
    i .. j is no block, those of its two halves, down to single points."""
    if i < j and rung and cert(j, i, rung).verdict == TRUE:
        end = cert(j, j)
        if end.verdict == TRUE:
            yield j, end
            return
    if i == j:
        yield j, cert(j, j)
    elif i < j:
        mid = (i + j) // 2
        yield from _covering(cert, i, mid, rung)
        yield from _covering(cert, mid + 1, j, rung)


def _certifier(step, xs, bits: int):
    """cert(j, i, ceiling): lhs(x_j) < rhs(x_i), up to the ceiling; a make
    step certifies only j == i."""
    if callable(step):
        return lambda j, i, ceiling=bits: step(xs[j], ceiling)

    @cache
    def side(k: int, i: int):
        return per_precision(partial(step[k], xs[i]))

    return lambda j, i, ceiling=bits: certify_less(side(0, j), side(1, i),
                                                   ceiling_bits=ceiling)


def _monotone(step, xs) -> bool:
    """Whether the exact keys of an `f_below` step make both sides
    nondecreasing along xs: in range, and none falls between consecutive
    points."""
    if callable(step):
        return False
    # below the first point: the least (lead, inner, base, expo) in range,
    # lead also > 0; keys are read up to the first that falls
    prev = (0, 0, 1, 0)
    for x in xs:
        key = step[2](x)
        if key[0] <= 0 or any(map(operator.gt, prev, key)):
            return False
        prev = key
    return True


def f_below(name: str, base, expo):
    """Sweep step: certified f_name(x) < base(x)^expo(x), as (lhs, rhs,
    keys) functions of x.

    The keys are exact: (lead, inner) of f_name(x) = lead exp(2 pi
    sqrt(inner)), read from `bounds.envelope_terms`, and (base, expo) of
    the power.  Lemma: lead exp(2 pi sqrt(inner)) rises in lead > 0 and
    in inner >= 0, and base^expo rises in base >= 1 and in expo >= 0.  So
    when the keys are in those ranges and none falls from one point to the
    next, both sides are nondecreasing along the points, and for i <= k <=
    j, f(x_j) < g(x_i) gives f(x_k) <= f(x_j) < g(x_i) <= g(x_k): one
    certificate covers the block x_i .. x_j (see `sweep`).
    """
    return (lambda x: f_interval(name, x),
            lambda x: power(base(x), expo(x)),
            lambda x: (*envelope_terms(name, x), base(x), Fraction(expo(x))))


def pin(got, want) -> Runner:
    """Exact equality got() == want."""
    def run(bits: int, scale: str) -> tuple[str, str]:
        value = got()
        if value == want:
            return "pass", f"computed {value}"
        return "fail", f"computed {value}, pinned {want}"
    return run


def pins(fn, table, fail: str, ok: str) -> Runner:
    """fn(*args) == want for every row (args, want); fail is formatted with
    the args and got, want; ok with the row count n."""
    def run(bits: int, scale: str) -> tuple[str, str]:
        for args, want in table:
            got = fn(*args)
            if got != want:
                return "fail", fail.format(*args, got=got, want=want)
        return "pass", ok.format(n=len(table))
    return run


def external(note: str) -> Runner:
    return lambda bits, scale: ("external-assumption", note)


_PUBLISHED = external("count taken from published tables, not computed")
_TABLES = external("table facts, not computed here")
_DIMENSIONS = external("dimensions are never computed by this package")
_TABLE_BOUNDS = "; rises with n, table fact bounds the count"


# ---------------------------------------------------------------------------
# Checks with their own logic.

def _weights_up_to(rank: int, total: int):
    """Dominant weights with coefficient sum at most total, lexicographically,
    by stars and bars: each coefficient is the gap before its bar."""
    for bars in itertools.combinations(range(total + rank), rank):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars))


def _a5_family(bits: int, scale: str) -> tuple[str, str]:
    datum = root_datum("A", 5)
    w = (0, 0, 25, 0, 0)
    try:
        fam = a5_good_family(w)
    except AssertionError as e:
        return "fail", f"a5 family on {w}: {e}"
    total = sum(orbit_length(datum, mu) for mu, _ in fam)
    if len(fam) != 243 or total != 174960:
        return "fail", f"{len(fam)} members, orbit total {total}"
    return "pass", ("243 members, orbit total 174960 > 57750, "
                    "all chains re-verified")


def _ratio_readout(bits: int, scale: str) -> tuple[str, str]:
    cert = contains(lambda: ratio_iv(10, factorial(11)),
                    Fraction(179885, 100000), Fraction(179895, 100000),
                    ceiling_bits=bits)
    verdict, detail = _cert_result(cert)
    if verdict == "pass":
        detail = "value rounds to 1.7989; " + detail
    return verdict, detail


def _witness_sweep(bits: int, scale: str) -> tuple[str, str]:
    max_rank, max_sum = (7, 9) if scale == "extended" else (4, 6)
    tried = produced = 0
    for r in range(1, max_rank + 1):
        datum = root_datum("A", r)
        k = (r - 1) // 2
        for w in _weights_up_to(r, max_sum):
            for name, (fn, takes_m) in ENGINES.items():
                ms = list(range(1, k + 1)) if takes_m else [None]
                for m in ms:
                    tried += 1
                    # each engine checks its chain and promise once
                    try:
                        fn(datum, w, m) if takes_m else fn(datum, w)
                    except HypothesisError:
                        continue
                    except AssertionError as e:
                        return "fail", f"{name} on {w} (m = {m}): {e}"
                    produced += 1
    if produced == 0:
        return "fail", "no engine produced a witness on the sweep"
    return "pass", (f"{produced} witnesses re-verified out of {tried} "
                    f"engine calls (rank <= {max_rank}, "
                    f"coefficient sum <= {max_sum})")


def _lower_consistency(bits: int, scale: str) -> tuple[str, str]:
    datum = root_datum("A", 2)
    checked = 0
    for w in itertools.product(range(5), repeat=2):
        quick = n_lambda(datum, w)
        walk = saturated_weight_total(datum, w)
        if quick > walk:
            return "fail", (f"weight {w}: closed-form count {quick} "
                            f"exceeds walk count {walk}")
        checked += 1
    return "pass", f"{checked} restricted weights: closed form <= walk count"


def _orbit_size(datum, w) -> int:
    """Orbit of a dominant weight by closure under the simple reflections
    s_j(u) = u - u_j alpha_j, each applied only where u_j is positive."""
    n = range(datum.rank)
    alphas = [datum.root_combination([int(i == j) for i in n]) for j in n]
    seen = {w}
    frontier = [w]
    while frontier:
        u = frontier.pop()
        for j, c in enumerate(u):
            if c > 0:
                v = tuple(x - c * a for x, a in zip(u, alphas[j]))
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
    return len(seen)


def _orbit_stabilizer(bits: int, scale: str) -> tuple[str, str]:
    checked = 0
    for family, rank in (("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)):
        datum = root_datum(family, rank)
        order = weyl_order(datum)
        for w in _weights_up_to(rank, 2):
            if _orbit_size(datum, w) * weyl_stabilizer_order(datum, w) \
                    != order:
                return "fail", f"{family}{rank}, weight {w}"
            checked += 1
    return "pass", (f"{checked} weights over five diagrams: orbit length "
                    "times stabilizer order equals the group order")


def _char2_sweep(bits: int, scale: str) -> tuple[str, str]:
    rows = [(r, m, *char2_counts(r, m))
            for r in range(26) for m in range(r + 1)]
    for r, m, tail, quotient in rows:
        if tail > quotient:
            return "fail", f"r = {r}, m = {m}: {tail} > {quotient}"
    slack, r, m = min((q - t, r, m) for r, m, t, q in rows)  # least (r, m)
    return "pass", (f"all 0 <= m <= r <= 25; tightest slack {slack} "
                    f"at r = {r}, m = {m}")


def _penvelope(bits: int, scale: str) -> tuple[str, str]:
    for n in (1, 39, 100, 1000):
        rep = partition_bound(n, bits=bits)
        if not rep.valid:
            return "fail", f"n = {n}: {rep.guard_detail}"
    return "pass", "p(n) < e^(pi sqrt(2n/3)) certified at n = 1, 39, 100, 1000"


def _k_majorant(bits: int, scale: str) -> tuple[str, str]:
    got = k_sum_majorant(76)
    if got != 136531526805:
        return "fail", f"majorant {got}"
    rep = k_sum_bound(76, bits=bits)
    if not rep.valid:
        return "fail", rep.guard_detail
    return "pass", ("rank-free majorant 136531526805 certified below the "
                    "exponential envelope at cap 76")


def _k_boundary(bits: int, scale: str) -> tuple[str, str]:
    rep = k_sum_bound(0, bits=bits)
    if rep.valid and "non-strict" in rep.guard_detail:
        return "pass", rep.guard_detail
    return "fail", rep.guard_detail


def _twist_involution(bits: int, scale: str) -> tuple[str, str]:
    n_hi = 14 if scale == "extended" else 10
    tables = {p: twist_levels(n_hi, p) for p in (3, 5, 7)}
    checked = 0
    for n in range(1, n_hi + 1):
        for p in (3, 5, 7):
            image = tables[p][n]
            for lam, img in image.items():
                if img not in image:
                    return "fail", f"{lam} at p = {p}: image {img}"
                if image[img] != lam:
                    return "fail", f"{lam} at p = {p}: not an involution"
                checked += 1
    return "pass", (f"{checked} regular partitions up to size {n_hi}: "
                    "twist twice returns the start")


def _twist_conjugation(bits: int, scale: str) -> tuple[str, str]:
    checked = 0
    for n in range(1, 11):
        for lam in p_regular_partitions(n, 0):  # p = 0: every partition
            if mullineux(lam, 0) != conjugate(lam):
                return "fail", f"{lam}: p = 0 image differs from conjugate"
            checked += 1
    return "pass", f"{checked} partitions up to size 10: p = 0 conjugates"


def _halfpower_vs_hooks(bits: int, scale: str) -> tuple[str, str]:
    n_hi = 14 if scale == "extended" else 10
    tables = {p: twist_levels(n_hi, p) for p in (3, 5)}
    checked = 0
    for n in range(5, n_hi + 1):
        for p in (3, 5):
            for lam, img in tables[p][n].items():
                dim = hook_length_dim(lam)
                rep = bound3_value(lam, p, img)
                if not rep.value.le_int(dim):
                    return "fail", (f"{lam} at p = {p}: half-power floor "
                                    f"{rep.value} exceeds straight-shape "
                                    f"dimension {dim}")
                checked += 1
    return "pass", (f"{checked} pairs up to size {n_hi}: half-power floor "
                    "stays below the straight-shape dimension")


def _power_vs_pr(bits: int, scale: str) -> tuple[str, str]:
    r_hi = 400 if scale == "extended" else 60
    for r in range(13, r_hi + 1):
        cert, = sym_rn_bound(r, 2 ** ((r - 3) // 2), 5, "cover").certificates
        if not cert.certified:
            return "fail", f"r = {r}: {cert.lhs} >= {cert.rhs}"
    return "pass", (f"(4 p(r))^2 < n^5 at n = 2^((r-3)/2 rounded down) "
                    f"for 13 <= r <= {r_hi}")


# ---------------------------------------------------------------------------
# Generated rows: the zeta-sum displays and the symmetric-group windows.

def _display(cid: str, label: str, s: Fraction, extra, n0: int,
             double: bool) -> Check:
    ed = "2^(-s)" if extra == "2^-s" else str(extra)
    if double:
        claim = (f"family {label}: zeta(s)(zeta(s)-1) + zeta(s)*{ed} < "
                 f"1 - {n0}^(-s) at s = {s}")
    else:
        claim = (f"family {label}: zeta(s) - 1 + {ed} < 1 - {n0}^(-s) "
                 f"at s = {s}")
    return Check(cid, claim, certificate(
        lambda bits: zeta_tail_check(s, extra, n0, double=double,
                                     ceiling_bits=bits),
        "; the right side rises with n, so all n >= n0 follow"))


def _window(cid: str, n_low: int, r_cap: int) -> Check:
    c, d, a, b = B_PARTS
    claim = (f"window floor {n_low}: ({d} p({r_cap}))^{b} < {c ** b} * "
             f"{n_low}^{a}, the squared form of p({r_cap}) < {B_TEXT}")
    return Check(cid, claim, certificate(
        lambda bits: b_less_cert(partition_count(r_cap), n_low),
        "; p is monotone, so every rank under the cap follows"))


def _combination(cid: str) -> Check:
    c, d, a, b = B_PARTS
    return Check(cid, f"{c ** b}*{2 ** (a + b)} < {d - c}^{b}, the exact "
                 "combination step", certificate(
                     lambda bits: a_combination_cert(),
                     f"; unpacks to 1 + 2^({1 + B_EXPONENT}) < "
                     f"{1 / B_COEFFICIENT}, the combination step for one "
                     "degree and its double"))


_SPOT_RANKS = (19, 100, 365, 729)

CHECKS: tuple[Check, ...] = (
    # -- type A
    Check("a-010", "weighted 5-tuple count at cap 76 equals 2415231",
          pin(lambda: k_sum_exact(5, 76), 2415231)),
    Check("a-011", f"2415231 < {A5_TABLES}^({A5_EXPONENT}), squared form "
          f"2415231^2 < {A5_TABLES}^{2 * A5_EXPONENT}", certificate(
              lambda bits: exact_compare_cert(
                  2415231 ** 2, A5_TABLES ** int(2 * A5_EXPONENT)))),
    Check("a-020", "good family at rank 5: 243 members with orbit "
          "total 174960, clearing the window cap 57750", _a5_family),
    Check("a-030", f"f1(730) < d1(730)^({A_EXPONENT})",
          less(lambda: f_interval("f1", 730),
               lambda: power(d1(730), A_EXPONENT))),
    Check("a-031", f"f1(729) against d1(729)^({A_EXPONENT}), reported",
          less(lambda: f_interval("f1", 729),
               lambda: power(d1(729), A_EXPONENT),
               "; readout one rank below the quoted threshold")),
    Check("a-040", "f4(m) < 2^(m+1) for 80 <= m <= 200",
          sweep("m", range(80, 201),
                f_below("f4", lambda m: 2, lambda m: m + 1),
                "all m in [80, 200] certified")),
    Check("a-041", f"f4(m) < (2^(m+1))^({A_EXPONENT}) for 6 <= m <= 79",
          sweep("m", range(6, 80),
                f_below("f4", lambda m: 2, lambda m: A_EXPONENT * (m + 1)),
                "all m in [6, 79] certified")),
    Check("a-050", "f1(r) < d2(r)^(94/25) on the mid-range rank sweep",
          sweep("r", by_scale(_SPOT_RANKS, range(19, 730)),
                f_below("f1", d2, lambda r: Fraction(94, 25)),
                by_scale("ranks [19, 100, 365, 729] certified",
                         "ranks [19, 20, 21, 22]... certified"))),
    Check("a-051", "f2(r) < d1(r)^(94/25) on the mid-range rank sweep",
          sweep("r", by_scale(_SPOT_RANKS + (1000,), range(19, 730)),
                f_below("f2", d1, lambda r: Fraction(94, 25)),
                "spot ranks certified; the exponent gap widens with the "
                "rank")),
    Check("a-052", "f1(r) < d3(r)^(29/10) for 11 <= r <= 19",
          sweep("r", range(11, 20),
                f_below("f1", d3, lambda r: Fraction(29, 10)),
                "all r in [11, 19] certified")),
    Check("a-053", "f3(r) < n^(329/100) at n = (r+1)^4 for 11 <= r <= 18",
          sweep("r", range(11, 19),
                f_below("f3", lambda r: (r + 1) ** 4,
                        lambda r: Fraction(329, 100)),
                "all r in [11, 18] at the floor n = (r+1)^4; rises with n")),
    Check("a-060", "5(r+1)loglog n < 9 log n at n = (r+1)! for "
          "5 <= r <= 69",
          sweep("r", range(5, 70),
                lambda r, bits: ratio_holds(r, factorial(r + 1),
                                            ceiling_bits=bits),
                "5(r+1)loglog n < 9 log n at n = (r+1)! for all r in "
                "[5, 69]")),
    Check("a-061", "(r+1)loglog n / log n at r = 10, n = 11! lies in "
          "(1.79885, 1.79895)", _ratio_readout),
    Check("a-070", f"2^5 d (1+log d)^4 < n^({A5_EXPONENT}) at n = 57750",
          less(lambda: bound2_iv(5, 57750),
               lambda: power(57750, A5_EXPONENT))),
    Check("a-071", "envelope growth exponent 1 + 4/(1+log d) < "
          f"{A5_EXPONENT} at d = 9625",
          less(lambda: 1 + 4 / (1 + iv.log(exact(9625))),
               lambda: exact(A5_EXPONENT),
               "; the local exponent falls as d grows")),
    Check("a-080", "2^3 d (1+log d)^2 < 5*10^5 at n = 3787",
          less(lambda: bound2_iv(3, 3787), lambda: exact(5 * 10 ** 5))),
    Check("a-081", f"n^({A_LARGE_EXPONENT})/27 > 200 at n = 24",
          less(lambda: exact(200), lambda: a_large_iv(3, 24), _TABLE_BOUNDS)),
    Check("a-082", f"n^({A_LARGE_EXPONENT})/64 > 10^5 at n = 120",
          less(lambda: exact(10 ** 5), lambda: a_large_iv(4, 120),
               _TABLE_BOUNDS)),
    Check("a-090", "witness engines: every produced chain re-verifies "
          "on an exhaustive low-weight sweep", _witness_sweep),
    Check("a-100", "closed-form weight count never exceeds the "
          "dominance-walk count (rank 2, p = 5)", _lower_consistency),
    Check("a-101", "orbit length times stabilizer order equals the "
          "reflection group order", _orbit_stabilizer),
    Check("a-900", "R_500 < 200 for the rank-3 special linear group "
          "(published degree tables)", _PUBLISHED),
    Check("a-901", "R_719 <= 170 for the rank-4 special linear group "
          "(published degree tables)", _PUBLISHED),
    Check("a-902", "rank-5 special linear group: R_n <= n for "
          f"n <= {A5_TABLES} (published degree tables)", _PUBLISHED),
    Check("a-903", "ranks below 11 in the mid and small windows rest "
          "on explicit degree tables", _TABLES),
    Check("a-904", "true irreducible-module dimensions are consumed "
          "as table facts", _DIMENSIONS),
    # -- characteristic 2
    Check("c2-010", "binomial tail from m never exceeds "
          "(r+1)!/(m+1)! for 0 <= m <= r <= 25", _char2_sweep),
    Check("c2-020", "binomial tail from 0 equals 2^r (cross-check of "
          "the counting routine)",
          pins(lambda r: char2_counts(r, 0)[0],
               tuple(((r,), 2 ** r) for r in range(1, 26)),
               "r = {0}: full binomial tail is not 2^r",
               "full tail equals 2^r for 1 <= r <= 25")),
    Check("c2-900", "ranks below 9 with n < 256 rest on published "
          "degree tables", _TABLES),
    # -- non-A families in odd characteristic
    *(_display(f"n-01{i}", label, *row)
      for i, (label, row) in enumerate(DISPLAYS.items())),
    Check("n-020", "rank-3 even orthogonal: 2(n+3)(1+log((n+3)/4))^2 "
          "< n^2 at n = 24",
          less(lambda: 2 * exact(27) * (1 + iv.log(exact(Fraction(27, 4))))
               ** 2, lambda: exact(576))),
    Check("n-021", "e < 27/4, so the rank-3 display separates beyond "
          "its threshold",
          less(lambda: iv.exp(exact(1)), lambda: exact(Fraction(27, 4)),
               "; hence the two sides separate for n >= 24")),
    Check("n-900", "rank-3 even orthogonal counts for n <= 23 rest on "
          "published degree tables", _TABLES),
    Check("n-901", "degree floors " + ", ".join(
              f"{n0} ({label})" for label, (_, _, n0, _) in DISPLAYS.items())
          + " come from published tables",
          external("smallest nontrivial degrees are table facts")),
    Check("n-902", "family G: the quadratic count is asserted without "
          "a displayed recursion",
          external("assumed, not certified by this package")),
    # -- partitions
    Check("p-010", "p(21) = 792", pin(lambda: partition_count(21), 792)),
    Check("p-011", "p(39) = 31185", pin(lambda: partition_count(39), 31185)),
    Check("p-012", "p(60) = 966467",
          pin(lambda: partition_count(60), 966467)),
    Check("p-020", "p(n) < e^(pi sqrt(2n/3)) at spot values", _penvelope),
    Check("p-030", "weighted tuple majorant at cap 76 equals "
          "136531526805 and stays below the envelope", _k_majorant),
    Check("p-031", "cap 0 boundary: majorant and envelope both equal "
          "1, compared non-strictly", _k_boundary),
    Check("p-040", "pinned twist images reproduce",
          # late-bound, so a rebinding of mullineux (a tracer's) is seen
          pins(lambda lam, p: mullineux(lam, p),
               ((((3,), 3), (2, 1)), (((4,), 3), (2, 2)),
                (((2, 1), 3), (3,)), (((5, 4), 5), (4, 3, 2))),
               "{0} at p = {1}: got {got}, pinned {want}",
               "{n} pinned images reproduced")),
    Check("p-041", "the twist is an involution preserving size and "
          "regularity", _twist_involution),
    Check("p-042", "p = 0 twist equals conjugation up to size 10",
          _twist_conjugation),
    Check("p-050", "pinned straight-shape dimensions reproduce",
          pins(hook_length_dim, ((((3, 2),), 5), (((4, 1),), 4),
                                 (((2, 2, 1),), 5), (((4, 3, 2, 1),), 768)),
               "{0}: dimension {got}, pinned {want}",
               "{n} straight-shape dimensions reproduced")),
    Check("p-060", "half-power dimension floor never exceeds the "
          "straight-shape dimension", _halfpower_vs_hooks),
    Check("p-900", "true modular irreducible dimensions are consumed "
          "as table facts", _DIMENSIONS),
    # -- symmetric and alternating groups
    Check("s-010", "f5(10^13) <= 10^13",
          less(lambda: f_interval("f5", 10 ** 13), lambda: exact(10 ** 13),
               strict=False)),
    Check("s-011", "f5(10^44) < 10^22",
          less(lambda: f_interval("f5", 10 ** 44), lambda: exact(10 ** 22))),
    Check("s-020", f"f5(n) < {B_TEXT} at n = {SUBLINEAR_FROM}",
          less(lambda: f_interval("f5", SUBLINEAR_FROM),
               lambda: b_iv(SUBLINEAR_FROM), "; the left side grows "
               "slower than any power, so larger n only widen the gap")),
    *(_window(f"s-03{i}", *window) for i, window in enumerate(SYM_WINDOWS)),
    Check("s-040", "(4 p(r))^2 < 2^(5 floor((r-3)/2)) on the rank "
          "sweep", _power_vs_pr),
    _combination("s-050"),
    Check("s-900", "modules of degree below r-2 are classified "
          "(published classification)",
          external("minimal-degree facts, not computed here")),
    Check("s-901", "double-cover modules below the threshold factor "
          "through the quotient (published classification)",
          external("spin reduction is a table fact")),
    Check("s-902", "ranks 5 through 12 rest on published "
          "decomposition tables", _TABLES),
    Check("s-903", "true modular irreducible dimensions are consumed "
          "as table facts", _DIMENSIONS),
    Check("s-904", "counts of classes of maximal subgroups consume "
          "these bounds downstream",
          external("out of scope for this package")),
)


def suite_checks(name: str) -> list[Check]:
    """The checks of one suite, or of every suite for "all", in id order."""
    return [c for c in CHECKS
            if name == "all" or c.id.split("-")[0] == SUITES[name]]
