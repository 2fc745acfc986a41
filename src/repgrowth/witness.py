"""Constructive witnesses below a dominant weight in type A.

Each engine takes a dominant weight, checks a quoted hypothesis, and returns
a dominated dominant weight with the promised shape, together with the
WitnessChain of simple-root multiplicities that proves the dominance.  All
arithmetic is integer arithmetic on coefficient tuples.  Each engine checks
its chain and its promised shape once, before the witness leaves the module,
and raises AssertionError when one fails; the checks are explicit raises, so
they also run under ``python -O``.  Callers read that result and do not check
again.  A single-witness engine builds its weight only by root steps that
also fill its chain, so the chain check, which recomputes w - sum kvec*alpha,
compares two independent computations.

Throughout, r is the rank, coefficients are 1-based in the prose, and
k = floor((r-1)/2) marks the centre: index k+1 for odd r, indices k+1 and
k+2 for even r.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .dominance import (HypothesisError, WitnessChain, _bracket,
                        check_dominant, is_good)
from .rootdata import RootDatum, Weight, add, is_dominant, root_datum, sub


def _require_type_a(datum: RootDatum, w,
                    m: int | None = None) -> tuple[Weight, int, int]:
    """(w, r, k) once type A, dominance and, given m, 1 <= m <= k hold."""
    if datum.family != "A":
        raise HypothesisError("witness engines are defined for type A only")
    w = check_dominant(datum, w)
    r, k = datum.rank, _centre(datum.rank)
    if m is not None and not 1 <= m <= k:
        raise HypothesisError(f"window parameter m={m} outside 1..{k}")
    return w, r, k


def _centre(r: int) -> int:
    return (r - 1) // 2


def _left_sum(a: list[int], m: int) -> int:
    """sum of i*a_i over 1 <= i <= m."""
    return sum(i * a[i - 1] for i in range(1, m + 1))


def _finish(datum: RootDatum, source: Weight, a: list[int],
            kvec: list[int]) -> tuple[Weight, WitnessChain]:
    mu = tuple(a)
    chain = WitnessChain(target=mu, root_coeffs=tuple(kvec))
    if not chain.verify(datum, source):
        raise AssertionError("witness chain failed self-check")
    if not is_dominant(mu):
        raise AssertionError(f"engine produced non-dominant {mu}")
    return mu, chain


def _sub_consec(a: list[int], kvec: list[int], i: int, j: int,
                times: int = 1) -> None:
    """Subtract times copies of alpha_i + ... + alpha_j (weight delta touches
    i-1, i, j, j+1)."""
    r = len(a)
    if i >= 2:
        a[i - 2] += times
    a[i - 1] -= times
    a[j - 1] -= times
    if j <= r - 1:
        a[j] += times
    for t in range(i, j + 1):
        kvec[t - 1] += times


def _incr_step(a: list[int], kvec: list[int], m: int) -> None:
    """Raise a_{m+1} by one, keeping the bracket statistic fixed.

    Requires sum(i*a_i : i <= m) > m.  Walks the largest loaded index j <= m
    rightward: a heavy entry sheds a single alpha_j, a unit entry sheds the
    consecutive root run from the next loaded index below it.
    """
    if not _left_sum(a, m) > m:
        raise HypothesisError(
            f"hypothesis Σ i·a_i > m fails: "
            f"sum over i <= {m} is {_left_sum(a, m)}")
    _incr_walk(a, kvec, m)


def _incr_walk(a: list[int], kvec: list[int], m: int) -> None:
    """The walk of _incr_step, on an a whose hypothesis the caller checked.

    A shed at j < m loads a_{j+1}, and a_{j+1..m} were empty, so the next
    largest loaded index is j + 1.
    """
    j = m
    while not a[j - 1]:
        j -= 1
    while True:
        if a[j - 1] >= 2:
            _sub_consec(a, kvec, j, j)
        else:
            # The scan cannot pass index 1: each shed with j < m keeps
            # sum(i*a_i : i <= m) > m, which a unit a_j with nothing loaded
            # below it would contradict, as the sum would be j <= m.
            i = j - 1
            while not a[i - 1]:
                i -= 1
            _sub_consec(a, kvec, i, j)
        if j == m:
            return
        j += 1


def _feed(a: list[int], kvec: list[int], m: int) -> None:
    """_incr_step from the left when sum(i*a_i : i <= m) > m, else its
    mirror image on the last m coefficients, which raises a_{r-m}."""
    if _left_sum(a, m) > m:
        _incr_walk(a, kvec, m)
        return
    a.reverse()
    kvec.reverse()
    try:
        _incr_step(a, kvec, m)
    finally:
        a.reverse()
        kvec.reverse()


def _feed_centre(a: list[int], kvec: list[int], k: int, need: int) -> None:
    """_feed at k until the centre mass sum(a[k:r-k]) reaches need."""
    while sum(a[k:len(a) - k]) < need:
        _feed(a, kvec, k)


def incr_witness(datum: RootDatum, w, m: int) -> tuple[Weight, WitnessChain]:
    """Witness with the (m+1)-st coefficient raised by one and the bracket
    statistic preserved; coefficients beyond m+1 are untouched."""
    w, r, _ = _require_type_a(datum, w, m)
    a = list(w)
    kvec = [0] * r
    _incr_step(a, kvec, m)
    mu, chain = _finish(datum, w, a, kvec)
    if not (mu[m] == w[m] + 1 and mu[m + 1:] == w[m + 1:]):
        raise AssertionError(f"witness {mu} does not raise only a_{m + 1}")
    if _bracket(r, mu) != _bracket(r, w):
        raise AssertionError(f"witness {mu} changes the bracket")
    return mu, chain


def middle_witness(datum: RootDatum, w, m: int) -> tuple[Weight, WitnessChain]:
    """Witness positive on the centred window of half-width m."""
    w, r, _ = _require_type_a(datum, w, m)
    return _clear_centre(datum, w, list(w), [0] * r, m)


def _clear_centre(datum: RootDatum, w: Weight, a: list[int], kvec: list[int],
                  m: int) -> tuple[Weight, WitnessChain]:
    """Shed the centre-clearing roots from a, which lies below w by kvec, and
    finish the witness; a must satisfy the parity-dependent hypothesis, and
    the witness is positive on the centred window of half-width m."""
    r, k = datum.rank, _centre(datum.rank)
    c1, c2 = k + 1, r - k  # equal for odd r
    if r % 2:
        if a[c1 - 1] < 2 * m + 1:
            raise HypothesisError(
                f"hypothesis a_(k+1) ≥ 2m+1 fails: "
                f"a_{c1} = {a[c1 - 1]} < {2 * m + 1}")
    else:
        if a[c1 - 1] + a[c2 - 1] < 2 * m + 3:
            raise HypothesisError(
                f"hypothesis a_(k+1)+a_(k+2) ≥ 2m+3 fails: "
                f"{a[c1 - 1]}+{a[c2 - 1]} < {2 * m + 3}")
        # Rebalance when one centre entry is light: shed a staircase of
        # single roots from the other one, walking away from the light side.
        if a[c2 - 1] <= m:
            s = m + 1 - a[c2 - 1]
            for t in range(s):
                _sub_consec(a, kvec, c1 - t, c1 - t, s - t)
        elif a[c1 - 1] <= m:
            s = m + 1 - a[c1 - 1]
            for t in range(s):
                _sub_consec(a, kvec, c2 + t, c2 + t, s - t)
    for s in range(m):
        _sub_consec(a, kvec, c1 - s, c2 + s, m - s)
    mu, chain = _finish(datum, w, a, kvec)
    if not all(x > 0 for x in mu[k - m:r - k + m]):
        raise AssertionError(f"witness {mu} has a zero in window "
                             f"{k - m + 1}..{r - k + m}")
    return mu, chain


def _m_good_threshold(r: int, m: int) -> int:
    k = _centre(r)
    if r % 2:
        return 2 * m * (k + 1) + 2 * k + 1
    return (2 * m + 2) * (k + 1) + 2 * k + 1


def m_good_witness(datum: RootDatum, w, m: int) -> tuple[Weight, WitnessChain]:
    """Witness positive on the centred window of half-width m, obtained from
    the bracket-mass hypothesis alone."""
    w, r, _ = _require_type_a(datum, w, m)
    br = _bracket(r, w)
    need = _m_good_threshold(r, m)
    if br < need:
        raise HypothesisError(
            f"hypothesis bracket ≥ {need} fails: bracket = {br}")
    return _m_good_apply(datum, w, m)


def _m_good_apply(datum: RootDatum, w: Weight,
                  m: int) -> tuple[Weight, WitnessChain]:
    """The m-good witness for w; its bracket reaches the m-good threshold."""
    r, k = datum.rank, _centre(datum.rank)
    a = list(w)
    kvec = [0] * r
    # Bracket mass off the centre exceeds 2k, so one side can feed it.
    _feed_centre(a, kvec, k, 2 * m + 1 if r % 2 else 2 * m + 3)
    return _clear_centre(datum, w, a, kvec, m)


def middle2_witness(datum: RootDatum, w) -> tuple[Weight, WitnessChain]:
    """Witness with a positive coefficient at index k+1 or r-k, preserving
    the bracket statistic.  Needs bracket >= 2k+1."""
    w, r, k = _require_type_a(datum, w)
    br = _bracket(r, w)
    if br < 2 * k + 1:
        raise HypothesisError(
            f"hypothesis bracket ≥ 2k+1 fails: bracket = {br} < {2 * k + 1}")
    targets = (k + 1, r - k)
    if any(w[t - 1] > 0 for t in targets):
        return w, WitnessChain(target=w, root_coeffs=(0,) * r)
    # Both centre slots empty; r >= 3 here since small ranks always hit above.
    a = list(w)
    kvec = [0] * r
    _feed(a, kvec, k)
    mu, chain = _finish(datum, w, a, kvec)
    if not any(mu[t - 1] > 0 for t in targets):
        raise AssertionError(f"witness {mu} misses the centre")
    if _bracket(r, mu) != br:
        raise AssertionError(f"witness {mu} changes the bracket")
    return mu, chain


def good_witness(datum: RootDatum, w) -> tuple[Weight, WitnessChain]:
    """Witness with every coefficient positive; needs
    2*bracket >= r^2 + 2r - 2."""
    w, r, k = _require_type_a(datum, w)
    br = _bracket(r, w)
    # 2·bracket ≥ r²+2r−2 is the m-good threshold at m = k for both
    # parities, so the window engine applies verbatim with full window.
    if br < _m_good_threshold(r, k):
        raise HypothesisError(
            f"hypothesis 2·bracket ≥ r²+2r−2 fails: "
            f"2·{br} < {r * r + 2 * r - 2}")
    mu, chain = _m_good_apply(datum, w, k)
    if not is_good(mu):
        raise AssertionError(f"witness {mu} has a zero coefficient")
    return mu, chain


# ---------------------------------------------------------------------------
# Rank-5 good families.

_RANK5_BETA = (0, 1, 3, 1, 0)  # alpha_2 + 3*alpha_3 + alpha_4


@lru_cache(maxsize=None)
def _a5_steps() -> tuple[tuple[Weight, Weight], ...]:
    """The family's 243 root steps (delta, sum delta_i*alpha_i), delta over
    {0, 1, 2}^5 lexicographically; a constant table, built on first use."""
    datum = root_datum("A", 5)
    return tuple((delta, datum.root_combination(delta))
                 for delta in product(range(3), repeat=5))


def a5_good_family(w) -> list[tuple[Weight, WitnessChain]]:
    """243 distinct good weights dominated by w (rank 5), each with a chain.

    Requires either a_3 >= 25 already, or bracket(w) >= 77; in the latter
    case repeated bracket-preserving raises feed the middle coefficient
    until it reaches 25, then the family mu - 5*beta - delta is emitted for
    all delta with root coefficients in {0, 1, 2}, lexicographically.
    Each member is the base minus a tabulated step, and its chain check
    sums kvec + delta from w, so the two computations stay independent.
    """
    datum = root_datum("A", 5)
    w, _, _ = _require_type_a(datum, w)
    a = list(w)
    kvec = [0] * 5
    if a[2] < 25:
        if _bracket(5, w) < 77:
            raise HypothesisError(
                "hypothesis bracket ≥ 77 (or a_3 ≥ 25) fails: "
                f"bracket = {_bracket(5, w)}, a_3 = {a[2]}")
        # bracket - 3*a_3 >= 5, so one side carries >= 3
        _feed_centre(a, kvec, 2, 25)
    for i, x in enumerate(_RANK5_BETA):
        kvec[i] += 5 * x
    gamma = sub(w, datum.root_combination(kvec))
    if not all(c >= 5 for c in gamma):
        raise AssertionError(f"family base {gamma} has a coefficient below 5")
    family = []
    for delta, step in _a5_steps():
        member = sub(gamma, step)
        if min(member) <= 0:
            raise AssertionError(f"member {member} has a zero coefficient")
        chain = WitnessChain(target=member, root_coeffs=add(kvec, delta))
        if not chain.verify(datum, w):
            raise AssertionError(f"chain for {member} failed on input {w}")
        family.append((member, chain))
    if len({mu for mu, _ in family}) != 243:
        raise AssertionError("family members are not distinct")
    return family


# Single-witness engines by command name: (engine, takes m).
ENGINES = {
    "incr": (incr_witness, True),
    "middle": (middle_witness, True),
    "m-good": (m_good_witness, True),
    "middle2": (middle2_witness, False),
    "good": (good_witness, False),
}
