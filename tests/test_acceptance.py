"""Acceptance gate: ten criteria, one printed verdict line each.

Every criterion records `criterion NN: PASS/FAIL - detail`; the lines are
echoed in the terminal summary after the run (and immediately under -s), so
the gate is readable straight off a pytest run.  Time budgets are part of
the criteria and are asserted alongside the values.
"""

import sys
import time
from fractions import Fraction
from math import factorial

from repgrowth.bounds import char2_counts, d1, f_interval, ratio_holds, \
    ratio_iv, zeta_tail_check
from repgrowth.checks import suite_checks
from repgrowth.dominance import WitnessChain, bracket, is_good, orbit_length, \
    weyl_order, weyl_stabilizer_order
from repgrowth.bounds import n_lambda, premet_lower
from repgrowth.intervals import certify_cmp, certify_less, contains, power
from repgrowth.partitions import (hook_length_dim, m_p, mullineux,
                                  conjugate, k_sum_exact, partition_count)
from repgrowth.rootdata import root_datum
from repgrowth.witness import (a5_good_family, good_witness, incr_witness,
                               m_good_witness, middle2_witness, middle_witness)

import conftest
from oracles import (brute_partitions, brute_regular, is_regular,
                     ladder_mullineux)


def report(num, budget, elapsed, ok, detail):
    within = elapsed < budget
    verdict = "PASS" if (ok and within) else "FAIL"
    line = (f"criterion {num:2d}: {verdict} - {detail} "
            f"[{elapsed:.2f}s / budget {budget:.0f}s]")
    conftest.VERDICT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line
    assert within, line


def test_criterion_01_partition_values():
    t0 = time.perf_counter()
    values = {21: 792, 39: 31185, 60: 966467}
    ok = all(partition_count(n) == want for n, want in values.items())
    report(1, 1.0, time.perf_counter() - t0, ok,
           "p(21), p(39), p(60) = 792, 31185, 966467")


def test_criterion_02_rank5_counts():
    t0 = time.perf_counter()
    total_tuples = k_sum_exact(5, 76)
    datum = root_datum("A", 5)
    family = a5_good_family((0, 0, 25, 0, 0))
    orbit_total = sum(orbit_length(datum, mu) for mu, _ in family)
    ok = (total_tuples == 2415231
          and orbit_total == 174960
          and orbit_total == 3 ** 5 * 720)
    report(2, 5.0, time.perf_counter() - t0, ok,
           f"weighted 5-tuples = {total_tuples}, orbit total = {orbit_total}")


def test_criterion_03_threshold_certificates():
    t0 = time.perf_counter()
    certs = []
    c730 = certify_less(lambda: f_interval("f1", 730),
                        lambda: power(d1(730), Fraction(19, 5)))
    certs.append(c730)
    c729 = certify_less(lambda: f_interval("f1", 729),
                        lambda: power(d1(729), Fraction(19, 5)))
    readout = f"readout at 729: {c729.verdict}"
    for m in range(80, 201):
        certs.append(certify_less(lambda m=m: f_interval("f4", m),
                                  lambda m=m: power(2, m + 1)))
    certs.append(certify_cmp(lambda: f_interval("f5", 10 ** 13),
                             lambda: power(10, 13), strict=False))
    certs.append(certify_less(lambda: f_interval("f5", 10 ** 44),
                              lambda: power(10, 22)))
    ok = (all(c.certified for c in certs)
          and all(c.prec_bits <= 1024 for c in certs)
          and c729.verdict in ("true", "false"))
    report(3, 10.0, time.perf_counter() - t0, ok,
           f"{len(certs)} certificates decided; {readout}")


def test_criterion_04_ratio_inequality():
    t0 = time.perf_counter()
    ok = all(ratio_holds(r, factorial(r + 1)).certified
             for r in range(5, 70))
    digits = contains(lambda: ratio_iv(10, factorial(11)),
                      Fraction(179885, 100000), Fraction(179895, 100000))
    ok = ok and digits.certified
    report(4, 5.0, time.perf_counter() - t0, ok,
           "ratio certified for 5 <= r <= 69; r = 10 value rounds to 1.7989")


def test_criterion_05_zeta_displays():
    t0 = time.perf_counter()
    rows = [
        (2, Fraction(1, 4), 4, False),
        (Fraction(9, 4), "2^-s", 7, True),
        (Fraction(9, 4), "2^-s", 8, True),
        (Fraction(5, 2), "2^-s", 27, False),
        (Fraction(9, 4), "2^-s", 56, False),
        (Fraction(9, 4), "2^-s", 248, False),
        (2, Fraction(1, 4), 25, False),
    ]
    ok = all(zeta_tail_check(*row).certified for row in rows)
    report(5, 5.0, time.perf_counter() - t0, ok,
           "all seven coefficient displays certify at their thresholds")


def _weights(rank, total):
    if rank == 0:
        yield ()
        return
    for head in range(total + 1):
        for tail in _weights(rank - 1, total - head):
            yield (head,) + tail


def test_criterion_06_witness_sweep():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for rank in range(1, 8):
        datum = root_datum("A", rank)
        k = (rank - 1) // 2
        for w in _weights(rank, 12):
            br = bracket(datum, w)
            for m in range(1, k + 1):
                if sum(i * w[i - 1] for i in range(1, m + 1)) > m:
                    mu, chain = incr_witness(datum, w, m)
                    ok &= (chain.verify(datum, w)
                           and bracket(datum, mu) == br
                           and mu[m] == w[m] + 1)
                    checked += 1
                hyp = (w[k] >= 2 * m + 1 if rank % 2
                       else w[k] + w[k + 1] >= 2 * m + 3)
                if hyp:
                    mu, chain = middle_witness(datum, w, m)
                    lo, hi = k - m + 1, rank - k + m
                    ok &= (chain.verify(datum, w)
                           and all(mu[i - 1] > 0 for i in range(lo, hi + 1)))
                    checked += 1
                need = (2 * m * (k + 1) + 2 * k + 1 if rank % 2
                        else (2 * m + 2) * (k + 1) + 2 * k + 1)
                if br >= need:
                    mu, chain = m_good_witness(datum, w, m)
                    lo, hi = k - m + 1, rank - k + m
                    ok &= (chain.verify(datum, w)
                           and all(mu[i - 1] > 0 for i in range(lo, hi + 1)))
                    checked += 1
            if br >= 2 * k + 1:
                mu, chain = middle2_witness(datum, w)
                ok &= (chain.verify(datum, w)
                       and any(mu[t - 1] > 0 for t in (k + 1, rank - k))
                       and bracket(datum, mu) == br)
                checked += 1
            if 2 * br >= rank * rank + 2 * rank - 2:
                mu, chain = good_witness(datum, w)
                ok &= chain.verify(datum, w) and is_good(mu)
                checked += 1
            if not ok:
                break
        if not ok:
            break
    report(6, 120.0, time.perf_counter() - t0, ok and checked > 10 ** 5,
           f"rank <= 7, coefficient sum <= 12: {checked} witnesses verified")


def test_criterion_07_bounds_consistency():
    t0 = time.perf_counter()
    compared = 0
    ok = True
    for rank in range(1, 5):
        datum = root_datum("A", rank)
        for w in _box(rank, 4):
            ok &= n_lambda(datum, w) <= premet_lower(datum, w, 5)
            compared += 1
    orbit_checks = 0
    data = ([("A", r) for r in range(1, 5)]
            + [("B", r) for r in range(2, 5)]
            + [("C", r) for r in range(2, 5)]
            + [("D", r) for r in (3, 4)]
            + [("F", 4), ("G", 2)])
    for family, rank in data:
        datum = root_datum(family, rank)
        order = weyl_order(datum)
        for w in _box(rank, 4):
            ok &= (orbit_length(datum, w)
                   * weyl_stabilizer_order(datum, w) == order)
            orbit_checks += 1
    report(7, 60.0, time.perf_counter() - t0, ok,
           f"{compared} product-vs-saturated comparisons, "
           f"{orbit_checks} orbit-stabilizer products")


def _box(rank, top):
    if rank == 0:
        yield ()
        return
    for head in range(top + 1):
        for tail in _box(rank - 1, top):
            yield (head,) + tail


def test_criterion_08_char2_exhaustive():
    t0 = time.perf_counter()
    ok = True
    for r in range(26):
        for m in range(r + 1):
            tail, ratio = char2_counts(r, m)
            ok &= tail <= ratio
    report(8, 1.0, time.perf_counter() - t0, ok,
           "tail binomial sums bounded for all 0 <= m <= r <= 25")


def test_criterion_09_mullineux_and_halfpower():
    t0 = time.perf_counter()
    ok = True
    for p in (3, 5, 7):
        for n in range(1, 19):
            for lam in brute_regular(n, p):
                image = mullineux(lam, p)
                ok &= (sum(image) == n and is_regular(image, p)
                       and mullineux(image, p) == lam)
    for p in (3, 5, 7):
        for n in range(1, 13):
            for lam in brute_regular(n, p):
                ok &= mullineux(lam, p) == ladder_mullineux(lam, p)
    for n in range(11):
        for lam in brute_partitions(n):
            ok &= mullineux(lam, 0) == conjugate(lam)
    half_checks = 0
    for n in range(5, 17):
        for lam in brute_partitions(n):
            dim = hook_length_dim(lam)
            for p in (0, 2, 3, 5, 7):
                if not is_regular(lam, p):
                    continue
                halves = n - m_p(lam, p)
                # 2^(halves/2) <= dim, squared to stay exact
                ok &= 2 ** max(halves, 0) <= dim * dim
                half_checks += 1
    report(9, 120.0, time.perf_counter() - t0, ok,
           f"involution + route agreement + {half_checks} half-power checks")


def test_criterion_10_externals_stay_external():
    t0 = time.perf_counter()
    checks = suite_checks("all")
    results = {c.id: (c.claim, *c.run(64, "desk")) for c in checks}
    external_ids = [cid for cid in results
                    if cid.split("-")[1].startswith("9")]
    ok = len(external_ids) >= 10
    for cid in external_ids:
        claim, verdict, _ = results[cid]
        ok &= verdict == "external-assumption"
        ok &= verdict != "pass"
    claims = " | ".join(claim for claim, _, _ in results.values())
    ok &= "R_500 < 200" in claims
    ok &= any("maximal subgroup" in results[cid][0].lower()
              for cid in external_ids)
    ok &= any("dim" in results[cid][0].lower() for cid in external_ids)
    ok &= all(verdict in ("pass", "external-assumption")
              for _, verdict, _ in results.values())
    report(10, 60.0, time.perf_counter() - t0, ok,
           f"{len(external_ids)} external facts flagged, none reported "
           "as pass; every computed check passes")
