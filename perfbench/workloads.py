"""The four workloads: seeded operation lists and the checks on their answers.

Every workload is a fixed list of at least 1000 operations for a given seed
(a "pass").  An operation is one call into a public entry point of
repgrowth; its answer is judged by code in this directory (``oracle``), with
reference values computed while the list is built, outside any timing.
Cost classes are filled to fixed quotas and the seed draws within strata,
so the work in a pass, and with it every end-to-end metric, changes little
from seed to seed.  The quotas also keep the 99th percentile inside a block
of a dozen or more heavy operations, not at the edge of one.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import factorial
from typing import Callable

import mpmath

import oracle

@dataclass(frozen=True)
class Op:
    kind: str                        # label for the op mix
    call: Callable[[], object]       # one call into the package
    check: Callable[[object], bool]  # judges the answer or the exception
    request: str | None = None       # cli subcommand, for request counts


def _invoke(module, attr, *args):
    # Look the name up at call time, so that traced wrappers take effect.
    return getattr(module, attr)(*args)


def _raised(out) -> bool:
    return isinstance(out, BaseException)


def _refused(out) -> bool:
    return type(out).__name__ == "HypothesisError"


def _strata(rnd: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """`count` integers spread evenly over [lo, hi], one drawn from each of
    `count` equal strata, in seeded order.  Stratified draws keep the work
    in a pass nearly the same from seed to seed."""
    width = (hi - lo + 1) / count
    out = [lo + int((i + rnd.random()) * width) for i in range(count)]
    rnd.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# saturated: dimension lower bounds by saturated-set walks.

SATURATED_DATA = (("A", 3, 5), ("A", 4, 5), ("B", 3, 5), ("C", 3, 5),
                  ("B", 4, 3), ("D", 4, 3), ("G", 2, 7), ("F", 4, 3))
# (lowest, highest saturated-set size, calls); every fifth call of a class
# builds chains, the others are premet_lower.
SATURATED_CLASSES = ((1, 300, 900), (301, 3000, 80), (6000, 7500, 20))


def _check_premet(want: int, out) -> bool:
    return not _raised(out) and type(out) is int and out == want


def _check_chains(family, rank, lam, want, out) -> bool:
    if _raised(out) or not isinstance(out, list):
        return False
    if [mu for mu, _ in out] != list(want):
        return False
    return all(chain.target == mu and oracle.chain_holds(
        family, rank, lam, mu, tuple(chain.root_coeffs)) for mu, chain in out)


def _saturated(rnd, pkg):
    sizes = {}
    for family, rank, p in SATURATED_DATA:
        for lam in itertools.product(range(p), repeat=rank):
            sizes[(family, rank, p, lam)] = oracle.saturated_size(
                family, rank, lam)
    ops = []
    for low, high, count in SATURATED_CLASSES:
        pool = sorted((size, key) for key, size in sizes.items()
                      if low <= size <= high)
        picks = sorted(_strata(rnd, 0, len(pool) - 1, count))
        for i, pick in enumerate(picks):
            family, rank, p, lam = pool[pick][1]
            datum = pkg.rootdata.root_datum(family, rank)
            if i % 5 != 4:
                ops.append(Op(
                    f"premet_lower.{family}{rank}",
                    partial(_invoke, pkg.bounds, "premet_lower", datum, lam, p),
                    partial(_check_premet, sizes[(family, rank, p, lam)])))
            else:
                ops.append(Op(
                    f"saturated_dominant_set.{family}{rank}",
                    partial(_invoke, pkg.dominance, "saturated_dominant_set",
                            datum, lam),
                    partial(_check_chains, family, rank, lam,
                            oracle.dominant_below(family, rank, lam))))
    return ops


SATURATED_SETUP = ("from repgrowth import rootdata\n"
                   f"for f, r, p in {SATURATED_DATA!r}:\n"
                   "    rootdata.root_datum(f, r)\n")


# ---------------------------------------------------------------------------
# witness: constructive type-A witnesses.

ENGINE_FUNCS = {"incr": "incr_witness", "middle": "middle_witness",
                "m_good": "m_good_witness", "middle2": "middle2_witness",
                "good": "good_witness"}
# (produced, refused) per single engine, and for the rank-5 family.
WITNESS_QUOTA = (137, 59)
A5_QUOTA = (15, 5)


def _composition(rnd: random.Random, rank: int, total: int) -> tuple:
    cuts = sorted(rnd.randint(0, total) for _ in range(rank - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


def _check_witness(engine, w, m, applies, out) -> bool:
    if _raised(out):
        return _refused(out) and not applies
    if not applies:
        return False
    if engine == "a5_family":
        found = [(mu, chain) for mu, chain in out]
        return (len(found) == 243 and len({mu for mu, _ in found}) == 243
                and all(_witness_ok(engine, w, m, mu, chain)
                        for mu, chain in found))
    mu, chain = out
    return _witness_ok(engine, w, m, mu, chain)


def _witness_ok(engine, w, m, mu, chain) -> bool:
    return (tuple(chain.target) == tuple(mu)
            and oracle.chain_holds("A", len(w), w, mu,
                                   tuple(chain.root_coeffs))
            and oracle.engine_promise(engine, w, m, tuple(mu)))


def _draw_engine_input(rnd, engine, want_applies, rank=None, total=(0, 24)):
    while True:
        r = rank or rnd.randint(3, 12)
        w = _composition(rnd, r, rnd.randint(*total))
        m = rnd.randint(1, (r - 1) // 2) if engine in (
            "incr", "middle", "m_good") else None
        if oracle.engine_applies(engine, w, m) == want_applies:
            return r, w, m


def _witness(rnd, pkg):
    ops = []
    for engine, func in ENGINE_FUNCS.items():
        for want, count in zip((True, False), WITNESS_QUOTA):
            for _ in range(count):
                r, w, m = _draw_engine_input(rnd, engine, want)
                datum = pkg.rootdata.root_datum("A", r)
                args = (datum, w) if m is None else (datum, w, m)
                ops.append(Op(f"{engine}.{'produced' if want else 'refused'}",
                              partial(_invoke, pkg.witness, func, *args),
                              partial(_check_witness, engine, w, m, want)))
    for want, count in zip((True, False), A5_QUOTA):
        for _ in range(count):
            _, w, _ = _draw_engine_input(rnd, "a5_family", want, rank=5,
                                         total=(26, 40) if want else (0, 24))
            ops.append(Op(f"a5_family.{'produced' if want else 'refused'}",
                          partial(_invoke, pkg.witness, "a5_good_family", w),
                          partial(_check_witness, "a5_family", w, None, want)))
    return ops


WITNESS_SETUP = ("from repgrowth import rootdata, witness\n"
                 "for r in range(3, 13):\n"
                 "    rootdata.root_datum('A', r)\n")


# ---------------------------------------------------------------------------
# certify: certified readouts and the paper's comparisons.

# Digit bands that the precision ladder decides at 64, 128, 256, 512 and
# 1024 bits, and the number of readouts drawn from each.
READOUT_BANDS = ((6, 18), (24, 36), (45, 75), (90, 150), (170, 250))
ZETA_BANDS = ((6, 18), (20, 24), (28, 45), (50, 90), (100, 160))
RATIO_PER_BAND = 50
ENVELOPE_PER_BAND = 50
ZETA_PER_BAND = (3, 3, 6, 8, 20)
ZETA_ARGS = (Fraction(2), Fraction(9, 4), Fraction(5, 2), Fraction(3),
             Fraction(7, 2))
ENVELOPE_ARGS = {"f1": (1, 40), "f2": (1, 40), "f3": (1, 40),
                 "f4": (0, 60), "f5": (2, 10 ** 6)}
COMPARISONS = 115
# The zeta-sum displays: (s, extra term, threshold n0, double form).
DISPLAYS = ((Fraction(2), Fraction(1, 4), 4, False),
            (Fraction(9, 4), "2^-s", 7, True),
            (Fraction(9, 4), "2^-s", 8, True),
            (Fraction(5, 2), "2^-s", 27, False),
            (Fraction(9, 4), "2^-s", 56, False),
            (Fraction(9, 4), "2^-s", 248, False),
            (Fraction(2), Fraction(1, 4), 25, False))


def _check_verdict(want: str, out) -> bool:
    return not _raised(out) and out.verdict == want


def _zeta_value(pkg, s):
    return pkg.intervals.zeta_iv(s)


def _ratio_value(pkg, r):
    return pkg.bounds.ratio_iv(r, factorial(r + 1))


def _envelope_value(pkg, name, arg):
    return pkg.bounds.f_interval(name, arg)


def _power_of_two(pkg, m):
    return pkg.intervals.exact(2 ** (m + 1))


def _check_partition_bound(valid, envelope, out) -> bool:
    if _raised(out) or out.valid is not valid:
        return False
    return (all(c.verdict == ("true" if valid else "false")
                for c in out.certificates)
            and _encloses(out.value.lo, out.value.hi, envelope))


def _encloses(lo: str, hi: str, value) -> bool:
    """Printed endpoints bracket value, allowing for their 24-digit
    rounding."""
    with mpmath.workprec(oracle.REF_BITS):
        slack = abs(value) * mpmath.mpf(10) ** -20
        return mpmath.mpf(lo) - slack <= value <= mpmath.mpf(hi) + slack


def _certify(rnd, pkg):
    ops = []

    def readout(kind, value_fn, value, band):
        lo, hi = oracle.bracket_digits(value, rnd.randint(*band))
        ops.append(Op(f"contains.{kind}",
                      partial(_invoke, pkg.intervals, "contains",
                              value_fn, lo, hi),
                      partial(_check_verdict, "true")))

    for band in READOUT_BANDS:
        for _ in range(RATIO_PER_BAND):
            r = rnd.randint(3, 60)
            readout("ratio", partial(_ratio_value, pkg, r),
                    oracle.rank_ratio(r), band)
        for _ in range(ENVELOPE_PER_BAND):
            name = rnd.choice(sorted(ENVELOPE_ARGS))
            arg = rnd.randint(*ENVELOPE_ARGS[name])
            readout("envelope", partial(_envelope_value, pkg, name, arg),
                    oracle.envelope(name, arg), band)
    for band, count in zip(ZETA_BANDS, ZETA_PER_BAND):
        for _ in range(count):
            s = rnd.choice(ZETA_ARGS)
            readout("zeta", partial(_zeta_value, pkg, s), oracle.zeta(s), band)

    for _ in range(COMPARISONS):
        m = rnd.randint(6, 200)
        want = oracle.envelope("f4", m) < 2 ** (m + 1)
        ops.append(Op("f4_vs_power",
                      partial(_invoke, pkg.intervals, "certify_less",
                              partial(_envelope_value, pkg, "f4", m),
                              partial(_power_of_two, pkg, m)),
                      partial(_check_verdict, "true" if want else "false")))
        r = rnd.randint(1, 30)
        n = max(6, factorial(r + 1)) * rnd.randint(1, 1000)
        want = oracle.ratio_inequality(r, n)
        ops.append(Op("ratio_holds",
                      partial(_invoke, pkg.bounds, "ratio_holds", r, n),
                      partial(_check_verdict, "true" if want else "false")))
        s, extra, n0, double = rnd.choice(DISPLAYS)
        want = oracle.zeta_display(s, extra, n0, double)
        ops.append(Op("zeta_tail_check",
                      partial(_invoke, pkg.bounds, "zeta_tail_check",
                              s, extra, n0, double),
                      partial(_check_verdict, "true" if want else "false")))
        n = rnd.randint(1, 300)
        envelope = oracle.partition_envelope(n)
        ops.append(Op("partition_bound",
                      partial(_invoke, pkg.partitions, "partition_bound", n),
                      partial(_check_partition_bound,
                              oracle.partition_count(n) < envelope,
                              envelope)))
    return ops


CERTIFY_SETUP = "from repgrowth import bounds, intervals, partitions\n"


# ---------------------------------------------------------------------------
# cli: argv requests through repgrowth.cli.main, output parsed back.

BOUND_RANKS = {"A": (1, 12), "B": (2, 8), "C": (2, 8), "D": (3, 8),
               "E": (6, 8), "F": (4, 4), "G": (2, 2)}
CLI_QUOTA = {"bound": 300, "mullineux": 250, "witness": 200,
             "enumerate": 100, "verify": 24, "malformed": 126}
# Pinned at the defining commit: (pass, external-assumption) per suite.
SUITES = {"typeA": (21, 5), "char2": (2, 1), "nonA": (9, 3),
          "partitions": (11, 1), "symmetric": (8, 5), "all": (51, 15)}
ENUMERATE_DATA = {"nlambda": (("A", 1, 3), ("A", 1, 5), ("A", 1, 7),
                              ("A", 2, 3), ("A", 2, 5)),
                  "premet": (("A", 1, 7), ("A", 2, 5), ("B", 2, 3),
                             ("C", 2, 3), ("G", 2, 5))}
MULLINEUX_P = (0, 2, 3, 5, 7)
FORMATS = ("json", "csv")
CLI_ENGINES = ("incr", "middle", "m-good", "middle2", "good")


def _run_cli(pkg, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = pkg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _records(fmt: str, text: str):
    """The JSON payload, or the CSV rows."""
    if fmt == "json":
        return json.loads(text)
    return list(csv.DictReader(io.StringIO(text)))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x != "")


def _bound_ok(reference, prec, kind, value, lo, hi, bits) -> bool:
    want_kind, want = reference
    if kind != want_kind:
        return False
    if kind == "exact":
        return int(value) == want
    return int(bits) == prec and _encloses(lo, hi, want)


def _check_bound(reference, prec, fmt, out) -> bool:
    if _raised(out) or out[0] != 0:
        return False
    text = out[1]
    rec = _records(fmt, text)
    if fmt == "json":
        v = rec["value"]
        return _bound_ok(reference, prec, v["kind"], v.get("value"),
                         v.get("lo"), v.get("hi"), v.get("prec_bits"))
    (row,) = rec
    return _bound_ok(reference, prec, row["value_kind"], row["value"],
                     row["value"], row.get("value_hi"),
                     row.get("value_prec_bits"))


def _check_mullineux(lam, p, want, fmt, out) -> bool:
    if _raised(out) or out[0] != 0:
        return False
    text = out[1]
    rec = _records(fmt, text)
    if fmt == "json":
        image, mp = tuple(rec["image"]), rec["m_p"]
    else:
        (row,) = rec
        image, mp = _ints(row["image"]), int(row["m_p"])
    if p == 2:
        want_mp = lam[0]
    elif p == 0:
        want_mp = max(lam[0], len(lam))
    else:
        want_mp = max(lam[0], want[0])
    return image == want and mp == want_mp


def _check_cli_witness(engine, w, m, fmt, out) -> bool:
    if _raised(out) or out[0] != 0:
        return False
    text = out[1]
    rec = _records(fmt, text)
    if fmt == "json":
        mu, coeffs = tuple(rec["witness"]), tuple(rec["root_coeffs"])
    else:
        (row,) = rec
        mu, coeffs = _ints(row["witness"]), _ints(row["root_coeffs"])
    name = engine.replace("-", "_")
    return (oracle.chain_holds("A", len(w), w, mu, coeffs)
            and oracle.engine_promise(name, w, m, mu))


def _check_enumerate(counts, references, fmt, out) -> bool:
    """counts[n-1] weights have a lower bound at most n; references[n-1]
    is the count bound at n."""
    if _raised(out) or out[0] != 0:
        return False
    text = out[1]
    rec = _records(fmt, text)
    rows = rec["rows"] if fmt == "json" else rec
    if len(rows) != len(counts):
        return False
    for n, row in enumerate(rows, start=1):
        if fmt == "json":
            b = row["bound"]
            kind, value, lo, hi, bits = (b["kind"], b.get("value"),
                                         b.get("lo"), b.get("hi"),
                                         b.get("prec_bits"))
        else:
            kind, value, lo, hi, bits = (row["bound_kind"], row["bound"],
                                         row["bound"], row.get("bound_hi"),
                                         row.get("bound_prec_bits"))
        if (int(row["n"]) != n or int(row["overflow"]) != 0
                or int(row["count"]) != counts[n - 1]
                or not _bound_ok(references[n - 1], 256, kind, value, lo,
                                 hi, bits)):
            return False
    return True


def _check_verify(suite, fmt, out) -> bool:
    if _raised(out) or out[0] != 0:
        return False
    text = out[1]
    rec = _records(fmt, text)
    verdicts = [c["verdict"] for c in (rec["checks"] if fmt == "json"
                                       else rec)]
    want_pass, want_external = SUITES[suite]
    return (verdicts.count("pass") == want_pass
            and verdicts.count("external-assumption") == want_external
            and len(verdicts) == want_pass + want_external)


def _check_error(want_code, want_type, out) -> bool:
    if _raised(out):
        return False
    code, text, err = out
    if code != want_code or text:
        return False
    if want_code == 2:
        return "usage:" in err
    try:
        return json.loads(err)["error"]["type"] == want_type
    except (ValueError, KeyError, TypeError):
        return False


def _regular_partition(rnd, n, p):
    while True:
        parts, left = [], n
        while left:
            part = rnd.randint(1, left)
            if p and parts.count(part) >= p - 1:
                if not any(parts.count(x) < p - 1 for x in range(1, left + 1)):
                    break
                continue
            parts.append(part)
            left -= part
        if not left:
            lam = tuple(sorted(parts, reverse=True))
            if oracle.is_regular(lam, p):
                return lam


def _malformed(rnd):
    """(argv, exit code, error type): inputs whose documented outcome holds."""
    r = rnd.randint(4, 9)
    bad_weight = [str(rnd.randint(0, 3)) for _ in range(r)]
    bad_weight[rnd.randrange(r)] = "x"
    p = rnd.choice((3, 5, 7))
    n = rnd.randint(2, 12)
    return rnd.choice((
        (["witness", "good", "--rank", str(r), "--weight",
          ",".join("0" * (r - 1)) + ",1"], 1, "hypothesis"),
        (["witness", "incr", "--rank", str(r), "--m", "1", "--weight",
          ",".join(bad_weight)], 1, "hypothesis"),
        (["bound", "--family", "E", "--rank", str(rnd.choice((4, 5, 9))),
          "--n", str(n), "--p", str(p)], 1, "input"),
        (["bound", "--family", "A", "--rank", "2", "--n", str(n), "--p",
          str(rnd.choice((4, 6, 9, 15)))], 1, "hypothesis"),
        (["mullineux", "--p", str(p), "--partition",
          ",".join(["2"] + ["1"] * p)], 1, "hypothesis"),
        (["enumerate", "--family", "A", "--rank", "1", "--p",
          str(rnd.choice((4, 6, 8))), "--n-max", str(n)], 1, "hypothesis"),
        (["bound", "--family", "Z", "--rank", "1", "--n", str(n), "--p",
          str(p)], 2, None),
        (["bound", "--family", "A", "--rank", "x", "--n", str(n), "--p",
          str(p)], 2, None),
        (["verify"], 2, None),
        (["frobnicate", "--p", str(p)], 2, None),
    ))


def _cli(rnd, pkg):
    # Each loop cycles its kinds and, one level up, the two formats, so that
    # every kind is asked for in both.
    ops = []
    count = CLI_QUOTA["bound"]
    families = sorted(BOUND_RANKS)
    primes = (2, 3, 5, 7, 11, 13, 17)
    for i, (exponent, prec) in enumerate(zip(
            _strata(rnd, 0, 6000, count), _strata(rnd, 64, 1024, count))):
        family, p = families[i % 7], primes[i // 7 % 7]
        rank = rnd.randint(*BOUND_RANKS[family])
        n = int(10 ** (exponent / 1000))
        argv = ["bound", "--family", family, "--rank", str(rank), "--n",
                str(n), "--p", str(p), "--prec", str(prec)]
        fmt = FORMATS[i % 2]
        ops.append(Op(f"bound.{fmt}",
                      partial(_run_cli, pkg, argv + ["--format", fmt]),
                      partial(_check_bound,
                              oracle.count_bound(family, rank, n, p), prec,
                              fmt),
                      request="bound"))
    for i in range(CLI_QUOTA["mullineux"]):
        p = MULLINEUX_P[i % len(MULLINEUX_P)]
        n = rnd.randint(1, 10) + 10 * (i // len(MULLINEUX_P) % 4)
        lam = _regular_partition(rnd, n, p)
        fmt = FORMATS[i // 20 % 2]
        argv = ["mullineux", "--p", str(p), "--partition",
                ",".join(map(str, lam)), "--format", fmt]
        ops.append(Op(f"mullineux.{fmt}", partial(_run_cli, pkg, argv),
                      partial(_check_mullineux, lam, p, oracle.twist(lam, p),
                              fmt),
                      request="mullineux"))
    for i in range(CLI_QUOTA["witness"]):
        engine = CLI_ENGINES[i % len(CLI_ENGINES)]
        r, w, m = _draw_engine_input(rnd, engine.replace("-", "_"), True)
        fmt = FORMATS[i // 5 % 2]
        argv = ["witness", engine, "--rank", str(r), "--weight",
                ",".join(map(str, w)), "--format", fmt]
        if m is not None:
            argv += ["--m", str(m)]
        ops.append(Op(f"witness.{fmt}", partial(_run_cli, pkg, argv),
                      partial(_check_cli_witness, engine, w, m, fmt),
                      request="witness"))
    for i, n_max in enumerate(_strata(rnd, 1, 30, CLI_QUOTA["enumerate"])):
        bound = ("nlambda", "premet")[i % 2]
        data = ENUMERATE_DATA[bound]
        family, rank, p = data[i // 2 % len(data)]
        values = [oracle.n_lambda(w) if bound == "nlambda"
                  else oracle.saturated_size(family, rank, w)
                  for w in itertools.product(range(p), repeat=rank)]
        counts = [sum(1 for v in values if v <= n)
                  for n in range(1, n_max + 1)]
        references = [oracle.count_bound(family, rank, n, p)
                      for n in range(1, n_max + 1)]
        fmt = FORMATS[i // 10 % 2]
        argv = ["enumerate", "--family", family, "--rank", str(rank), "--p",
                str(p), "--n-max", str(n_max), "--bound", bound,
                "--format", fmt]
        ops.append(Op(f"enumerate.{fmt}", partial(_run_cli, pkg, argv),
                      partial(_check_enumerate, counts, references, fmt),
                      request="enumerate"))
    for i in range(CLI_QUOTA["verify"]):
        suite = sorted(SUITES)[i % len(SUITES)]
        fmt = FORMATS[i // len(SUITES) % 2]
        argv = ["verify", "--suite", suite, "--format", fmt]
        ops.append(Op(f"verify.{fmt}", partial(_run_cli, pkg, argv),
                      partial(_check_verify, suite, fmt), request="verify"))
    for i in range(CLI_QUOTA["malformed"]):
        argv, code, kind = _malformed(rnd)
        if code == 1:
            argv = argv + ["--format", FORMATS[i % 2]]
        ops.append(Op(f"malformed.exit{code}", partial(_run_cli, pkg, argv),
                      partial(_check_error, code, kind)))
    return ops


CLI_SETUP = "from repgrowth import cli\ncli.build_parser()\n"


# ---------------------------------------------------------------------------

GENERATORS = {"saturated": _saturated, "witness": _witness,
            "certify": _certify, "cli": _cli}
WORKLOADS = tuple(GENERATORS)
SETUP_CODE = {"saturated": SATURATED_SETUP, "witness": WITNESS_SETUP,
              "certify": CERTIFY_SETUP, "cli": CLI_SETUP}


def build(workload: str, seed: int, pkg) -> list[Op]:
    """The pass for a workload and seed, in a seeded shuffled order."""
    rnd = random.Random(f"{workload}:{seed}")
    ops = GENERATORS[workload](rnd, pkg)
    rnd.shuffle(ops)
    return ops
