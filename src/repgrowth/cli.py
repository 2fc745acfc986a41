"""Command line front end.

Five subcommands: ``bound`` serializes a certified count bound, ``witness``
runs a dominance witness engine, which checks its own chain, ``enumerate``
tabulates exact lower-bound counts against the certified upper bound,
``verify`` runs a named suite of :mod:`repgrowth.checks`, and ``mullineux``
applies the sign-twist involution on regular partitions.

Output is JSON by default, CSV with ``--format csv``.  A CSV row is a JSON
record flattened by :func:`render_csv`.  Every numeric field carries a kind
tag (``exact``, ``interval``, or ``external``).
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import itertools
import json
import sys
from bisect import bisect_right
from dataclasses import asdict
from functools import cache

import mpmath

from .bounds import (
    PRIME_CEILING,
    BoundReport,
    ExactValue,
    _is_prime,
    n_lambda,
    premet_lower,
    rn_upper,
)
from .checks import SUITES, suite_checks
from .dominance import (
    HypothesisError,
    SaturationCapError,
    bracket,
    orbit_length,
)
from .partitions import check_partition, mullineux
from .rootdata import FAMILIES, RootDataError, root_datum
from .witness import ENGINES as _SINGLE_ENGINES, a5_good_family

PREC_DEFAULT = 256
PREC_CEILING = 1024
CAP_DEFAULT = 10 ** 7
# Most cells mullineux twists, most restricted weights enumerate walks (by
# --bound), most rows it bounds, most digits of the dimension cap bound
# takes (an exact n^2 must stay printable), highest rank bound takes (type
# A builds a middle binomial, and (r+1)! only up to n), highest rank
# witness takes; README gives the measured costs.
TWIST_CELLS_MAX = 10 ** 4
BOX_MAX = {"nlambda": 4 * 10 ** 5, "premet": 500}
ROWS_MAX = 3000
N_DIGITS_MAX = 2000
BOUND_RANK_MAX = 10 ** 5
WITNESS_RANK_MAX = 300


# ---------------------------------------------------------------------------
# Serialization.

def record(x) -> dict:
    """JSON form of a bound report or of a kind-tagged value."""
    if isinstance(x, BoundReport):
        return {"name": x.name, "inputs": dict(x.inputs),
                "value": record(x.value), "valid": x.valid,
                "guard_detail": x.guard_detail,
                "certificates": [{"verdict": c.verdict,
                                  "prec_bits": c.prec_bits,
                                  "lhs": c.lhs, "rhs": c.rhs}
                                 for c in x.certificates]}
    return {"kind": x.kind, **asdict(x)}


def _cells(key: str, value) -> dict:
    """CSV columns of one record field.  A kind-tagged object spreads into
    key_kind, key (its first field) and key_<field> for the rest; a list
    joins into one cell, with commas or, for text, with " | "."""
    if isinstance(value, dict):
        (_, kind), (_, first), *rest = value.items()
        return {f"{key}_kind": kind, key: first,
                **{f"{key}_{k}": v for k, v in rest}}
    if isinstance(value, list):
        sep = " | " if any(isinstance(v, str) for v in value) else ","
        return {key: sep.join(map(str, value))}
    return {key: value}


def render_csv(records: list[dict]) -> str:
    """Records as CSV rows; columns in order of first appearance."""
    rows =[{k: v for key, value in rec.items()
             for k, v in _cells(key, value).items()} for rec in records]
    fields = list(dict.fromkeys(k for row in rows for k in row))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, restval="")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _emit(args, payload: dict, rows: list[dict] | None = None) -> None:
    """Print the payload as JSON, or the rows (default: the payload alone)
    as CSV."""
    if args.format == "csv":
        sys.stdout.write(render_csv([payload] if rows is None else rows))
    else:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _bits(args) -> int:
    return max(16, min(args.prec, PREC_CEILING))


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    if not text.strip():
        return ()  # a blank value reads as the empty tuple
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise HypothesisError(f"{what} must be comma-separated integers, "
                              f"got {text!r}")


# ---------------------------------------------------------------------------
# bound

def cmd_bound(args) -> int:
    if args.n > 10 ** N_DIGITS_MAX:
        raise ValueError(f"--n is over the budget of 10^{N_DIGITS_MAX}")
    if args.rank > BOUND_RANK_MAX:
        raise ValueError(f"rank {args.rank} is over the bound budget of "
                         f"rank {BOUND_RANK_MAX}")
    rep = rn_upper(args.family, args.rank, args.n, args.p, bits=_bits(args))
    payload = record(rep)
    row = {"name": rep.name, **payload["inputs"], "valid": rep.valid,
           "value": payload["value"], "guard_detail": rep.guard_detail}
    _emit(args, payload, [row])
    return 0


# ---------------------------------------------------------------------------
# witness

def _engine_transcript(name: str, datum, w, m, mu, chain) -> list[str]:
    combo = " + ".join(f"{c}*a{i + 1}" for i, c in
                       enumerate(chain.root_coeffs) if c)
    # the engine raised unless its chain and its promise verified
    lines = [f"engine {name} on weight {list(w)}"
             + (f" with m = {m}" if m is not None else ""),
             f"chain: witness = input - ({combo or '0'}); re-verified: True",
             f"bracket: {bracket(datum, w)} -> {bracket(datum, mu)}"]
    if name == "good":
        lines.append("witness has every coefficient positive: True")
    elif name == "middle2":
        lines.append("witness has a positive centre coefficient: True")
    return lines


def cmd_witness(args) -> int:
    w = _parse_ints(args.weight, "--weight")
    if args.engine == "a5":
        if args.rank not in (None, 5):
            raise HypothesisError("engine a5 is fixed at rank 5")
        if args.m is not None:
            raise HypothesisError("engine a5 takes no --m")
        datum = root_datum("A", 5)
        members = [{"witness": list(mu),
                    "root_coeffs": list(chain.root_coeffs),
                    "orbit_length": orbit_length(datum, mu)}
                   for mu, chain in a5_good_family(w)]
        payload = {
            "engine": "a5", "input": list(w), "members": len(members),
            "orbit_total": sum(m["orbit_length"] for m in members),
            "all_verified": True, "witnesses": members,
        }
        _emit(args, payload, [{"engine": "a5", "member": i, **m,
                               "verified": True}
                              for i, m in enumerate(members)])
        return 0

    fn, takes_m = _SINGLE_ENGINES[args.engine]
    if args.rank is None:
        raise HypothesisError("--rank is required")
    if args.rank > WITNESS_RANK_MAX:
        raise ValueError(f"rank {args.rank} is over the witness budget of "
                         f"rank {WITNESS_RANK_MAX}")
    datum = root_datum("A", args.rank)
    if takes_m:
        if args.m is None:
            raise HypothesisError(f"engine {args.engine} needs --m")
        mu, chain = fn(datum, w, args.m)
    else:
        if args.m is not None:
            raise HypothesisError(f"engine {args.engine} takes no --m")
        mu, chain = fn(datum, w)
    _emit(args, {
        "engine": args.engine, "rank": args.rank, "m": args.m,
        "input": list(w), "witness": list(mu),
        "root_coeffs": list(chain.root_coeffs), "verified": True,
        "transcript": _engine_transcript(args.engine, datum, w, args.m, mu,
                                         chain),
    })
    return 0


# ---------------------------------------------------------------------------
# enumerate

def _margin(value, count: int) -> dict:
    """Bound minus exact count; lower endpoint is used for intervals."""
    if isinstance(value, ExactValue):
        return {"kind": "exact", "value": value.value - count}
    with mpmath.workprec(64):
        return {"kind": "interval",
                "value": mpmath.nstr(mpmath.mpf(value.lo) - count, 12)}


def cmd_enumerate(args) -> int:
    top = BOX_MAX[args.bound]
    # p ** rank is over the budget once rank passes its bit length
    if args.p > 1 and args.p ** min(args.rank, top.bit_length()) > top:
        raise ValueError(f"box of {args.p}^{args.rank} restricted weights is "
                         f"over the {args.bound} budget of {top} weights")
    if args.n_max > ROWS_MAX:
        raise ValueError(f"--n-max {args.n_max} is over the budget of "
                         f"{ROWS_MAX} rows")
    if args.p < 2 or not _is_prime(args.p):
        raise HypothesisError(
            "enumeration needs a prime characteristic; the restricted "
            "coefficient box is finite only then")
    datum = root_datum(args.family, args.rank)
    if args.n_max < 0:
        raise HypothesisError("--n-max must be >= 0")
    if args.cap < 1:
        raise ValueError(f"--cap must be >= 1, got {args.cap}")
    use_premet = args.bound == "premet"
    values: list[int] = []
    overflow = 0
    for w in itertools.product(range(args.p), repeat=args.rank):
        try:
            v = (premet_lower(datum, w, args.p, cap=args.cap)
                 if use_premet else n_lambda(datum, w))
        except SaturationCapError:
            # weight skipped; its bound exceeds any tabulated n
            overflow += 1
            continue
        values.append(v)
    values.sort()
    bits = _bits(args)
    rows = []
    for n in range(1, args.n_max + 1):
        count = bisect_right(values, n)
        rep = rn_upper(args.family, args.rank, n, args.p, bits=bits)
        rows.append({"n": n, "count": count, "bound": record(rep.value),
                     "margin": _margin(rep.value, count),
                     "overflow": overflow})
    payload = {"family": args.family, "rank": args.rank, "p": args.p,
               "bound": args.bound, "cap": args.cap, "n_max": args.n_max,
               "overflow": overflow, "rows": rows}
    _emit(args, payload, rows)
    return 0


# ---------------------------------------------------------------------------
# mullineux

def cmd_mullineux(args) -> int:
    lam = check_partition(_parse_ints(args.partition, "--partition"))
    if sum(lam) > TWIST_CELLS_MAX:
        raise ValueError(f"partition of {sum(lam)} cells is over the twist "
                         f"budget of {TWIST_CELLS_MAX} cells")
    img = mullineux(lam, args.p)
    back = mullineux(img, args.p)
    if back != tuple(lam):
        raise AssertionError("twist applied twice did not return the input")
    note = {0: "p = 0 acts by conjugation",
            2: "p = 2 acts as the identity"}.get(args.p, "good-cell twist")
    _emit(args, {"p": args.p, "partition": list(lam), "image": list(img),
                 "involution_check": "ok",
                 "m_p": max(lam[:1] + img[:1], default=0), "note": note})
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    checks = suite_checks(args.suite)
    bits = _bits(args)
    results = []
    counts = {"pass": 0, "fail": 0, "unknown": 0, "external-assumption": 0}
    for ch in checks:
        verdict, detail = ch.run(bits, args.scale)
        counts[verdict] += 1
        results.append({"id": ch.id, "claim": ch.claim,
                        "verdict": verdict, "detail": detail})
    code = 1 if counts["fail"] else 3 if counts["unknown"] else 0
    payload = {"suite": args.suite, "scale": args.scale, "prec_bits": bits,
               "checks": results, "summary": counts, "exit_code": code}
    _emit(args, payload, [{"suite": args.suite, **r} for r in results])
    return code


# ---------------------------------------------------------------------------
# Argument plumbing.

_FLAGS = {
    "--format": dict(choices=("json", "csv"), default="json"),
    "--prec": dict(type=int, default=PREC_DEFAULT,
                   help="working precision ceiling in bits "
                        f"(default {PREC_DEFAULT}, capped at {PREC_CEILING})"),
    "--cap": dict(type=int, default=CAP_DEFAULT,
                  help="largest saturated set, in weights with Weyl images "
                       "included, walked per highest weight "
                       f"(default {CAP_DEFAULT})"),
    "--scale": dict(choices=("desk", "extended"), default="desk",
                    help="desk keeps sweeps to spot sets; extended runs "
                         "them in full"),
}


def build_parser() -> argparse.ArgumentParser:
    """A shallow copy of the one parser tree built per process (parsing only
    reads the tree), so an attribute a caller sets does not reach the next."""
    return copy.copy(_parser_tree())


@cache
def _parser_tree() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repgrowth",
        description="certified counts of low-dimensional irreducible "
                    "representations")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *flags):
        # --format everywhere; each other flag only where it is read
        sp = sub.add_parser(name, help=summary)
        for flag in ("--format", *flags):
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(func=func)
        return sp

    p_bound = command("bound", cmd_bound,
                      "certified upper bound for the number of restricted "
                      "irreducibles of dimension at most n", "--prec")
    p_bound.add_argument("--family", required=True, choices=FAMILIES)
    p_bound.add_argument("--rank", type=int, required=True,
                         help=f"at most {BOUND_RANK_MAX}")
    p_bound.add_argument("--n", type=int, required=True,
                         help=f"at most 10^{N_DIGITS_MAX}")
    p_bound.add_argument("--p", type=int, required=True,
                         help=f"a prime below {PRIME_CEILING}")

    p_wit = command("witness", cmd_witness, "run a dominance witness engine")
    p_wit.add_argument("engine", choices=(*_SINGLE_ENGINES, "a5"))
    p_wit.add_argument("--rank", type=int, default=None,
                       help=f"at most {WITNESS_RANK_MAX}")
    p_wit.add_argument("--weight", required=True,
                       help="comma-separated coefficients")
    p_wit.add_argument("--m", type=int, default=None)

    p_enum = command("enumerate", cmd_enumerate,
                     "tabulate exact lower-bound counts against the "
                     "certified upper bound", "--prec", "--cap")
    p_enum.add_argument("--family", required=True, choices=FAMILIES)
    p_enum.add_argument("--rank", type=int, required=True)
    p_enum.add_argument("--p", type=int, required=True,
                        help=f"a prime below {PRIME_CEILING}; the box of "
                             "p^rank restricted weights walked holds at most "
                             f"{BOX_MAX['nlambda']} for nlambda and "
                             f"{BOX_MAX['premet']} for premet")
    p_enum.add_argument("--n-max", dest="n_max", type=int, required=True,
                        help=f"at most {ROWS_MAX} rows")
    p_enum.add_argument("--bound", choices=("nlambda", "premet"),
                        default="nlambda")

    p_ver = command("verify", cmd_verify, "run a verification suite",
                    "--prec", "--scale")
    p_ver.add_argument("--suite", required=True,
                       choices=(*SUITES, "all"))

    p_mul = command("mullineux", cmd_mullineux,
                    "apply the sign-twist involution")
    p_mul.add_argument("--p", type=int, required=True,
                       help=f"0 or a prime below {PRIME_CEILING}")
    p_mul.add_argument("--partition", required=True,
                       help="comma-separated parts, at most "
                            f"{TWIST_CELLS_MAX} cells in all")

    return parser


def _fail(kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": {"type": kind,
                                           "message": message}}) + "\n")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypothesisError as e:
        return _fail("hypothesis", str(e))
    except RootDataError as e:
        return _fail("input", str(e))
    except SaturationCapError as e:
        return _fail("cap", str(e))
    except ValueError as e:
        return _fail("input", str(e))


if __name__ == "__main__":
    raise SystemExit(main())
